package mbt

import (
	"bytes"
	"errors"
	"math/bits"
	"sort"

	"spitz/internal/hashutil"
)

// ErrProofInvalid is returned when a proof fails verification.
var ErrProofInvalid = errors.New("mbt: proof verification failed")

// Proof proves presence or absence of Key under an MBT root. It carries
// the full bucket body (which also proves absence) and the sibling digests
// up the interior spine.
type Proof struct {
	Key      []byte
	Value    []byte
	Found    bool
	Buckets  int
	Bucket   []byte            // serialized bucket body
	Siblings []hashutil.Digest // bottom-up sibling digests
}

// ProveGet returns the value under key together with a proof.
func (t *Tree) ProveGet(key []byte) (Proof, error) {
	i := t.bucketIndex(key)
	digests, bodies, err := t.pathTo(i)
	if err != nil {
		return Proof{}, err
	}
	bucketBody, err := t.store.Get(digests[len(digests)-1])
	if err != nil {
		return Proof{}, err
	}
	p := Proof{Key: key, Buckets: t.buckets, Bucket: bucketBody}
	entries, err := decodeBucket(bucketBody)
	if err != nil {
		return Proof{}, err
	}
	j := sort.Search(len(entries), func(j int) bool {
		return bytes.Compare(entries[j].key, key) >= 0
	})
	if j < len(entries) && bytes.Equal(entries[j].key, key) {
		p.Found, p.Value = true, entries[j].value
	}
	// Collect bottom-up siblings from the stored interior bodies.
	depth := len(bodies)
	for lvl := 0; lvl < depth; lvl++ {
		body := bodies[depth-1-lvl]
		var sib hashutil.Digest
		if i&(1<<lvl) == 0 {
			copy(sib[:], body[hashutil.DigestSize:])
		} else {
			copy(sib[:], body[:hashutil.DigestSize])
		}
		p.Siblings = append(p.Siblings, sib)
	}
	return p, nil
}

// Verify checks the proof against a trusted root digest.
func (p Proof) Verify(root hashutil.Digest) error {
	if p.Buckets < 2 || p.Buckets&(p.Buckets-1) != 0 {
		return ErrProofInvalid
	}
	depth := bits.TrailingZeros(uint(p.Buckets))
	if len(p.Siblings) != depth {
		return ErrProofInvalid
	}
	entries, err := decodeBucket(p.Bucket)
	if err != nil {
		return ErrProofInvalid
	}
	// The claimed value must match the bucket body.
	j := sort.Search(len(entries), func(j int) bool {
		return bytes.Compare(entries[j].key, p.Key) >= 0
	})
	found := j < len(entries) && bytes.Equal(entries[j].key, p.Key)
	if found != p.Found {
		return ErrProofInvalid
	}
	if found && !bytes.Equal(entries[j].value, p.Value) {
		return ErrProofInvalid
	}
	// Recompute the spine; the bucket index is derived from the key, so a
	// relocated bucket cannot verify.
	h := hashutil.Sum(hashutil.DomainMBTBucket, p.Key)
	i := int(bigEndian32(h)) & (p.Buckets - 1)
	d := hashutil.Sum(hashutil.DomainMBTBucket, p.Bucket)
	for lvl := 0; lvl < depth; lvl++ {
		var pair [2 * hashutil.DigestSize]byte
		if i&(1<<lvl) == 0 {
			copy(pair[:hashutil.DigestSize], d[:])
			copy(pair[hashutil.DigestSize:], p.Siblings[lvl][:])
		} else {
			copy(pair[:hashutil.DigestSize], p.Siblings[lvl][:])
			copy(pair[hashutil.DigestSize:], d[:])
		}
		d = hashutil.Sum(hashutil.DomainMBTInner, pair[:])
	}
	if d != root {
		return ErrProofInvalid
	}
	return nil
}

func bigEndian32(d hashutil.Digest) uint32 {
	return uint32(d[0])<<24 | uint32(d[1])<<16 | uint32(d[2])<<8 | uint32(d[3])
}
