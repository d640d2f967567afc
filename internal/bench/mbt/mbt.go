// Package mbt implements a Merkle Bucket Tree, the authenticated data
// structure used by Hyperledger Fabric's state database and the second
// SIRI instance from the paper's reference [59].
//
// Keys hash to one of a fixed number of buckets; each bucket holds its
// entries sorted by key and is committed by a bucket hash; a binary Merkle
// tree over the bucket hashes produces the root digest. Updates rewrite one
// bucket plus the log2(buckets) interior nodes above it, all copy-on-write
// in a content-addressed store. Because bucket assignment and in-bucket
// order depend only on the key set, MBT is history independent like the
// other SIRI members — but it cannot serve range queries (buckets are
// hash-ordered), which is one reason the paper prefers the POS-tree.
package mbt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
)

// Tree is an immutable MBT snapshot. Obtain one from New or Load.
type Tree struct {
	store   cas.Store
	buckets int
	root    hashutil.Digest // digest of the top interior node
	count   int
}

// New returns an empty tree with the given bucket count (rounded up to a
// power of two; minimum 2, default 1024 when n <= 0).
func New(store cas.Store, n int) *Tree {
	if n <= 0 {
		n = 1024
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	if n < 2 {
		n = 2
	}
	t := &Tree{store: store, buckets: n}
	t.root = t.buildEmpty()
	return t
}

// Load reopens a tree from its root digest; the caller supplies the bucket
// count and entry count (they are recorded by the ledger that owns the
// tree).
func Load(store cas.Store, root hashutil.Digest, buckets, count int) *Tree {
	return &Tree{store: store, buckets: buckets, root: root, count: count}
}

// Root returns the root digest.
func (t *Tree) Root() hashutil.Digest { return t.root }

// Count returns the number of entries.
func (t *Tree) Count() int { return t.count }

// Buckets returns the bucket count.
func (t *Tree) Buckets() int { return t.buckets }

// entry is a key/value pair inside a bucket.
type entry struct {
	key, value []byte
}

func encodeBucket(entries []entry) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(len(e.key)))
		buf = append(buf, e.key...)
		buf = binary.AppendUvarint(buf, uint64(len(e.value)))
		buf = append(buf, e.value...)
	}
	return buf
}

func decodeBucket(data []byte) ([]entry, error) {
	cnt, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, errors.New("mbt: bad bucket count")
	}
	rest := data[k:]
	out := make([]entry, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		kl, k1 := binary.Uvarint(rest)
		if k1 <= 0 || uint64(len(rest)-k1) < kl {
			return nil, errors.New("mbt: bad key")
		}
		key := rest[k1 : k1+int(kl)]
		rest = rest[k1+int(kl):]
		vl, k2 := binary.Uvarint(rest)
		if k2 <= 0 || uint64(len(rest)-k2) < vl {
			return nil, errors.New("mbt: bad value")
		}
		out = append(out, entry{key: key, value: rest[k2 : k2+int(vl)]})
		rest = rest[k2+int(vl):]
	}
	if len(rest) != 0 {
		return nil, errors.New("mbt: trailing bucket bytes")
	}
	return out, nil
}

// bucketIndex assigns a key to a bucket; it depends only on the key.
func (t *Tree) bucketIndex(key []byte) int {
	h := hashutil.Sum(hashutil.DomainMBTBucket, key)
	return int(binary.BigEndian.Uint32(h[:4])) & (t.buckets - 1)
}

// buildEmpty materializes the empty tree (all buckets empty) and returns
// its root. Empty interior levels collapse to repeated hashes, so this
// costs O(log n) distinct objects thanks to deduplication.
func (t *Tree) buildEmpty() hashutil.Digest {
	level := t.store.Put(hashutil.DomainMBTBucket, encodeBucket(nil))
	n := t.buckets
	for n > 1 {
		var pair [2 * hashutil.DigestSize]byte
		copy(pair[:hashutil.DigestSize], level[:])
		copy(pair[hashutil.DigestSize:], level[:])
		level = t.store.Put(hashutil.DomainMBTInner, pair[:])
		n /= 2
	}
	return level
}

// pathTo returns the interior digests from root down to the bucket at
// index i, excluding the bucket itself, together with each node's body.
func (t *Tree) pathTo(i int) (digests []hashutil.Digest, bodies [][]byte, err error) {
	depth := bits.TrailingZeros(uint(t.buckets)) // log2(buckets)
	d := t.root
	for lvl := depth - 1; lvl >= 0; lvl-- {
		body, err := t.store.Get(d)
		if err != nil {
			return nil, nil, fmt.Errorf("mbt: path: %w", err)
		}
		digests = append(digests, d)
		bodies = append(bodies, body)
		if len(body) != 2*hashutil.DigestSize {
			return nil, nil, errors.New("mbt: malformed interior node")
		}
		var left, right hashutil.Digest
		copy(left[:], body[:hashutil.DigestSize])
		copy(right[:], body[hashutil.DigestSize:])
		if i&(1<<lvl) == 0 {
			d = left
		} else {
			d = right
		}
	}
	digests = append(digests, d) // the bucket digest
	return digests, bodies, nil
}

// Get returns the value for key, or (nil, false) if absent.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	entries, _, err := t.loadBucket(t.bucketIndex(key))
	if err != nil {
		return nil, false, err
	}
	j := sort.Search(len(entries), func(j int) bool {
		return bytes.Compare(entries[j].key, key) >= 0
	})
	if j < len(entries) && bytes.Equal(entries[j].key, key) {
		return entries[j].value, true, nil
	}
	return nil, false, nil
}

func (t *Tree) loadBucket(i int) ([]entry, []hashutil.Digest, error) {
	digests, _, err := t.pathTo(i)
	if err != nil {
		return nil, nil, err
	}
	body, err := t.store.Get(digests[len(digests)-1])
	if err != nil {
		return nil, nil, fmt.Errorf("mbt: bucket: %w", err)
	}
	entries, err := decodeBucket(body)
	return entries, digests, err
}

// Put returns a new tree with key set to value.
func (t *Tree) Put(key, value []byte) (*Tree, error) {
	return t.update(key, value, false)
}

// Delete returns a new tree without key (no-op when absent).
func (t *Tree) Delete(key []byte) (*Tree, error) {
	return t.update(key, nil, true)
}

func (t *Tree) update(key, value []byte, del bool) (*Tree, error) {
	i := t.bucketIndex(key)
	entries, _, err := t.loadBucket(i)
	if err != nil {
		return nil, err
	}
	j := sort.Search(len(entries), func(j int) bool {
		return bytes.Compare(entries[j].key, key) >= 0
	})
	present := j < len(entries) && bytes.Equal(entries[j].key, key)
	nc := t.count
	switch {
	case del && !present:
		return t, nil
	case del:
		entries = append(entries[:j:j], entries[j+1:]...)
		nc--
	case present:
		entries = append(append(entries[:j:j], entry{key, value}), entries[j+1:]...)
	default:
		entries = append(append(entries[:j:j], entry{key, value}), entries[j:]...)
		nc++
	}
	newBucket := t.store.Put(hashutil.DomainMBTBucket, encodeBucket(entries))
	root, err := t.rewritePath(i, newBucket)
	if err != nil {
		return nil, err
	}
	return &Tree{store: t.store, buckets: t.buckets, root: root, count: nc}, nil
}

// rewritePath replaces the bucket digest at index i and rebuilds the
// interior spine, returning the new root.
func (t *Tree) rewritePath(i int, newLeaf hashutil.Digest) (hashutil.Digest, error) {
	_, bodies, err := t.pathTo(i)
	if err != nil {
		return hashutil.Zero, err
	}
	d := newLeaf
	depth := len(bodies)
	for lvl := 0; lvl < depth; lvl++ {
		body := bodies[depth-1-lvl]
		var pair [2 * hashutil.DigestSize]byte
		copy(pair[:], body)
		if i&(1<<lvl) == 0 {
			copy(pair[:hashutil.DigestSize], d[:])
		} else {
			copy(pair[hashutil.DigestSize:], d[:])
		}
		d = t.store.Put(hashutil.DomainMBTInner, pair[:])
	}
	return d, nil
}

// Scan visits all entries in (bucket, key) order; fn returning false stops.
func (t *Tree) Scan(fn func(key, value []byte) bool) error {
	for i := 0; i < t.buckets; i++ {
		entries, _, err := t.loadBucket(i)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !fn(e.key, e.value) {
				return nil
			}
		}
	}
	return nil
}

// LiveBytes returns the total size of the distinct nodes (interior pairs
// and buckets) reachable from this snapshot's root.
func (t *Tree) LiveBytes() (int64, error) {
	seen := make(map[hashutil.Digest]bool)
	depth := bits.TrailingZeros(uint(t.buckets))
	var walk func(d hashutil.Digest, level int) (int64, error)
	walk = func(d hashutil.Digest, level int) (int64, error) {
		if seen[d] {
			return 0, nil
		}
		seen[d] = true
		body, err := t.store.Get(d)
		if err != nil {
			return 0, err
		}
		total := int64(len(body))
		if level == depth { // bucket
			return total, nil
		}
		var left, right hashutil.Digest
		copy(left[:], body[:hashutil.DigestSize])
		copy(right[:], body[hashutil.DigestSize:])
		for _, c := range []hashutil.Digest{left, right} {
			sub, err := walk(c, level+1)
			if err != nil {
				return 0, err
			}
			total += sub
		}
		return total, nil
	}
	return walk(t.root, 0)
}
