// Package posleaf defines how a POS-tree leaf is committed: in fixed
// positional groups of entries, so that a proof ships the groups that
// decide its answer instead of the whole leaf.
//
//	stored := header | entries
//	header := level u8 (0) | count uvarint | k × group digest [32]byte
//	entry  := klen uvarint | key | vlen uvarint | value
//	pruned := header | first uvarint | entries of groups first, first+1, …
//
// k is ceil(count/groupSize); group g holds the entries at positions
// [g·groupSize, (g+1)·groupSize), the last group possibly fewer. A group
// digest is the hash of that group's entry bytes under DomainPOSGroup;
// the leaf's digest — what its parent routes to and the address it is
// stored under — is the hash of the header alone under DomainPOSLeaf.
// Every byte of a leaf is therefore bound to its digest either directly
// (the header) or through one slot of the header (a group), and a
// verifier given the header and some groups can check exactly what it was
// given. A stored leaf is the case where every group is present.
//
// The package sits below both internal/cas, which addresses and re-checks
// stored leaves with it, and internal/postree, which builds, prunes and
// verifies them: there is one definition of the layout and one function,
// Leaf.Verify, that decides whether bytes are bound to a leaf digest.
package posleaf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"

	"spitz/internal/hashutil"
)

// groupSize is the number of entries committed under one group digest.
// Measured on the point-read-mem shape (137-byte entries, size-biased
// leaf of 63): 8 ships ~1.4 KB of leaf per read and stores 32 B per 8
// entries (+2.9 %); 4 ships ~1.1 KB but stores twice the digests (+5.8 %,
// visible in resident memory and bytes flushed) and hashes more blocks on
// the write path. See EXPERIMENTS.md "PR 16".
const groupSize = 8

// ErrMalformed means bytes do not parse as a leaf, or a group does not
// hash to its slot in the header.
var ErrMalformed = errors.New("posleaf: malformed leaf")

func groupsOf(count int) int { return (count + groupSize - 1) / groupSize }

// AppendEntry appends one entry in the framing leaves and index nodes
// share.
func AppendEntry(dst, key, value []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	return append(dst, value...)
}

// EntrySize is the number of bytes AppendEntry appends for key and value.
func EntrySize(key, value []byte) int {
	return UvarintLen(len(key)) + len(key) + UvarintLen(len(value)) + len(value)
}

// UvarintLen is the number of bytes the uvarint of n takes: what precedes
// a key or a value of length n in an entry, or a node's entries as their
// count.
func UvarintLen(n int) int { return (bits.Len(uint(n)|1) + 6) / 7 }

// ReadEntry splits the first entry off src. The returned slices alias
// src.
func ReadEntry(src []byte) (key, value, rest []byte, err error) {
	kl, n := binary.Uvarint(src)
	if n <= 0 || uint64(len(src)-n) < kl {
		return nil, nil, nil, ErrMalformed
	}
	key, src = src[n:n+int(kl)], src[n+int(kl):]
	vl, n := binary.Uvarint(src)
	if n <= 0 || uint64(len(src)-n) < vl {
		return nil, nil, nil, ErrMalformed
	}
	return key, src[n : n+int(vl)], src[n+int(vl):], nil
}

// Writer assembles the stored body of a leaf, hashing each group as it
// fills — or, for groups that another stored leaf already holds byte for
// byte, taking them over with their digests (Copy). The zero Writer is not
// usable; see NewWriter.
type Writer struct {
	buf        []byte
	count      int
	n          int // entries written
	groupStart int // offset in buf of the open group's first entry
	slot       int // offset in buf of the open group's digest
	hashed     int // bytes hashed so far, header included
}

// NewWriter starts a leaf of count entries whose encoded entries will
// take entryBytes (the sum of their EntrySize; the body is allocated once,
// at its final size).
func NewWriter(count, entryBytes int) Writer {
	var tmp [1 + binary.MaxVarintLen64]byte // tmp[0] is the level: 0
	fixed := binary.AppendUvarint(tmp[:1], uint64(count))
	hdr := len(fixed) + groupsOf(count)*hashutil.DigestSize
	buf := make([]byte, hdr, hdr+entryBytes)
	copy(buf, fixed)
	return Writer{buf: buf, count: count, groupStart: hdr, slot: len(fixed), hashed: hdr}
}

// Entry appends the next entry.
func (w *Writer) Entry(key, value []byte) {
	w.buf = AppendEntry(w.buf, key, value)
	w.n++
	if w.n%groupSize == 0 || w.n == w.count {
		d := hashutil.Sum(hashutil.DomainPOSGroup, w.buf[w.groupStart:])
		copy(w.buf[w.slot:], d[:])
		w.slot += hashutil.DigestSize
		w.hashed += len(w.buf) - w.groupStart
		w.groupStart = len(w.buf)
	}
}

// Copy is for a caller that knows the next n entries of this leaf are
// entries pos … pos+n-1 of the stored leaf s, unchanged. It appends as
// many of them as it can take as whole groups — their bytes and their
// digests copied from s, nothing framed and nothing hashed — and returns
// how many that was; the caller writes the rest with Entry. A group can be
// taken only where both leaves cut it the same way: this leaf and pos at a
// group edge, and the group either full or the short last one of both
// leaves. So an overwrite that keeps a leaf's entry count re-hashes one
// group, and an insert the groups from its position on.
func (w *Writer) Copy(s *Source, pos, n int) int {
	if s == nil || w.n%groupSize != 0 || pos%groupSize != 0 || pos+n > s.leaf.Count || w.n+n > w.count {
		return 0
	}
	take := n - n%groupSize
	if take != n && pos+n == s.leaf.Count && w.n+n == w.count {
		take = n
	}
	if take == 0 {
		return 0
	}
	first, end := pos/groupSize, groupsOf(pos+take)
	from := 0
	if first > 0 {
		from = s.ends[first-1]
	}
	w.buf = append(w.buf, s.leaf.Entries[from:s.ends[end-1]]...)
	w.slot += copy(w.buf[w.slot:], s.leaf.slots()[first*hashutil.DigestSize:end*hashutil.DigestSize])
	w.n += take
	w.groupStart = len(w.buf)
	return take
}

// Hashed returns how many bytes committing to the leaf cost to hash so
// far: the header, which is hashed for the leaf's digest, and the groups
// written entry by entry. Copied groups cost nothing.
func (w *Writer) Hashed() int { return w.hashed }

// Body returns the finished body. It panics if fewer or more entries
// were written than NewWriter was told: the header already commits to the
// count.
func (w *Writer) Body() []byte {
	if w.n != w.count {
		panic("posleaf: Writer given a different number of entries than it was sized for")
	}
	return w.buf
}

// Leaf is a parsed leaf body: its header and a contiguous run of its
// groups — all of them for a stored leaf, the ones a proof needs for a
// pruned one.
type Leaf struct {
	Count   int    // entries in the whole leaf
	First   int    // position in the leaf of the first entry present
	Entries []byte // the encoded entries of the groups present
	header  []byte
	pruned  bool
}

// Parse splits a stored leaf body. Nothing is hashed and the entries are
// not walked: use Verify on bytes from an untrusted source.
func Parse(body []byte) (Leaf, error) {
	l, rest, err := parseHeader(body)
	l.Entries = rest
	return l, err
}

// ParsePruned splits the pruned form every proof carries its leaves in.
func ParsePruned(body []byte) (Leaf, error) {
	l, rest, err := parseHeader(body)
	if err != nil {
		return Leaf{}, err
	}
	// The first group present must be one the leaf has (an empty leaf has
	// none and starts at 0).
	first, n := binary.Uvarint(rest)
	if n <= 0 || first >= uint64(max(groupsOf(l.Count), 1)) {
		return Leaf{}, ErrMalformed
	}
	l.First, l.Entries, l.pruned = int(first)*groupSize, rest[n:], true
	return l, nil
}

// parseHeader bounds count, and with it the digest table, against the
// bytes present before anything is sized by them: the table alone costs
// more than two bytes per entry, and so does an entry.
func parseHeader(body []byte) (Leaf, []byte, error) {
	if len(body) < 2 || body[0] != 0 {
		return Leaf{}, nil, ErrMalformed
	}
	cnt, n := binary.Uvarint(body[1:])
	if n <= 0 || cnt > uint64(len(body))/2 {
		return Leaf{}, nil, ErrMalformed
	}
	hdr := 1 + n + groupsOf(int(cnt))*hashutil.DigestSize
	if hdr > len(body) {
		return Leaf{}, nil, ErrMalformed
	}
	return Leaf{Count: int(cnt), header: body[:hdr]}, body[hdr:], nil
}

// slots returns the header's table of group digests.
func (l Leaf) slots() []byte {
	return l.header[len(l.header)-groupsOf(l.Count)*hashutil.DigestSize:]
}

// Source is a stored leaf whose groups a Writer can take over (Copy).
type Source struct {
	leaf Leaf
	ends []int // ends[g]: offset in leaf.Entries one past group g
}

// Source locates the groups of a stored leaf, walking its entries once.
// It returns nil — nothing to copy from — for a pruned leaf and for bytes
// that do not walk as the entries the header counts.
func (l Leaf) Source() *Source {
	if l.pruned {
		return nil
	}
	ends := make([]int, 0, groupsOf(l.Count))
	rest := l.Entries
	for pos := 1; pos <= l.Count; pos++ {
		var err error
		if _, _, rest, err = ReadEntry(rest); err != nil {
			return nil
		}
		if pos%groupSize == 0 || pos == l.Count {
			ends = append(ends, len(l.Entries)-len(rest))
		}
	}
	if len(rest) != 0 {
		return nil
	}
	return &Source{leaf: l, ends: ends}
}

// Find searches a stored leaf body for key where it lies: the entries are
// walked in order up to the first whose key is not below key, nothing is
// decoded into a slice and nothing is hashed. The value aliases body.
func Find(body, key []byte) (value []byte, found bool, err error) {
	l, err := Parse(body)
	if err != nil {
		return nil, false, err
	}
	rest := l.Entries
	for i := 0; i < l.Count; i++ {
		var k, v []byte
		if k, v, rest, err = ReadEntry(rest); err != nil {
			return nil, false, err
		}
		if c := bytes.Compare(k, key); c == 0 {
			return v, true, nil
		} else if c > 0 {
			break
		}
	}
	return nil, false, nil
}

// Digest returns the leaf's digest: the hash of its header.
func (l Leaf) Digest() hashutil.Digest {
	return hashutil.Sum(hashutil.DomainPOSLeaf, l.header)
}

// Verify checks that the groups present are the ones the header commits
// to — each a whole group, in order from First, hashing to its slot, no
// byte left over, and for a stored leaf none missing — and returns the
// leaf's digest and how many entries are present. After it, every byte
// that was parsed is bound to that digest; the caller compares it with
// the digest it expected. This is the only place leaf bytes are checked:
// a stored leaf re-read from disk or from a snapshot stream, with every
// group present, and the pruned leaves of point, batch and range proofs
// all pass through it.
func (l Leaf) Verify() (d hashutil.Digest, present int, err error) {
	slots := l.slots()
	pos, rest := l.First, l.Entries
	for len(rest) > 0 {
		if pos >= l.Count {
			return d, 0, ErrMalformed // more entries than the header counts
		}
		slot := slots[pos/groupSize*hashutil.DigestSize:][:hashutil.DigestSize]
		group := rest
		for end := min(pos+groupSize, l.Count); pos < end; pos++ {
			if _, _, rest, err = ReadEntry(rest); err != nil {
				return d, 0, err
			}
		}
		group = group[:len(group)-len(rest)]
		if hashutil.Sum(hashutil.DomainPOSGroup, group) != hashutil.Digest(slot) {
			return d, 0, ErrMalformed
		}
	}
	if !l.pruned && pos != l.Count {
		return d, 0, ErrMalformed // a stored leaf holds every group
	}
	return l.Digest(), pos - l.First, nil
}

// Prune returns the pruned form of a stored leaf body that keeps the
// groups holding the entries at positions lo through hi. Nothing is
// hashed: the header is copied and the groups are sliced out of body.
// Entries are walked only to find where the kept run starts and, unless
// it runs to the leaf's end, where it stops — a leaf kept whole (the
// interior of a range) is not walked at all.
func Prune(body []byte, lo, hi int) ([]byte, error) {
	l, err := Parse(body)
	if err != nil || lo < 0 || hi < lo || hi >= l.Count {
		return nil, ErrMalformed
	}
	first := lo / groupSize
	from, to := first*groupSize, min((hi/groupSize+1)*groupSize, l.Count)
	rest := l.Entries
	start := 0
	for pos := 0; pos < to; pos++ {
		if pos == from {
			start = len(l.Entries) - len(rest)
			if to == l.Count {
				rest = nil
				break
			}
		}
		if _, _, rest, err = ReadEntry(rest); err != nil {
			return nil, err
		}
	}
	groups := l.Entries[start : len(l.Entries)-len(rest)]
	out := make([]byte, 0, len(l.header)+1+len(groups))
	out = append(out, l.header...)
	out = binary.AppendUvarint(out, uint64(first))
	return append(out, groups...), nil
}
