// Package posleaf defines how a POS-tree leaf is committed: to a binary
// hash tree over its entries, so that a proof ships the entries that decide
// its answer and a hash path for the rest instead of the whole leaf.
//
//	digest := H(DomainPOSLeaf, level u8 (0) | count uvarint | root)
//	root   := the RFC 6962 tree hash of the entries: an entry hashes under
//	          DomainPOSEntry, two subtrees under DomainPOSInner, n > 1
//	          entries split after the largest power of two below n; the
//	          zero digest for no entries
//	entry  := klen uvarint | key | vlen uvarint | value
//	stored := level | count | k × group root [32]byte | entries
//	pruned := level | count | first uvarint | n uvarint | n entries | siblings
//
// k is ceil(count/groupSize): group g is the subtree over the entries at
// positions [g·groupSize, (g+1)·groupSize), the last group possibly fewer —
// in a tree split at powers of two every such aligned stretch is a node, so
// the stored table is one level of the tree, written down. That level is
// the one stored because it makes both sides cheap at 32 bytes per 8
// entries: an apply that overwrites an entry re-hashes that entry's group
// and the k−1 nodes above the table, taking every other group over with
// its root (Writer.Copy); a prune hashes only the entries that share a
// group with an end of its run. The leaf's digest — what its parent routes
// to and the address it is stored under — follows from the table alone.
//
// A pruned leaf is the run of n entries from position first and the roots
// of the maximal subtrees that hold none of them, in the order a
// depth-first, left-to-right walk of the tree meets them. count, first and
// n fix how many siblings there are and where each belongs; nothing in the
// form is redundant, so a verifier recomputes the root and the digest from
// exactly what it was given and compares the digest with the one it
// expected. Index nodes keep their whole-body hash; the digest's level byte
// is what lets them adopt this commitment.
//
// The package sits below both internal/cas, which addresses stored leaves
// with it and checks their groups where they are used, and
// internal/postree, which builds, prunes and verifies them: there is one
// definition of the layout, and Leaf.CheckGroups and Leaf.Verify are what
// decide whether bytes are bound to a leaf digest.
package posleaf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"

	"spitz/internal/hashutil"
)

// groupSize is the number of entries under one stored group root. Measured
// on the point-read-mem shape (137-byte entries, size-biased leaf of 63): it
// no longer sets what a read ships — one entry and about six siblings, 0.33
// KB of leaf — only what a leaf stores beside its entries (32 B per 8, +2.9
// %; 4 would store twice the digests, visible in resident memory and bytes
// flushed) and what an overwrite (8 entries and 7 nodes) and a prune (up to
// 7 entries) hash. See EXPERIMENTS.md "PR 16" and "PR 30".
const groupSize = 8

// maxCount bounds the entry count a leaf may claim, so that positions stay
// within an int on every platform. A pruned leaf's count is not bounded by
// its length — that is the point of pruning — and nothing is sized by it.
const maxCount = math.MaxInt32

// ErrMalformed means bytes do not parse as a leaf, or what is present does
// not fit the tree the leaf's count describes.
var ErrMalformed = errors.New("posleaf: malformed leaf")

func groupsOf(count int) int { return (count + groupSize - 1) / groupSize }

// Groups returns the groups [from, to) of a leaf that hold its entries at
// positions lo through hi: none when hi < lo.
func Groups(lo, hi int) (from, to int) {
	if hi < lo {
		return 0, 0
	}
	return lo / groupSize, hi/groupSize + 1
}

// split is where a subtree over n > 1 positions divides: after the largest
// power of two below n.
func split(n int) int { return 1 << (bits.Len(uint(n-1)) - 1) }

// rootOf returns the tree hash over a packed list of digests, which stand
// for equal-sized aligned subtrees (entries, or groups).
func rootOf(ds []byte) hashutil.Digest {
	switch n := len(ds) / hashutil.DigestSize; n {
	case 0:
		return hashutil.Zero
	case 1:
		return hashutil.Digest(ds)
	default:
		k := split(n) * hashutil.DigestSize
		return hashutil.SumPair(hashutil.DomainPOSInner, rootOf(ds[:k]), rootOf(ds[k:]))
	}
}

// leafDigest binds a leaf's count to the root of its entries.
func leafDigest(count int, root hashutil.Digest) hashutil.Digest {
	var h hashutil.Hasher
	var tmp [1 + binary.MaxVarintLen64 + hashutil.DigestSize]byte // tmp[0] is the level: 0
	return h.Sum(hashutil.DomainPOSLeaf, append(binary.AppendUvarint(tmp[:1], uint64(count)), root[:]...))
}

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

// Writer assembles the stored body of a leaf, hashing each entry as it is
// written and each group as it fills — or, for groups that another stored
// leaf already holds byte for byte, taking them over with their roots
// (Copy). The zero Writer is not usable; see NewWriter.
type Writer struct {
	buf    []byte
	count  int
	n      int // entries written
	slot   int // offset in buf of the open group's root
	hashed int // bytes hashed so far, the leaf's digest included
	h      hashutil.Hasher
	group  [groupSize * hashutil.DigestSize]byte // the open group's entry hashes
}

// NewWriter starts a leaf of count entries whose encoded entries will
// take entryBytes (the sum of their EntrySize; the body is allocated once,
// at its final size).
func NewWriter(count, entryBytes int) Writer {
	var tmp [1 + binary.MaxVarintLen64]byte // tmp[0] is the level: 0
	fixed := binary.AppendUvarint(tmp[:1], uint64(count))
	k := groupsOf(count)
	hdr := len(fixed) + k*hashutil.DigestSize
	buf := make([]byte, hdr, hdr+entryBytes)
	copy(buf, fixed)
	// What the store hashes to address the leaf: the nodes above the table
	// and the digest's own input.
	above := max(k-1, 0)*2*hashutil.DigestSize + len(fixed) + hashutil.DigestSize
	return Writer{buf: buf, count: count, slot: len(fixed), hashed: above}
}

// Entry appends the next entry.
func (w *Writer) Entry(key, value []byte) {
	start := len(w.buf)
	w.buf = AppendEntry(w.buf, key, value)
	e := w.h.Sum(hashutil.DomainPOSEntry, w.buf[start:])
	i := w.n % groupSize
	copy(w.group[i*hashutil.DigestSize:], e[:])
	w.n++
	w.hashed += len(w.buf) - start
	if i == groupSize-1 || w.n == w.count {
		d := rootOf(w.group[:(i+1)*hashutil.DigestSize])
		w.slot += copy(w.buf[w.slot:], d[:])
		w.hashed += i * 2 * hashutil.DigestSize
	}
}

// Copy is for a caller that knows the next n entries of this leaf are
// entries pos … pos+n-1 of the stored leaf s, unchanged. It appends as
// many of them as it can take as whole groups — their bytes and their
// roots copied from s, nothing framed and nothing hashed — and returns
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
	w.slot += copy(w.buf[w.slot:], s.leaf.digests[first*hashutil.DigestSize:end*hashutil.DigestSize])
	w.n += take
	return take
}

// Hashed returns how many bytes committing to the leaf cost to hash so
// far: the entries written one by one, the nodes of their groups, and what
// addressing the finished leaf hashes — the nodes above the table and the
// digest's input. Copied groups cost nothing.
func (w *Writer) Hashed() int { return w.hashed }

// Body returns the finished body. It panics if fewer or more entries
// were written than NewWriter was told: the table is already sized for
// the count.
func (w *Writer) Body() []byte {
	if w.n != w.count {
		panic("posleaf: Writer given a different number of entries than it was sized for")
	}
	return w.buf
}

// Leaf is a parsed leaf body: its count and a contiguous run of its
// entries — all of them for a stored leaf, the ones a proof needs for a
// pruned one.
type Leaf struct {
	Count   int    // entries in the whole leaf
	First   int    // position in the leaf of the first entry present
	N       int    // entries present
	Entries []byte // their encoding
	// digests is the stored leaf's table of group roots, or the pruned
	// leaf's siblings in the order Verify consumes them.
	digests []byte
	pruned  bool
}

// Parse splits a stored leaf body. Nothing is hashed and the entries are
// not walked: use Verify on bytes from an untrusted source. count, and with
// it the table, is bounded against the bytes present before anything is
// sized by it: the table alone costs more than two bytes per entry, and so
// does an entry.
func Parse(body []byte) (Leaf, error) {
	count, rest, err := parseCount(body)
	if err != nil || count > len(body)/2 {
		return Leaf{}, ErrMalformed
	}
	table := groupsOf(count) * hashutil.DigestSize
	if table > len(rest) {
		return Leaf{}, ErrMalformed
	}
	return Leaf{Count: count, N: count, Entries: rest[table:], digests: rest[:table]}, nil
}

// ParsePruned splits the pruned form every proof carries its leaves in:
// the run must lie inside the leaf and hold an entry unless the leaf has
// none, each of its n entries must be framed — n is bounded by the bytes
// present, two at least per entry — and what follows must be whole digests.
// Whether there are as many as the tree calls for is Verify's to say.
func ParsePruned(body []byte) (Leaf, error) {
	count, rest, err := parseCount(body)
	if err != nil {
		return Leaf{}, err
	}
	first, k := binary.Uvarint(rest)
	if k <= 0 {
		return Leaf{}, ErrMalformed
	}
	rest = rest[k:]
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return Leaf{}, ErrMalformed
	}
	rest = rest[k:]
	if n > uint64(len(rest))/2 || n > uint64(count) || first > uint64(count)-n || (n == 0 && count != 0) {
		return Leaf{}, ErrMalformed
	}
	l := Leaf{Count: count, First: int(first), N: int(n), pruned: true}
	run := rest
	for i := 0; i < l.N; i++ {
		if _, _, rest, err = ReadEntry(rest); err != nil {
			return Leaf{}, err
		}
	}
	if len(rest)%hashutil.DigestSize != 0 {
		return Leaf{}, ErrMalformed
	}
	l.Entries, l.digests = run[:len(run)-len(rest)], rest
	return l, nil
}

// parseCount reads the level, which must be a leaf's, and the count.
func parseCount(body []byte) (int, []byte, error) {
	if len(body) < 2 || body[0] != 0 {
		return 0, nil, ErrMalformed
	}
	cnt, n := binary.Uvarint(body[1:])
	if n <= 0 || cnt > maxCount {
		return 0, nil, ErrMalformed
	}
	return int(cnt), body[1+n:], nil
}

// Source is a stored leaf whose groups a Writer can take over (Copy).
type Source struct {
	leaf Leaf
	ends []int // ends[g]: offset in leaf.Entries one past group g
}

// Source locates the groups of a stored leaf, walking its entries once.
// It returns nil — nothing to copy from — for a pruned leaf and for bytes
// that do not walk as the entries the count says.
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
// decoded into a slice and nothing is hashed. pos is that entry's position
// — the leaf's count when every key is below key — and k and v, which
// alias body, its key and value (nil at the count). Over bytes from a
// store the caller checks the groups of entries pos-1 and pos (pos for a
// hit): two genuine neighbours in a sorted leaf place the key, whatever
// else it holds.
func Find(body, key []byte) (pos int, k, v []byte, err error) {
	l, err := Parse(body)
	if err != nil {
		return 0, nil, nil, err
	}
	rest := l.Entries
	for ; pos < l.Count; pos++ {
		if k, v, rest, err = ReadEntry(rest); err != nil {
			return 0, nil, nil, err
		}
		if bytes.Compare(k, key) >= 0 {
			return pos, k, v, nil
		}
	}
	return pos, nil, nil, nil
}

// Digest returns the digest a stored leaf's table commits it to, checking
// nothing: the address the leaf is stored under. A pruned leaf's digest is
// known only by recomputing it: for one, Digest is Verify, zero on an error.
func (l Leaf) Digest() hashutil.Digest {
	if l.pruned {
		d, _ := l.Verify()
		return d
	}
	return leafDigest(l.Count, rootOf(l.digests))
}

// CheckGroups checks groups [from, to) of a stored leaf (to cut to its
// groups): each group's entries must hash to its root in the table, and the
// last group must end the body. Entries before from are walked, not hashed.
// With Digest binding the table, a reader that checks the groups it uses
// holds what the digest addresses in every byte it uses.
func (l Leaf) CheckGroups(from, to int) error {
	k := groupsOf(l.Count)
	to = min(to, k)
	if l.pruned || from < 0 {
		return ErrMalformed
	}
	var h hashutil.Hasher
	var group [groupSize * hashutil.DigestSize]byte
	rest := l.Entries
	for g := 0; g < to; g++ {
		n := min(groupSize, l.Count-g*groupSize)
		for i := 0; i < n; i++ {
			start := rest
			var err error
			if _, _, rest, err = ReadEntry(start); err != nil {
				return err
			}
			if g >= from {
				e := h.Sum(hashutil.DomainPOSEntry, start[:len(start)-len(rest)])
				copy(group[i*hashutil.DigestSize:], e[:])
			}
		}
		if g >= from && rootOf(group[:n*hashutil.DigestSize]) != hashutil.Digest(l.digests[g*hashutil.DigestSize:]) {
			return ErrMalformed
		}
	}
	if to == k && len(rest) != 0 {
		return ErrMalformed
	}
	return nil
}

// Verify recomputes the leaf's digest from what is present and returns it;
// the caller compares it with the digest it expected, and after that every
// byte that was parsed is bound to that digest. For a stored leaf every
// entry must be there, each group hashing to its root in the table, no byte
// left over: every group checks. For a pruned leaf the root is rebuilt from
// the run's entries and the siblings, each consumed where the walk of the
// tree that count describes meets a subtree outside the run: one sibling
// too few or too many, or an entry, is an error, and anything else that is
// not the leaf's own — an entry, a sibling, count, first — gives another
// digest. A stored leaf restored from a snapshot stream and the pruned
// leaves of point, batch and range proofs all pass through it.
func (l Leaf) Verify() (hashutil.Digest, error) {
	if !l.pruned {
		if err := l.CheckGroups(0, groupsOf(l.Count)); err != nil {
			return hashutil.Digest{}, err
		}
		return l.Digest(), nil
	}
	w := walk{first: l.First, end: l.First + l.N, entries: l.Entries, digests: l.digests}
	var root hashutil.Digest
	if l.Count > 0 {
		root = w.root(0, l.Count)
	}
	if w.bad || len(w.entries) != 0 || len(w.digests) != 0 {
		return hashutil.Digest{}, ErrMalformed
	}
	return leafDigest(l.Count, root), nil
}

// walk is one pass over a leaf's hash tree with the run [first, end) of its
// entries in hand: entries and digests are consumed from the front as the
// pass meets them.
type walk struct {
	h          hashutil.Hasher
	first, end int
	entries    []byte
	digests    []byte
	bad        bool
}

// entry hashes the next entry.
func (w *walk) entry() hashutil.Digest {
	start := w.entries
	var err error
	if _, _, w.entries, err = ReadEntry(start); err != nil {
		w.bad = true
		return hashutil.Digest{}
	}
	return w.h.Sum(hashutil.DomainPOSEntry, start[:len(start)-len(w.entries)])
}

// digest takes the next digest.
func (w *walk) digest() (d hashutil.Digest) {
	if len(w.digests) < hashutil.DigestSize {
		w.bad = true
		return d
	}
	d, w.digests = hashutil.Digest(w.digests), w.digests[hashutil.DigestSize:]
	return d
}

// root returns the root of the subtree over positions [lo, hi) of a pruned
// leaf: a sibling where it holds nothing of the run.
func (w *walk) root(lo, hi int) hashutil.Digest {
	switch {
	case w.bad:
		return hashutil.Digest{}
	case hi <= w.first || w.end <= lo:
		return w.digest()
	case hi-lo == 1:
		return w.entry()
	}
	mid := lo + split(hi-lo)
	left := w.root(lo, mid)
	return hashutil.SumPair(hashutil.DomainPOSInner, left, w.root(mid, hi))
}

// Prune returns the pruned form of a stored leaf body that keeps the
// entries at positions lo through hi. The run is sliced out of body and
// the siblings above group level are built from the table; what is hashed
// is the entries that share a group with an end of the run and are not in
// it — seven for a point read, none where the run ends at group edges. The
// entries are walked only as far as that takes: a leaf kept whole (the
// interior of a range) is not walked at all. Over bytes from a store, the
// caller checks the groups of entries lo through hi first.
func Prune(body []byte, lo, hi int) ([]byte, error) {
	l, err := Parse(body)
	if err != nil || lo < 0 || hi < lo || hi >= l.Count {
		return nil, ErrMalformed
	}
	p := pruner{count: l.Count, first: lo, end: hi + 1, table: l.digests}
	p.groupLo = lo - lo%groupSize
	groupEnd := min(p.groupLo+groupSize*((hi-p.groupLo)/groupSize+1), l.Count)
	rest := l.Entries
	from, to := 0, len(l.Entries)
	for pos := 0; ; pos++ {
		off := len(l.Entries) - len(rest)
		if pos == lo {
			from = off
			if p.end == l.Count {
				break // the run takes the rest of the leaf
			}
		}
		if pos == p.end {
			to = off
		}
		if pos == groupEnd {
			break
		}
		if _, _, rest, err = ReadEntry(rest); err != nil {
			return nil, err
		}
		if side := p.side(pos); side != nil {
			e := p.h.Sum(hashutil.DomainPOSEntry, l.Entries[off:len(l.Entries)-len(rest)])
			copy(side, e[:])
		}
	}
	// A run has two siblings a level at most.
	out := make([]byte, 0, 1+3*binary.MaxVarintLen32+to-from+2*bits.Len(uint(l.Count))*hashutil.DigestSize)
	out = append(out, body[:len(body)-len(l.digests)-len(l.Entries)]...)
	out = binary.AppendUvarint(out, uint64(lo))
	out = binary.AppendUvarint(out, uint64(p.end-lo))
	p.out = append(out, l.Entries[from:to]...)
	p.siblings(0, l.Count)
	return p.out, nil
}

// pruner builds the siblings of the run [first, end) of a stored leaf.
type pruner struct {
	h                 hashutil.Hasher
	count, first, end int
	groupLo           int    // position of the first entry of first's group
	table             []byte // the stored group roots
	// The hashes of the entries outside the run that share a group with
	// its first entry (before) and with its last (after).
	before, after [(groupSize - 1) * hashutil.DigestSize]byte
	out           []byte
}

// side returns where the hash of the entry at pos is kept, nil for an
// entry of the run or of a group the run does not reach into.
func (p *pruner) side(pos int) []byte {
	switch {
	case p.groupLo <= pos && pos < p.first:
		return p.before[(pos-p.groupLo)*hashutil.DigestSize:][:hashutil.DigestSize]
	case p.end <= pos && pos-p.end < groupSize-1:
		return p.after[(pos-p.end)*hashutil.DigestSize:][:hashutil.DigestSize]
	}
	return nil
}

// siblings appends the siblings under the subtree over [lo, hi), in the
// order walk.root consumes them.
func (p *pruner) siblings(lo, hi int) {
	switch {
	case hi <= p.first || p.end <= lo:
		d := p.outside(lo, hi)
		p.out = append(p.out, d[:]...)
	case p.first <= lo && hi <= p.end: // all in the run: nothing beside it
	default:
		mid := lo + split(hi-lo)
		p.siblings(lo, mid)
		p.siblings(mid, hi)
	}
}

// outside returns the root of a subtree that holds nothing of the run:
// from the table when it is made of whole groups, else from the entries
// hashed beside the run's ends.
func (p *pruner) outside(lo, hi int) hashutil.Digest {
	const size = hashutil.DigestSize
	switch {
	case lo%groupSize == 0 && (hi-lo >= groupSize || hi == p.count):
		return rootOf(p.table[lo/groupSize*size : groupsOf(hi)*size])
	case hi <= p.first:
		return rootOf(p.before[(lo-p.groupLo)*size : (hi-p.groupLo)*size])
	default:
		return rootOf(p.after[(lo-p.end)*size : (hi-p.end)*size])
	}
}
