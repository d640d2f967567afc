package postree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"spitz/internal/proof"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
)

// Proof elision: a verifier that already holds verified index nodes where
// a read will walk tells the prover, which leaves their bodies out. The
// tests below pin the two halves of the soundness argument — a node that
// was left out is only ever taken from the verifier's own pinned nodes, by
// the digest the walk from the trusted root wants, and the leaf is always
// hashed fresh — and show, forgery by forgery, that a verifier which
// instead takes the prover's word is fooled. This file covers the point
// shape and the reference verifier; shapes_test.go the batch and range
// shapes, through the same reference.

// pin returns a fresh path holding nodes: what a verifier pins before it
// sends one request. A Path serves one verification.
func pin(nodes ...*Node) *Path {
	pa := NewPath(len(nodes))
	for _, n := range nodes {
		pa.Pin(n)
	}
	return pa
}

// shippedBy runs a cold verification and returns the index nodes it
// verified — the state of a verifier that has made that read once.
func shippedBy(t *testing.T, verify func(*Path) error) []*Node {
	t.Helper()
	got := new(Path)
	if err := verify(got); err != nil {
		t.Fatalf("warm-up proof: %v", err)
	}
	return got.Shipped
}

// warmNodes are the index nodes on key's search path.
func warmNodes(t *testing.T, tr *Tree, key []byte) []*Node {
	t.Helper()
	p, err := tr.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	return shippedBy(t, func(pa *Path) error { return p.VerifyPath(tr.Root(), pa) })
}

// warmPath pins them.
func warmPath(t *testing.T, tr *Tree, key []byte) *Path { return pin(warmNodes(t, tr, key)...) }

func held(pa *Path) HeldSet { return NewHeldSet(pa.Have()) }

// elideTree returns a tree tall enough to have at least two index levels
// and a key in it.
func elideTree(t *testing.T) (*Tree, []Entry, []byte) {
	t.Helper()
	entries := testEntries(40000, 91)
	tr := mustBulk(t, entries)
	key := entries[12345].Key
	p, err := tr.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) < 3 {
		t.Fatalf("tree of %d entries has height %d, want >= 3", len(entries), len(p.Nodes))
	}
	return tr, entries, key
}

// trust names what the blind verifier takes the prover's word for.
type trust int

const (
	// Nodes that were left out: when the node the walk wants is neither
	// shipped nor pinned, the next shipped body nobody has asked for yet
	// is taken in its place ("the ones in between were elided"), and when
	// none is left the prover's claim simply stands.
	trustElided trust = 1 << iota
	// A pruned leaf's bytes: its digest is not recomputed from the run and
	// the siblings and held against the pointer above it, and the run is
	// not held to the leaf's count — a leaf slot is the leaf the walk
	// wants, at the position and of the size it says.
	trustLeaf
	// The entries that were not shipped: a point absence stands without
	// both neighbours of the gap in hand, and a range leaf without the
	// entry (or leaf edge) on the far side of each end of its run.
	trustGap
	// Bodies the walk never asked for, a second copy of one it did
	// included: ignored.
	trustExtra
	// Patched slots: when the node the walk wants is neither shipped nor
	// pinned, the next patch nobody has asked for yet is taken in its
	// place — rebuilt from whatever node its base digest names, pinned for
	// this request or not, index node or leaf, held or shipped beside it,
	// with edits that do not fit the base passed over — without hashing
	// what it rebuilds to.
	trustPatch
)

// blind is the verifier this package must not be: the resolver and its
// walks with the checks named in skip left out. Every forgery table shows
// its forgery accepted by blind with exactly one check missing, and
// rejected by it with none missing — so the case really is caught by that
// check — before asserting that the real verifier rejects it.
type blind struct {
	t      *testing.T
	skip   trust
	bodies [][]byte
	used   []bool
	pinned []*Node
	known  []*Node // what the verifier's cache holds beside the pinned nodes
}

func newBlind(t *testing.T, bodies [][]byte, pinned []*Node, skip trust) *blind {
	return &blind{t: t, skip: skip, bodies: bodies, used: make([]bool, len(bodies)), pinned: pinned}
}

func (b *blind) open(i int) *node {
	b.used[i] = true
	body := b.bodies[i]
	if body[0] == 0 {
		return blindLeaf(b.t, body, b.skip)
	}
	if body[0] == proof.PatchMarker {
		return b.patched(i, false)
	}
	n, err := decodeNode(body)
	if err != nil {
		return nil
	}
	return n
}

// node resolves want. claim is true when nothing could be resolved and
// the prover's word is taken for the whole subtree.
func (b *blind) node(want hashutil.Digest) (n *node, claim bool) {
	for i, body := range b.bodies {
		if len(body) == 0 {
			continue
		}
		bound := hashutil.Sum(hashutil.DomainPOSIndex, body)
		if body[0] == 0 {
			p, ok := splitPruned(body)
			if !ok {
				continue
			}
			if bound, ok = p.digest(); !ok {
				continue
			}
		}
		if body[0] == proof.PatchMarker {
			n := b.patched(i, false)
			if n == nil {
				continue
			}
			bound = hashutil.Sum(hashutil.DomainPOSIndex, encodeNode(n))
		}
		if bound == want {
			return b.open(i), false
		}
	}
	for _, p := range b.pinned {
		if p.Digest() == want {
			return p.Node(), false
		}
	}
	for i, body := range b.bodies {
		if b.used[i] || len(body) == 0 {
			continue
		}
		if body[0] == proof.PatchMarker {
			if b.skip&trustPatch == 0 {
				return nil, false
			}
			b.used[i] = true
			return b.patched(i, true), false
		}
		if b.skip&trustElided != 0 || (body[0] == 0 && b.skip&trustLeaf != 0) {
			return b.open(i), false
		}
		return nil, false
	}
	return nil, b.skip&trustElided != 0
}

// patched rebuilds the node the patched slot i stands for; nil means
// rejected. Strictly, the base is an index node pinned for this request and
// every edit fits it. Leniently (trustPatch) the base is any node the slot's
// digest finds — pinned, otherwise held, or shipped in this proof, leaves
// included — and edits that do not fit are passed over.
func (b *blind) patched(i int, lenient bool) *node {
	slot := b.bodies[i]
	if len(slot) < 1+hashutil.DigestSize {
		return nil
	}
	var d hashutil.Digest
	copy(d[:], slot[1:])
	var base *node
	for _, p := range b.pinned {
		if p.Digest() == d && p.Node().Level > 0 {
			base = p.Node()
		}
	}
	if base == nil && lenient {
		for _, p := range b.known {
			if p.Digest() == d {
				base = p.Node()
			}
		}
		for j, body := range b.bodies {
			if base != nil || len(body) == 0 || body[0] == proof.PatchMarker {
				continue
			}
			if n, got, err := openNode(body); err == nil && got == d {
				base, b.used[j] = n, true
			}
		}
	}
	if base == nil {
		return nil
	}
	entries, ok := blindEdits(slot[1+hashutil.DigestSize:], base.Entries, lenient)
	if !ok {
		return nil
	}
	return &node{Level: base.Level, Entries: entries, First: base.First, Count: base.Count}
}

// blindEdits is the reference reading of a patch's edits, position by
// position of the base: the entries inserted before it, then the entry
// itself — as it is, with a new value, or not at all. Strictly, the edits
// must come in that order, each at a position the base has, one set or
// delete per entry; leniently, an edit that does not fit is dropped.
func blindEdits(edits []byte, base []Entry, lenient bool) ([]Entry, bool) {
	inserts := make([][]Entry, len(base)+1)
	replaced := make(map[int]*Entry) // nil: deleted
	lastAt, lastWasInsert := 0, true
	for len(edits) > 0 {
		tag, k := binary.Uvarint(edits)
		if k <= 0 {
			return nil, false
		}
		edits = edits[k:]
		kind := int(tag & 3)
		var e Entry
		if kind != proof.PatchDelete {
			var err error
			if e.Key, e.Value, edits, err = posleaf.ReadEntry(edits); err != nil {
				return nil, false
			}
		}
		_, again := replaced[int(tag>>2)]
		fits := tag>>2 <= uint64(len(base)) && kind <= proof.PatchDelete &&
			(kind == proof.PatchInsert || (tag>>2 < uint64(len(base)) && !again)) &&
			(kind != proof.PatchSet || len(e.Key) == 0)
		inOrder := fits && (int(tag>>2) > lastAt || (int(tag>>2) == lastAt && lastWasInsert))
		if !fits || (!inOrder && !lenient) {
			if lenient {
				continue
			}
			return nil, false
		}
		at := int(tag >> 2)
		switch kind {
		case proof.PatchInsert:
			inserts[at] = append(inserts[at], e)
		case proof.PatchSet:
			replaced[at] = &Entry{Key: base[at].Key, Value: e.Value}
		case proof.PatchDelete:
			replaced[at] = nil
		}
		lastAt, lastWasInsert = at, kind == proof.PatchInsert
	}
	var out []Entry
	for at := 0; at <= len(base); at++ {
		out = append(out, inserts[at]...)
		if at == len(base) {
			break
		}
		if e, ok := replaced[at]; !ok {
			out = append(out, base[at])
		} else if e != nil {
			out = append(out, *e)
		}
	}
	return out, true
}

func (b *blind) finish() error {
	if b.skip&trustExtra != 0 {
		return nil
	}
	seen := map[string]bool{}
	for i, body := range b.bodies {
		if !b.used[i] || seen[string(body)] {
			return ErrProofInvalid
		}
		seen[string(body)] = true
	}
	return nil
}

func (b *blind) get(root hashutil.Digest, key []byte) (value []byte, found, claim bool, err error) {
	want := root
	for {
		n, claim := b.node(want)
		if claim {
			return nil, false, true, nil
		}
		if n == nil {
			return nil, false, false, ErrProofInvalid
		}
		i := proof.Search(n.Entries, key)
		if n.Level == 0 {
			if i < len(n.Entries) && bytes.Equal(n.Entries[i].Key, key) {
				return n.Entries[i].Value, true, false, nil
			}
			if b.skip&trustGap == 0 && !n.Brackets(i, i) {
				return nil, false, false, ErrProofInvalid
			}
			return nil, false, false, nil
		}
		if i == len(n.Entries) {
			return nil, false, false, nil
		}
		want = proof.ChildDigest(n.Entries[i])
	}
}

func (b *blind) scan(want hashutil.Digest, start, end []byte, out *[]Entry) error {
	n, claim := b.node(want)
	if claim {
		return nil
	}
	if n == nil {
		return ErrProofInvalid
	}
	if n.Level == 0 {
		lo, hi := proof.LeafSpan(n.Entries, start, end)
		if b.skip&trustGap == 0 && !n.Brackets(lo, hi) {
			return ErrProofInvalid
		}
		*out = append(*out, n.Entries[lo:hi]...)
		return nil
	}
	from, to := proof.ChildSpan(n.Entries, start, end)
	for _, e := range n.Entries[from:to] {
		if err := b.scan(proof.ChildDigest(e), start, end, out); err != nil {
			return err
		}
	}
	return nil
}

// blindVerify is blind for a point proof.
func blindVerify(t *testing.T, p BatchProof, root hashutil.Digest, pinned []*Node, skip trust) error {
	b := newBlind(t, p.Nodes, pinned, skip)
	value, found, claim, err := b.get(root, p.Keys[0])
	if err != nil {
		return err
	}
	if !claim && (found != p.Found[0] || !bytes.Equal(value, p.Values[0])) {
		return ErrProofInvalid
	}
	return b.finish()
}

// groupLen reads the number of entries under one stored group root off
// stored leaves (the constant itself is posleaf's own business): positions
// at and beside its multiples are where a prune has hashing to do on one
// side and none on the other.
func groupLen(t *testing.T) int {
	t.Helper()
	for n := 1; n < 100; n++ {
		leaf := &node{Entries: testEntries(n, 3)}
		if len(encodeNode(leaf))-1-posleaf.UvarintLen(n)-entryBytes(leaf.Entries) > hashutil.DigestSize {
			return n - 1
		}
	}
	t.Fatal("no leaf of under 100 entries stores two group roots")
	return 0
}

// prunedLeaf is a pruned leaf body cut into its fields, none of them
// judged: what the forgeries rearrange and the reference verifier reads.
type prunedLeaf struct {
	count, first, n uint64
	entries         []byte // the n entries
	siblings        []byte
}

func splitPruned(body []byte) (p prunedLeaf, ok bool) {
	if len(body) == 0 || body[0] != 0 {
		return p, false
	}
	rest := body[1:]
	for _, f := range []*uint64{&p.count, &p.first, &p.n} {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return p, false
		}
		*f, rest = v, rest[k:]
	}
	run := rest
	for i := uint64(0); i < p.n; i++ {
		var err error
		if _, _, rest, err = posleaf.ReadEntry(rest); err != nil {
			return p, false
		}
	}
	p.entries, p.siblings = run[:len(run)-len(rest)], rest
	return p, true
}

// join is the inverse of splitPruned.
func (p prunedLeaf) join() []byte {
	out := binary.AppendUvarint([]byte{0}, p.count)
	out = binary.AppendUvarint(out, p.first)
	out = binary.AppendUvarint(out, p.n)
	return append(append(out, p.entries...), p.siblings...)
}

// mustSplit is splitPruned of a body the test built.
func mustSplit(t *testing.T, body []byte) prunedLeaf {
	t.Helper()
	p, ok := splitPruned(body)
	if !ok {
		t.Fatal("pruned leaf does not split")
	}
	return p
}

// digest is the reference reading of the commitment: the run must lie in
// the leaf and hold an entry unless the leaf has none; the tree over count
// positions is walked top down, a subtree with nothing of the run in it
// taking the next sibling, a position of the run hashing the next entry;
// and every sibling must have been taken. ok is false for a slot that is
// not that.
func (p prunedLeaf) digest() (d hashutil.Digest, ok bool) {
	if p.count > 1<<31-1 || p.n > p.count || p.first > p.count-p.n || (p.n == 0 && p.count > 0) || len(p.siblings)%hashutil.DigestSize != 0 {
		return d, false
	}
	entries, siblings := p.entries, p.siblings
	var root func(lo, hi uint64) hashutil.Digest
	root = func(lo, hi uint64) (d hashutil.Digest) {
		switch {
		case hi <= p.first || p.first+p.n <= lo:
			if len(siblings) == 0 {
				ok = false
				return d
			}
			d, siblings = hashutil.Digest(siblings), siblings[hashutil.DigestSize:]
			return d
		case hi-lo == 1:
			_, _, rest, _ := posleaf.ReadEntry(entries)
			d, entries = hashutil.Sum(hashutil.DomainPOSEntry, entries[:len(entries)-len(rest)]), rest
			return d
		}
		k := uint64(1)
		for 2*k < hi-lo {
			k *= 2
		}
		l, r := root(lo, lo+k), root(lo+k, hi)
		return hashutil.Sum(hashutil.DomainPOSInner, append(l[:], r[:]...))
	}
	ok = true
	var top hashutil.Digest
	if p.count > 0 {
		top = root(0, p.count)
	}
	if !ok || len(siblings) != 0 {
		return d, false
	}
	return hashutil.Sum(hashutil.DomainPOSLeaf, append(binary.AppendUvarint([]byte{0}, p.count), top[:]...)), true
}

// blindLeaf decodes a pruned leaf with the checks in tr left out; nil
// means rejected. (Whether its digest is the one the walk wanted is the
// caller's business.)
func blindLeaf(t *testing.T, body []byte, tr trust) *node {
	p, ok := splitPruned(body)
	if !ok {
		return nil
	}
	if _, ok := p.digest(); !ok && tr&trustLeaf == 0 {
		return nil
	}
	n := &node{First: int(p.first), Count: int(p.count)}
	for rest := p.entries; len(rest) > 0; {
		var e Entry
		e.Key, e.Value, rest, _ = posleaf.ReadEntry(rest)
		n.Entries = append(n.Entries, e)
	}
	return n
}

func TestElideShipsOnlyWhatIsNotHeld(t *testing.T) {
	tr, _, key := elideTree(t)
	full, err := tr.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	warm := warmNodes(t, tr, key)
	if len(warm) != len(full.Nodes)-1 {
		t.Fatalf("warm verifier holds %d nodes of a %d-node proof", len(warm), len(full.Nodes))
	}

	// No hint: nothing elided, the very same node list.
	same, n := HeldSet{}.Point(full)
	if n != 0 || &same.Nodes[0] != &full.Nodes[0] {
		t.Fatalf("hint-less Elide changed the proof (%d elided)", n)
	}

	// A hint that also names the leaf's digest, in any order: the leaf
	// must be shipped regardless, and nothing but the leaf.
	path := pin(warm...)
	have := append([]hashutil.Digest{full.Digests[len(full.Digests)-1]}, path.Have()...)
	for i, j := 1, len(have)-1; i < j; i, j = i+1, j-1 {
		have[i], have[j] = have[j], have[i]
	}
	elided, n := NewHeldSet(have).Point(full)
	if n != len(full.Nodes)-1 {
		t.Fatalf("elided %d nodes, want every index node (%d)", n, len(full.Nodes)-1)
	}
	if len(elided.Nodes) != 1 || elided.Nodes[0][0] != 0 {
		t.Fatalf("a fully hinted proof ships %d nodes, want the leaf alone", len(elided.Nodes))
	}
	if len(full.Nodes) != n+1 {
		t.Fatal("Elide shortened the proof it was called on")
	}
	for i, body := range full.Nodes {
		if len(body) == 0 {
			t.Fatalf("Elide emptied node %d of the proof it was called on", i)
		}
	}
	if err := elided.VerifyPath(tr.Root(), path); err != nil {
		t.Fatalf("elided proof against the warm path: %v", err)
	}
	if len(path.Shipped) != 0 || path.Elided() != n || len(path.Superseded()) != 0 {
		t.Fatalf("fully elided proof: %d shipped, %d elided, %d superseded",
			len(path.Shipped), path.Elided(), len(path.Superseded()))
	}
	// Without the pinned nodes the same bytes prove nothing.
	if err := elided.Verify(tr.Root()); err == nil {
		t.Fatal("elided proof verified with nothing pinned")
	}
	if err := elided.VerifyPath(tr.Root(), new(Path)); err == nil {
		t.Fatal("elided proof verified against an empty path")
	}

	// A partial hint (root only) elides only the root.
	partial, n := NewHeldSet(path.Have()[:1]).Point(full)
	if n != 1 || len(partial.Nodes) != len(full.Nodes)-1 || !bytes.Equal(partial.Nodes[0], full.Nodes[1]) {
		t.Fatalf("root-only hint elided %d nodes", n)
	}
	got := pin(warm[0])
	if err := partial.VerifyPath(tr.Root(), got); err != nil {
		t.Fatalf("partially elided proof: %v", err)
	}
	if len(got.Shipped) != len(full.Nodes)-2 {
		t.Fatalf("partially elided proof shipped %d index nodes, want %d", len(got.Shipped), len(full.Nodes)-2)
	}
	for _, n := range got.Shipped {
		if n.Node().Level == 0 {
			t.Fatal("a leaf was reported as a cacheable index node")
		}
	}

	// A hint for other nodes elides nothing.
	wrong := make([]hashutil.Digest, len(have))
	for i := range wrong {
		wrong[i] = hashutil.Sum(hashutil.DomainValue, []byte{byte(i)})
	}
	if _, n := NewHeldSet(wrong).Point(full); n != 0 {
		t.Fatalf("elided %d nodes against digests the proof does not contain", n)
	}

	// The bodies are a set: their order carries no meaning.
	shuffled := full
	shuffled.Nodes = append([][]byte(nil), full.Nodes...)
	for i, j := 0, len(shuffled.Nodes)-1; i < j; i, j = i+1, j-1 {
		shuffled.Nodes[i], shuffled.Nodes[j] = shuffled.Nodes[j], shuffled.Nodes[i]
	}
	if err := shuffled.Verify(tr.Root()); err != nil {
		t.Fatalf("proof with its nodes reversed: %v", err)
	}
}

func TestElidedAbsenceProof(t *testing.T) {
	tr, entries, _ := elideTree(t)
	for _, k := range [][]byte{
		append(append([]byte(nil), entries[777].Key...), 'x'), // inside the key range
		[]byte("zzzz"), // beyond the largest key: an index node proves it
	} {
		path := warmPath(t, tr, k)
		full, err := tr.ProveGet(k)
		if err != nil {
			t.Fatal(err)
		}
		elided, n := held(path).Point(full)
		if n == 0 {
			t.Fatalf("absence proof for %q: nothing elided", k)
		}
		if elided.Found[0] {
			t.Fatalf("%q reported found", k)
		}
		if err := elided.VerifyPath(tr.Root(), path); err != nil {
			t.Fatalf("elided absence proof for %q: %v", k, err)
		}
	}
}

// forgePath rewrites the last two nodes of a path-shaped node list (root
// first, leaf last; digests address them) so that the leaf carries value
// for key and its parent points at the rewritten leaf — what a lying
// server would ship below a node it hopes is not checked.
func forgePath(t *testing.T, tr *Tree, nodes [][]byte, digests []hashutil.Digest, key, value []byte) [][]byte {
	t.Helper()
	last := len(nodes) - 1
	_, leaf, err := tr.loadProofNode(digests[last])
	if err != nil {
		t.Fatal(err)
	}
	parent, err := decodeNode(nodes[last-1])
	if err != nil {
		t.Fatal(err)
	}
	forgedLeaf := &node{Level: 0, Entries: append([]Entry(nil), leaf.Entries...)}
	at := proof.Search(leaf.Entries, key)
	forgedLeaf.Entries[at].Value = value
	leafBody := encodeNode(forgedLeaf)
	forgedParent := &node{Level: parent.Level, Entries: append([]Entry(nil), parent.Entries...)}
	i := proof.Search(parent.Entries, key)
	forgedParent.Entries[i] = makeIndexEntry(parent.Entries[i].Key,
		cas.Address(hashutil.DomainPOSLeaf, leafBody), childCount(parent.Entries[i]))
	nodes = append([][]byte(nil), nodes...)
	nodes[last-1] = encodeNode(forgedParent)
	// The forged entry and its neighbours: what a point read of key, or a
	// scan of the two entries from it, is decided by.
	if nodes[last], err = posleaf.Prune(leafBody, max(at-1, 0), min(at+2, len(leaf.Entries)-1)); err != nil {
		t.Fatal(err)
	}
	return nodes
}

// forgeLeaf is forgePath for a point proof.
func forgeLeaf(t *testing.T, tr *Tree, p BatchProof, value []byte) BatchProof {
	t.Helper()
	p.Nodes = forgePath(t, tr, p.Nodes, p.Digests, p.Keys[0], value)
	p.Values = [][]byte{value}
	return p
}

// without returns nodes with the given positions left out.
func without(nodes [][]byte, positions ...int) [][]byte {
	var out [][]byte
	for i, body := range nodes {
		drop := false
		for _, p := range positions {
			drop = drop || p == i
		}
		if !drop {
			out = append(out, body)
		}
	}
	return out
}

func TestElisionStructuredForgeries(t *testing.T) {
	tr, entries, key := elideTree(t)
	full, err := tr.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	height := len(full.Nodes)
	forged := []byte("forged value")

	// The state one commit later, in which key's value (and so its whole
	// path) changed: what "stale" forgeries replay against.
	next, err := tr.Put(key, []byte("the new value"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := next.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}

	// A key whose leaf is not key's leaf.
	var other []byte
	for _, e := range entries {
		p, err := tr.ProveGet(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if p.Digests[len(p.Digests)-1] != full.Digests[height-1] {
			other = e.Key
			break
		}
	}
	otherProof, err := tr.ProveGet(other)
	if err != nil {
		t.Fatal(err)
	}

	drop := func(p BatchProof, positions ...int) BatchProof {
		p.Nodes = without(p.Nodes, positions...)
		return p
	}
	index := make([]int, height-1) // every index position
	for i := range index {
		index[i] = i
	}
	cold := func() []*Node { return nil }
	warm := func() []*Node { return warmNodes(t, tr, key) }

	cases := []struct {
		name   string
		root   hashutil.Digest
		pinned func() []*Node
		proof  func() BatchProof
	}{
		{
			// The client is cold and hinted nothing; the server leaves the
			// top of the path out anyway and ships a forged subtree below
			// the gap.
			name:   "elides a node the client did not hint",
			root:   tr.Root(),
			pinned: cold,
			proof: func() BatchProof {
				return drop(forgeLeaf(t, tr, full, forged), index[:height-2]...)
			},
		},
		{
			// Everything is left out, the leaf included: the answer is the
			// server's bare claim.
			name:   "elides the leaf",
			root:   tr.Root(),
			pinned: warm,
			proof: func() BatchProof {
				p := drop(full, append(index, height-1)...)
				p.Values = [][]byte{forged}
				return p
			},
		},
		{
			// After a commit the true path is all new nodes. The server
			// ships the new root honestly but claims the levels below are
			// still ones the client holds, then serves the old leaf: a
			// stale value dressed as current. The client does hold nodes —
			// the old path — just not the ones the new root routes to.
			name:   "elides a hinted node and routes through a different pinned node",
			root:   next.Root(),
			pinned: warm,
			proof: func() BatchProof {
				p := drop(full, index[1:]...)
				p.Nodes[0] = fresh.Nodes[0]
				return p
			},
		},
		{
			// The hints were for key; the server answers with another
			// key's leaf, in which key is (truthfully) absent.
			name:   "answers hints for key A with a path for key B",
			root:   tr.Root(),
			pinned: warm,
			proof: func() BatchProof {
				p := drop(otherProof, index...)
				p.Keys, p.Values, p.Found = [][]byte{key}, [][]byte{nil}, []bool{false}
				// That leaf pruned as for an honest search for key: the
				// gap key would sit in, both sides in hand.
				body, n, err := tr.loadProofNode(otherProof.Digests[height-1])
				if err != nil {
					t.Fatal(err)
				}
				i := proof.Search(n.Entries, key)
				if p.Nodes[0], err = posleaf.Prune(body, max(i-1, 0), min(i, len(n.Entries)-1)); err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.proof()
			if err := blindVerify(t, p, tc.root, tc.pinned(), trustElided); err != nil {
				t.Fatalf("forgery does not even fool a blind verifier (%v): the case proves nothing", err)
			}
			if err := blindVerify(t, p, tc.root, tc.pinned(), 0); err == nil {
				t.Fatal("forgery passes the reference verifier with no check left out")
			}
			if err := p.VerifyPath(tc.root, pin(tc.pinned()...)); err == nil {
				t.Fatal("forged elided proof verified")
			}
		})
	}
}

// TestVerifyBindsLevelToHashDomain: a body is hashed under the domain its
// own level byte selects, so a pointer computed under the other domain —
// "the hash is right, the domain is wrong" — never links.
func TestVerifyBindsLevelToHashDomain(t *testing.T) {
	leaf := &node{Level: 0, Entries: []Entry{{Key: []byte("k"), Value: []byte("v")}}}
	leafBody := encodeNode(leaf)
	pruned, err := posleaf.Prune(leafBody, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// What a leaf of this one entry hashes to, step by step.
	entryHash := hashutil.Sum(hashutil.DomainPOSEntry, posleaf.AppendEntry(nil, []byte("k"), []byte("v")))
	bound := append([]byte{0, 1}, entryHash[:]...) // level | count | root
	build := func(pointer hashutil.Digest) (hashutil.Digest, BatchProof) {
		parent := &node{Level: 1, Entries: []Entry{makeIndexEntry([]byte("k"), pointer, 1)}}
		parentBody := encodeNode(parent)
		return hashutil.Sum(hashutil.DomainPOSIndex, parentBody), oneKey([]byte("k"), []byte("v"), true, parentBody, pruned)
	}
	root, p := build(hashutil.Sum(hashutil.DomainPOSLeaf, bound))
	if err := p.Verify(root); err != nil {
		t.Fatalf("control proof: %v", err)
	}
	for name, pointer := range map[string]hashutil.Digest{
		"count and root under the index domain":   hashutil.Sum(hashutil.DomainPOSIndex, bound),
		"count and root under the entry domain":   hashutil.Sum(hashutil.DomainPOSEntry, bound),
		"count and root under the inner domain":   hashutil.Sum(hashutil.DomainPOSInner, bound),
		"the root alone, without the count":       entryHash,
		"the whole body under the leaf domain":    hashutil.Sum(hashutil.DomainPOSLeaf, leafBody),
		"the pruned slot under the leaf domain":   hashutil.Sum(hashutil.DomainPOSLeaf, pruned),
		"the entry's bytes under the leaf domain": hashutil.Sum(hashutil.DomainPOSLeaf, posleaf.AppendEntry(nil, []byte("k"), []byte("v"))),
	} {
		root, p = build(pointer)
		if err := p.Verify(root); err == nil {
			t.Fatalf("leaf linked through a digest of %s", name)
		}
	}
	// And an index body relabelled as a leaf (or the reverse) changes
	// both its bytes and its domain: it cannot stand in for the original.
	tr, _, key := elideTree(t)
	full, err := tr.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Nodes {
		q := full
		q.Nodes = append([][]byte(nil), full.Nodes...)
		q.Nodes[i] = append([]byte(nil), full.Nodes[i]...)
		q.Nodes[i][0] ^= 1 // level 0 <-> 1, 2 <-> 3
		if err := q.Verify(tr.Root()); err == nil {
			t.Fatalf("node %d verified with its level byte changed", i)
		}
	}
}

func TestElidedProofEveryByteTrips(t *testing.T) {
	tr, _, key := elideTree(t)
	full, err := tr.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	warm := warmNodes(t, tr, key)
	elided, _ := held(pin(warm...)).Point(full)
	leaf := len(elided.Nodes) - 1
	fields := []struct {
		name string
		get  func(p *BatchProof) *[]byte
	}{
		{"leaf", func(p *BatchProof) *[]byte { return &p.Nodes[leaf] }},
		{"value", func(p *BatchProof) *[]byte { return &p.Values[0] }},
		{"key", func(p *BatchProof) *[]byte { return &p.Keys[0] }},
	}
	for _, f := range fields {
		for off := 0; off < len(*f.get(&elided)); off++ {
			q := elided
			q.Nodes = append([][]byte(nil), elided.Nodes...)
			q.Keys, q.Values = append([][]byte(nil), elided.Keys...), append([][]byte(nil), elided.Values...)
			field := f.get(&q)
			*field = append([]byte(nil), *field...)
			(*field)[off] ^= 0x01
			if err := q.VerifyPath(tr.Root(), pin(warm...)); err == nil {
				t.Fatalf("%s byte %d flipped: elided proof still verified", f.name, off)
			}
		}
	}
	q := elided
	q.Found = []bool{false}
	if err := q.VerifyPath(tr.Root(), pin(warm...)); err == nil {
		t.Fatal("forged absence verified on an elided proof")
	}
	if err := elided.VerifyPath(tr.Root(), pin(warm...)); err != nil {
		t.Fatalf("the proof the sweep started from: %v", err)
	}
}

// TestHintsAcrossCommits: held nodes are content addressed, so they stay
// valid — and stay elidable wherever a commit left the path untouched —
// without any invalidation.
func TestHintsAcrossCommits(t *testing.T) {
	tr, entries, key := elideTree(t)
	warm := warmNodes(t, tr, key)
	have := held(pin(warm...))
	height := len(warm) + 1

	check := func(name string, next *Tree, wantElided func(n int) bool, wantValue []byte) {
		t.Helper()
		full, err := next.ProveGet(key)
		if err != nil {
			t.Fatal(err)
		}
		elided, n := have.Point(full)
		if !wantElided(n) {
			t.Fatalf("%s: %d of %d nodes elided", name, n, len(full.Nodes))
		}
		got := pin(warm...)
		if err := elided.VerifyPath(next.Root(), got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !elided.Found[0] || !bytes.Equal(elided.Values[0], wantValue) {
			t.Fatalf("%s: proved %q", name, elided.Values[0])
		}
		if len(got.Shipped)+n+1 != len(full.Nodes) || got.Elided() != n {
			t.Fatalf("%s: %d shipped + %d elided (%d resolved from pins) + leaf != %d nodes",
				name, len(got.Shipped), n, got.Elided(), len(full.Nodes))
		}
		// What the walk never reached is what the write replaced.
		if len(got.Superseded()) != len(warm)-n {
			t.Fatalf("%s: %d of %d pinned nodes superseded, %d elided", name, len(got.Superseded()), len(warm), n)
		}
		// Against the state the hints came from, the new proof is stale.
		if err := elided.VerifyPath(tr.Root(), pin(warm...)); err == nil && next.Root() != tr.Root() {
			t.Fatalf("%s: proof of the new state verified against the old root", name)
		}
	}
	honest, _, err := tr.Get(key)
	if err != nil {
		t.Fatal(err)
	}

	// A write under a different child of the root: only the root changes
	// on key's path.
	far := entries[len(entries)-1].Key
	sameChild := func(k []byte) bool {
		a := childOf(warm[0], key)
		b := childOf(warm[0], k)
		return a == b
	}
	if sameChild(far) {
		far = entries[0].Key
	}
	if sameChild(far) {
		t.Fatal("test keys share a subtree below the root")
	}
	sibling, err := tr.Put(far, []byte("changed elsewhere"))
	if err != nil {
		t.Fatal(err)
	}
	check("sibling subtree", sibling, func(n int) bool { return n == height-2 }, honest)

	// A write to key itself: the whole path is new, nothing can be elided.
	same, err := tr.Put(key, []byte("rewritten"))
	if err != nil {
		t.Fatal(err)
	}
	check("same leaf", same, func(n int) bool { return n == 0 }, []byte("rewritten"))

	// Grow the tree until it gains a level: every depth shifts, which a
	// set of digests does not care about — a node that survived is elided
	// wherever it now sits, and the read is correct either way.
	grown := tr
	for i := 0; grown.level == tr.level; i++ {
		edits := make([]Edit, 20000)
		for j := range edits {
			edits[j] = Edit{Key: []byte(fmt.Sprintf("grow-%03d-%08d", i, j)), Value: []byte("filler")}
		}
		if grown, err = grown.Apply(edits); err != nil {
			t.Fatal(err)
		}
		if i > 200 {
			t.Fatal("tree did not gain a level")
		}
	}
	check("root split", grown, func(n int) bool { return n <= height-1 }, honest)
}

// ---------------------------------------------------------------------------
// Pruned leaves: a point proof ships the entries that decide the answer
// and the hash path that binds them to the leaf's digest.

// groupedLeaf returns a tree, one of its leaves with at least three full
// groups (stored body and decoded entries), and the leaf after it.
func groupedLeaf(t *testing.T) (tr *Tree, body []byte, leaf *node, nextBody []byte, next *node) {
	t.Helper()
	tr, entries, _ := elideTree(t)
	g := groupLen(t)
	var prev hashutil.Digest
	for _, e := range entries {
		p, err := tr.ProveGet(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		d := p.Digests[len(p.Digests)-1]
		if d == prev {
			continue
		}
		prev = d
		b, n, err := tr.loadProofNode(d)
		if err != nil {
			t.Fatal(err)
		}
		if leaf != nil && len(n.Entries) >= g {
			return tr, body, leaf, b, n
		}
		body, leaf = nil, nil
		if len(n.Entries) > 3*g {
			body, leaf = b, n
		}
	}
	t.Fatal("no leaf with three full groups followed by another leaf")
	return
}

// between returns a key that sorts directly after e's.
func between(e Entry) []byte { return append(append([]byte(nil), e.Key...), 0) }

func TestPointProofShipsTheDecidingEntries(t *testing.T) {
	tr, body, leaf, _, _ := groupedLeaf(t)
	g := groupLen(t)
	shipped := func(key []byte, found bool) *node {
		t.Helper()
		p, err := tr.ProveGet(key)
		if err != nil {
			t.Fatal(err)
		}
		if p.Found[0] != found {
			t.Fatalf("%q: found=%v", key, p.Found)
		}
		if err := p.Verify(tr.Root()); err != nil {
			t.Fatalf("%q: %v", key, err)
		}
		last := p.Nodes[len(p.Nodes)-1]
		if len(last) >= len(body)/2 {
			t.Fatalf("%q: leaf slot is %d bytes, the stored leaf %d", key, len(last), len(body))
		}
		n, d, err := openNode(last)
		if err != nil || d != p.Digests[len(p.Digests)-1] {
			t.Fatalf("%q: pruned leaf does not open to the leaf's digest: %v", key, err)
		}
		if ref, ok := mustSplit(t, last).digest(); !ok || ref != d {
			t.Fatalf("%q: the reference reading of the slot disagrees", key)
		}
		if n.Count != len(leaf.Entries) {
			t.Fatalf("%q: pruned leaf counts %d entries, the leaf has %d", key, n.Count, len(leaf.Entries))
		}
		return n
	}
	// A hit ships exactly its entry, wherever in a group it sits.
	for _, i := range []int{0, g - 1, g, g + 3, 2*g - 1, len(leaf.Entries) - 1} {
		if n := shipped(leaf.Entries[i].Key, true); n.First != i || len(n.Entries) != 1 {
			t.Fatalf("hit at %d shipped entries [%d,%d)", i, n.First, n.First+len(n.Entries))
		}
	}
	// A miss ships both sides of the gap, inside a group or across an edge.
	for _, i := range []int{g + 2, 2*g - 1} {
		if n := shipped(between(leaf.Entries[i]), false); n.First != i || len(n.Entries) != 2 {
			t.Fatalf("miss after entry %d shipped entries [%d,%d)", i, n.First, n.First+len(n.Entries))
		}
	}
	// Before the leaf's first entry (the key routes here because it is past
	// the previous leaf's last): the first entry alone.
	below := append([]byte(nil), leaf.Entries[0].Key...)
	below[len(below)-1]--
	if n := shipped(below, false); n.First != 0 || len(n.Entries) != 1 {
		t.Fatalf("miss below the leaf's first key shipped entries [%d,%d)", n.First, n.First+len(n.Entries))
	}
	// A single-leaf tree: past its last entry, the last entry alone.
	small := mustBulk(t, leaf.Entries[:g+2])
	if small.level != 0 {
		t.Skip("the small tree is not a single leaf")
	}
	p, err := small.ProveGet([]byte("zzzz"))
	if err != nil || p.Found[0] {
		t.Fatal(err, p.Found)
	}
	if err := p.Verify(small.Root()); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := openNode(p.Nodes[0]); n.First != g+1 || len(n.Entries) != 1 {
		t.Fatalf("miss above a root leaf shipped entries [%d,%d)", n.First, n.First+len(n.Entries))
	}
}

// TestPrunedLeafStructuredForgeries: each forgery is accepted by the
// reference verifier with one named check left out, rejected by it with
// none left out, and rejected by VerifyPath — cold, and warm with every
// index node elided.
func TestPrunedLeafStructuredForgeries(t *testing.T) {
	tr, body, leaf, nextBody, _ := groupedLeaf(t)
	g := groupLen(t)
	at := g + 1
	key := leaf.Entries[at].Key        // present
	edge := between(leaf.Entries[g-1]) // absent, between entries g-1 and g
	forgedValue := []byte("forged value")

	prune := func(b []byte, lo, hi int) []byte {
		t.Helper()
		out, err := posleaf.Prune(b, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// The honest slot for key, with its entry's value replaced.
	forgedEntry := posleaf.AppendEntry(nil, key, forgedValue)
	edit := func(f func(p *prunedLeaf)) []byte {
		p := mustSplit(t, prune(body, at, at))
		f(&p)
		return p.join()
	}

	hit, err := tr.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := tr.ProveGet(edge)
	if err != nil {
		t.Fatal(err)
	}
	absent := func(p BatchProof, k []byte, leafBody []byte) BatchProof {
		p.Nodes = append(append([][]byte(nil), p.Nodes[:len(p.Nodes)-1]...), leafBody)
		p.Keys, p.Values, p.Found = [][]byte{k}, [][]byte{nil}, []bool{false}
		return p
	}
	present := func(leafBody []byte) BatchProof {
		p := hit
		p.Nodes = append(append([][]byte(nil), p.Nodes[:len(p.Nodes)-1]...), leafBody)
		p.Values = [][]byte{forgedValue}
		return p
	}

	cases := []struct {
		name  string
		skips trust
		proof BatchProof
	}{
		// The entry before key's, shipped honestly, as if the search had
		// ended there.
		{"ships a neighbouring entry and claims absence", trustGap,
			absent(hit, key, prune(body, at-1, at-1))},
		// The entry after key's, relabelled as the leaf's first: "key sorts
		// before the leaf's first entry".
		{"ships an authentic entry at another position", trustLeaf,
			absent(hit, key, edit(func(p *prunedLeaf) {
				*p = mustSplit(t, prune(body, at+1, at+1))
				p.first = 0
			}))},
		// edge sorts between entries g-1 and g: each side alone says
		// nothing about the other.
		{"claims absence with only the left side of the gap shipped", trustGap,
			absent(miss, edge, prune(body, g-1, g-1))},
		{"claims absence with only the right side of the gap shipped", trustGap,
			absent(miss, edge, prune(body, g, g))},
		// The next leaf's first entry — past every key of this leaf — in
		// this leaf's place, as its first.
		{"ships an entry of another leaf", trustLeaf,
			absent(hit, key, prune(nextBody, 0, 0))},
		// The leaf is said to end where entry g-1 does, so edge sorts past
		// its last entry.
		{"truncates count", trustLeaf,
			absent(miss, edge, edit(func(p *prunedLeaf) {
				*p = mustSplit(t, prune(body, g-1, g-1))
				p.count = uint64(g)
			}))},
		// The leaf is said to hold one entry more, the forged one.
		{"extends count", trustLeaf,
			present(edit(func(p *prunedLeaf) {
				p.count, p.first, p.entries = p.count+1, p.count, forgedEntry
			}))},
		// A forged entry at a position the leaf does not have.
		{"ships an entry whose position is out of range", trustLeaf,
			present(edit(func(p *prunedLeaf) { p.first, p.entries = p.count, forgedEntry }))},
		// And the plain one: the right position, the right siblings, forged
		// bytes.
		{"ships a forged entry at the right position", trustLeaf,
			present(edit(func(p *prunedLeaf) { p.entries = forgedEntry }))},
		// The siblings say nothing the verifier can use on their own, but a
		// slot short of one — or long by one — is not a leaf.
		{"drops a sibling", trustLeaf,
			present(edit(func(p *prunedLeaf) {
				p.entries, p.siblings = forgedEntry, p.siblings[hashutil.DigestSize:]
			}))},
		{"adds a sibling", trustLeaf,
			present(edit(func(p *prunedLeaf) {
				p.entries, p.siblings = forgedEntry, append(p.siblings[:len(p.siblings):len(p.siblings)], p.siblings[:hashutil.DigestSize]...)
			}))},
	}
	for _, honest := range []BatchProof{hit, miss} {
		if err := blindVerify(t, honest, tr.Root(), nil, 0); err != nil {
			t.Fatalf("the reference verifier rejects an honest proof: %v", err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := blindVerify(t, tc.proof, tr.Root(), nil, tc.skips); err != nil {
				t.Fatalf("forgery does not even fool a verifier that skips the check (%v): the case proves nothing", err)
			}
			if err := blindVerify(t, tc.proof, tr.Root(), nil, 0); err == nil {
				t.Fatal("forgery passes the reference verifier with no check left out")
			}
			if err := tc.proof.Verify(tr.Root()); err == nil {
				t.Fatal("forged pruned leaf verified")
			}
			path := warmPath(t, tr, tc.proof.Keys[0])
			elided, n := held(path).Point(tc.proof)
			if n != len(hit.Nodes)-1 {
				t.Fatalf("elided %d index nodes of %d", n, len(hit.Nodes)-1)
			}
			if err := elided.VerifyPath(tr.Root(), path); err == nil {
				t.Fatal("forged pruned leaf verified on a warm path")
			}
		})
	}
}

// TestPrunedLeafEveryFieldTrips flips each byte of a cold proof's pruned
// leaf for a hit, a miss inside a group and a miss across a group edge.
func TestPrunedLeafEveryFieldTrips(t *testing.T) {
	tr, _, leaf, _, _ := groupedLeaf(t)
	g := groupLen(t)
	for _, key := range [][]byte{leaf.Entries[g+1].Key, between(leaf.Entries[g+1]), between(leaf.Entries[g-1])} {
		p, err := tr.ProveGet(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(tr.Root()); err != nil {
			t.Fatal(err)
		}
		last := len(p.Nodes) - 1
		for off := range p.Nodes[last] {
			q := p
			q.Nodes = append([][]byte(nil), p.Nodes...)
			q.Nodes[last] = append([]byte(nil), p.Nodes[last]...)
			q.Nodes[last][off] ^= 0x01
			if err := q.Verify(tr.Root()); err == nil {
				t.Fatalf("%q: leaf byte %d flipped: proof still verified", key, off)
			}
		}
	}
}
