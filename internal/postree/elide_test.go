package postree

import (
	"bytes"
	"fmt"
	"testing"

	"spitz/internal/hashutil"
)

// Proof elision: a verifier that already holds verified index nodes of a
// key's search path tells the prover, which leaves their bodies out. The
// tests below pin the two halves of the soundness argument — an elided
// position is only ever answered from the verifier's own nodes, checked
// against the digest the walk from the trusted root expects, and the leaf
// is always hashed fresh — and show, forgery by forgery, that a verifier
// which instead takes the prover's word for elided positions is fooled.

// warmPath verifies a full proof for key and returns a path holding every
// index node it shipped — the state of a verifier that has read key once.
func warmPath(t *testing.T, tr *Tree, key []byte) *Path {
	t.Helper()
	p, err := tr.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Path)
	if err := p.VerifyPath(tr.Root(), got); err != nil {
		t.Fatalf("warm-up proof: %v", err)
	}
	return &Path{Held: got.Shipped}
}

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

// blindVerify is the verifier this package must not be: it takes the
// prover's word for every elided position — no held node is consulted,
// linkage checking simply resumes at the next shipped body — and for the
// answer when the leaf itself is elided. Shipped bodies are still hashed
// and linked exactly as Verify does.
func blindVerify(p PointProof, root hashutil.Digest) error {
	want, known := root, true
	for depth, body := range p.Nodes {
		if len(body) == 0 {
			known = false
			continue
		}
		n, err := decodeNode(body)
		if err != nil {
			return ErrProofInvalid
		}
		if known && hashutil.Sum(nodeDomain(n.level), body) != want {
			return ErrProofInvalid
		}
		i := searchEntries(n.entries, p.Key)
		if n.level == 0 {
			found := i < len(n.entries) && bytes.Equal(n.entries[i].Key, p.Key)
			if depth != len(p.Nodes)-1 || found != p.Found ||
				(found && !bytes.Equal(n.entries[i].Value, p.Value)) {
				return ErrProofInvalid
			}
			return nil
		}
		if i == len(n.entries) {
			if p.Found || depth != len(p.Nodes)-1 {
				return ErrProofInvalid
			}
			return nil
		}
		want, known = childDigest(n.entries[i]), true
	}
	return nil
}

func TestElideShipsOnlyWhatIsNotHeld(t *testing.T) {
	tr, _, key := elideTree(t)
	full, err := tr.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	path := warmPath(t, tr, key)
	if len(path.Held) != len(full.Nodes)-1 {
		t.Fatalf("warm path holds %d nodes of a %d-node proof", len(path.Held), len(full.Nodes))
	}

	// No hint: nothing elided, the very same node list.
	same, n := full.Elide(nil)
	if n != 0 || &same.Nodes[0] != &full.Nodes[0] {
		t.Fatalf("hint-less Elide changed the proof (%d elided)", n)
	}

	// A hint that also names the leaf's digest at the leaf's depth: the
	// leaf must be shipped regardless.
	have := append(path.Have(), full.digests[len(full.digests)-1])
	elided, n := full.Elide(have)
	if n != len(full.Nodes)-1 {
		t.Fatalf("elided %d nodes, want every index node (%d)", n, len(full.Nodes)-1)
	}
	for i, body := range elided.Nodes {
		if leaf := i == len(elided.Nodes)-1; (len(body) == 0) == leaf {
			t.Fatalf("node %d: elided=%v, leaf=%v", i, len(body) == 0, leaf)
		}
	}
	for i, body := range full.Nodes {
		if len(body) == 0 {
			t.Fatalf("Elide emptied node %d of the proof it was called on", i)
		}
	}
	if err := elided.VerifyPath(tr.Root(), path); err != nil {
		t.Fatalf("elided proof against the warm path: %v", err)
	}
	if len(path.Shipped) != 0 {
		t.Fatalf("fully elided proof reported %d shipped index nodes", len(path.Shipped))
	}
	// Without the held nodes the same bytes prove nothing.
	if err := elided.Verify(tr.Root()); err == nil {
		t.Fatal("elided proof verified with nothing held")
	}
	if err := elided.VerifyPath(tr.Root(), &Path{}); err == nil {
		t.Fatal("elided proof verified against an empty path")
	}

	// A partial hint (root only) elides only the root.
	partial, n := full.Elide(path.Have()[:1])
	if n != 1 || len(partial.Nodes[0]) != 0 || len(partial.Nodes[1]) == 0 {
		t.Fatalf("root-only hint elided %d nodes", n)
	}
	got := &Path{Held: path.Held[:1]}
	if err := partial.VerifyPath(tr.Root(), got); err != nil {
		t.Fatalf("partially elided proof: %v", err)
	}
	if len(got.Shipped) != len(full.Nodes)-2 {
		t.Fatalf("partially elided proof shipped %d index nodes, want %d", len(got.Shipped), len(full.Nodes)-2)
	}
	for _, n := range got.Shipped {
		if n.n.level == 0 {
			t.Fatal("a leaf was reported as a cacheable index node")
		}
	}

	// A hint for other nodes elides nothing.
	wrong := make([]hashutil.Digest, len(have))
	for i := range wrong {
		wrong[i] = hashutil.Sum(hashutil.DomainValue, []byte{byte(i)})
	}
	if _, n := full.Elide(wrong); n != 0 {
		t.Fatalf("elided %d nodes against digests the proof does not contain", n)
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
		elided, n := full.Elide(path.Have())
		if n == 0 {
			t.Fatalf("absence proof for %q: nothing elided", k)
		}
		if elided.Found {
			t.Fatalf("%q reported found", k)
		}
		if err := elided.VerifyPath(tr.Root(), path); err != nil {
			t.Fatalf("elided absence proof for %q: %v", k, err)
		}
	}
}

// forgeLeaf rewrites the proof's last two nodes so that the leaf carries
// value for p.Key and its parent points at the rewritten leaf — what a
// lying server would ship below a position it hopes is not checked.
func forgeLeaf(t *testing.T, p PointProof, value []byte) PointProof {
	t.Helper()
	last := len(p.Nodes) - 1
	leaf, err := decodeNode(p.Nodes[last])
	if err != nil {
		t.Fatal(err)
	}
	parent, err := decodeNode(p.Nodes[last-1])
	if err != nil {
		t.Fatal(err)
	}
	forgedLeaf := &node{level: 0, entries: append([]Entry(nil), leaf.entries...)}
	forgedLeaf.entries[searchEntries(leaf.entries, p.Key)].Value = value
	leafBody := forgedLeaf.encode()
	forgedParent := &node{level: parent.level, entries: append([]Entry(nil), parent.entries...)}
	i := searchEntries(parent.entries, p.Key)
	forgedParent.entries[i] = makeIndexEntry(parent.entries[i].Key,
		hashutil.Sum(hashutil.DomainPOSLeaf, leafBody), childCount(parent.entries[i]))
	p.Nodes = append([][]byte(nil), p.Nodes...)
	p.Nodes[last-1], p.Nodes[last] = forgedParent.encode(), leafBody
	p.Value = value
	return p
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
		if !bytes.Equal(p.Nodes[len(p.Nodes)-1], full.Nodes[height-1]) {
			other = e.Key
			break
		}
	}
	otherProof, err := tr.ProveGet(other)
	if err != nil {
		t.Fatal(err)
	}

	empty := func(p PointProof, positions ...int) PointProof {
		p.Nodes = append([][]byte(nil), p.Nodes...)
		for _, i := range positions {
			p.Nodes[i] = nil
		}
		return p
	}
	index := make([]int, height-1) // every index position
	for i := range index {
		index[i] = i
	}

	cases := []struct {
		name  string
		root  hashutil.Digest
		held  func() *Path
		proof func() PointProof
	}{
		{
			// The client is cold and hinted nothing; the server elides the
			// top of the path anyway and ships a forged subtree below the
			// gap.
			name: "elides a node the client did not hint",
			root: tr.Root(),
			held: func() *Path { return new(Path) },
			proof: func() PointProof {
				return empty(forgeLeaf(t, full, forged), index[:height-2]...)
			},
		},
		{
			// Everything is elided, the leaf included: the answer is the
			// server's bare claim.
			name: "elides the leaf",
			root: tr.Root(),
			held: func() *Path { return warmPath(t, tr, key) },
			proof: func() PointProof {
				p := empty(full, append(index, height-1)...)
				p.Value = forged
				return p
			},
		},
		{
			// After a commit the true path is all new nodes. The server
			// ships the new root honestly but claims the levels below are
			// still the ones the client holds, then serves the old leaf:
			// a stale value dressed as current.
			name: "elides at the wrong depth",
			root: next.Root(),
			held: func() *Path { return warmPath(t, tr, key) },
			proof: func() PointProof {
				p := empty(full, index[1:]...)
				p.Nodes[0] = fresh.Nodes[0]
				return p
			},
		},
		{
			// The hints were for key; the server answers with another
			// key's leaf, in which key is (truthfully) absent.
			name: "answers hints for key A with a path for key B",
			root: tr.Root(),
			held: func() *Path { return warmPath(t, tr, key) },
			proof: func() PointProof {
				p := empty(otherProof, index...)
				p.Key, p.Value, p.Found = key, nil, false
				return p
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.proof()
			if err := blindVerify(p, tc.root); err != nil {
				t.Fatalf("forgery does not even fool a blind verifier (%v): the case proves nothing", err)
			}
			if err := p.VerifyPath(tc.root, tc.held()); err == nil {
				t.Fatal("forged elided proof verified")
			}
		})
	}
}

// TestVerifyBindsLevelToHashDomain: a body is hashed under the domain its
// own level byte selects, so a pointer computed under the other domain —
// "the hash is right, the domain is wrong" — never links.
func TestVerifyBindsLevelToHashDomain(t *testing.T) {
	leaf := &node{level: 0, entries: []Entry{{Key: []byte("k"), Value: []byte("v")}}}
	leafBody := leaf.encode()
	build := func(domain byte) (hashutil.Digest, PointProof) {
		parent := &node{level: 1, entries: []Entry{
			makeIndexEntry([]byte("k"), hashutil.Sum(domain, leafBody), 1)}}
		parentBody := parent.encode()
		return hashutil.Sum(hashutil.DomainPOSIndex, parentBody), PointProof{
			Key: []byte("k"), Value: []byte("v"), Found: true,
			Nodes: [][]byte{parentBody, leafBody}}
	}
	root, p := build(hashutil.DomainPOSLeaf)
	if err := p.Verify(root); err != nil {
		t.Fatalf("control proof: %v", err)
	}
	root, p = build(hashutil.DomainPOSIndex)
	if err := p.Verify(root); err == nil {
		t.Fatal("leaf linked through a digest computed under the index domain")
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
	path := warmPath(t, tr, key)
	elided, _ := full.Elide(path.Have())
	leaf := len(elided.Nodes) - 1
	fields := []struct {
		name string
		get  func(p *PointProof) *[]byte
	}{
		{"leaf", func(p *PointProof) *[]byte { return &p.Nodes[leaf] }},
		{"value", func(p *PointProof) *[]byte { return &p.Value }},
		{"key", func(p *PointProof) *[]byte { return &p.Key }},
	}
	for _, f := range fields {
		for off := 0; off < len(*f.get(&elided)); off++ {
			q := elided
			q.Nodes = append([][]byte(nil), elided.Nodes...)
			field := f.get(&q)
			*field = append([]byte(nil), *field...)
			(*field)[off] ^= 0x01
			if err := q.VerifyPath(tr.Root(), path); err == nil {
				t.Fatalf("%s byte %d flipped: elided proof still verified", f.name, off)
			}
		}
	}
	q := elided
	q.Found = false
	if err := q.VerifyPath(tr.Root(), path); err == nil {
		t.Fatal("forged absence verified on an elided proof")
	}
}

// TestHintsAcrossCommits: held nodes are content addressed, so they stay
// valid — and stay elidable wherever a commit left the path untouched —
// without any invalidation.
func TestHintsAcrossCommits(t *testing.T) {
	tr, entries, key := elideTree(t)
	path := warmPath(t, tr, key)
	height := len(path.Held) + 1

	check := func(name string, next *Tree, wantElided func(n int) bool, wantValue []byte) {
		t.Helper()
		full, err := next.ProveGet(key)
		if err != nil {
			t.Fatal(err)
		}
		elided, n := full.Elide(path.Have())
		if !wantElided(n) {
			t.Fatalf("%s: %d of %d nodes elided", name, n, len(full.Nodes))
		}
		got := &Path{Held: path.Held}
		if err := elided.VerifyPath(next.Root(), got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !elided.Found || !bytes.Equal(elided.Value, wantValue) {
			t.Fatalf("%s: proved %q", name, elided.Value)
		}
		if len(got.Shipped)+n+1 != len(full.Nodes) {
			t.Fatalf("%s: %d shipped + %d elided + leaf != %d nodes", name, len(got.Shipped), n, len(full.Nodes))
		}
		// Against the state the hints came from, the new proof is stale.
		if err := elided.VerifyPath(tr.Root(), &Path{Held: path.Held}); err == nil && next.Root() != tr.Root() {
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
	if a, _ := path.Held[0].Child(key); func() bool { b, _ := path.Held[0].Child(far); return a == b }() {
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

	// Grow the tree until it gains a level: every depth shifts, so hints
	// taken by depth under the old root simply stop matching.
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
	check("root split", grown, func(n int) bool { return n < height-1 }, honest)
}
