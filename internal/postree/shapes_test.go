package postree

import (
	"bytes"
	"testing"

	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
)

// Batch and range proofs on the rule point proofs already follow: leaves
// travel pruned to the groups that decide the answer, index nodes the
// verifier holds do not travel at all, and the verifier takes every node
// from "a shipped body that hashes to the digest I want" or "a node I
// pinned" — never from the prover's word. The forgery tables run through
// the blind reference verifier of elide_test.go.

// blindBatch is blind for a batch proof.
func blindBatch(t *testing.T, p BatchProof, root hashutil.Digest, pinned []*Node, skip trust) error {
	b := newBlind(t, p.Nodes, pinned, skip)
	for i, key := range p.Keys {
		value, found, claim, err := b.get(root, key)
		if err != nil {
			return err
		}
		if !claim && (found != p.Found[i] || !bytes.Equal(value, p.Values[i])) {
			return ErrProofInvalid
		}
	}
	return b.finish()
}

// blindRange is blind for a range proof; it returns the rows it would
// hand the caller.
func blindRange(t *testing.T, p RangeProof, root hashutil.Digest, pinned []*Node, skip trust) ([]Entry, error) {
	b := newBlind(t, p.Nodes, pinned, skip)
	var rows []Entry
	if err := b.scan(root, p.Start, p.End, &rows); err != nil {
		return nil, err
	}
	return rows, b.finish()
}

// leafInfo is one leaf of a tree, in key order.
type leafInfo struct {
	digest hashutil.Digest
	body   []byte
	n      *node
	first  int // position of its first entry in the tree's entry list
}

// leavesOf lists the tree's leaves in key order.
func leavesOf(t *testing.T, tr *Tree, entries []Entry) []leafInfo {
	t.Helper()
	var out []leafInfo
	for i := 0; i < len(entries); {
		p, err := tr.ProveGet(entries[i].Key)
		if err != nil {
			t.Fatal(err)
		}
		d := p.Digests[len(p.Digests)-1]
		body, n, err := tr.loadProofNode(d)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, leafInfo{digest: d, body: body, n: n, first: i})
		i += len(n.Entries)
	}
	return out
}

// threeLeaves finds three consecutive leaves the first and last of which
// have more than three full groups: room for a range to start and end
// inside a group, at a group edge, or at the leaf's edge.
func threeLeaves(t *testing.T, tr *Tree, entries []Entry) [3]leafInfo {
	t.Helper()
	g := groupLen(t)
	ls := leavesOf(t, tr, entries)
	for i := 1; i+2 < len(ls); i++ {
		if len(ls[i].n.Entries) > 3*g && len(ls[i+2].n.Entries) > 3*g && len(ls[i+1].n.Entries) > g {
			return [3]leafInfo{ls[i], ls[i+1], ls[i+2]}
		}
	}
	t.Fatal("no run of three leaves with large edges")
	return [3]leafInfo{}
}

// leafOf finds the shipped body of the leaf with digest d and opens it.
func leafOf(t *testing.T, nodes [][]byte, d hashutil.Digest) (int, *node) {
	t.Helper()
	for i, body := range nodes {
		if len(body) == 0 || body[0] != 0 {
			continue
		}
		n, got, err := openNode(body)
		if err != nil {
			t.Fatal(err)
		}
		if got == d {
			return i, n
		}
	}
	t.Fatalf("leaf %s is not in the proof", d.Short())
	return 0, nil
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func mustPrune(t *testing.T, body []byte, lo, hi int) []byte {
	t.Helper()
	out, err := posleaf.Prune(body, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchProofShipsOneRunPerLeaf: each visited leaf is in the proof
// once, cut to the contiguous run of entries its keys need.
func TestBatchProofShipsOneRunPerLeaf(t *testing.T) {
	tr, entries, _ := elideTree(t)
	g := groupLen(t)
	ls := threeLeaves(t, tr, entries)
	a, c := ls[0], ls[2]
	keys := [][]byte{
		a.n.Entries[g+1].Key,            // hit, entry g+1 of a
		between(a.n.Entries[3*g-1]),     // miss between entries 3g-1 and 3g of a
		a.n.Entries[g+1].Key,            // the same hit again
		c.n.Entries[0].Key,              // hit, entry 0 of c
		between(c.n.Entries[g+2]),       // miss between entries g+2 and g+3 of c
		entries[len(entries)-1].Key,     // some far leaf
		append([]byte("zzzz"), 0xff, 0), // beyond the largest key: no leaf at all
	}
	p, err := tr.ProveGetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(tr.Root()); err != nil {
		t.Fatal(err)
	}
	seen := map[hashutil.Digest]bool{}
	for _, body := range p.Nodes {
		_, d, err := openNode(body)
		if err != nil || seen[d] {
			t.Fatalf("node %s: err=%v, duplicate=%v", d.Short(), err, seen[d])
		}
		seen[d] = true
	}
	if _, n := leafOf(t, p.Nodes, a.digest); n.First != g+1 || len(n.Entries) != 2*g {
		t.Fatalf("leaf a ships entries [%d,%d), want [%d,%d]", n.First, n.First+len(n.Entries), g+1, 3*g)
	}
	if _, n := leafOf(t, p.Nodes, c.digest); n.First != 0 || len(n.Entries) != g+4 {
		t.Fatalf("leaf c ships entries [%d,%d), want [0,%d]", n.First, n.First+len(n.Entries), g+3)
	}
	for i, want := range []bool{true, false, true, true, false, true, false} {
		if p.Found[i] != want {
			t.Fatalf("key %d: found=%v", i, p.Found[i])
		}
	}
	// Pruned, the proof is a fraction of the whole leaves it touches.
	var shipped, whole int
	for _, body := range p.Nodes {
		if body[0] == 0 {
			shipped += len(body)
		}
	}
	for _, l := range []leafInfo{a, c, leavesOf(t, tr, entries[len(entries)-1:])[0]} {
		whole += len(l.body)
	}
	if shipped*10 > whole*7 {
		t.Fatalf("pruned leaves are %d bytes of %d", shipped, whole)
	}
}

// TestRangeProofPrunesEdgeLeaves: interior leaves travel whole, the two
// edge leaves cut to their in-range entries plus one neighbouring entry
// each side, and the rows always equal a plain scan — for ranges that
// start or end inside a group, on a group edge, on a leaf edge, below the
// tree's smallest key, past its largest, and for empty ones.
func TestRangeProofPrunesEdgeLeaves(t *testing.T) {
	tr, entries, _ := elideTree(t)
	g := groupLen(t)
	ls := threeLeaves(t, tr, entries)
	a, c := ls[0], ls[2]
	last := func(l leafInfo) int { return len(l.n.Entries) - 1 }

	type span struct{ first, n int } // entries present of a leaf; n < 0: to its end
	whole := span{0, -1}
	cases := []struct {
		name       string
		start, end []byte
		a, b, c    *span
	}{
		{"inside groups", a.n.Entries[g+2].Key, c.n.Entries[g+2].Key,
			&span{g + 1, -1}, &whole, &span{0, g + 3}},
		{"from a group's first entry to a group's last", a.n.Entries[2*g].Key, c.n.Entries[2*g].Key,
			// The neighbour before entry 2g is the last of group 1; the entry
			// at the cut, 2g of c, is itself the right neighbour.
			&span{2*g - 1, -1}, &whole, &span{0, 2*g + 1}},
		{"from just past a group's last entry", between(a.n.Entries[2*g-1]), between(c.n.Entries[2*g-1]),
			&span{2*g - 1, -1}, &whole, &span{0, 2*g + 1}},
		// The leaf's own first entry opens the run and its own last entry
		// closes it: no neighbouring leaf is needed.
		{"leaf edge to leaf edge", a.n.Entries[0].Key, c.n.Entries[last(c)].Key,
			&whole, &whole, &whole},
		{"one leaf's interior", a.n.Entries[g+1].Key, a.n.Entries[g+3].Key,
			&span{g, 4}, nil, nil},
		{"empty, inside a group", between(a.n.Entries[g+1]), between(a.n.Entries[g+1]),
			&span{g + 1, 2}, nil, nil},
		{"a gap at a group edge", between(a.n.Entries[g-1]), a.n.Entries[g].Key,
			&span{g - 1, 2}, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tr.ProveScan(tc.start, tc.end)
			if err != nil {
				t.Fatal(err)
			}
			var want []Entry
			if err := tr.Scan(tc.start, tc.end, func(e Entry) bool { want = append(want, e); return true }); err != nil {
				t.Fatal(err)
			}
			if !sameEntries(p.Entries, want) {
				t.Fatalf("ProveScan returned %d rows, Scan %d", len(p.Entries), len(want))
			}
			sent := withoutEntries(p)
			if err := sent.Verify(tr.Root()); err != nil {
				t.Fatal(err)
			}
			if !sameEntries(sent.Entries, want) {
				t.Fatalf("verification read %d rows off the leaves, want %d", len(sent.Entries), len(want))
			}
			if rows, err := blindRange(t, p, tr.Root(), nil, 0); err != nil || !sameEntries(rows, want) {
				t.Fatalf("the reference verifier disagrees: %d rows, %v", len(rows), err)
			}
			leaves := 0
			for _, body := range p.Nodes {
				if body[0] == 0 {
					leaves++
				}
			}
			wantLeaves := 0
			for i, sp := range []*span{tc.a, tc.b, tc.c} {
				if sp == nil {
					continue
				}
				wantLeaves++
				l := ls[i]
				_, n := leafOf(t, p.Nodes, l.digest)
				first, cnt := sp.first, sp.n
				if cnt < 0 {
					cnt = len(l.n.Entries)
				}
				cnt = min(cnt, len(l.n.Entries)-first)
				if n.First != first || len(n.Entries) != cnt {
					t.Fatalf("leaf %d ships entries [%d,%d), want [%d,%d)", i, n.First, n.First+len(n.Entries), first, first+cnt)
				}
			}
			if leaves != wantLeaves {
				t.Fatalf("proof ships %d leaves, want %d", leaves, wantLeaves)
			}
		})
	}

	// The ends of the tree, where the leaf's own edge is the bracket.
	for name, r := range map[string][2][]byte{
		"below the smallest key": {[]byte(""), entries[3].Key},
		"past the largest key":   {entries[len(entries)-3].Key, nil},
		"beyond everything":      {append([]byte("zzzz"), 0xff), nil},
		"inverted":               {entries[900].Key, entries[800].Key},
		"everything":             {nil, nil},
	} {
		p, err := tr.ProveScan(r[0], r[1])
		if err != nil {
			t.Fatal(name, err)
		}
		var want []Entry
		if err := tr.Scan(r[0], r[1], func(e Entry) bool { want = append(want, e); return true }); err != nil {
			t.Fatal(err)
		}
		sent := withoutEntries(p)
		if err := sent.Verify(tr.Root()); err != nil || !sameEntries(sent.Entries, want) || !sameEntries(p.Entries, want) {
			t.Fatalf("%s: %d rows proven, %d verified, %d scanned: %v", name, len(p.Entries), len(sent.Entries), len(want), err)
		}
	}
}

// TestWarmBatchAndRangeShipOnlyLeaves: against a verifier that made the
// same read before, both shapes ship no index node at all; a write
// elsewhere re-ships only the nodes it replaced, and those the walk no
// longer reaches are reported superseded.
func TestWarmBatchAndRangeShipOnlyLeaves(t *testing.T) {
	tr, entries, _ := elideTree(t)
	ls := threeLeaves(t, tr, entries)
	keys := [][]byte{ls[0].n.Entries[3].Key, ls[2].n.Entries[5].Key, entries[100].Key, entries[39000].Key}
	start, end := ls[0].n.Entries[5].Key, ls[2].n.Entries[5].Key

	prove := func(tr *Tree) (BatchProof, RangeProof) {
		bp, err := tr.ProveGetBatch(keys)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := tr.ProveScan(start, end)
		if err != nil {
			t.Fatal(err)
		}
		return bp, rp
	}
	bp, rp := prove(tr)
	// One path for both sub-proofs, as a ledger batch proof verifies them.
	warm := shippedBy(t, func(pa *Path) error {
		if err := bp.VerifyPath(tr.Root(), pa); err != nil {
			return err
		}
		return rp.VerifyPath(tr.Root(), pa)
	})
	distinct := map[hashutil.Digest]bool{}
	for _, n := range warm {
		distinct[n.Digest()] = true
	}
	have := held(pin(warm...))

	eb, nb := have.Point(bp)
	er, nr := have.Range(rp)
	for _, body := range append(append([][]byte(nil), eb.Nodes...), er.Nodes...) {
		if body[0] != 0 {
			t.Fatal("an index node was shipped to a verifier that holds it")
		}
	}
	if nb+len(eb.Nodes) != len(bp.Nodes) || nr+len(er.Nodes) != len(rp.Nodes) {
		t.Fatalf("elided %d+%d nodes of %d+%d", nb, nr, len(bp.Nodes), len(rp.Nodes))
	}
	path := pin(warm...)
	if err := eb.VerifyPath(tr.Root(), path); err != nil {
		t.Fatal(err)
	}
	if err := er.VerifyPath(tr.Root(), path); err != nil {
		t.Fatal(err)
	}
	if path.Elided() != len(distinct) || len(path.Shipped) != 0 || len(path.Superseded()) != 0 {
		t.Fatalf("warm read: %d of %d pins used, %d shipped, %d superseded",
			path.Elided(), len(distinct), len(path.Shipped), len(path.Superseded()))
	}
	if !sameEntries(er.Entries, rp.Entries) {
		t.Fatal("rows read off an elided range proof differ")
	}
	if err := eb.Verify(tr.Root()); err == nil {
		t.Fatal("elided batch proof verified with nothing pinned")
	}
	if err := er.Verify(tr.Root()); err == nil || er.Entries != nil {
		t.Fatal("elided range proof verified with nothing pinned")
	}

	// A write under keys[2]: its path is new, everything else still held.
	next, err := tr.Put(keys[2], []byte("rewritten"))
	if err != nil {
		t.Fatal(err)
	}
	bp2, rp2 := prove(next)
	eb2, _ := have.Point(bp2)
	er2, _ := have.Range(rp2)
	path = pin(warm...)
	if err := eb2.VerifyPath(next.Root(), path); err != nil {
		t.Fatal(err)
	}
	if err := er2.VerifyPath(next.Root(), path); err != nil {
		t.Fatal(err)
	}
	point, err := next.ProveGet(keys[2])
	if err != nil {
		t.Fatal(err)
	}
	height := len(point.Nodes)
	shipped := map[hashutil.Digest]bool{}
	for _, n := range path.Shipped {
		shipped[n.Digest()] = true
	}
	if len(shipped) != height-1 || len(path.Superseded()) != height-1 {
		t.Fatalf("after one write: %d new index nodes shipped, %d superseded, want the %d of one path",
			len(shipped), len(path.Superseded()), height-1)
	}
	if !eb2.Found[2] || !bytes.Equal(eb2.Values[2], []byte("rewritten")) {
		t.Fatalf("stale value %q", eb2.Values[2])
	}
	// The proof of the new state does not verify under the old root.
	if err := eb2.VerifyPath(tr.Root(), pin(warm...)); err == nil {
		t.Fatal("proof of the new state verified against the old root")
	}
}

// TestBatchAndRangeStructuredForgeries: each forgery passes the blind
// reference with exactly the named check left out, fails it with none left
// out, and fails the real verifier.
func TestBatchAndRangeStructuredForgeries(t *testing.T) {
	tr, entries, _ := elideTree(t)
	g := groupLen(t)
	ls := threeLeaves(t, tr, entries)
	a, b, c := ls[0], ls[1], ls[2]
	forged := []byte("forged value")

	keyA := a.n.Entries[g+1].Key         // group 1 of a
	keyB := a.n.Entries[2*g+1].Key       // group 2 of a
	keyC := a.n.Entries[1].Key           // group 0 of a
	edge := between(a.n.Entries[g-1])    // absent, between groups 0 and 1 of a
	absentA := between(a.n.Entries[g+1]) // absent, inside group 1 of a
	otherLeaf := entries[len(entries)-1] // a key far from a
	rootOnly := func(n [][]byte) [][]byte { return n[:1] }

	batch := func(tr *Tree, keys ...[]byte) BatchProof {
		t.Helper()
		p, err := tr.ProveGetBatch(keys)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	scan := func(tr *Tree, start, end []byte) RangeProof {
		t.Helper()
		p, err := tr.ProveScan(start, end)
		if err != nil {
			t.Fatal(err)
		}
		return withoutEntries(p)
	}
	// withLeaf replaces the shipped body of leaf l.
	withLeaf := func(nodes [][]byte, l leafInfo, body []byte) [][]byte {
		i, _ := leafOf(t, nodes, l.digest)
		out := append([][]byte(nil), nodes...)
		out[i] = body
		return out
	}
	claimAbsent := func(p BatchProof, i int) BatchProof {
		p.Found = append([]bool(nil), p.Found...)
		p.Values = append([][]byte(nil), p.Values...)
		p.Found[i], p.Values[i] = false, nil
		return p
	}
	bFirst := mustSplit(t, mustPrune(t, b.body, 0, 0)) // leaf b's first entry and its siblings

	// One commit later: keyA rewritten, so its whole path is new.
	next, err := tr.Put(keyA, []byte("the new value"))
	if err != nil {
		t.Fatal(err)
	}
	warmA := func() []*Node { return warmNodes(t, tr, keyA) }
	cold := func() []*Node { return nil }

	// Path-shaped proofs (one key, one small range inside leaf a) that the
	// whole-subtree forgeries rewrite.
	oneKey := batch(tr, keyA)
	inLeaf := scan(tr, a.n.Entries[g+1].Key, a.n.Entries[g+3].Key)
	height := len(oneKey.Nodes)
	top := make([]int, height-2) // the positions above the forged parent
	for i := range top {
		top[i] = i
	}
	below := make([]int, height-2) // the index positions below the root
	for i := range below {
		below[i] = i + 1
	}

	type batchCase struct {
		name   string
		skips  trust
		root   hashutil.Digest
		pinned func() []*Node
		proof  func() BatchProof
	}
	batchCases := []batchCase{
		{"answers key A from key B's entry of the same leaf", trustGap, tr.Root(), cold, func() BatchProof {
			p := claimAbsent(batch(tr, keyA, keyB), 0)
			p.Nodes = withLeaf(p.Nodes, a, mustPrune(t, a.body, 2*g+1, 2*g+1))
			return p
		}},
		{"claims a key absent with only the right side of the gap shipped", trustGap, tr.Root(), cold, func() BatchProof {
			p := batch(tr, edge, keyB)
			p.Nodes = withLeaf(p.Nodes, a, mustPrune(t, a.body, g, 2*g+1))
			return p
		}},
		{"claims a key absent with only the left side of the gap shipped", trustGap, tr.Root(), cold, func() BatchProof {
			p := batch(tr, edge, keyC)
			p.Nodes = withLeaf(p.Nodes, a, mustPrune(t, a.body, 0, g-1))
			return p
		}},
		{"ships an entry of another leaf at the same position", trustLeaf, tr.Root(), cold, func() BatchProof {
			// Leaf b's first entry — past every key of leaf a — as a's
			// first: "keyA sorts before the leaf's first entry".
			p := claimAbsent(batch(tr, keyA), 0)
			forged := bFirst
			forged.count = uint64(len(a.n.Entries))
			p.Nodes = withLeaf(p.Nodes, a, forged.join())
			return p
		}},
		{"elides a node that was not hinted", trustElided, tr.Root(), cold, func() BatchProof {
			p := oneKey
			p.Nodes = without(forgePath(t, tr, p.Nodes, p.Digests, keyA, forged), top...)
			p.Values = [][]byte{forged}
			return p
		}},
		{"elides a hinted node and routes through a different pinned node", trustElided, next.Root(), warmA, func() BatchProof {
			// The new root, honestly; below it "what you hold"; the old
			// leaf, whose stale value the old pinned path does lead to.
			p := oneKey
			p.Nodes = without(p.Nodes, below...)
			p.Nodes[0] = rootOnly(batch(next, keyA).Nodes)[0]
			return p
		}},
		{"ships an extra node the walk never asks for", trustExtra, tr.Root(), cold, func() BatchProof {
			p := oneKey
			extra := batch(tr, otherLeaf.Key)
			p.Nodes = append(append([][]byte(nil), p.Nodes...), extra.Nodes[len(extra.Nodes)-1])
			return p
		}},
		{"ships a node twice", trustExtra, tr.Root(), cold, func() BatchProof {
			p := batch(tr, keyA, absentA, otherLeaf.Key)
			p.Nodes = append(append([][]byte(nil), p.Nodes...), p.Nodes[0])
			return p
		}},
	}
	for _, tc := range batchCases {
		t.Run("batch "+tc.name, func(t *testing.T) {
			p := tc.proof()
			if err := blindBatch(t, p, tc.root, tc.pinned(), tc.skips); err != nil {
				t.Fatalf("forgery does not even fool a verifier that skips the check (%v): the case proves nothing", err)
			}
			if err := blindBatch(t, p, tc.root, tc.pinned(), 0); err == nil {
				t.Fatal("forgery passes the reference verifier with no check left out")
			}
			if err := p.VerifyPath(tc.root, pin(tc.pinned()...)); err == nil {
				t.Fatal("forged batch proof verified")
			}
		})
	}

	// The range under attack: from inside group 1 of a, over all of b, to
	// inside group 1 of c. Honestly: a from entry g+1 on, b whole, c's
	// entries 0 through g+1.
	start, end := a.n.Entries[g+2].Key, c.n.Entries[g+1].Key
	honest := scan(tr, start, end)
	want, err := blindRange(t, honest, tr.Root(), nil, 0)
	if err != nil || len(want) != len(a.n.Entries)-(g+2)+len(b.n.Entries)+g+1 {
		t.Fatalf("honest range: %d rows, %v", len(want), err)
	}
	lastA := len(a.n.Entries) - 1

	type rangeCase struct {
		name   string
		skips  trust
		root   hashutil.Digest
		pinned func() []*Node
		proof  func() RangeProof
	}
	rangeCases := []rangeCase{
		{"drops in-range entries from the left edge leaf", trustGap, tr.Root(), cold, func() RangeProof {
			p := honest
			p.Nodes = withLeaf(p.Nodes, a, mustPrune(t, a.body, 2*g, lastA)) // rows g+2..2g-1 gone
			return p
		}},
		{"prunes an interior leaf", trustGap, tr.Root(), cold, func() RangeProof {
			p := honest
			p.Nodes = withLeaf(p.Nodes, b, mustPrune(t, b.body, 0, 0))
			return p
		}},
		{"ships the right edge leaf without its bracketing neighbour and omits the row next to it", trustGap, tr.Root(), cold, func() RangeProof {
			// Row g of c is in range, its neighbour g+1 closes the run;
			// neither is shipped.
			p := honest
			p.Nodes = withLeaf(p.Nodes, c, mustPrune(t, c.body, 0, g-1))
			return p
		}},
		{"ships exactly the in-range entries and not the neighbour that closes the run", trustGap, tr.Root(), cold, func() RangeProof {
			// Nothing is omitted — but nothing shows that: the next entry
			// might have been a row below end.
			p := scan(tr, start, c.n.Entries[g].Key)
			p.Nodes = withLeaf(p.Nodes, c, mustPrune(t, c.body, 0, g-1))
			return p
		}},
		{"ships an entry of another leaf at the same position", trustLeaf, tr.Root(), cold, func() RangeProof {
			// Leaf c's honest slot, its first entry replaced by b's.
			p := honest
			i, _ := leafOf(t, p.Nodes, c.digest)
			forged := mustSplit(t, p.Nodes[i])
			_, _, rest, _ := posleaf.ReadEntry(forged.entries)
			forged.entries = append(append([]byte(nil), bFirst.entries...), rest...)
			p.Nodes = withLeaf(p.Nodes, c, forged.join())
			return p
		}},
		{"elides a node that was not hinted", trustElided, tr.Root(), cold, func() RangeProof {
			p := inLeaf
			p.Nodes = without(forgePath(t, tr, p.Nodes, p.Digests, keyA, forged), top...)
			return p
		}},
		{"elides a hinted node and routes through a different pinned node", trustElided, next.Root(), warmA, func() RangeProof {
			p := inLeaf
			p.Nodes = without(p.Nodes, below...)
			p.Nodes[0] = rootOnly(scan(next, inLeaf.Start, inLeaf.End).Nodes)[0]
			return p
		}},
		{"ships an extra node the walk never asks for", trustExtra, tr.Root(), cold, func() RangeProof {
			p := honest
			extra := scan(tr, otherLeaf.Key, nil)
			p.Nodes = append(append([][]byte(nil), p.Nodes...), extra.Nodes[len(extra.Nodes)-1])
			return p
		}},
		{"ships a node twice", trustExtra, tr.Root(), cold, func() RangeProof {
			p := honest
			i, _ := leafOf(t, p.Nodes, b.digest)
			p.Nodes = append(append([][]byte(nil), p.Nodes...), p.Nodes[i])
			return p
		}},
	}
	for _, tc := range rangeCases {
		t.Run("range "+tc.name, func(t *testing.T) {
			p := tc.proof()
			rows, err := blindRange(t, p, tc.root, tc.pinned(), tc.skips)
			if err != nil {
				t.Fatalf("forgery does not even fool a verifier that skips the check (%v): the case proves nothing", err)
			}
			if tc.skips == trustGap && tc.name != "ships exactly the in-range entries and not the neighbour that closes the run" && len(rows) >= len(want) {
				t.Fatalf("the forgery omits nothing: %d rows of %d", len(rows), len(want))
			}
			if _, err := blindRange(t, p, tc.root, tc.pinned(), 0); err == nil {
				t.Fatal("forgery passes the reference verifier with no check left out")
			}
			if err := p.VerifyPath(tc.root, pin(tc.pinned()...)); err == nil || p.Entries != nil {
				t.Fatalf("forged range proof verified (%d rows)", len(p.Entries))
			}
		})
	}

	// And what must still verify: the same bodies in any order.
	for _, nodes := range []*[][]byte{&honest.Nodes, &oneKey.Nodes} {
		rev := append([][]byte(nil), *nodes...)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		*nodes = rev
	}
	if err := honest.Verify(tr.Root()); err != nil || !sameEntries(honest.Entries, want) {
		t.Fatalf("range proof with its nodes reversed: %d rows, %v", len(honest.Entries), err)
	}
	if err := oneKey.Verify(tr.Root()); err != nil {
		t.Fatalf("batch proof with its nodes reversed: %v", err)
	}
}

// TestBatchAndRangeEveryByteTrips flips every byte of a warm verifier's
// batch and range proofs — leaves only — one at a time.
func TestBatchAndRangeEveryByteTrips(t *testing.T) {
	tr, entries, _ := elideTree(t)
	g := groupLen(t)
	ls := threeLeaves(t, tr, entries)
	keys := [][]byte{ls[0].n.Entries[g+1].Key, between(ls[0].n.Entries[2*g-1]), ls[2].n.Entries[0].Key}
	bp, err := tr.ProveGetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := tr.ProveScan(ls[0].n.Entries[g+2].Key, ls[1].n.Entries[1].Key)
	if err != nil {
		t.Fatal(err)
	}
	warm := shippedBy(t, func(pa *Path) error {
		if err := bp.VerifyPath(tr.Root(), pa); err != nil {
			return err
		}
		return rp.VerifyPath(tr.Root(), pa)
	})
	have := held(pin(warm...))
	eb, _ := have.Point(bp)
	er, _ := have.Range(rp)
	step := 1
	if testing.Short() {
		step = 7
	}
	for i := range eb.Nodes {
		for off := 0; off < len(eb.Nodes[i]); off += step {
			q := eb
			q.Nodes = append([][]byte(nil), eb.Nodes...)
			q.Nodes[i] = append([]byte(nil), eb.Nodes[i]...)
			q.Nodes[i][off] ^= 0x01
			if err := q.VerifyPath(tr.Root(), pin(warm...)); err == nil {
				t.Fatalf("batch leaf %d byte %d flipped: proof still verified", i, off)
			}
		}
	}
	for i := range er.Nodes {
		for off := 0; off < len(er.Nodes[i]); off += step {
			q := er
			q.Nodes = append([][]byte(nil), er.Nodes...)
			q.Nodes[i] = append([]byte(nil), er.Nodes[i]...)
			q.Nodes[i][off] ^= 0x01
			if err := q.VerifyPath(tr.Root(), pin(warm...)); err == nil || q.Entries != nil {
				t.Fatalf("range leaf %d byte %d flipped: proof still verified", i, off)
			}
		}
	}
	for i := range eb.Keys {
		q := eb
		q.Found = append([]bool(nil), eb.Found...)
		q.Found[i] = !q.Found[i]
		if err := q.VerifyPath(tr.Root(), pin(warm...)); err == nil {
			t.Fatalf("key %d: flipped Found verified", i)
		}
	}
	if err := eb.VerifyPath(tr.Root(), pin(warm...)); err != nil {
		t.Fatal(err)
	}
	if err := er.VerifyPath(tr.Root(), pin(warm...)); err != nil {
		t.Fatal(err)
	}
}
