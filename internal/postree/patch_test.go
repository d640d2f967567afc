package postree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"spitz/internal/proof"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
)

// Patched slots: an index node the verifier holds another version of
// travels as the edits that turn that version into it. These tests pin the
// format's round trip, that a verifier fed patched proofs is told exactly
// what one fed whole proofs is, the forgeries a patch makes possible —
// through the blind reference of elide_test.go, as the other tables — and
// what a hostile hint or a hostile patch can cost.

// isPatch reports whether a node slot is a patched one.
func isPatch(slot []byte) bool { return len(slot) > 0 && slot[0] == proof.PatchMarker }

// TestPatchRoundTrip: for random pairs of sorted entry lists — one made of
// the other by overwrites, inserts and deletes, a few or many — applying
// the diff to the base gives the other list back, entry for entry, and the
// diff is refused exactly when it is not smaller than the limit.
func TestPatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	d := hashutil.Sum(hashutil.DomainPOSIndex, []byte("base"))
	for round := 0; round < 500; round++ {
		// Routing entries: a value is a digest and a count.
		value := func() []byte {
			v := make([]byte, hashutil.DigestSize+8)
			rng.Read(v)
			return v
		}
		base := testEntries(1+rng.Intn(80), int64(round))
		for i := range base {
			base[i].Value = value()
		}
		var cur []Entry
		heavy := rng.Intn(4) == 0
		for _, e := range base {
			switch r := rng.Intn(100); {
			case r < 3 || (heavy && r < 40):
				continue // deleted
			case r < 8 || (heavy && r < 70):
				e.Value = value()
			}
			cur = append(cur, e)
			if rng.Intn(100) < 3 || (heavy && rng.Intn(3) == 0) {
				// '-' after the key sorts between it and the next one.
				cur = append(cur, Entry{Key: append(append([]byte(nil), e.Key...), '-'), Value: value()})
			}
		}
		if rng.Intn(10) == 0 {
			cur = append([]Entry{{Key: []byte("a-first"), Value: value()}}, cur...)
		}
		if rng.Intn(10) == 0 {
			cur = append(cur, Entry{Key: []byte("z-last"), Value: value()})
		}
		slot, ok := appendPatch([]byte("prefix"), d, base, cur, 1<<30)
		if !ok || !bytes.HasPrefix(slot, []byte("prefix")) {
			t.Fatalf("round %d: no patch", round)
		}
		slot = slot[len("prefix"):]
		if slot[0] != proof.PatchMarker || !bytes.Equal(slot[1:1+len(d)], d[:]) {
			t.Fatalf("round %d: slot does not open with the marker and the base digest", round)
		}
		got, err := proof.ApplyEdits(nil, slot[1+len(d):], base)
		if err != nil || !sameEntries(got, cur) {
			t.Fatalf("round %d: apply(base, diff(base, cur)) != cur: %v", round, err)
		}
		if ref, ok := blindEdits(slot[1+len(d):], base, false); !ok || !sameEntries(ref, cur) {
			t.Fatalf("round %d: the reference applier disagrees", round)
		}
		// The limit is on the whole slot: one byte less and there is no patch.
		if _, ok := appendPatch(nil, d, base, cur, len(slot)); ok {
			t.Fatalf("round %d: a %d-byte patch under a limit of %d", round, len(slot), len(slot))
		}
		if again, ok := appendPatch(nil, d, base, cur, len(slot)+1); !ok || !bytes.Equal(again, slot) {
			t.Fatalf("round %d: no patch under a limit one past its size", round)
		}
	}
}

// nodesUnder returns every index node of tr a cold verifier of the given
// reads would hold afterwards.
func nodesUnder(t *testing.T, tr *Tree, keys [][]byte, start, end []byte) []*Node {
	t.Helper()
	got := new(Path)
	bp, err := tr.ProveGetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.VerifyPath(tr.Root(), got); err != nil {
		t.Fatal(err)
	}
	rp, err := tr.ProveScan(start, end)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.VerifyPath(tr.Root(), got); err != nil {
		t.Fatal(err)
	}
	return got.Shipped
}

// TestPatchedProofsMatchWholeProofs drives a tree through random edit
// scripts — overwrites mostly, inserts and deletes beside them, now and
// then a batch large enough to split and merge index nodes — and after each
// has a verifier that holds the previous version's nodes read the new one:
// every patched slot rebuilds, byte for byte, the body it stands for, and
// point, batch and range proofs cut against the hint verify to exactly the
// answers, and cache exactly the nodes, of the proofs shipped whole.
func TestPatchedProofsMatchWholeProofs(t *testing.T) {
	rng := rand.New(rand.NewSource(2028))
	entries := testEntries(30000, 7)
	tr := mustBulk(t, entries)
	pick := func() []byte { return entries[rng.Intn(len(entries))].Key }
	patched, structural, whole := 0, 0, 0
	for round := 0; round < 60; round++ {
		n := 1 + rng.Intn(4)
		if round%8 == 7 {
			n = 600
		}
		edits := make([]Edit, n)
		for i := range edits {
			switch r := rng.Intn(10); {
			case r < 6:
				edits[i] = Edit{Key: pick(), Value: []byte(fmt.Sprintf("round %d", round))}
			case r < 8:
				edits[i] = Edit{Key: []byte(fmt.Sprintf("key-%08d-new-%d", rng.Intn(300000), round)), Value: []byte("new")}
			default:
				edits[i] = Edit{Key: pick(), Delete: true}
			}
		}
		next, err := tr.Apply(edits)
		if err != nil {
			t.Fatal(err)
		}
		// Reads where the edits landed, where they did not, and of keys
		// that are not there.
		keys := [][]byte{edits[0].Key, edits[len(edits)-1].Key, pick(), pick(), []byte("key-0"), []byte("zzzz")}
		start := pick()
		end := append(append([]byte(nil), start[:len(start)-2]...), "zz"...)
		held := nodesUnder(t, tr, keys, start, end)
		have := func() HeldSet { return next.Held(pin(held...).Have()) }

		// check verifies one proof shape both ways; nodes/digests are the
		// proof as built, cut what Elide made of it.
		check := func(shape string, nodes [][]byte, digests []hashutil.Digest, cut [][]byte, verify func(*Path) error) {
			t.Helper()
			path := pin(held...)
			wantShipped := map[hashutil.Digest]bool{}
			k := 0
			for i, body := range nodes {
				if body[0] != 0 && pinned(path, digests[i]) {
					continue // elided
				}
				slot := cut[k]
				k++
				if body[0] != 0 {
					wantShipped[digests[i]] = true
				}
				if !isPatch(slot) {
					if !bytes.Equal(slot, body) {
						t.Fatalf("round %d %s: slot %d is neither the body nor a patch", round, shape, i)
					}
					if body[0] != 0 {
						whole++
					}
					continue
				}
				_, rebuilt, err := rebuild(slot, held)
				if err != nil || !bytes.Equal(rebuilt, body) {
					t.Fatalf("round %d %s: patched slot %d does not rebuild its body: %v", round, shape, i, err)
				}
				if len(slot) >= len(body) {
					t.Fatalf("round %d %s: a %d-byte patch for a %d-byte body", round, shape, len(slot), len(body))
				}
				patched++
				for rest := slot[1+hashutil.DigestSize:]; len(rest) > 0; {
					tag, n := binary.Uvarint(rest)
					rest = rest[n:]
					if tag&3 != proof.PatchDelete {
						_, _, rest, _ = posleaf.ReadEntry(rest)
					}
					if tag&3 != proof.PatchSet {
						structural++
					}
				}
			}
			if k != len(cut) {
				t.Fatalf("round %d %s: %d slots travel, %d expected", round, shape, len(cut), k)
			}
			if err := verify(path); err != nil {
				t.Fatalf("round %d %s: patched proof: %v", round, shape, err)
			}
			if len(path.Shipped) != len(wantShipped) {
				t.Fatalf("round %d %s: %d index nodes to cache, want %d", round, shape, len(path.Shipped), len(wantShipped))
			}
			for _, n := range path.Shipped {
				if !wantShipped[n.Digest()] {
					t.Fatalf("round %d %s: node %s cached, never shipped", round, shape, n.Digest().Short())
				}
				if body, err := next.store.Get(n.Digest()); err != nil || n.Size() != nodeSize(n.Node(), body) {
					t.Fatalf("round %d %s: a patched node is accounted %d bytes: %v", round, shape, n.Size(), err)
				}
			}
		}

		for _, key := range keys {
			full, err := next.ProveGet(key)
			if err != nil {
				t.Fatal(err)
			}
			if err := full.Verify(next.Root()); err != nil {
				t.Fatal(err)
			}
			cut, _ := have().Point(full)
			if cut.Found[0] != full.Found[0] || !bytes.Equal(cut.Values[0], full.Values[0]) {
				t.Fatalf("round %d: Elide changed the claim", round)
			}
			check("point", full.Nodes, full.Digests, cut.Nodes, func(pa *Path) error { return cut.VerifyPath(next.Root(), pa) })
		}
		fullB, err := next.ProveGetBatch(keys)
		if err != nil {
			t.Fatal(err)
		}
		cutB, _ := have().Point(fullB)
		check("batch", fullB.Nodes, fullB.Digests, cutB.Nodes, func(pa *Path) error { return cutB.VerifyPath(next.Root(), pa) })
		fullR, err := next.ProveScan(start, end)
		if err != nil {
			t.Fatal(err)
		}
		cutR, _ := have().Range(fullR)
		check("range", fullR.Nodes, fullR.Digests, cutR.Nodes, func(pa *Path) error { return cutR.VerifyPath(next.Root(), pa) })
		if !sameEntries(cutR.Entries, fullR.Entries) {
			t.Fatalf("round %d: the patched range proof verified to %d rows, the whole one to %d", round, len(cutR.Entries), len(fullR.Entries))
		}
		tr = next
	}
	if patched == 0 || structural == 0 || whole == 0 {
		t.Fatalf("%d nodes patched (%d inserts and deletes among the edits), %d shipped whole: the script does not cover all three", patched, structural, whole)
	}
}

// TestPatchOnlyAgainstTheHint: nothing is patched without a hint, and a
// node is patched only against a digest the hint names — not against an
// older version the server's cache happens to hold.
func TestPatchOnlyAgainstTheHint(t *testing.T) {
	tr, _, key := elideTree(t)
	warm := warmNodes(t, tr, key)
	next, err := tr.Put(key, []byte("the new value"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := next.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	for name, have := range map[string]HeldSet{
		"no hint":               next.Held(nil),
		"the digests alone":     NewHeldSet(pin(warm...).Have()),
		"a hint of other nodes": next.Held([]hashutil.Digest{hashutil.Sum(hashutil.DomainValue, []byte("x"))}),
	} {
		cut, n := have.Point(full)
		if n != 0 || &cut.Nodes[0] != &full.Nodes[0] {
			t.Fatalf("%s: the proof was cut", name)
		}
		if nodes, saved := have.Patched(); nodes != 0 || saved != 0 {
			t.Fatalf("%s: %d nodes patched", name, nodes)
		}
	}
	// Only the root is named: only the root is patched, against it.
	have := next.Held(pin(warm[0]).Have())
	cut, _ := have.Point(full)
	if !isPatch(cut.Nodes[0]) || !bytes.Equal(cut.Nodes[0][1:1+hashutil.DigestSize], digestBytes(warm[0])) {
		t.Fatal("the root was not patched against the hinted root")
	}
	for i, slot := range cut.Nodes[1:] {
		if isPatch(slot) {
			t.Fatalf("slot %d is patched against a node the hint does not name", i+1)
		}
	}
	if nodes, saved := have.Patched(); nodes != 1 || saved != len(full.Nodes[0])-len(cut.Nodes[0]) {
		t.Fatalf("Patched() = %d nodes, %d bytes", nodes, saved)
	}
	if err := cut.VerifyPath(next.Root(), pin(warm[0])); err != nil {
		t.Fatal(err)
	}
	for i, body := range full.Nodes {
		if len(body) == 0 || isPatch(body) {
			t.Fatalf("Elide wrote into node %d of the proof it was called on", i)
		}
	}
}

// TestPatchStructuredForgeries: what a lying server can do with a patched
// slot. As in the other tables, each forgery passes the blind reference
// with exactly one named check left out, fails it with none left out, and
// fails the real verifier — which it leaves with nothing to cache.
func TestPatchStructuredForgeries(t *testing.T) {
	tr, _, key := elideTree(t)
	warm := warmNodes(t, tr, key) // root first
	old, err := tr.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	// One commit later key's value, and so its whole path, is new: the
	// honest answer to a verifier that holds the old path is a patch per
	// index level and the new leaf.
	next, err := tr.Put(key, []byte("the new value"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := next.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	honest, _ := next.Held(pin(warm...).Have()).Point(full)
	index := len(full.Nodes) - 1
	for i := 0; i < index; i++ {
		if !isPatch(honest.Nodes[i]) {
			t.Fatalf("index node %d of the honest answer is not patched", i)
		}
	}
	if err := honest.VerifyPath(next.Root(), pin(warm...)); err != nil {
		t.Fatalf("the honest patched proof: %v", err)
	}
	if err := blindVerify(t, honest, next.Root(), warm, 0); err != nil {
		t.Fatalf("the reference verifier rejects the honest patched proof: %v", err)
	}
	with := func(p BatchProof, i int, slot []byte) BatchProof {
		p.Nodes = append([][]byte(nil), p.Nodes...)
		p.Nodes[i] = slot
		return p
	}
	stale := func(p BatchProof) BatchProof { // the old value, claimed current
		p.Values = [][]byte{old.Values[0]}
		return p
	}
	oldLeaf := old.Nodes[index]
	forgedLeaf := func() []byte { // the old leaf with key's value set, as a patch against it
		n, d, err := openNode(oldLeaf)
		if err != nil {
			t.Fatal(err)
		}
		slot := append([]byte{proof.PatchMarker}, d[:]...)
		slot = binary.AppendUvarint(slot, uint64(proof.Search(n.Entries, key))<<2|proof.PatchSet)
		return posleaf.AppendEntry(slot, nil, []byte("forged value"))
	}

	cases := []struct {
		name   string
		skip   trust
		pinned []*Node
		known  []*Node
		proof  BatchProof
	}{
		// The verifier holds the old root but did not pin it for this
		// request (it might have been evicted since): the patch is honest
		// and rebuilds the right root, from a base nobody offered.
		{"patches against a node the request did not hint", trustPatch,
			warm[1:], warm[:1], honest},
		// Nothing was hinted at all.
		{"patches in a hint-less response", trustPatch,
			nil, warm, honest},
		// The old leaf travels along as the base of a patch that rewrites
		// key's value in it, in place of the new leaf.
		{"patches against a leaf", trustPatch,
			warm, nil, func() BatchProof {
				p := with(honest, index, forgedLeaf())
				p.Nodes = append(p.Nodes, oldLeaf)
				p.Values = [][]byte{[]byte("forged value")}
				return p
			}()},
		// An honest patch with one more edit, at an entry the base does not
		// have: a reader that passes it over rebuilds the right node.
		{"carries an edit past the base's last entry", trustPatch,
			warm, nil, with(honest, 0, binary.AppendUvarint(append([]byte(nil), honest.Nodes[0]...),
				uint64(len(warm[0].Node().Entries)+5)<<2|proof.PatchDelete))},
		// The empty patch rebuilds the old root itself, which routes to the
		// old path — all pinned — and the old leaf: yesterday's value under
		// today's root.
		{"rebuilds a node other than the one the trusted root names", trustPatch,
			warm, nil, stale(oneKey(key, nil, true, append([]byte{proof.PatchMarker}, digestBytes(warm[0])...), oldLeaf))},
		// The honest proof, and beside it a well-formed patch of a node no
		// walk wants.
		{"smuggles a patch in beside the nodes asked for", trustExtra,
			warm, nil, func() BatchProof {
				p := honest
				p.Nodes = append(append([][]byte(nil), honest.Nodes...),
					binary.AppendUvarint(append([]byte{proof.PatchMarker}, digestBytes(warm[0])...), 0<<2|proof.PatchDelete))
				return p
			}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sloppy := newBlind(t, tc.proof.Nodes, tc.pinned, tc.skip)
			sloppy.known = tc.known
			if err := blindProves(sloppy, tc.proof, next.Root()); err != nil {
				t.Fatalf("forgery does not even fool a verifier that skips the check (%v): the case proves nothing", err)
			}
			strict := newBlind(t, tc.proof.Nodes, tc.pinned, 0)
			strict.known = tc.known
			if err := blindProves(strict, tc.proof, next.Root()); err == nil {
				t.Fatal("forgery passes the reference verifier with no check left out")
			}
			path := pin(tc.pinned...)
			if err := tc.proof.VerifyPath(next.Root(), path); err == nil {
				t.Fatal("forged patched proof verified")
			}
			if err := tc.proof.Verify(next.Root()); err == nil {
				t.Fatal("forged patched proof verified with no path at all")
			}
		})
	}
}

// blindProves is blindVerify over a blind the caller prepared.
func blindProves(b *blind, p BatchProof, root hashutil.Digest) error {
	value, found, claim, err := b.get(root, p.Keys[0])
	if err != nil {
		return err
	}
	if !claim && (found != p.Found[0] || !bytes.Equal(value, p.Values[0])) {
		return ErrProofInvalid
	}
	return b.finish()
}

// TestPatchedProofEveryByteTrips flips every byte of every patched slot of
// an honest proof: no flip verifies.
func TestPatchedProofEveryByteTrips(t *testing.T) {
	tr, _, key := elideTree(t)
	warm := warmNodes(t, tr, key)
	next, err := tr.Put(key, []byte("the new value"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := next.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	honest, _ := next.Held(pin(warm...).Have()).Point(full)
	for i, slot := range honest.Nodes {
		if !isPatch(slot) {
			continue
		}
		for off := range slot {
			q := honest
			q.Nodes = append([][]byte(nil), honest.Nodes...)
			q.Nodes[i] = append([]byte(nil), slot...)
			q.Nodes[i][off] ^= 0x01
			if err := q.VerifyPath(next.Root(), pin(warm...)); err == nil {
				t.Fatalf("slot %d byte %d flipped: the proof still verified", i, off)
			}
		}
	}
}

// countingStore counts the reads of a store.
type countingStore struct {
	cas.Store
	gets int
}

func (s *countingStore) Get(d hashutil.Digest) ([]byte, error) {
	s.gets++
	return s.Store.Get(d)
}

// TestHostileHintCostsBoundedWork: cutting a proof against a hint looks
// the hint's digests up in the node cache only — never in the store,
// whatever they name — and no more than maxBases of them.
func TestHostileHintCostsBoundedWork(t *testing.T) {
	store := &countingStore{Store: cas.NewMemory()}
	entries := testEntries(40000, 91)
	tr, err := BulkLoad(store, entries)
	if err != nil {
		t.Fatal(err)
	}
	key := entries[12345].Key
	warm := warmNodes(t, tr, key)
	next, err := tr.Put(key, []byte("the new value"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := next.ProveGet(key)
	if err != nil {
		t.Fatal(err)
	}
	// A full-size hint of digests the cache has never seen — leaves, which
	// the store does hold, among them — ahead of the one real base.
	junk := make([]hashutil.Digest, 0, proof.MaxHave)
	for _, e := range entries[:200] {
		p, err := tr.ProveGet(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		junk = append(junk, p.Digests[len(p.Digests)-1])
	}
	for i := len(junk); i < proof.MaxHave-1; i++ {
		junk = append(junk, hashutil.Sum(hashutil.DomainValue, []byte(fmt.Sprint(i))))
	}
	before := store.gets
	have := next.Held(append(junk, warm[0].Digest()))
	if cut, _ := have.Point(full); &cut.Nodes[0] != &full.Nodes[0] {
		t.Fatal("a base past the lookup cap was used")
	}
	if len(have.bases.held) != 0 || store.gets != before {
		t.Fatalf("cutting against a hostile hint resolved %d bases with %d store reads", len(have.bases.held), store.gets-before)
	}
	// The same base inside the cap is found, still without the store.
	have = next.Held(append([]hashutil.Digest{warm[0].Digest()}, junk...))
	if cut, _ := have.Point(full); !isPatch(cut.Nodes[0]) {
		t.Fatal("the root was not patched against a base named first")
	}
	if len(have.bases.held) != 1 || store.gets != before {
		t.Fatalf("%d bases resolved, %d store reads", len(have.bases.held), store.gets-before)
	}
	// And nothing at all is looked up for a proof with no index node to ship.
	have = next.Held(pin(nodesUnder(t, next, [][]byte{key}, key, key)...).Have())
	if _, n := have.Point(full); n != len(full.Nodes)-1 || have.bases.held != nil {
		t.Fatalf("%d nodes elided; bases resolved: %v", n, have.bases.held != nil)
	}
}

// TestHostilePatchCostsBoundedMemory: what a patched slot makes the
// verifier allocate is bounded by the base it pinned and the slot's own
// length, whatever lengths and positions the slot claims.
func TestHostilePatchCostsBoundedMemory(t *testing.T) {
	tr, _, key := elideTree(t)
	warm := warmNodes(t, tr, key)
	head := append([]byte{proof.PatchMarker}, digestBytes(warm[0])...)
	huge := func(n uint64) []byte { return binary.AppendUvarint(nil, n) }
	slots := map[string][]byte{
		"a key length of 2^40":             append(append(append([]byte(nil), head...), proof.PatchInsert), huge(1<<40)...),
		"a value length of 2^40":           append(append(append([]byte(nil), head...), proof.PatchInsert, 1, 'k'), huge(1<<40)...),
		"a position of 2^60":               append(append([]byte(nil), head...), huge(1<<62|proof.PatchDelete)...),
		"a megabyte of zero bytes":         append(append([]byte(nil), head...), make([]byte, 1<<20)...),
		"a megabyte of inserts":            append(append([]byte(nil), head...), bytes.Repeat(posleaf.AppendEntry([]byte{proof.PatchInsert}, nil, make([]byte, hashutil.DigestSize+8)), 1<<20/43)...),
		"cut short inside the base digest": head[:20],
	}
	for name, slot := range slots {
		p := oneKey(key, nil, false, slot)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := p.VerifyPath(tr.Root(), pin(warm...))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: verified", name)
		}
		// The rebuilt list stops at proof.MaxFanout entries, grown by doubling.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*proof.MaxFanout*entryHeaderBytes+uint64(len(slot)) {
			t.Fatalf("%s: a %d-byte slot made the verifier allocate %d bytes", name, len(slot), grew)
		}
	}
}

// BenchmarkTreeGet is a point lookup on a 200k-row tree: the index levels
// come from the node cache and the leaf is searched where it is stored, so
// a lookup allocates nothing.
func BenchmarkTreeGet(b *testing.B) {
	entries := testEntries(200000, 5)
	tr, err := BulkLoad(cas.NewMemory(), entries)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[(i*7919)%len(entries)]
		v, ok, err := tr.Get(e.Key)
		if err != nil || !ok || !bytes.Equal(v, e.Value) {
			b.Fatalf("Get(%q) = %q %v %v", e.Key, v, ok, err)
		}
	}
}

// BenchmarkVerifyAfterCommit is a point proof of a 200k-row tree verified
// by a client one commit behind, its index nodes shipped whole or patched.
func BenchmarkVerifyAfterCommit(b *testing.B) {
	entries := testEntries(200000, 5)
	tr, err := BulkLoad(cas.NewMemory(), entries)
	if err != nil {
		b.Fatal(err)
	}
	key := entries[100000].Key
	old, err := tr.ProveGet(key)
	if err != nil {
		b.Fatal(err)
	}
	warm := new(Path)
	if err := old.VerifyPath(tr.Root(), warm); err != nil {
		b.Fatal(err)
	}
	next, err := tr.Put(entries[100001].Key, []byte("changed"))
	if err != nil {
		b.Fatal(err)
	}
	full, err := next.ProveGet(key)
	if err != nil {
		b.Fatal(err)
	}
	cut, _ := next.Held(pin(warm.Shipped...).Have()).Point(full)
	for name, p := range map[string]BatchProof{"whole": full, "patched": cut} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := p.VerifyPath(next.Root(), pin(warm.Shipped...)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("cut", func(b *testing.B) {
		have := pin(warm.Shipped...).Have()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			next.Held(have).Point(full)
		}
	})
}
