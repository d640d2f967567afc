package postree

import (
	"bytes"
	"math/rand"
	"testing"

	"spitz/internal/cas"
)

// buildRandomTree loads n random entries and returns the tree plus its
// sorted entry set.
func buildRandomTree(t *testing.T, rng *rand.Rand, n int) (*Tree, []Entry) {
	t.Helper()
	entries := make([]Entry, 0, n)
	seen := map[string]bool{}
	for len(entries) < n {
		k := make([]byte, 4+rng.Intn(12))
		rng.Read(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		v := make([]byte, rng.Intn(24))
		rng.Read(v)
		entries = append(entries, Entry{Key: append([]byte(nil), k...), Value: append([]byte(nil), v...)})
	}
	sortEntries(entries)
	tr, err := BulkLoad(cas.NewMemory(), entries)
	if err != nil {
		t.Fatalf("bulk load: %v", err)
	}
	return tr, entries
}

func sortEntries(es []Entry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && bytes.Compare(es[j].Key, es[j-1].Key) < 0; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// TestBatchProofPropertyRoundTrip is the aggregation property test:
// random key sets against random tree sizes (and therefore heights),
// where aggregate-then-verify must agree with per-key prove/verify on
// every key — presence, absence and values alike.
func TestBatchProofPropertyRoundTrip(t *testing.T) {
	for round := 0; round < 25; round++ {
		rng := rand.New(rand.NewSource(int64(1000 + round)))
		size := 1 + rng.Intn(4000) // spans leaf-only roots up to multi-level trees
		tr, entries := buildRandomTree(t, rng, size)
		root := tr.Root()

		nkeys := 1 + rng.Intn(24)
		keys := make([][]byte, 0, nkeys)
		for i := 0; i < nkeys; i++ {
			if rng.Intn(2) == 0 {
				keys = append(keys, entries[rng.Intn(len(entries))].Key)
			} else {
				k := make([]byte, 4+rng.Intn(12))
				rng.Read(k)
				keys = append(keys, k)
			}
		}

		bp, err := tr.ProveGetBatch(keys)
		if err != nil {
			t.Fatalf("round %d: prove batch: %v", round, err)
		}
		if err := bp.Verify(root); err != nil {
			t.Fatalf("round %d: batch verify: %v", round, err)
		}
		for i, key := range keys {
			pp, err := tr.ProveGet(key)
			if err != nil {
				t.Fatalf("round %d: prove get: %v", round, err)
			}
			if err := pp.Verify(root); err != nil {
				t.Fatalf("round %d: point verify: %v", round, err)
			}
			if pp.Found[0] != bp.Found[i] {
				t.Fatalf("round %d key %d: batch found %v, point found %v", round, i, bp.Found[i], pp.Found)
			}
			if pp.Found[0] && !bytes.Equal(pp.Values[0], bp.Values[i]) {
				t.Fatalf("round %d key %d: batch value diverges from point value", round, i)
			}
		}

		// The batch must be no larger than the union of the point proofs
		// (sharing, not duplicating, sibling nodes).
		distinct := map[string]bool{}
		for _, key := range keys {
			pp, _ := tr.ProveGet(key)
			for _, nb := range pp.Nodes {
				distinct[string(nb)] = true
			}
		}
		if len(bp.Nodes) > len(distinct) {
			t.Fatalf("round %d: batch carries %d nodes, union of point paths is %d",
				round, len(bp.Nodes), len(distinct))
		}
	}
}

// TestBatchProofCorruptionFailsAllReceipts asserts the all-or-nothing
// guarantee: corrupting any byte of any (shared) node body makes Verify
// fail, which rejects every receipt the batch covers — there is no
// partial acceptance path.
func TestBatchProofCorruptionFailsAllReceipts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, entries := buildRandomTree(t, rng, 1500)
	root := tr.Root()
	keys := [][]byte{
		entries[3].Key, entries[700].Key, entries[1400].Key,
		[]byte("absent-key-1"), entries[701].Key,
	}
	bp, err := tr.ProveGetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Verify(root); err != nil {
		t.Fatal(err)
	}
	for ni := range bp.Nodes {
		for off := 0; off < len(bp.Nodes[ni]); off++ {
			corrupted := bp
			corrupted.Nodes = make([][]byte, len(bp.Nodes))
			for i := range bp.Nodes {
				corrupted.Nodes[i] = bp.Nodes[i]
			}
			body := append([]byte(nil), bp.Nodes[ni]...)
			body[off] ^= 0x01
			corrupted.Nodes[ni] = body
			if err := corrupted.Verify(root); err == nil {
				t.Fatalf("flipping node %d byte %d verified silently", ni, off)
			}
		}
	}
}

// TestBatchProofForgeryShapes walks the non-byte-flip forgeries: swapped
// values, toggled found flags, dropped and duplicated nodes, and value
// substitution must all fail verification.
func TestBatchProofForgeryShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, entries := buildRandomTree(t, rng, 800)
	root := tr.Root()
	keys := [][]byte{entries[10].Key, entries[500].Key, []byte("nope")}
	mk := func() BatchProof {
		bp, err := tr.ProveGetBatch(keys)
		if err != nil {
			t.Fatal(err)
		}
		return bp
	}
	cases := []struct {
		name string
		mut  func(*BatchProof)
	}{
		{"toggle found->absent", func(p *BatchProof) { p.Found[0] = false; p.Values[0] = nil }},
		{"toggle absent->found", func(p *BatchProof) { p.Found[2] = true; p.Values[2] = []byte("x") }},
		{"swap values", func(p *BatchProof) { p.Values[0], p.Values[1] = p.Values[1], p.Values[0] }},
		{"substitute value", func(p *BatchProof) { p.Values[1] = append([]byte(nil), "evil"...) }},
		{"drop a node", func(p *BatchProof) { p.Nodes = p.Nodes[:len(p.Nodes)-1] }},
		{"smuggle extra node", func(p *BatchProof) {
			other, _ := tr.ProveGet(entries[600].Key)
			p.Nodes = append(p.Nodes, other.Nodes[len(other.Nodes)-1])
		}},
		{"duplicate a node", func(p *BatchProof) { p.Nodes = append(p.Nodes, p.Nodes[0]) }},
		{"swap key target", func(p *BatchProof) { p.Keys[0] = entries[11].Key }},
	}
	for _, tc := range cases {
		bp := mk()
		tc.mut(&bp)
		if err := bp.Verify(root); err == nil {
			t.Fatalf("%s: verified silently", tc.name)
		}
	}
	// And the untampered control must still pass.
	bp := mk()
	if err := bp.Verify(root); err != nil {
		t.Fatalf("control proof failed: %v", err)
	}
}

// TestBatchProofEmptyTree pins the zero-root convention: everything
// absent, no nodes, and any smuggled content rejected.
func TestBatchProofEmptyTree(t *testing.T) {
	tr := Empty(cas.NewMemory())
	bp, err := tr.ProveGetBatch([][]byte{[]byte("a"), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Verify(tr.Root()); err != nil {
		t.Fatalf("empty-tree batch proof failed: %v", err)
	}
	bp.Found[0] = true
	bp.Values[0] = []byte("forged")
	if err := bp.Verify(tr.Root()); err == nil {
		t.Fatal("forged presence under the empty root verified")
	}
}

// TestBatchProofSharing sanity-checks the point of aggregation: many
// keys at one root must share the upper levels instead of repeating
// them per key.
func TestBatchProofSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr, entries := buildRandomTree(t, rng, 5000)
	var keys [][]byte
	for i := 0; i < 64; i++ {
		keys = append(keys, entries[rng.Intn(len(entries))].Key)
	}
	bp, err := tr.ProveGetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	single, err := tr.ProveGet(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Nodes) >= len(keys)*len(single.Nodes) {
		t.Fatalf("no sharing: %d nodes for %d keys of path length %d",
			len(bp.Nodes), len(keys), len(single.Nodes))
	}
}
