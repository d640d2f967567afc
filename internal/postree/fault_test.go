package postree

import (
	"bytes"
	"errors"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
)

// Failure injection: storage faults must surface as errors or verification
// failures, never as silently wrong query answers.

func buildFaultTree(t *testing.T) (*Tree, *cas.Fault) {
	t.Helper()
	fault := cas.NewFault(cas.NewMemory())
	tr, err := BulkLoad(fault, testEntries(3000, 81))
	if err != nil {
		t.Fatal(err)
	}
	// Re-open so traversals go through the fault wrapper without a cache
	// primed during the build.
	re, err := Load(fault, tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	return re, fault
}

func TestGetFailsOnLostNode(t *testing.T) {
	tr, fault := buildFaultTree(t)
	fault.Lose(tr.Root())
	if _, _, err := tr.Get([]byte("key-00000001")); err == nil {
		t.Fatal("Get over lost root succeeded")
	}
	fault.Heal()
	if _, _, err := tr.Get([]byte("key-00000001")); err != nil {
		t.Fatalf("Get after heal: %v", err)
	}
}

func TestGetFailsOnStructurallyCorruptNode(t *testing.T) {
	// Corruption of structural fields (here the entry-count varint at
	// offset 1) must produce a decode error. Corruption confined to entry
	// payloads may still parse — unverified reads do not promise tamper
	// detection; the verified path does (see TestCorruptProofNeverVerifies).
	tr, fault := buildFaultTree(t)
	fault.Corrupt(tr.Root(), 1)
	if _, _, err := tr.Get([]byte("key-00000001")); err == nil {
		t.Fatal("Get over structurally corrupt root returned no error")
	}
}

func TestScanFailsOnLostLeaf(t *testing.T) {
	tr, fault := buildFaultTree(t)
	// Find a leaf digest by walking the proof path of some key.
	p, err := tr.ProveGet([]byte("key-00000001"))
	if err != nil {
		t.Fatal(err)
	}
	leafDigest := p.Digests[len(p.Digests)-1]
	fault.Lose(leafDigest)
	err = tr.Scan(nil, nil, func(Entry) bool { return true })
	if err == nil {
		t.Fatal("full scan over lost leaf succeeded")
	}
}

func TestProofGenerationFailsLoudly(t *testing.T) {
	tr, fault := buildFaultTree(t)
	fault.Lose(tr.Root())
	if _, err := tr.ProveGet([]byte("key-00000001")); err == nil {
		t.Fatal("proof generation over lost root succeeded")
	}
	if _, err := tr.ProveScan([]byte("a"), []byte("z")); err == nil {
		t.Fatal("range proof over lost root succeeded")
	}
}

func TestCorruptProofNeverVerifies(t *testing.T) {
	// Even if a corrupted node body is served into a proof, the client
	// verifier rejects it: the digest chain breaks.
	tr, fault := buildFaultTree(t)
	root := tr.Root()
	p, err := tr.ProveGet([]byte("key-00000001"))
	if err != nil {
		t.Fatal(err)
	}
	fault.Corrupt(root, 10)
	// Regenerate the proof with the corrupted root body served.
	p2, err := tr.ProveGet([]byte("key-00000001"))
	if err != nil {
		// Fine: corruption detected during generation.
		return
	}
	if err := p2.Verify(root); err == nil {
		// Only acceptable if the served bytes were actually unchanged.
		if string(p2.Nodes[0]) != string(p.Nodes[0]) {
			t.Fatal("corrupted proof verified against the honest root")
		}
	}
}

// coldLeaf is a tree over a store whose copy of one leaf has a byte of its
// second group flipped and which does not vouch for that copy: its groups
// are checked where they are used. The flip is in the value of entry 9, so
// the leaf's table, and with it the leaf's digest, is genuine.
type coldLeaf struct {
	tr, clean *Tree
	fault     *cas.Fault
	leaf      hashutil.Digest
	keys      [][]byte // the leaf's keys, in order
}

func newColdLeaf(t *testing.T) *coldLeaf {
	t.Helper()
	entries := testEntries(3000, 91)
	fault := cas.NewFault(cas.NewMemory())
	tr, err := BulkLoad(fault, entries)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := BulkLoad(cas.NewMemory(), entries)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		p, err := tr.ProveGet(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		d := p.Digests[len(p.Digests)-1]
		body, err := fault.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		n, err := decodeNode(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Entries) < 24 {
			continue // three groups at least: the damaged one is neither first nor last
		}
		c := &coldLeaf{tr: tr, clean: clean, fault: fault, leaf: d}
		for _, le := range n.Entries {
			c.keys = append(c.keys, append([]byte(nil), le.Key...))
		}
		// The last byte of entry 9 is the last byte of its value.
		end := bytes.Index(body, n.Entries[9].Value) + len(n.Entries[9].Value)
		fault.Corrupt(d, end-1)
		return c
	}
	t.Fatal("no leaf of three groups")
	return nil
}

func (c *coldLeaf) after(i int) []byte { return append(append([]byte(nil), c.keys[i]...), 0) }

// TestGroupCheckedWhereUsed: a read, a proof, a scan, a commit and a
// snapshot walk that use the damaged group fail with ErrCorrupt before any
// of its bytes are returned, shipped or hashed into a new node; the same
// operations away from it succeed; and a commit that copies the group by
// its root commits the genuine root, the damage travelling with the group
// into the new leaf, where the first read of it fails.
func TestGroupCheckedWhereUsed(t *testing.T) {
	c := newColdLeaf(t)
	tr := c.tr
	corrupt := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, cas.ErrCorrupt) {
			t.Fatalf("%s through the damaged group: %v, want ErrCorrupt", what, err)
		}
	}
	fine := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s away from the damaged group: %v", what, err)
		}
	}
	_, _, err := tr.Get(c.keys[9])
	corrupt("Get", err)
	_, _, err = tr.Get(c.after(7)) // a miss between entries 7 and 8: group 1 bounds it
	corrupt("Get of a miss", err)
	if _, found, err := tr.Get(c.after(3)); err != nil || found {
		t.Fatalf("miss away from the damaged group: %v %v", found, err)
	}
	want, _, _ := c.clean.Get(c.keys[2])
	if v, found, err := tr.Get(c.keys[2]); err != nil || !found || !bytes.Equal(v, want) {
		t.Fatalf("Get away from the damaged group: %v %v", found, err)
	}

	_, err = tr.ProveGet(c.keys[9])
	corrupt("ProveGet", err)
	p, err := tr.ProveGet(c.keys[2])
	fine("ProveGet", err)
	fine("BatchProof.Verify", p.Verify(tr.Root()))
	_, err = tr.ProveScan(c.keys[5], c.keys[11])
	corrupt("ProveScan", err)
	rp, err := tr.ProveScan(c.keys[1], c.keys[6])
	fine("ProveScan", err)
	fine("RangeProof.Verify", rp.Verify(tr.Root()))
	_, err = tr.ProveGetBatch([][]byte{c.keys[2], c.keys[12]})
	corrupt("ProveGetBatch", err)
	bp, err := tr.ProveGetBatch([][]byte{c.keys[2], c.keys[3]})
	fine("ProveGetBatch", err)
	fine("BatchProof.Verify", bp.Verify(tr.Root()))
	// The batch path reads each leaf where it lies, as ProveGet does: a
	// miss the damaged group bounds fails, keys on either side of it
	// whose kept run spans it fail, and keys of one clean group do not.
	_, err = tr.ProveGetBatch([][]byte{c.after(7)})
	corrupt("ProveGetBatch of a miss", err)
	_, err = tr.ProveGetBatch([][]byte{c.keys[20], c.keys[3]})
	corrupt("ProveGetBatch across the group", err)
	bp, err = tr.ProveGetBatch([][]byte{c.keys[20], c.after(17), c.keys[17]})
	fine("ProveGetBatch", err)
	fine("BatchProof.Verify", bp.Verify(tr.Root()))
	corrupt("Scan", tr.Scan(c.keys[12], c.keys[14], func(Entry) bool { return true }))
	fine("Scan", tr.Scan(c.keys[1], c.keys[6], func(Entry) bool { return true }))
	corrupt("WalkNodes", tr.WalkNodes(func(int, []byte) bool { return true }))

	_, err = tr.Put(c.keys[9], []byte("overwrite"))
	corrupt("an overwrite that re-frames the group", err)
	next, err := tr.Put(c.keys[2], []byte("overwrite"))
	fine("an overwrite in another group", err)
	ref, err := c.clean.Put(c.keys[2], []byte("overwrite"))
	if err != nil {
		t.Fatal(err)
	}
	if next.Root() != ref.Root() {
		t.Fatal("a commit that copied the damaged group by its root committed another root")
	}
	_, _, err = next.Get(c.keys[9])
	corrupt("Get in the leaf the group was copied into", err)
	if v, found, err := next.Get(c.keys[2]); err != nil || !found || string(v) != "overwrite" {
		t.Fatalf("the overwritten entry: %q %v %v", v, found, err)
	}
}
