package postree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"spitz/internal/proof"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
)

// oneKey is the proof of one read of key, as a prover or forger states it.
func oneKey(key, value []byte, found bool, nodes ...[]byte) BatchProof {
	return BatchProof{Keys: [][]byte{key}, Values: [][]byte{value}, Found: []bool{found}, Nodes: nodes}
}

func TestPointProofPresent(t *testing.T) {
	entries := testEntries(4000, 20)
	tr := mustBulk(t, entries)
	root := tr.Root()
	for _, i := range []int{0, 1, 1999, 3998, 3999} {
		p, err := tr.ProveGet(entries[i].Key)
		if err != nil {
			t.Fatalf("ProveGet: %v", err)
		}
		if !p.Found[0] || !bytes.Equal(p.Values[0], entries[i].Value) {
			t.Fatalf("proof for %s carries wrong value", entries[i].Key)
		}
		if err := p.Verify(root); err != nil {
			t.Fatalf("Verify(%s): %v", entries[i].Key, err)
		}
	}
}

func TestPointProofAbsent(t *testing.T) {
	tr := mustBulk(t, testEntries(1000, 21))
	for _, k := range []string{"", "key-00000000a", "zzzz", "key-99999999x"} {
		p, err := tr.ProveGet([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if p.Found[0] {
			t.Fatalf("absent key %q reported found", k)
		}
		if err := p.Verify(tr.Root()); err != nil {
			t.Fatalf("absence proof for %q: %v", k, err)
		}
	}
}

func TestPointProofEmptyTree(t *testing.T) {
	tr := Empty(cas.NewMemory())
	p, err := tr.ProveGet([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(tr.Root()); err != nil {
		t.Fatalf("empty-tree proof: %v", err)
	}
	// But a nonempty claim against the zero root must fail.
	p.Found = []bool{true}
	p.Values = [][]byte{[]byte("v")}
	if err := p.Verify(tr.Root()); err == nil {
		t.Fatal("forged presence verified against empty root")
	}
}

func TestPointProofDetectsValueTampering(t *testing.T) {
	entries := testEntries(2000, 22)
	tr := mustBulk(t, entries)
	p, err := tr.ProveGet(entries[100].Key)
	if err != nil {
		t.Fatal(err)
	}
	p.Values[0] = append([]byte(nil), p.Values[0]...)
	p.Values[0][0] ^= 0xFF
	if err := p.Verify(tr.Root()); err == nil {
		t.Fatal("tampered value verified")
	}
}

func TestPointProofDetectsNodeTampering(t *testing.T) {
	entries := testEntries(2000, 23)
	tr := mustBulk(t, entries)
	p, err := tr.ProveGet(entries[100].Key)
	if err != nil {
		t.Fatal(err)
	}
	leaf := p.Nodes[len(p.Nodes)-1]
	forged := append([]byte(nil), leaf...)
	forged[len(forged)-1] ^= 0x01
	p.Nodes[len(p.Nodes)-1] = forged
	if err := p.Verify(tr.Root()); err == nil {
		t.Fatal("tampered node body verified")
	}
}

func TestPointProofDetectsForgedAbsence(t *testing.T) {
	entries := testEntries(2000, 24)
	tr := mustBulk(t, entries)
	p, err := tr.ProveGet(entries[100].Key)
	if err != nil {
		t.Fatal(err)
	}
	p.Found = []bool{false}
	p.Values = [][]byte{nil}
	if err := p.Verify(tr.Root()); err == nil {
		t.Fatal("forged absence of a present key verified")
	}
}

func TestPointProofWrongRoot(t *testing.T) {
	entries := testEntries(500, 25)
	tr := mustBulk(t, entries)
	p, _ := tr.ProveGet(entries[9].Key)
	bad := tr.Root()
	bad[7] ^= 0x10
	if err := p.Verify(bad); err == nil {
		t.Fatal("proof verified against a different root")
	}
}

func TestPointProofStaleSnapshot(t *testing.T) {
	// A proof generated against snapshot S must not verify against the
	// digest of a later state S' that changed the proven key.
	entries := testEntries(1000, 26)
	tr := mustBulk(t, entries)
	p, _ := tr.ProveGet(entries[5].Key)
	newer, err := tr.Put(entries[5].Key, []byte("overwritten value xx"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(newer.Root()); err == nil {
		t.Fatal("stale proof verified against newer root")
	}
	if err := p.Verify(tr.Root()); err != nil {
		t.Fatalf("proof no longer verifies against its own snapshot: %v", err)
	}
}

func TestPointProofTruncatedPath(t *testing.T) {
	entries := testEntries(5000, 27)
	tr := mustBulk(t, entries)
	p, _ := tr.ProveGet(entries[123].Key)
	if len(p.Nodes) < 2 {
		t.Skip("tree too shallow to truncate")
	}
	p.Nodes = p.Nodes[:len(p.Nodes)-1]
	if err := p.Verify(tr.Root()); err == nil {
		t.Fatal("truncated proof verified")
	}
}

func TestRangeProofRoundTrip(t *testing.T) {
	entries := testEntries(4000, 28)
	tr := mustBulk(t, entries)
	lo, hi := entries[1000].Key, entries[1200].Key
	p, err := tr.ProveScan(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != 200 {
		t.Fatalf("range proof carries %d entries, want 200", len(p.Entries))
	}
	if err := p.Verify(tr.Root()); err != nil {
		t.Fatalf("range proof verify: %v", err)
	}
}

func TestRangeProofEmptyRange(t *testing.T) {
	tr := mustBulk(t, testEntries(500, 29))
	p, err := tr.ProveScan([]byte("zzz-a"), []byte("zzz-b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != 0 {
		t.Fatal("empty range returned entries")
	}
	if err := p.Verify(tr.Root()); err != nil {
		t.Fatalf("empty range proof: %v", err)
	}
}

func TestRangeProofEmptyTree(t *testing.T) {
	tr := Empty(cas.NewMemory())
	p, err := tr.ProveScan([]byte("a"), []byte("z"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(tr.Root()); err != nil {
		t.Fatal(err)
	}
}

// TestRangeProofEntriesComeFromTheLeaves: whatever Entries a proof
// arrives with — one omitted, one injected, all stripped, as the wire
// sends it — Verify replaces them with the rows read off the verified
// leaves, so a forged list is never trusted and never returned.
func TestRangeProofEntriesComeFromTheLeaves(t *testing.T) {
	entries := testEntries(3000, 30)
	tr := mustBulk(t, entries)
	honest, err := tr.ProveScan(entries[100].Key, entries[160].Key)
	if err != nil {
		t.Fatal(err)
	}
	want := entries[100:160]
	forged := Entry{Key: append([]byte(nil), want[0].Key...), Value: []byte("fake")}
	for name, es := range map[string][]Entry{
		"omitted":  append(append([]Entry(nil), honest.Entries[:10]...), honest.Entries[11:]...),
		"injected": append([]Entry{forged}, honest.Entries...),
		"replaced": {forged},
		"stripped": withoutEntries(honest).Entries,
	} {
		p := honest
		p.Entries = es
		if err := p.Verify(tr.Root()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p.Entries) != len(want) {
			t.Fatalf("%s: verified proof yields %d entries, want %d", name, len(p.Entries), len(want))
		}
		for i, e := range p.Entries {
			if !bytes.Equal(e.Key, want[i].Key) || !bytes.Equal(e.Value, want[i].Value) {
				t.Fatalf("%s: entry %d is %q=%q", name, i, e.Key, e.Value)
			}
		}
	}
	// A proof that fails yields no rows at all.
	p := honest
	p.Nodes = p.Nodes[:len(p.Nodes)-1]
	if err := p.Verify(tr.Root()); err == nil || p.Entries != nil {
		t.Fatalf("rejected proof: err=%v, %d entries left in place", err, len(p.Entries))
	}
}

func TestRangeProofDetectsTamperedNode(t *testing.T) {
	entries := testEntries(3000, 32)
	tr := mustBulk(t, entries)
	p, err := tr.ProveScan(entries[100].Key, entries[400].Key)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), p.Nodes[1]...)
	forged[len(forged)-2] ^= 0xFF
	p.Nodes[1] = forged
	if err := p.Verify(tr.Root()); err == nil {
		t.Fatal("range proof with tampered node verified")
	}
}

func TestRangeProofWrongRoot(t *testing.T) {
	entries := testEntries(1000, 33)
	tr := mustBulk(t, entries)
	p, _ := tr.ProveScan(entries[10].Key, entries[20].Key)
	bad := tr.Root()
	bad[0] ^= 0x01
	if err := p.Verify(bad); err == nil {
		t.Fatal("range proof verified against wrong root")
	}
}

func TestRangeProofSharesPathNodes(t *testing.T) {
	// The proof for k consecutive records must be far smaller than k
	// independent point proofs — the Figure 7 effect.
	entries := testEntries(20000, 34)
	tr := mustBulk(t, entries)
	lo, hi := entries[5000].Key, entries[5200].Key
	rp, err := tr.ProveScan(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var rpBytes int
	for _, n := range rp.Nodes {
		rpBytes += len(n)
	}
	var ptBytes int
	for i := 5000; i < 5200; i++ {
		pp, err := tr.ProveGet(entries[i].Key)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range pp.Nodes {
			ptBytes += len(n)
		}
	}
	if rpBytes*5 > ptBytes {
		t.Fatalf("range proof %d bytes vs %d for point proofs; expected >5x amortization", rpBytes, ptBytes)
	}
}

func TestProofAgainstDigestType(t *testing.T) {
	// Root digests commit to content: two trees differing in one value
	// have different roots.
	entries := testEntries(100, 35)
	t1 := mustBulk(t, entries)
	mod := append([]Entry(nil), entries...)
	mod[50] = Entry{Key: mod[50].Key, Value: []byte("different value 20bb")}
	t2 := mustBulk(t, mod)
	if t1.Root() == t2.Root() {
		t.Fatal("differing content produced equal roots")
	}
	var zero hashutil.Digest
	if t1.Root() == zero {
		t.Fatal("nonempty tree has zero root")
	}
}

// TestValuesTravelOnce: a point or batch proof's values and found flags
// are not encoded and not decoded; the walk that verifies a decoded proof
// reaches exactly the values and flags that were built, absences
// included, and a proof that claims a key found in a run that lacks it is
// rejected.
func TestValuesTravelOnce(t *testing.T) {
	entries := testEntries(3000, 41)
	tr := mustBulk(t, entries)
	absent := append(append([]byte(nil), entries[500].Key...), 'x')
	keys := [][]byte{entries[0].Key, entries[1234].Key, absent, []byte("a"), []byte("zzzz"), entries[1234].Key, entries[2999].Key}
	for _, key := range keys {
		p, err := tr.ProveGet(key)
		if err != nil {
			t.Fatal(err)
		}
		wire := AppendBatchProof(nil, p)
		if p.Found[0] && bytes.Count(wire, p.Values[0]) != 1 {
			t.Fatalf("%q: the value is in the encoding %d times", key, bytes.Count(wire, p.Values[0]))
		}
		got, rest, err := readBatchProof(wire)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%q: %v, %d bytes left", key, err, len(rest))
		}
		if got.Found != nil || got.Values != nil {
			t.Fatalf("%q: decoded found=%v values=%q", key, got.Found, got.Values)
		}
		if err := got.Verify(tr.Root()); err != nil {
			t.Fatalf("%q: decoded proof: %v", key, err)
		}
		if got.Values, got.Found = p.Values, p.Found; got.Verify(tr.Root()) != nil {
			t.Fatalf("%q: the walk of the decoded proof does not reach the built value %q", key, p.Values[0])
		}
	}
	bp, err := tr.ProveGetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := readBatchProof(AppendBatchProof(nil, bp))
	if err != nil || len(rest) != 0 || got.Found != nil || got.Values != nil {
		t.Fatal(err, len(rest), got.Found, got.Values)
	}
	if err := got.Verify(tr.Root()); err != nil {
		t.Fatalf("decoded batch proof: %v", err)
	}
	if got.Values, got.Found = bp.Values, bp.Found; got.Verify(tr.Root()) != nil {
		t.Fatal("the walk of the decoded batch proof does not reach the built values")
	}
	got.Values = append([][]byte{bp.Values[1]}, bp.Values[1:]...)
	if err := got.Verify(tr.Root()); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("a batch proof claiming another key's value: %v", err)
	}
	got.Values = nil

	// Found claimed for a key the shipped run does not hold: an honest
	// absence proof with the flag set.
	miss, err := tr.ProveGet(absent)
	if err != nil {
		t.Fatal(err)
	}
	forged, _, err := readBatchProof(AppendBatchProof(nil, miss))
	if err != nil {
		t.Fatal(err)
	}
	if forged.Found = []bool{true}; !errors.Is(forged.Verify(tr.Root()), ErrProofInvalid) {
		t.Fatal("a proof that claims a key found in a run without it verified")
	}
	got.Found = append([]bool(nil), bp.Found...)
	if got.Found[2] = true; !errors.Is(got.Verify(tr.Root()), ErrProofInvalid) {
		t.Fatal("a batch proof that claims a key found in a run without it verified")
	}
	// Fewer flags than keys: nothing is indexed out of range, and the proof
	// is rejected for it.
	if got.Found = bp.Found[:3]; got.Verify(tr.Root()) == nil {
		t.Fatalf("a batch proof with %d flags for %d keys verified", len(got.Found), len(got.Keys))
	}
}

// readBatchProof decodes a point proof as a client receives it: decoded,
// then its leaves unpacked, as the wire's DecodeResponse does.
func readBatchProof(src []byte) (proof.BatchProof, []byte, error) {
	p, rest, err := proof.ReadBatchProof(src)
	Unpack(p.Nodes)
	return p, rest, err
}

// TestPackedLeavesUnpack: a proof's leaves travel packed and unpack to the
// bodies the prover built, a run of one entry travels as it is, and a
// packed leaf whose shared length reaches past the key before it, or past
// what its entry brings, is left as it came for verification to refuse.
func TestPackedLeavesUnpack(t *testing.T) {
	tr := mustBulk(t, testEntries(3000, 43))
	rp, err := tr.ProveScan([]byte("key-00001000"), []byte("key-00009000"))
	if err != nil {
		t.Fatal(err)
	}
	wire := AppendRangeProof(nil, rp)
	got, _, err := proof.ReadRangeProof(wire)
	if err != nil {
		t.Fatal(err)
	}
	plain, packed := 0, 0
	for i, body := range got.Nodes {
		packed += len(body)
		plain += len(rp.Nodes[i])
		if !bytes.Equal(unpack(body), rp.Nodes[i]) {
			t.Fatalf("node %d does not unpack to the body the prover built", i)
		}
	}
	if packed >= plain {
		t.Fatalf("packed nodes take %d bytes, unpacked %d", packed, plain)
	}
	point, err := tr.ProveGet([]byte("key-00001234"))
	if err != nil {
		t.Fatal(err)
	}
	if pb, _, err := proof.ReadBatchProof(AppendBatchProof(nil, point)); err != nil || !reflect.DeepEqual(pb.Nodes, point.Nodes) {
		t.Fatalf("a point read's nodes changed on the wire: %v", err)
	}
	for i, body := range got.Nodes {
		if len(body) == 0 || body[0] != 0 || bytes.Equal(body, rp.Nodes[i]) {
			continue // not a packed leaf
		}
		head := 1 // level, count, first, n
		for j := 0; j < 3; j++ {
			_, k := binary.Uvarint(body[head:])
			head += k
		}
		_, _, next, _ := posleaf.ReadEntry(body[head:])
		forged := append([]byte(nil), body...)
		forged[len(body)-len(next)] = 0x7f // the second entry shares 127 bytes of a 12-byte key
		if !bytes.Equal(unpack(forged), forged) {
			t.Fatal("a shared length past the key before it unpacked")
		}
		return
	}
	t.Fatal("the range shipped no packed leaf")
}
