package ledger

import (
	"bytes"
	"fmt"
	"spitz/internal/proof"
	"testing"
	"time"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/mtree"
)

func cellsFor(version uint64, n int, tag string) []cellstore.Cell {
	out := make([]cellstore.Cell, n)
	for i := range out {
		out[i] = cellstore.Cell{Table: "t", Column: "c",
			PK:      []byte(fmt.Sprintf("%s-%04d", tag, i)),
			Version: version, Value: []byte(fmt.Sprintf("v%d-%d", version, i))}
	}
	return out
}

func commitN(t *testing.T, l *Ledger, blocks int) {
	t.Helper()
	for b := 0; b < blocks; b++ {
		v := uint64(b + 1)
		txns := []TxnSummary{{ID: v, Statement: fmt.Sprintf("PUT batch %d", b),
			WriteHash: WriteSetHash(cellsFor(v, 10, fmt.Sprintf("b%d", b)))}}
		if _, err := l.Commit(v, txns, cellsFor(v, 10, fmt.Sprintf("b%d", b))); err != nil {
			t.Fatalf("Commit(%d): %v", b, err)
		}
	}
}

func TestEmptyLedger(t *testing.T) {
	l := New(cas.NewMemory())
	if l.Height() != 0 {
		t.Fatal("empty ledger has blocks")
	}
	d := l.Digest()
	if d.Height != 0 {
		t.Fatal("empty digest nonzero height")
	}
	if _, ok := l.Head(); ok {
		t.Fatal("Head on empty ledger")
	}
	if _, err := l.Header(0); err == nil {
		t.Fatal("Header(0) on empty ledger succeeded")
	}
}

func TestCommitChainsBlocks(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 5)
	if l.Height() != 5 {
		t.Fatalf("Height = %d", l.Height())
	}
	var prev hashutil.Digest
	for i := uint64(0); i < 5; i++ {
		h, err := l.Header(i)
		if err != nil {
			t.Fatal(err)
		}
		if h.Height != i {
			t.Fatalf("block %d has height %d", i, h.Height)
		}
		if h.Parent != prev {
			t.Fatalf("block %d parent hash broken", i)
		}
		prev = h.Hash()
	}
}

func TestCommitRejectsNonMonotonicVersion(t *testing.T) {
	l := New(cas.NewMemory())
	if _, err := l.Commit(5, nil, cellsFor(5, 1, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(5, nil, cellsFor(5, 1, "b")); err == nil {
		t.Fatal("same version accepted twice")
	}
	if _, err := l.Commit(4, nil, cellsFor(4, 1, "c")); err == nil {
		t.Fatal("older version accepted")
	}
}

func TestCommitRejectsWrongCellVersion(t *testing.T) {
	l := New(cas.NewMemory())
	cells := cellsFor(3, 2, "x")
	cells[1].Version = 99
	if _, err := l.Commit(3, nil, cells); err == nil {
		t.Fatal("cell with mismatched version accepted")
	}
}

func TestHeaderEncodeDecode(t *testing.T) {
	h := BlockHeader{Height: 7, Version: 99, CellCount: 1234, TxnCount: 5}
	h.Parent = hashutil.Sum(hashutil.DomainBlock, []byte("p"))
	h.CellRoot = hashutil.Sum(hashutil.DomainPOSLeaf, []byte("r"))
	h.BodyHash = hashutil.Sum(hashutil.DomainStmt, []byte("b"))
	got, err := proof.DecodeHeader(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header round trip mismatch: %+v vs %+v", got, h)
	}
	if _, err := proof.DecodeHeader(h.Encode()[:10]); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestBodyRoundTrip(t *testing.T) {
	l := New(cas.NewMemory())
	txns := []TxnSummary{
		{ID: 1, Statement: "INSERT INTO t VALUES (1)", WriteHash: hashutil.Sum(0x01, []byte("a"))},
		{ID: 2, Statement: "UPDATE t SET c = 2", WriteHash: hashutil.Sum(0x01, []byte("b"))},
	}
	if _, err := l.Commit(1, txns, cellsFor(1, 3, "a")); err != nil {
		t.Fatal(err)
	}
	got, err := l.Body(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Statement != txns[0].Statement || got[1].ID != 2 ||
		got[1].WriteHash != txns[1].WriteHash {
		t.Fatalf("body mismatch: %+v", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	l := New(cas.NewMemory())
	l.Commit(1, nil, []cellstore.Cell{{Table: "t", Column: "c", PK: []byte("k"), Version: 1, Value: []byte("old")}})
	l.Commit(2, nil, []cellstore.Cell{{Table: "t", Column: "c", PK: []byte("k"), Version: 2, Value: []byte("new")}})

	snap0, _, err := l.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	c, ok, _ := snap0.GetLatest("t", "c", []byte("k"), 1)
	if !ok || string(c.Value) != "old" {
		t.Fatal("historical snapshot does not serve old value")
	}
	snap1, _, _ := l.Snapshot(1)
	c, _, _ = snap1.GetLatest("t", "c", []byte("k"), 2)
	if string(c.Value) != "new" {
		t.Fatal("latest snapshot wrong")
	}
}

// proveGet proves one point read at height — the one-key Prove — and
// reads its cell off the proof, a tombstone included.
func proveGet(l *Ledger, height uint64, table, column string, pk []byte) (cellstore.Cell, bool, Proof, error) {
	p, err := l.Prove(height, []BatchQuery{{Table: table, Column: column, PK: pk}})
	if err != nil {
		return cellstore.Cell{}, false, Proof{}, err
	}
	c, ok, err := cellstore.HeadCell(table, column, pk, *p.Point)
	return c, ok, p, err
}

func TestProveAtHeightVerifies(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 4)
	d := l.Digest()

	cell, ok, proof, err := proveGet(l, 3, "t", "c", []byte("b2-0003"))
	if err != nil || !ok {
		t.Fatalf("Prove: ok=%v err=%v", ok, err)
	}
	if string(cell.Value) != "v3-3" {
		t.Fatalf("cell value = %q", cell.Value)
	}
	if err := proof.Verify(d); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	q := []BatchQuery{{Table: "t", Column: "c", PK: []byte("b2-0003")}}
	live, err := proof.Cells(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(live[0]) != 1 || string(live[0][0].Value) != "v3-3" {
		t.Fatalf("proof cells = %+v", live)
	}

	// Proof against an older block height also verifies.
	_, ok, proof, err = proveGet(l, 1, "t", "c", []byte("b0-0001"))
	if err != nil || !ok {
		t.Fatal("historical read failed")
	}
	if err := proof.Verify(d); err != nil {
		t.Fatalf("historical proof: %v", err)
	}
}

func TestProveAbsence(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 2)
	_, ok, proof, err := proveGet(l, 1, "t", "c", []byte("never-written"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("absent key found")
	}
	if err := proof.Verify(l.Digest()); err != nil {
		t.Fatalf("absence proof: %v", err)
	}
	if live, err := proof.Cells([]BatchQuery{{Table: "t", Column: "c", PK: []byte("never-written")}}, nil); err != nil || len(live[0]) != 0 {
		t.Fatal("absence proof carries cells")
	}
}

func TestProveRangePK(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 3)
	q := []BatchQuery{{Table: "t", Column: "c", PK: []byte("b1-0002"), PKHi: []byte("b1-0007"), Range: true}}
	proof, err := l.Prove(2, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof.Ranges) != 1 || len(proof.Ranges[0].Entries) != 5 {
		t.Fatalf("range proved %+v", proof.Ranges)
	}
	if err := proof.Verify(l.Digest()); err != nil {
		t.Fatalf("range proof: %v", err)
	}
	decoded, err := proof.Cells(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded[0]) != 5 {
		t.Fatalf("decoded %d cells", len(decoded[0]))
	}
}

func TestProofRejectsTamperedHeader(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 3)
	d := l.Digest()
	_, _, proof, err := proveGet(l, 2, "t", "c", []byte("b1-0001"))
	if err != nil {
		t.Fatal(err)
	}
	proof.Header.CellCount++
	if err := proof.Verify(d); err == nil {
		t.Fatal("tampered header verified")
	}
}

func TestProofRejectsWrongDigest(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 3)
	_, _, proof, err := proveGet(l, 2, "t", "c", []byte("b1-0001"))
	if err != nil {
		t.Fatal(err)
	}
	bad := l.Digest()
	bad.Root[0] ^= 1
	if err := proof.Verify(bad); err == nil {
		t.Fatal("proof verified against corrupted digest")
	}
	short := l.Digest()
	short.Height = 1 // digest older than the block's height
	if err := proof.Verify(short); err == nil {
		t.Fatal("proof verified against too-old digest")
	}
}

func TestProofRejectsCrossBlockReplay(t *testing.T) {
	// A proof for block 1's state must not verify when its header is
	// swapped for block 2's.
	l := New(cas.NewMemory())
	l.Commit(1, nil, []cellstore.Cell{{Table: "t", Column: "c", PK: []byte("k"), Version: 1, Value: []byte("one")}})
	l.Commit(2, nil, []cellstore.Cell{{Table: "t", Column: "c", PK: []byte("k"), Version: 2, Value: []byte("two")}})
	d := l.Digest()
	_, _, oldProof, err := proveGet(l, 0, "t", "c", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	newHeader, _ := l.Header(1)
	forged := oldProof
	forged.Header = newHeader
	if err := forged.Verify(d); err == nil {
		t.Fatal("old state verified under new block header")
	}
}

func TestProofRejectsTamperedPayload(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 1)
	_, _, proof, err := proveGet(l, 0, "t", "c", []byte("b0-0000"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupting the proven value must fail verification: the leaf hash
	// commits to the head payload.
	if proof.Point == nil || !proof.Point.Found[0] {
		t.Fatal("expected a found point proof")
	}
	proof.Point.Values[0] = append([]byte(nil), proof.Point.Values[0]...)
	proof.Point.Values[0][1] ^= 0xFF
	if err := proof.Verify(l.Digest()); err == nil {
		t.Fatal("tampered payload verified")
	}
}

func TestConsistencyAcrossGrowth(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 3)
	old := l.Digest()
	commitN2 := func() {
		v := l.Digest().Height + 1
		if _, err := l.Commit(uint64(v)*100, nil, cellsFor(uint64(v)*100, 5, "late")); err != nil {
			t.Fatal(err)
		}
	}
	commitN2()
	commitN2()
	cur := l.Digest()
	cons, err := l.ConsistencyProof(old.Height, cur.Height)
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.Verify(old.Root, cur.Root); err != nil {
		t.Fatalf("consistency proof: %v", err)
	}
	// A forked history must not verify.
	forged := old
	forged.Root[3] ^= 0x40
	if err := cons.Verify(forged.Root, cur.Root); err == nil {
		t.Fatal("consistency verified against forged old digest")
	}
}

func TestStructuralSharingAcrossBlocks(t *testing.T) {
	// Consecutive blocks share index nodes: committing a small block on a
	// large database must grow storage by far less than the database size.
	store := cas.NewMemory()
	l := New(store)
	big := cellsFor(1, 20000, "base")
	if _, err := l.Commit(1, nil, big); err != nil {
		t.Fatal(err)
	}
	base := store.Stats().PhysicalBytes
	if _, err := l.Commit(2, nil, cellsFor(2, 10, "delta")); err != nil {
		t.Fatal(err)
	}
	grown := store.Stats().PhysicalBytes - base
	if grown > base/10 {
		t.Fatalf("small block grew store by %d of %d; block index instances not shared", grown, base)
	}
}

func TestWriteSetHashBindsCells(t *testing.T) {
	a := WriteSetHash(cellsFor(1, 3, "x"))
	b := WriteSetHash(cellsFor(1, 3, "x"))
	if a != b {
		t.Fatal("WriteSetHash not deterministic")
	}
	mod := cellsFor(1, 3, "x")
	mod[1].Value = []byte("changed")
	if WriteSetHash(mod) == a {
		t.Fatal("WriteSetHash ignores values")
	}
}

func TestDigestAdvancesPerBlock(t *testing.T) {
	l := New(cas.NewMemory())
	var roots []hashutil.Digest
	for i := 0; i < 4; i++ {
		if _, err := l.Commit(uint64(i+1), nil, cellsFor(uint64(i+1), 2, fmt.Sprintf("g%d", i))); err != nil {
			t.Fatal(err)
		}
		d := l.Digest()
		if d.Height != uint64(i+1) {
			t.Fatalf("digest height = %d", d.Height)
		}
		roots = append(roots, d.Root)
	}
	for i := 1; i < len(roots); i++ {
		if roots[i-1] == roots[i] {
			t.Fatal("digest did not change across blocks")
		}
	}
}

func TestInclusionMatchesMtreeSemantics(t *testing.T) {
	// The commitment leaves are LeafHash(header.Encode()); verify one
	// manually.
	l := New(cas.NewMemory())
	commitN(t, l, 3)
	h, _ := l.Header(1)
	d := l.Digest()
	_, _, proof, err := proveGet(l, 1, "t", "c", []byte("b0-0000"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(proof.Header.Encode(), h.Encode()) {
		t.Fatal("proof header is not block 1's header")
	}
	if err := proof.Inclusion.Verify(d.Root, mtree.LeafHash(h.Encode())); err != nil {
		t.Fatalf("manual inclusion check: %v", err)
	}
}

// gatedStore parks every Put of a tree node on a channel once armed, so
// a test can hold a Commit inside its tree apply.
type gatedStore struct {
	cas.Store
	parked chan struct{} // one send per parked Put
	gate   chan struct{} // closed to let them through
}

func (s *gatedStore) Put(domain byte, data []byte) hashutil.Digest {
	s.park(domain)
	return s.Store.Put(domain, data)
}

// PutOwned is how the tree stores the nodes it encodes.
func (s *gatedStore) PutOwned(domain byte, data []byte) hashutil.Digest {
	s.park(domain)
	return s.Store.PutOwned(domain, data)
}

func (s *gatedStore) park(domain byte) {
	if s.gate != nil && (domain == hashutil.DomainPOSLeaf || domain == hashutil.DomainPOSIndex) {
		select {
		case s.parked <- struct{}{}:
		default:
		}
		<-s.gate
	}
}

// TestCommitApplyDoesNotBlockReaders: the tree apply of block N+1 runs
// outside the ledger's lock. While it is in progress the ledger still
// answers — the digest, a verified read and a consistency proof are those
// of block N — which is what lets the commit pipeline acknowledge block N
// while block N+1 is being built. The block appears all at once when the
// apply is let through.
func TestCommitApplyDoesNotBlockReaders(t *testing.T) {
	store := &gatedStore{Store: cas.NewMemory(), parked: make(chan struct{}, 1)}
	l := New(store)
	commitN(t, l, 3)
	before := l.Digest()

	store.gate = make(chan struct{})
	committed := make(chan error, 1)
	go func() {
		_, err := l.Commit(4, []TxnSummary{{ID: 4, Statement: "held"}}, cellsFor(4, 10, "held"))
		committed <- err
	}()
	<-store.parked // the commit is inside its apply

	answered := make(chan error, 1)
	go func() {
		if d := l.Digest(); d != before {
			answered <- fmt.Errorf("digest moved to %+v with the block still being built", d)
			return
		}
		cell, ok, p, d, err := l.ProveGetHead("t", "c", []byte("b2-0003"))
		if err != nil || !ok || d != before || string(cell.Value) != "v3-3" {
			answered <- fmt.Errorf("read during the apply: %q ok=%v at %+v: %v", cell.Value, ok, d, err)
			return
		}
		if err := p.Verify(d); err != nil {
			answered <- err
			return
		}
		_, err = l.ConsistencyProof(0, d.Height)
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("readers wait for the next block's tree apply")
	}

	close(store.gate)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if d := l.Digest(); d.Height != before.Height+1 {
		t.Fatalf("height = %d after the held commit, want %d", d.Height, before.Height+1)
	}
	if _, err := l.ConsistencyProof(before.Height, l.Height()); err != nil {
		t.Fatal(err)
	}
}
