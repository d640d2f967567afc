package ledger

import (
	"bytes"
	"fmt"
	"spitz/internal/proof"
	"sync"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/obs"
)

// getCounter counts the store reads of each object.
type getCounter struct {
	cas.Store
	mu   sync.Mutex
	gets map[hashutil.Digest]int
}

func (s *getCounter) Get(d hashutil.Digest) ([]byte, error) {
	s.mu.Lock()
	s.gets[d]++
	s.mu.Unlock()
	return s.Store.Get(d)
}

func (s *getCounter) of(d hashutil.Digest) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets[d]
}

func headersOf(t *testing.T, l *Ledger) []BlockHeader {
	t.Helper()
	var hs []BlockHeader
	for i := uint64(0); i < l.Height(); i++ {
		h, err := l.Header(i)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	return hs
}

// TestSnapshotSharesNodeCache: Snapshot is taken per verified SELECT and
// per as-of read, so it must be a view over the ledger's tree and its
// node cache, not a tree loaded afresh with a cold cache of its own. On a
// reopened ledger two reads through Snapshot(head) fetch and decode the
// root once between them, and so do two reads at an older height.
func TestSnapshotSharesNodeCache(t *testing.T) {
	src := New(cas.NewMemory())
	for v := uint64(1); v <= 3; v++ {
		if _, err := src.Commit(v, nil, cellsFor(v, 600, "row")); err != nil {
			t.Fatal(err)
		}
	}
	store := &getCounter{Store: src.store, gets: make(map[hashutil.Digest]int)}
	l, err := Reopen(store, headersOf(t, src))
	if err != nil {
		t.Fatal(err)
	}
	for _, height := range []uint64{2, 0} {
		h, _ := l.Header(height)
		before := store.of(h.CellRoot)
		for i := 0; i < 2; i++ {
			snap, _, err := l.Snapshot(height)
			if err != nil {
				t.Fatal(err)
			}
			c, ok, err := snap.GetHead("t", "c", []byte(fmt.Sprintf("row-%04d", 17*i)))
			if err != nil || !ok || c.Version != height+1 {
				t.Fatalf("read through Snapshot(%d): %+v %v %v", height, c, ok, err)
			}
		}
		if n := store.of(h.CellRoot) - before; n > 1 {
			t.Fatalf("two reads through Snapshot(%d) fetched the root %d times, want once", height, n)
		}
	}
	if _, _, err := l.Snapshot(3); err == nil {
		t.Fatal("Snapshot beyond the head succeeded")
	}
}

// TestRetiredHistoryStaysProvable: every block root is a servable
// snapshot. Long after the index nodes of an early block have been retired
// from the node cache and then dropped from it, a batch proof at that
// block's digest and an as-of read of its snapshot are served from the
// store, and verify.
func TestRetiredHistoryStaysProvable(t *testing.T) {
	l := New(cas.NewMemory())
	commitCells(t, l, 1, cellsFor(1, 3000, "row")...)
	commitCells(t, l, 2, cellstore.Cell{Table: "t", Column: "c", PK: []byte("row-0007"), Value: []byte("early")})
	at := l.Digest() // receipts were taken here
	evicted := obs.Default.Counter("spitz_nodecache_evictions_total")
	before := evicted.Value()
	v := uint64(3)
	for ; evicted.Value() == before; v++ {
		// The retired generation is first in, first out: the first node it
		// drops is the oldest superseded one, block 1's.
		commitCells(t, l, v, cellstore.Cell{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("row-%04d", (v*37)%3000)), Value: []byte(fmt.Sprintf("v%d", v))})
		if v > 20000 {
			t.Fatal("20000 commits retired nothing out of the node cache")
		}
	}
	for i := 0; i < 50; i, v = i+1, v+1 { // and block 2's
		commitCells(t, l, v, cellstore.Cell{Table: "t", Column: "c", PK: []byte("row-0007"), Value: []byte("late")})
	}

	queries := []BatchQuery{
		{Table: "t", Column: "c", PK: []byte("row-0007")},
		{Table: "t", Column: "c", PK: []byte("row-2999")},
		{Table: "t", Column: "c", PK: []byte("absent")},
		{Table: "t", Column: "c", PK: []byte("row-0100"), PKHi: []byte("row-0140"), Range: true},
	}
	res, err := l.ProveBatch(at, at, queries)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Proof.Cells(queries, nil); err != nil {
		t.Fatalf("batch proof does not answer the queries: %v", err)
	}
	if err := res.ConsAt.Verify(at.Root, res.Digest.Root); err != nil {
		t.Fatal(err)
	}
	if err := res.Proof.Verify(res.Digest); err != nil {
		t.Fatalf("batch proof at height %d, %d blocks behind the head: %v", at.Height-1, res.Digest.Height-at.Height, err)
	}
	if _, val, _, _ := proof.DecodeVersion(res.Proof.Point.Values[0]); !bytes.Equal(val, []byte("early")) {
		t.Fatalf("proven value %q, want the one at the receipts' digest", val)
	}
	snap, _, err := l.Snapshot(at.Height - 1)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok, err := snap.GetHead("t", "c", []byte("row-0007")); err != nil || !ok || string(c.Value) != "early" {
		t.Fatalf("as-of read at height %d: %+v %v %v", at.Height-1, c, ok, err)
	}
	if c, ok, err := snap.GetHead("t", "c", []byte("row-0111")); err != nil || !ok || c.Version != 1 {
		t.Fatalf("as-of read of a row written later: %+v %v %v", c, ok, err)
	}
}
