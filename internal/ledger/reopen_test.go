package ledger

import (
	"fmt"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
)

// churnCommit writes the same keys at each version so every block links
// the previous head versions into chains.
func churnCommit(t *testing.T, l *Ledger, blocks int) {
	t.Helper()
	for b := 0; b < blocks; b++ {
		v := uint64(b + 1)
		if _, err := l.Commit(v, []TxnSummary{{ID: v, Statement: "churn"}}, cellsFor(v, 8, "k")); err != nil {
			t.Fatalf("Commit(%d): %v", b, err)
		}
	}
}

func TestReopenRecoversDigestAndHistory(t *testing.T) {
	store := cas.NewMemory()
	l := New(store)
	churnCommit(t, l, 6)

	headers := make([]BlockHeader, 0, 6)
	for i := uint64(0); i < l.Height(); i++ {
		h, err := l.Header(i)
		if err != nil {
			t.Fatal(err)
		}
		headers = append(headers, h)
	}
	r, err := Reopen(store, headers)
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if r.Digest() != l.Digest() {
		t.Fatalf("reopened digest %+v != original %+v", r.Digest(), l.Digest())
	}

	// The chains hanging off the heads match the original.
	pk := []byte("k-0003")
	wantHist, err := l.History("t", "c", pk)
	if err != nil {
		t.Fatal(err)
	}
	gotHist, err := r.History("t", "c", pk)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotHist) != 6 || fmt.Sprint(gotHist) != fmt.Sprint(wantHist) {
		t.Fatalf("history %v, want %v (6 versions)", gotHist, wantHist)
	}

	// The reopened ledger keeps committing on top of the recovered head.
	if _, err := r.Commit(7, nil, cellsFor(7, 8, "k")); err != nil {
		t.Fatalf("Commit after reopen: %v", err)
	}
}

func TestReopenIdempotentUnderReplayedDemotions(t *testing.T) {
	// A crash after a checkpoint's flush, before its manifest, reopens at
	// the older head and replays blocks whose chain objects the store
	// already holds: content addressing makes them the same objects, and
	// each history comes out as it was, not doubled.
	store := cas.NewMemory()
	l := New(store)
	churnCommit(t, l, 4)
	headers := make([]BlockHeader, 0, 4)
	for i := uint64(0); i < l.Height(); i++ {
		h, _ := l.Header(i)
		headers = append(headers, h)
	}
	r, err := Reopen(store, headers[:2])
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(3); v <= 4; v++ {
		if _, err := r.Commit(v, []TxnSummary{{ID: v, Statement: "churn"}}, cellsFor(v, 8, "k")); err != nil {
			t.Fatal(err)
		}
	}
	if r.Digest() != l.Digest() {
		t.Fatal("replayed blocks reached another digest")
	}
	pk := []byte("k-0001")
	hist, err := r.History("t", "c", pk)
	if err != nil {
		t.Fatal(err)
	}
	want, err := l.History("t", "c", pk)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 || fmt.Sprint(hist) != fmt.Sprint(want) {
		t.Fatalf("replayed history %v, want %v", hist, want)
	}
}

func TestReopenRejectsBrokenChain(t *testing.T) {
	store := cas.NewMemory()
	l := New(store)
	churnCommit(t, l, 3)
	var headers []BlockHeader
	for i := uint64(0); i < 3; i++ {
		h, _ := l.Header(i)
		headers = append(headers, h)
	}
	bad := append([]BlockHeader(nil), headers...)
	bad[2].Parent = bad[1].Parent
	if _, err := Reopen(store, bad); err == nil {
		t.Fatal("Reopen accepted a broken parent chain")
	}
	bad = append([]BlockHeader(nil), headers...)
	bad[1].Height = 5
	if _, err := Reopen(store, bad); err == nil {
		t.Fatal("Reopen accepted a wrong height")
	}
}

// TestGroupCommitDemotionOrder: a single block that writes one cell at two
// versions, out of order, folds them in version order onto the previous
// head's chain, so the history walks them newest first.
func TestGroupCommitDemotionOrder(t *testing.T) {
	mk := func(v uint64, val string) cellstore.Cell {
		return cellstore.Cell{Table: "t", Column: "c", PK: []byte("pk"), Version: v, Value: []byte(val)}
	}
	l := New(cas.NewMemory())
	if _, err := l.Commit(1, nil, []cellstore.Cell{mk(1, "v1")}); err != nil {
		t.Fatal(err)
	}
	// One folded block carrying v3 then v2 for the same cell.
	if _, err := l.Commit(3, nil, []cellstore.Cell{mk(3, "v3"), mk(2, "v2")}); err != nil {
		t.Fatal(err)
	}
	hist, err := l.History("t", "c", []byte("pk"))
	if err != nil || len(hist) != 3 {
		t.Fatalf("history = %d versions, %v; want 3", len(hist), err)
	}
	for i, c := range hist {
		if want := fmt.Sprintf("v%d", 3-i); string(c.Value) != want || c.Version != uint64(3-i) {
			t.Fatalf("history[%d] = %q at v%d, want %q at v%d", i, c.Value, c.Version, want, 3-i)
		}
	}
}
