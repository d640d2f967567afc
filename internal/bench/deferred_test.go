package bench

import (
	"errors"
	"fmt"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/proof"
)

// The online-vs-deferred figure's queue: proofs held back are checked at
// the batch boundary, all or the first failure.

// deferredLedger builds a ledger with n blocks of one small write each.
func deferredLedger(t *testing.T, n int) *ledger.Ledger {
	t.Helper()
	l := ledger.New(cas.NewMemory())
	for i := 0; i < n; i++ {
		v := uint64(i + 1)
		cells := []cellstore.Cell{{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("k%03d", i)), Version: v, Value: []byte(fmt.Sprintf("v%d", i))}}
		if _, err := l.Commit(v, nil, cells); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func deferredProof(t *testing.T, l *ledger.Ledger, height uint64, pk string) ledger.Proof {
	t.Helper()
	p, err := l.Prove(height, []ledger.BatchQuery{{Table: "t", Column: "c", PK: []byte(pk)}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDeferredBatch(t *testing.T) {
	l := deferredLedger(t, 6)
	v := proof.NewVerifier()
	v.Advance(l.Digest(), mtree.ConsistencyProof{})
	var q deferredQueue
	for i := 0; i < 5; i++ {
		q = append(q, deferredProof(t, l, 5, fmt.Sprintf("k%03d", i)))
	}
	n, err := q.flush(v)
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n != 5 || len(q) != 0 {
		t.Fatalf("flush verified %d, pending %d", n, len(q))
	}
	if verified, _ := v.Stats(); verified != 5 {
		t.Fatalf("verified = %d", verified)
	}
}

func TestDeferredBatchDetectsTampering(t *testing.T) {
	l := deferredLedger(t, 4)
	v := proof.NewVerifier()
	v.Advance(l.Digest(), mtree.ConsistencyProof{})
	bad := deferredProof(t, l, 3, "k001")
	bad.Header.CellCount++
	q := deferredQueue{deferredProof(t, l, 3, "k000"), bad, deferredProof(t, l, 3, "k002")}
	idx, err := q.flush(v)
	if !errors.Is(err, proof.ErrTampered) {
		t.Fatal("tampered deferred proof accepted")
	}
	if idx != 1 {
		t.Fatalf("failure index = %d, want 1", idx)
	}
}

func TestFlushEmptyQueue(t *testing.T) {
	var q deferredQueue
	if n, err := q.flush(proof.NewVerifier()); err != nil || n != 0 {
		t.Fatalf("empty flush = %d, %v", n, err)
	}
}

func TestDeferWithoutDigestFailsAtFlush(t *testing.T) {
	l := deferredLedger(t, 2)
	q := deferredQueue{deferredProof(t, l, 1, "k000")}
	if _, err := q.flush(proof.NewVerifier()); !errors.Is(err, proof.ErrTampered) {
		t.Fatal("flush without digest succeeded")
	}
}
