package proof_test

import (
	"errors"
	"fmt"
	"spitz/internal/proof"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
)

// testLedger builds a ledger with n blocks of small writes.
func testLedger(t *testing.T, n int) *ledger.Ledger {
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

func TestAdvanceTrustOnFirstUse(t *testing.T) {
	l := testLedger(t, 3)
	v := proof.NewVerifier()
	if err := v.Advance(l.Digest(), mtree.ConsistencyProof{}); err != nil {
		t.Fatalf("first Advance: %v", err)
	}
	if v.Digest() != l.Digest() {
		t.Fatal("digest not pinned")
	}
}

func TestAdvanceWithConsistency(t *testing.T) {
	l := testLedger(t, 3)
	v := proof.NewVerifier()
	old := l.Digest()
	if err := v.Advance(old, mtree.ConsistencyProof{}); err != nil {
		t.Fatal(err)
	}
	// Grow the ledger and advance with a proper consistency proof.
	l.Commit(100, nil, []cellstore.Cell{{Table: "t", Column: "c", PK: []byte("x"), Version: 100, Value: []byte("v")}})
	cons, err := l.ConsistencyProof(old.Height, l.Height())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Advance(l.Digest(), cons); err != nil {
		t.Fatalf("Advance: %v", err)
	}
}

func TestAdvanceRejectsForkedHistory(t *testing.T) {
	l := testLedger(t, 3)
	v := proof.NewVerifier()
	if err := v.Advance(l.Digest(), mtree.ConsistencyProof{}); err != nil {
		t.Fatal(err)
	}
	// A genuinely divergent history: same heights, different content.
	l2 := ledger.New(cas.NewMemory())
	for i := 0; i < 5; i++ {
		v64 := uint64(i + 1)
		cells := []cellstore.Cell{{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("k%03d", i)), Version: v64, Value: []byte("FORKED")}}
		if _, err := l2.Commit(v64, nil, cells); err != nil {
			t.Fatal(err)
		}
	}
	cons, _ := l2.ConsistencyProof(3, l2.Height())
	if err := v.Advance(l2.Digest(), cons); !errors.Is(err, proof.ErrTampered) {
		t.Fatalf("fork accepted: %v", err)
	}
}

func TestAdvanceRejectsRollback(t *testing.T) {
	l := testLedger(t, 5)
	v := proof.NewVerifier()
	if err := v.Advance(l.Digest(), mtree.ConsistencyProof{}); err != nil {
		t.Fatal(err)
	}
	short := testLedger(t, 2)
	if err := v.Advance(short.Digest(), mtree.ConsistencyProof{}); !errors.Is(err, proof.ErrTampered) {
		t.Fatal("rollback accepted")
	}
}

// TestAdvanceWithRefusesMovedTrust: an Advance that lands while
// AdvanceWith's check runs moves trust under it. The consistency proof
// AdvanceWith checked proves nothing from the new trust, so it must not
// commit: trust stays where Advance put it, and never moves back.
func TestAdvanceWithRefusesMovedTrust(t *testing.T) {
	l := testLedger(t, 3)
	v := proof.NewVerifier()
	base := l.Digest()
	if err := v.Advance(base, mtree.ConsistencyProof{}); err != nil {
		t.Fatal(err)
	}
	commit := func(version uint64) ledger.Digest {
		if _, err := l.Commit(version, nil, []cellstore.Cell{{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("x%d", version)), Version: version, Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
		return l.Digest()
	}
	mid, head := commit(100), commit(101)
	toMid, _ := l.ConsistencyProof(base.Height, mid.Height)
	toHead, _ := l.ConsistencyProof(base.Height, head.Height)
	err := v.AdvanceWith(mid, &toMid, func() error { return v.Advance(head, toHead) })
	if err == nil || errors.Is(err, proof.ErrTampered) {
		t.Fatalf("AdvanceWith over moved trust: %v, want a refusal that is not tampering", err)
	}
	if v.Digest() != head {
		t.Fatalf("trust at height %d, want the concurrent Advance's %d", v.Digest().Height, head.Height)
	}
}

// TestAdvanceFromTheEmptyLedger: trust pinned to the empty ledger is
// extended by every ledger, with or without a proof.
func TestAdvanceFromTheEmptyLedger(t *testing.T) {
	v := proof.NewVerifier()
	if err := v.Advance(testLedger(t, 0).Digest(), mtree.ConsistencyProof{}); err != nil {
		t.Fatal(err)
	}
	l := testLedger(t, 2)
	if err := v.AdvanceWith(l.Digest(), nil, nil); err != nil || v.Digest() != l.Digest() {
		t.Fatalf("advance from the empty ledger: %v, trust at height %d", err, v.Digest().Height)
	}
}

// proveGet proves one point read of t.c at height: the one-key Prove.
func proveGet(t *testing.T, l *ledger.Ledger, height uint64, pk string) ledger.Proof {
	t.Helper()
	p, err := l.Prove(height, []ledger.BatchQuery{{Table: "t", Column: "c", PK: []byte(pk)}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVerifyNow(t *testing.T) {
	l := testLedger(t, 4)
	v := proof.NewVerifier()
	v.Advance(l.Digest(), mtree.ConsistencyProof{})
	p := proveGet(t, l, 3, "k002")
	if !p.Point.Found[0] {
		t.Fatal("read failed")
	}
	if err := v.VerifyNow(p); err != nil {
		t.Fatalf("VerifyNow: %v", err)
	}
	verified, _ := v.Stats()
	if verified != 1 {
		t.Fatalf("verified = %d", verified)
	}
}

func TestVerifyNowWithoutDigest(t *testing.T) {
	l := testLedger(t, 2)
	p := proveGet(t, l, 1, "k000")
	v := proof.NewVerifier()
	if err := v.VerifyNow(p); !errors.Is(err, proof.ErrTampered) {
		t.Fatal("verification without pinned digest succeeded")
	}
}

func TestVerifyNowDetectsTampering(t *testing.T) {
	l := testLedger(t, 4)
	v := proof.NewVerifier()
	v.Advance(l.Digest(), mtree.ConsistencyProof{})
	p := proveGet(t, l, 3, "k001")
	p.Header.Version ^= 1
	if err := v.VerifyNow(p); !errors.Is(err, proof.ErrTampered) {
		t.Fatal("tampered proof accepted")
	}
}
