package query

import (
	"testing"

	"spitz/internal/core"
	"spitz/internal/postree"
)

func verifiedEngine(t *testing.T) *core.Engine {
	t.Helper()
	eng := core.New(core.Options{MaintainInverted: true})
	seedInventory(t, eng)
	return eng
}

func execVerified(t *testing.T, eng *core.Engine, stmt string) (Plan, VerifiedSelect) {
	t.Helper()
	parsed, err := Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	s := parsed.(Select)
	res, err := ExecVerifiedSelect(eng, s, false)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlanOf(s)
	if err != nil {
		t.Fatal(err)
	}
	return pl, res
}

// verifyAndRebuild checks the proof against the response digest and
// reconstructs the result from proven values only — the client half of a
// verified query, minus the wire.
func verifyAndRebuild(t *testing.T, pl Plan, res VerifiedSelect) Result {
	t.Helper()
	if res.Proof == nil {
		t.Fatal("verified SELECT returned no proof")
	}
	if err := res.Proof.Verify(res.Digest); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
	out, err := pl.ResultFromProof(res.Cells, res.Proof)
	if err != nil {
		t.Fatalf("rebuild from proof: %v", err)
	}
	return out
}

func TestVerifiedRangeWithPredicate(t *testing.T) {
	eng := verifiedEngine(t)
	pl, res := execVerified(t, eng,
		"SELECT stock FROM inv WHERE pk BETWEEN 'item-a' AND 'item-z' AND status = 'live'")
	out := verifyAndRebuild(t, pl, res)
	if len(out.Rows) != 3 {
		t.Fatalf("verified rows = %d", len(out.Rows))
	}
	if string(out.Rows[0].PK) != "item-a" || string(out.Rows[0].Columns["stock"]) != "10" {
		t.Fatalf("first row = %+v", out.Rows[0])
	}
}

func TestVerifiedAggregates(t *testing.T) {
	eng := verifiedEngine(t)
	pl, res := execVerified(t, eng,
		"SELECT SUM(stock) FROM inv WHERE pk BETWEEN 'item-a' AND 'item-z' AND status = 'live'")
	out := verifyAndRebuild(t, pl, res)
	if !out.HasAgg || out.AggValue != 10+30+99 {
		t.Fatalf("verified sum = %+v", out)
	}

	pl, res = execVerified(t, eng, "SELECT COUNT(stock) FROM inv WHERE pk BETWEEN 'item-a' AND 'item-c'")
	out = verifyAndRebuild(t, pl, res)
	if !out.HasAgg || out.AggValue != 3 {
		t.Fatalf("verified count = %+v", out)
	}
}

func TestVerifiedPointAndLookup(t *testing.T) {
	eng := verifiedEngine(t)
	pl, res := execVerified(t, eng, "SELECT stock, status FROM inv WHERE pk = 'item-b'")
	out := verifyAndRebuild(t, pl, res)
	if len(out.Rows) != 1 || string(out.Rows[0].Columns["status"]) != "hold" {
		t.Fatalf("verified point = %+v", out.Rows)
	}

	pl, res = execVerified(t, eng, "SELECT stock FROM inv WHERE status = 'live'")
	out = verifyAndRebuild(t, pl, res)
	if len(out.Rows) != 3 {
		t.Fatalf("verified lookup rows = %d", len(out.Rows))
	}
}

func TestVerifiedProofBindsRange(t *testing.T) {
	// A valid proof for a NARROWER range must not satisfy the wider query:
	// the client re-derives obligations and checks the proof's bounds.
	eng := verifiedEngine(t)
	parsed, _ := Parse("SELECT stock FROM inv WHERE pk BETWEEN 'item-a' AND 'item-c'")
	narrow := parsed.(Select)
	res, err := ExecVerifiedSelect(eng, narrow, false)
	if err != nil {
		t.Fatal(err)
	}
	parsedWide, _ := Parse("SELECT stock FROM inv WHERE pk BETWEEN 'item-a' AND 'item-z'")
	plWide, err := PlanOf(parsedWide.(Select))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plWide.ResultFromProof(res.Cells, res.Proof); err == nil {
		t.Fatal("narrower-range proof accepted for a wider query")
	}
}

func TestVerifiedProofBindsKeys(t *testing.T) {
	// A valid proof for a different pk must not satisfy a point query.
	eng := verifiedEngine(t)
	parsed, _ := Parse("SELECT stock FROM inv WHERE pk = 'item-a'")
	res, err := ExecVerifiedSelect(eng, parsed.(Select), false)
	if err != nil {
		t.Fatal(err)
	}
	parsedOther, _ := Parse("SELECT stock FROM inv WHERE pk = 'item-b'")
	plOther, err := PlanOf(parsedOther.(Select))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plOther.ResultFromProof(res.Cells, res.Proof); err == nil {
		t.Fatal("proof for a different key accepted")
	}
}

func TestVerifiedTamperedProofRejected(t *testing.T) {
	eng := verifiedEngine(t)
	pl, res := execVerified(t, eng,
		"SELECT stock FROM inv WHERE pk BETWEEN 'item-a' AND 'item-z'")
	if len(res.Proof.Ranges) == 0 || len(res.Proof.Ranges[0].Entries) == 0 {
		t.Fatal("proof has no range entries to corrupt")
	}
	// Corrupt one byte of a proven leaf: verification against the digest
	// must fail before any result is rebuilt, and leave no rows behind.
	rp := &res.Proof.Ranges[0]
	honest := rp.Nodes[len(rp.Nodes)-1]
	forged := append([]byte(nil), honest...)
	forged[len(forged)-1] ^= 0xff
	rp.Nodes[len(rp.Nodes)-1] = forged
	if err := res.Proof.Verify(res.Digest); err == nil || rp.Entries != nil {
		t.Fatalf("tampered proof verified (%d rows)", len(rp.Entries))
	}
	rp.Nodes[len(rp.Nodes)-1] = honest
	// Rows claimed beside the leaves carry no weight: verification
	// replaces them with what the leaves hold.
	rp.Entries = []postree.Entry{{Key: []byte("forged"), Value: []byte("row")}}
	if err := res.Proof.Verify(res.Digest); err != nil {
		t.Fatalf("restored proof rejected: %v", err)
	}
	out, err := pl.ResultFromProof(res.Cells, res.Proof)
	if err != nil || len(out.Rows) != len(res.Proof.Ranges[0].Entries) || len(out.Rows) < 2 {
		t.Fatalf("result after a forged row list: %d rows, %v", len(out.Rows), err)
	}
}

func TestVerifiedDeferredSkipsProof(t *testing.T) {
	eng := verifiedEngine(t)
	parsed, _ := Parse("SELECT stock FROM inv WHERE pk BETWEEN 'item-a' AND 'item-z'")
	res, err := ExecVerifiedSelect(eng, parsed.(Select), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Proof != nil {
		t.Fatal("deferred execution produced an eager proof")
	}
	if len(res.Cells) == 0 || res.Digest.Height == 0 {
		t.Fatalf("deferred result missing cells or digest: %+v", res)
	}
	// The deferred digest anchors the audit flush at Digest.Height-1.
	if res.Digest != eng.Digest() {
		t.Fatal("deferred digest is not the execution digest")
	}
}

func TestVerifiedEmptyLedger(t *testing.T) {
	eng := core.New(core.Options{})
	parsed, _ := Parse("SELECT a FROM t WHERE pk = 'k'")
	res, err := ExecVerifiedSelect(eng, parsed.(Select), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Proof != nil || res.Found || res.Digest.Height != 0 {
		t.Fatalf("empty ledger result = %+v", res)
	}
}

func TestVerifiedExecutionUnderChurn(t *testing.T) {
	// Writes landing between digest capture and proving must not produce
	// false tampering: the statement executes against the captured
	// snapshot and the proof binds to it.
	eng := verifiedEngine(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := Exec(eng, "UPDATE inv SET stock = '77' WHERE pk = 'item-a'"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		pl, res := execVerified(t, eng,
			"SELECT SUM(stock) FROM inv WHERE pk BETWEEN 'item-a' AND 'item-z' AND status = 'live'")
		out := verifyAndRebuild(t, pl, res)
		if !out.HasAgg {
			t.Fatal("aggregate lost under churn")
		}
	}
	<-done
}
