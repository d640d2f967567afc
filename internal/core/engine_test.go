package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"spitz/internal/cellstore"
	"spitz/internal/inverted"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/proof"
)

func newEngine() *Engine { return New(Options{}) }

func seed(t *testing.T, e *Engine, n int) {
	t.Helper()
	puts := make([]Put, n)
	for i := range puts {
		puts[i] = Put{Table: "acct", Column: "bal", PK: []byte(fmt.Sprintf("pk%05d", i)),
			Value: []byte(fmt.Sprintf("value-%05d", i))}
	}
	if _, err := e.Apply("seed", puts); err != nil {
		t.Fatal(err)
	}
}

func TestApplyAndGet(t *testing.T) {
	e := newEngine()
	seed(t, e, 100)
	v, err := e.Get("acct", "bal", []byte("pk00042"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "value-00042" {
		t.Fatalf("Get = %q", v)
	}
	if _, err := e.Get("acct", "bal", []byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if _, err := e.Get("acct", "other", []byte("pk00042")); !errors.Is(err, ErrNotFound) {
		t.Fatal("wrong column served")
	}
}

func TestOverwriteVisible(t *testing.T) {
	e := newEngine()
	seed(t, e, 10)
	if _, err := e.Apply("update", []Put{{Table: "acct", Column: "bal",
		PK: []byte("pk00003"), Value: []byte("updated")}}); err != nil {
		t.Fatal(err)
	}
	v, err := e.Get("acct", "bal", []byte("pk00003"))
	if err != nil || string(v) != "updated" {
		t.Fatalf("Get after update = %q, %v", v, err)
	}
	// History keeps both versions.
	hist, err := e.History("acct", "bal", []byte("pk00003"))
	if err != nil || len(hist) != 2 {
		t.Fatalf("history = %d versions", len(hist))
	}
	if string(hist[0].Value) != "updated" || string(hist[1].Value) != "value-00003" {
		t.Fatal("history order wrong")
	}
}

// TestReadValuesAreCopies: a value Get or Read returns is the caller's —
// editing it in place or appending to it changes nothing stored, whether
// it came from the head or from a write still queued for its block.
func TestReadValuesAreCopies(t *testing.T) {
	e := newEngine()
	seed(t, e, 3)
	scribble := func(v []byte) {
		for i := range v {
			v[i] = '!'
		}
		_ = append(v[:len(v):cap(v)], "appended"...)
	}
	v, err := e.Get("acct", "bal", []byte("pk00001"))
	if err != nil {
		t.Fatal(err)
	}
	scribble(v)
	v, _, _, err = e.Read("acct", "bal", []byte("pk00001"))
	if err != nil {
		t.Fatal(err)
	}
	scribble(v)
	e.mu.Lock()
	req, err := e.enqueueLocked("", []cellstore.Cell{{Table: "acct", Column: "bal", PK: []byte("pk00002"), Value: []byte("queued")}})
	e.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _, err = e.Read("acct", "bal", []byte("pk00002")); err != nil || string(v) != "queued" {
		t.Fatalf("queued read = %q, %v", v, err)
	}
	scribble(v)
	if _, err := e.waitCommit(req); err != nil {
		t.Fatal(err)
	}
	for pk, want := range map[string]string{"pk00001": "value-00001", "pk00002": "queued"} {
		if got, err := e.Get("acct", "bal", []byte(pk)); err != nil || string(got) != want {
			t.Fatalf("%s after its readers edited their copies = %q, %v; want %q", pk, got, err, want)
		}
	}
	if _, err := e.Apply("more", []Put{{Table: "acct", Column: "bal", PK: []byte("pk00001"), Value: []byte("again")}}); err != nil {
		t.Fatalf("a commit after readers edited their copies: %v", err)
	}
}

func TestTombstone(t *testing.T) {
	e := newEngine()
	seed(t, e, 10)
	if _, err := e.Apply("delete", []Put{{Table: "acct", Column: "bal",
		PK: []byte("pk00003"), Tombstone: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get("acct", "bal", []byte("pk00003")); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted cell still served")
	}
	// But the history still shows it (immutability).
	hist, _ := e.History("acct", "bal", []byte("pk00003"))
	if len(hist) != 2 || !hist[0].Tombstone {
		t.Fatal("tombstone not recorded in history")
	}
}

func TestGetVerifiedEndToEnd(t *testing.T) {
	e := newEngine()
	seed(t, e, 200)
	ver := proof.NewVerifier()
	if err := ver.Advance(e.Digest(), mustCons(t, e, ver)); err != nil {
		t.Fatal(err)
	}
	res, err := e.GetVerified("acct", "bal", []byte("pk00101"))
	if err != nil || !res.Found {
		t.Fatalf("GetVerified: %v", err)
	}
	live, err := ver.Check(&res.Proof, res.Digest, []ledger.BatchQuery{{Table: "acct", Column: "bal", PK: []byte("pk00101")}}, 1, nil)
	if err != nil {
		t.Fatalf("client verification: %v", err)
	}
	if len(live[0]) != 1 || string(live[0][0].Value) != "value-00101" {
		t.Fatal("verified payload wrong")
	}
}

func mustCons(t *testing.T, e *Engine, v *proof.Verifier) mtree.ConsistencyProof {
	t.Helper()
	c, err := e.ConsistencyProof(v.Digest().Height, e.Digest().Height)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGetVerifiedAbsent(t *testing.T) {
	e := newEngine()
	seed(t, e, 50)
	res, err := e.GetVerified("acct", "bal", []byte("zz-not-there"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("absent cell found")
	}
	if err := res.Proof.Verify(res.Digest); err != nil {
		t.Fatalf("absence proof: %v", err)
	}
}

func TestGetVerifiedEmptyEngine(t *testing.T) {
	e := newEngine()
	res, err := e.GetVerified("t", "c", []byte("k"))
	if err != nil || res.Found {
		t.Fatal("empty engine misbehaved")
	}
}

func TestRangePK(t *testing.T) {
	e := newEngine()
	seed(t, e, 1000)
	cells, err := e.RangePK("acct", "bal", []byte("pk00100"), []byte("pk00110"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 10 {
		t.Fatalf("range = %d", len(cells))
	}
	for i, c := range cells {
		want := fmt.Sprintf("pk%05d", 100+i)
		if string(c.PK) != want {
			t.Fatalf("range[%d] pk = %s", i, c.PK)
		}
	}
}

func TestRangePKVerified(t *testing.T) {
	e := newEngine()
	seed(t, e, 1000)
	res, err := e.Verified(ledger.BatchQuery{Table: "acct", Column: "bal", PK: []byte("pk00100"), PKHi: []byte("pk00200"), Range: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 100 {
		t.Fatalf("verified range = %d", len(res.Cells))
	}
	if err := res.Proof.Verify(res.Digest); err != nil {
		t.Fatalf("range proof: %v", err)
	}
	// Tampering with the result set must be detectable via the proof.
	decoded, err := proof.DecodeEntries(res.Proof.Ranges[0].Entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) < 100 {
		t.Fatal("proof does not cover the result")
	}
}

func TestGetAt(t *testing.T) {
	e := newEngine()
	seed(t, e, 5)
	e.Apply("update", []Put{{Table: "acct", Column: "bal", PK: []byte("pk00001"), Value: []byte("v2")}})
	c, ok, err := e.GetAt(0, "acct", "bal", []byte("pk00001"))
	if err != nil || !ok {
		t.Fatal("GetAt failed")
	}
	if string(c.Value) != "value-00001" {
		t.Fatalf("historical read = %q", c.Value)
	}
	c, ok, _ = e.GetAt(1, "acct", "bal", []byte("pk00001"))
	if !ok || string(c.Value) != "v2" {
		t.Fatal("later snapshot wrong")
	}
}

func TestTransactionsCommitAndConflict(t *testing.T) {
	e := newEngine()
	seed(t, e, 10)
	ref := func(pk string) string { return string(cellstore.CellPrefix("acct", "bal", []byte(pk))) }
	put := func(pk, v string) []Put {
		return []Put{{Table: "acct", Column: "bal", PK: []byte(pk), Value: []byte(v)}}
	}

	v, ver, ok, err := e.Read("acct", "bal", []byte("pk00001"))
	if err != nil || !ok || !bytes.Equal(v, []byte("value-00001")) {
		t.Fatalf("txn read = %q %v %v", v, ok, err)
	}
	if _, err := e.Commit("TXN", map[string]uint64{ref("pk00001"): ver}, put("pk00001", "txn-write")); err != nil {
		t.Fatalf("commit: %v", err)
	}
	got, err := e.Get("acct", "bal", []byte("pk00001"))
	if err != nil || string(got) != "txn-write" {
		t.Fatal("txn write not visible")
	}

	// Conflicting transactions: the second reader-writer aborts.
	_, v1, _, _ := e.Read("acct", "bal", []byte("pk00002"))
	_, v2, _, _ := e.Read("acct", "bal", []byte("pk00002"))
	if _, err := e.Commit("TXN", map[string]uint64{ref("pk00002"): v1}, put("pk00002", "t1")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Commit("TXN", map[string]uint64{ref("pk00002"): v2}, put("pk00002", "t2")); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting txn committed: %v", err)
	}
}

func TestTxnDelete(t *testing.T) {
	e := newEngine()
	seed(t, e, 5)
	_, ver, _, err := e.Read("acct", "bal", []byte("pk00000"))
	if err != nil {
		t.Fatal(err)
	}
	reads := map[string]uint64{string(cellstore.CellPrefix("acct", "bal", []byte("pk00000"))): ver}
	if _, err := e.Commit("TXN", reads, []Put{{Table: "acct", Column: "bal", PK: []byte("pk00000"), Tombstone: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get("acct", "bal", []byte("pk00000")); !errors.Is(err, ErrNotFound) {
		t.Fatal("txn delete not effective")
	}
	if _, ver, found, err := e.Read("acct", "bal", []byte("pk00000")); err != nil || found || ver == 0 {
		t.Fatalf("read of the deleted cell: v%d found=%v err=%v; want its tombstone's version, not found", ver, found, err)
	}
}

func TestInvertedLookups(t *testing.T) {
	e := New(Options{MaintainInverted: true})
	puts := []Put{
		{Table: "items", Column: "stock", PK: []byte("a"), Value: inverted.EncodeNumeric(10)},
		{Table: "items", Column: "stock", PK: []byte("b"), Value: inverted.EncodeNumeric(60)},
		{Table: "items", Column: "stock", PK: []byte("c"), Value: inverted.EncodeNumeric(30)},
		{Table: "items", Column: "name", PK: []byte("a"), Value: []byte("apple")},
	}
	if _, err := e.Apply("seed", puts); err != nil {
		t.Fatal(err)
	}
	// The paper's example: items with stock level below 50.
	low, err := e.LookupNumericRange("items", "stock", 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(low) != 2 {
		t.Fatalf("stock<50 returned %d cells", len(low))
	}
	byName, err := e.LookupEqual("items", "name", []byte("apple"))
	if err != nil || len(byName) != 1 || string(byName[0].PK) != "a" {
		t.Fatal("name lookup failed")
	}
	// After an update, the old value must no longer match.
	e.Apply("upd", []Put{{Table: "items", Column: "stock", PK: []byte("a"), Value: inverted.EncodeNumeric(99)}})
	low, _ = e.LookupNumericRange("items", "stock", 0, 50)
	if len(low) != 1 || string(low[0].PK) != "c" {
		t.Fatalf("stale inverted entry: %d cells", len(low))
	}
}

func TestInvertedDisabled(t *testing.T) {
	e := newEngine()
	if _, err := e.LookupEqual("t", "c", []byte("v")); !errors.Is(err, ErrNoInvertedIndex) {
		t.Fatal("lookup without inverted index succeeded")
	}
}

func TestDigestAdvancesAndConsistency(t *testing.T) {
	e := newEngine()
	seed(t, e, 10)
	d1 := e.Digest()
	seed(t, e, 10)
	d2 := e.Digest()
	if d2.Height != d1.Height+1 {
		t.Fatalf("heights %d -> %d", d1.Height, d2.Height)
	}
	cons, err := e.ConsistencyProof(d1.Height, d2.Height)
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.Verify(d1.Root, d2.Root); err != nil {
		t.Fatalf("consistency: %v", err)
	}
}

func TestMultiColumnRows(t *testing.T) {
	e := newEngine()
	puts := []Put{
		{Table: "users", Column: "name", PK: []byte("u1"), Value: []byte("alice")},
		{Table: "users", Column: "email", PK: []byte("u1"), Value: []byte("a@x.com")},
		{Table: "users", Column: "name", PK: []byte("u2"), Value: []byte("bob")},
	}
	if _, err := e.Apply("insert users", puts); err != nil {
		t.Fatal(err)
	}
	name, _ := e.Get("users", "name", []byte("u1"))
	email, _ := e.Get("users", "email", []byte("u1"))
	if string(name) != "alice" || string(email) != "a@x.com" {
		t.Fatal("multi-column row broken")
	}
}
