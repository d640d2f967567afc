package spitz_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"spitz"
	"spitz/internal/wire"
)

func seedDB(t *testing.T, n int) *spitz.DB {
	t.Helper()
	db := spitz.Open(spitz.Options{})
	puts := make([]spitz.Put, n)
	for i := range puts {
		puts[i] = spitz.Put{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%04d", i)),
			Value: []byte(fmt.Sprintf("v%04d", i))}
	}
	if _, err := db.Apply("seed", puts); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenPutGet(t *testing.T) {
	db := seedDB(t, 100)
	v, err := db.Get("t", "c", []byte("pk0042"))
	if err != nil || string(v) != "v0042" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := db.Get("t", "c", []byte("missing")); !errors.Is(err, spitz.ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
}

func TestRowAPI(t *testing.T) {
	db := spitz.Open(spitz.Options{})
	if _, err := db.PutRow("users", []byte("u1"), map[string][]byte{
		"name": []byte("alice"), "email": []byte("a@example.com")}); err != nil {
		t.Fatal(err)
	}
	row, err := db.GetRow("users", []byte("u1"), []string{"name", "email", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if string(row["name"]) != "alice" || string(row["email"]) != "a@example.com" {
		t.Fatalf("row = %v", row)
	}
	if _, ok := row["missing"]; ok {
		t.Fatal("absent column materialized")
	}
}

func TestVerifiedReadEndToEnd(t *testing.T) {
	db := seedDB(t, 200)
	verifier := spitz.NewVerifier()
	res, err := db.GetVerified("t", "c", []byte("pk0101"))
	if err != nil || !res.Found {
		t.Fatal("verified read failed")
	}
	if err := verifier.Advance(res.Digest, spitz.ConsistencyProof{}); err != nil {
		t.Fatal(err)
	}
	if err := verifier.VerifyNow(res.Proof); err != nil {
		t.Fatalf("VerifyNow: %v", err)
	}
	// Tamper with the proof: detection required.
	res.Proof.Header.CellCount++
	if err := verifier.VerifyNow(res.Proof); !errors.Is(err, spitz.ErrTampered) {
		t.Fatal("tampered proof accepted")
	}
}

func TestTransactions(t *testing.T) {
	db := seedDB(t, 10)
	tx := db.Begin()
	v, ok, err := tx.Get("t", "c", []byte("pk0001"))
	if err != nil || !ok || string(v) != "v0001" {
		t.Fatal("txn read failed")
	}
	if err := tx.Put("t", "c", []byte("pk0001"), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err = db.Get("t", "c", []byte("pk0001"))
	if err != nil || string(v) != "updated" {
		t.Fatal("txn write invisible")
	}

	// Conflict: two txns read-modify-write the same cell.
	t1, t2 := db.Begin(), db.Begin()
	t1.Get("t", "c", []byte("pk0002"))
	t2.Get("t", "c", []byte("pk0002"))
	t1.Put("t", "c", []byte("pk0002"), []byte("a"))
	t2.Put("t", "c", []byte("pk0002"), []byte("b"))
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Commit(); !errors.Is(err, spitz.ErrConflict) {
		t.Fatalf("conflict not detected: %v", err)
	}
	if st := db.Stats().Txns; st.Commits != 2 || st.Aborts != 1 {
		t.Fatalf("Stats().Txns = %+v, want 2 commits and 1 abort", st)
	}
}

func TestHistoryAndTimeTravel(t *testing.T) {
	db := spitz.Open(spitz.Options{})
	db.Apply("v1", []spitz.Put{{Table: "t", Column: "c", PK: []byte("k"), Value: []byte("one")}})
	db.Apply("v2", []spitz.Put{{Table: "t", Column: "c", PK: []byte("k"), Value: []byte("two")}})
	db.Apply("del", []spitz.Put{{Table: "t", Column: "c", PK: []byte("k"), Tombstone: true}})

	hist, err := db.History("t", "c", []byte("k"))
	if err != nil || len(hist) != 3 {
		t.Fatalf("history = %d versions, %v", len(hist), err)
	}
	if !hist[0].Tombstone || string(hist[1].Value) != "two" || string(hist[2].Value) != "one" {
		t.Fatal("history order wrong")
	}
	c, ok, err := db.GetAt(0, "t", "c", []byte("k"))
	if err != nil || !ok || string(c.Value) != "one" {
		t.Fatal("time travel to block 0 failed")
	}
	if _, err := db.Get("t", "c", []byte("k")); !errors.Is(err, spitz.ErrNotFound) {
		t.Fatal("deleted cell still live")
	}
	if db.Height() != 3 {
		t.Fatalf("height = %d", db.Height())
	}
	if h, err := db.Block(1); err != nil || h.Height != 1 {
		t.Fatal("block header fetch failed")
	}
}

func TestRangeVerified(t *testing.T) {
	db := seedDB(t, 500)
	verifier := spitz.NewVerifier()
	res, err := db.RangePKVerified("t", "c", []byte("pk0100"), []byte("pk0120"))
	if err != nil || len(res.Cells) != 20 {
		t.Fatalf("range = %d cells, %v", len(res.Cells), err)
	}
	if err := verifier.Advance(res.Digest, spitz.ConsistencyProof{}); err != nil {
		t.Fatal(err)
	}
	if err := verifier.VerifyNow(res.Proof); err != nil {
		t.Fatalf("range proof: %v", err)
	}
}

func TestInvertedLookups(t *testing.T) {
	db := spitz.Open(spitz.Options{MaintainInverted: true})
	enc := func(v uint64) []byte {
		return []byte{0, 0, 0, 0, 0, 0, byte(v >> 8), byte(v)}
	}
	db.Apply("stock", []spitz.Put{
		{Table: "items", Column: "stock", PK: []byte("a"), Value: enc(10)},
		{Table: "items", Column: "stock", PK: []byte("b"), Value: enc(90)},
	})
	low, err := db.LookupNumericRange("items", "stock", 0, 50)
	if err != nil || len(low) != 1 || string(low[0].PK) != "a" {
		t.Fatalf("lookup = %v, %v", low, err)
	}
}

func TestNetworkClient(t *testing.T) {
	db := seedDB(t, 100)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	go db.Serve(ln)
	defer ln.Close()

	if _, err := spitz.Dial("tcp", "256.0.0.1:1"); err == nil {
		t.Fatal("dial to nowhere succeeded")
	}
	cl, err := spitz.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Shards() != 1 {
		t.Fatalf("a single-engine server reported %d shards", cl.Shards())
	}

	v, found, err := cl.GetVerified("t", "c", []byte("pk0008"))
	if err != nil || !found || string(v) != "v0008" {
		t.Fatalf("client verified get = %q %v %v", v, found, err)
	}
	// Write through the client, then read it back verified: the digest
	// must advance with a consistency proof.
	if _, err := cl.Apply("client write", []spitz.Put{
		{Table: "t", Column: "c", PK: []byte("new"), Value: []byte("nv")}}); err != nil {
		t.Fatal(err)
	}
	v, found, err = cl.GetVerified("t", "c", []byte("new"))
	if err != nil || !found || string(v) != "nv" {
		t.Fatalf("verified read after write: %q %v %v", v, found, err)
	}
	cells, err := cl.RangePKVerified("t", "c", []byte("pk0000"), []byte("pk0005"))
	if err != nil || len(cells) != 5 {
		t.Fatalf("client range = %d, %v", len(cells), err)
	}
	hist, err := cl.History("t", "c", []byte("new"))
	if err != nil || len(hist) != 1 {
		t.Fatal("client history failed")
	}
	if err := cl.SyncDigest(); err != nil {
		t.Fatal(err)
	}
	if cl.Verifier() == nil {
		t.Fatal("verifier not exposed")
	}
}

func TestDigestConsistencyAcrossCommits(t *testing.T) {
	db := seedDB(t, 10)
	d1 := db.Digest()
	db.Apply("more", []spitz.Put{{Table: "t", Column: "c", PK: []byte("x"), Value: []byte("y")}})
	d2 := db.Digest()
	cons, err := db.ConsistencyProof(d1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.Verify(d1.Root, d2.Root); err != nil {
		t.Fatalf("consistency: %v", err)
	}
}

func TestSQLThroughPublicAPI(t *testing.T) {
	db := spitz.Open(spitz.Options{})
	if _, err := db.Exec("INSERT INTO t (pk, a) VALUES ('k', 'v')"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT a FROM t WHERE pk = 'k'")
	if err != nil || len(res.Rows) != 1 || string(res.Rows[0].Columns["a"]) != "v" {
		t.Fatalf("SQL round trip: %+v %v", res, err)
	}
	if got, err := db.Columns("t"); err != nil || len(got) != 1 || got[0] != "a" {
		t.Fatalf("Columns = %v, %v", got, err)
	}
	if _, err := db.Exec("DROP DATABASE"); err == nil {
		t.Fatal("invalid SQL accepted")
	}
}

func TestDocumentsThroughPublicAPI(t *testing.T) {
	db := spitz.Open(spitz.Options{})
	if _, err := db.PutDocument("d", []byte("k"), []byte(`{"a":{"b":1}}`)); err != nil {
		t.Fatal(err)
	}
	doc, found, err := db.GetDocument("d", []byte("k"))
	if err != nil || !found {
		t.Fatal("document lost")
	}
	if string(doc) != `{"a":{"b":1}}` {
		t.Fatalf("doc = %s", doc)
	}
}

func TestSnapshotRestoreThroughPublicAPI(t *testing.T) {
	db := seedDB(t, 100)
	db.Apply("update", []spitz.Put{{Table: "t", Column: "c", PK: []byte("pk0001"), Value: []byte("v2")}})
	oldDigest := db.Digest()

	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := spitz.Restore(spitz.Options{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// State, history and digests survive the restart.
	v, err := restored.Get("t", "c", []byte("pk0001"))
	if err != nil || string(v) != "v2" {
		t.Fatalf("restored read = %q %v", v, err)
	}
	hist, _ := restored.History("t", "c", []byte("pk0001"))
	if len(hist) != 2 {
		t.Fatalf("restored history = %d", len(hist))
	}
	if restored.Digest() != oldDigest {
		t.Fatal("digest changed across restart")
	}
	// A client verifier pinned before the restart keeps working.
	verifier := spitz.NewVerifier()
	if err := verifier.Advance(oldDigest, spitz.ConsistencyProof{}); err != nil {
		t.Fatal(err)
	}
	res, err := restored.GetVerified("t", "c", []byte("pk0001"))
	if err != nil || !res.Found {
		t.Fatal("verified read after restore failed")
	}
	if err := verifier.VerifyNow(res.Proof); err != nil {
		t.Fatalf("pre-restart verifier rejected post-restart proof: %v", err)
	}
	// Writes continue with monotonic versions.
	if _, err := restored.Apply("post-restore", []spitz.Put{
		{Table: "t", Column: "c", PK: []byte("new"), Value: []byte("nv")}}); err != nil {
		t.Fatal(err)
	}
	cons, err := restored.ConsistencyProof(oldDigest)
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.Verify(oldDigest.Root, restored.Digest().Root); err != nil {
		t.Fatalf("post-restore consistency: %v", err)
	}
}

// TestWarmClientReadsAfterRestore: a database restored from a snapshot
// holds the trees of no block before the snapshot's head, so a client that
// trusts an older digest is answered at the head with a consistency proof
// — point and range, for keys unchanged since it trusted that digest —
// and, once it trusts a block written after the restore, at that block
// again while what it reads stays unchanged.
func TestWarmClientReadsAfterRestore(t *testing.T) {
	db := seedDB(t, 20)
	defer db.Close()
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()
	point, scan := connect(t, dialer(ln)), connect(t, dialer(ln))
	read := func() {
		t.Helper()
		if v, found, err := point.GetVerified("t", "c", []byte("pk0001")); err != nil || !found || string(v) != "v0001" {
			t.Fatalf("point read = %q %v %v", v, found, err)
		}
		if cells, err := scan.RangePKVerified("t", "c", []byte("pk0000"), []byte("pk0010")); err != nil || len(cells) != 10 {
			t.Fatalf("range read = %d rows, %v", len(cells), err)
		}
	}
	write := func(pk string) {
		t.Helper()
		if _, err := db.Apply("w", []spitz.Put{{Table: "t", Column: "c", PK: []byte(pk), Value: []byte("w")}}); err != nil {
			t.Fatal(err)
		}
	}
	read()
	trusted := point.Verifier().Digest()
	for _, pk := range []string{"pk0019", "pk0018", "pk0017"} {
		write(pk)
	}
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := db.ResetFromSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	write("pk0016")
	read()
	for _, cl := range []*spitz.Client{point, scan} {
		if d := cl.Verifier().Digest(); d != db.Digest() {
			t.Fatalf("trust %d after the restore, head %d, trusted before %d", d.Height, db.Digest().Height, trusted.Height)
		}
	}
	head := db.Digest()
	write("pk0015")
	read()
	for _, cl := range []*spitz.Client{point, scan} {
		if d := cl.Verifier().Digest(); d != head {
			t.Fatalf("unchanged read moved trust from %d to %d", head.Height, d.Height)
		}
	}
}

// TestTxnSpanningRestoreFails: a transaction begun before a restore
// commits into the state the restore replaced, where no read looks, so
// its commit must fail with ErrConflict, and write nothing anywhere —
// whether it only wrote or also read.
func TestTxnSpanningRestoreFails(t *testing.T) {
	db := seedDB(t, 4)
	var snap bytes.Buffer
	if err := db.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	for _, read := range []bool{false, true} {
		tx := db.Begin()
		if read {
			if _, _, err := tx.Get("t", "c", []byte("pk0001")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Put("t", "c", []byte("spans"), []byte("lost?")); err != nil {
			t.Fatal(err)
		}
		if err := db.ResetFromSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); !errors.Is(err, spitz.ErrConflict) {
			t.Fatalf("read=%v: commit across a restore = %v, want ErrConflict", read, err)
		}
		if v, err := db.Get("t", "c", []byte("spans")); !errors.Is(err, spitz.ErrNotFound) {
			t.Fatalf("read=%v: the refused write reads %q, %v", read, v, err)
		}
	}
	if st := db.Stats().Txns; st.Commits != 0 || st.Aborts != 2 {
		t.Fatalf("transactions = %+v, want 2 aborts", st)
	}
}

// TestWritesSpanningRestoreRace: writers and transactions race restores.
// A write on the engine a restore replaced — one that loaded it just
// before the swap — fails with ErrConflict; every other write is acked,
// and one that no restore overlapped reads back at once.
func TestWritesSpanningRestoreRace(t *testing.T) {
	db := seedDB(t, 4)
	var snap bytes.Buffer
	if err := db.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	stale := db.Engine(0)
	if err := db.ResetFromSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := stale.Apply("late", []spitz.Put{{Table: "t", Column: "c", PK: []byte("late"), Value: []byte("x")}}); !errors.Is(err, spitz.ErrConflict) {
		t.Fatalf("a write on the replaced engine = %v, want ErrConflict", err)
	}

	var gen atomic.Uint64 // odd while a restore runs
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pk := []byte(fmt.Sprintf("w%d-%02d", w, i))
				g := gen.Load()
				var err error
				if w%2 == 0 {
					_, err = db.Apply("w", []spitz.Put{{Table: "t", Column: "c", PK: pk, Value: pk}})
				} else {
					tx := db.Begin()
					if _, _, err = tx.Get("t", "c", []byte("pk0001")); err == nil {
						tx.Put("t", "c", pk, pk)
						_, err = tx.Commit()
					}
				}
				if err != nil {
					if !errors.Is(err, spitz.ErrConflict) {
						t.Errorf("write %s: %v", pk, err)
					}
					continue
				}
				_, rerr := db.Get("t", "c", pk)
				if g%2 == 0 && gen.Load() == g && rerr != nil {
					t.Errorf("write %s acked, no restore overlapped it, and it reads %v", pk, rerr)
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		gen.Add(1)
		if err := db.ResetFromSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		gen.Add(1)
	}
	wg.Wait()
}
