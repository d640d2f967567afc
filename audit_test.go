package spitz_test

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"spitz"
	"spitz/internal/wire"
)

// serveDB serves an in-memory database over a listener and returns an
// audit-capable client connected to it.
func serveDB(t *testing.T, db *spitz.DB) (net.Listener, *spitz.Client) {
	t.Helper()
	ln, _ := wire.Listen()
	go db.Serve(ln)
	wc, err := wire.Connect(ln)
	if err != nil {
		t.Fatal(err)
	}
	return ln, spitz.NewClient(wc)
}

func auditSeed(t *testing.T, db *spitz.DB, n int) {
	t.Helper()
	var puts []spitz.Put
	for i := 0; i < n; i++ {
		puts = append(puts, spitz.Put{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("pk%04d", i)), Value: []byte(fmt.Sprintf("v%04d", i))})
	}
	if _, err := db.Apply("seed", puts); err != nil {
		t.Fatal(err)
	}
}

// TestAuditModePointRangeAndChurn is the functional acceptance of the
// deferred-audit read path on a plain client: point hits, misses,
// deletions and range scans are accepted optimistically, stay correct
// under write churn (receipts spanning several digests), and every
// receipt batch-verifies on flush with zero audit errors.
func TestAuditModePointRangeAndChurn(t *testing.T) {
	db := spitz.Open(spitz.Options{})
	auditSeed(t, db, 50)
	ln, cl := serveDB(t, db)
	defer ln.Close()
	defer cl.Close()

	aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 16, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.StartAudit(spitz.AuditMode{}); err == nil {
		t.Fatal("second StartAudit succeeded")
	}

	// Point hits and misses.
	for i := 0; i < 10; i++ {
		v, found, err := cl.GetVerified("t", "c", []byte(fmt.Sprintf("pk%04d", i)))
		if err != nil || !found || string(v) != fmt.Sprintf("v%04d", i) {
			t.Fatalf("read %d: %q %v %v", i, v, found, err)
		}
	}
	if _, found, err := cl.GetVerified("t", "c", []byte("absent")); err != nil || found {
		t.Fatalf("absent read: found=%v err=%v", found, err)
	}

	// Churn: every write moves the digest, so receipts span digests and
	// the auditor must group them (one round trip per digest).
	for i := 0; i < 5; i++ {
		pk := []byte(fmt.Sprintf("pk%04d", i))
		if _, err := db.Apply("churn", []spitz.Put{{Table: "t", Column: "c",
			PK: pk, Value: []byte(fmt.Sprintf("w%04d", i))}}); err != nil {
			t.Fatal(err)
		}
		v, found, err := cl.GetVerified("t", "c", pk)
		if err != nil || !found || string(v) != fmt.Sprintf("w%04d", i) {
			t.Fatalf("churn read %d: %q %v %v", i, v, found, err)
		}
	}

	// A deletion reads as not-found and still audits.
	if _, err := db.Exec("DELETE FROM t WHERE pk = 'pk0049'"); err != nil {
		t.Fatal(err)
	}
	if _, found, err := cl.GetVerified("t", "c", []byte("pk0049")); err != nil || found {
		t.Fatalf("deleted read: found=%v err=%v", found, err)
	}

	// Range scans.
	cells, err := cl.RangePKVerified("t", "c", []byte("pk0010"), []byte("pk0020"))
	if err != nil || len(cells) != 10 {
		t.Fatalf("range: %d cells, %v", len(cells), err)
	}
	empty, err := cl.RangePKVerified("t", "c", []byte("zz"), nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty range: %d cells, %v", len(empty), err)
	}

	if aud.Pending() == 0 {
		t.Fatal("no receipts pending before flush")
	}
	if err := aud.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	st := aud.Stats()
	if st.Receipts == 0 || st.Audited != st.Receipts || st.Batches == 0 {
		t.Fatalf("stats: %+v", st)
	}
	select {
	case err := <-aud.Errors():
		t.Fatalf("unexpected audit error: %v", err)
	default:
	}
	// Deferred volume is visible through the verifier.
	verified, deferred := cl.Verifier().Stats()
	if deferred == 0 || verified == 0 {
		t.Fatalf("verifier stats: verified=%d deferred=%d", verified, deferred)
	}
}

// TestAuditHorizonAutoFlush verifies both horizon triggers: the count
// horizon flushes as soon as MaxPending receipts accumulate, and the age
// horizon flushes receipts that merely sit long enough.
func TestAuditHorizonAutoFlush(t *testing.T) {
	db := spitz.Open(spitz.Options{})
	auditSeed(t, db, 10)
	ln, cl := serveDB(t, db)
	defer ln.Close()
	defer cl.Close()

	aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 4, MaxDelay: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, _, err := cl.GetVerified("t", "c", []byte(fmt.Sprintf("pk%04d", i%10))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for aud.Pending() > 0 || aud.Stats().Audited < 9 {
		if time.Now().After(deadline) {
			t.Fatalf("receipts not audited within the horizon: %+v pending=%d", aud.Stats(), aud.Pending())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("audit error: %v", err)
	}
}

// TestAuditCloseFlushesOrFails pins Close semantics: with the server
// alive, Close performs the final flush; with the server gone, the
// unverified receipts surface as an error — never a silent pass.
func TestAuditCloseFlushesOrFails(t *testing.T) {
	db := spitz.Open(spitz.Options{})
	auditSeed(t, db, 5)

	t.Run("clean close flushes", func(t *testing.T) {
		ln, cl := serveDB(t, db)
		defer ln.Close()
		aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1024, MaxDelay: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.GetVerified("t", "c", []byte("pk0001")); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if st := aud.Stats(); st.Audited != st.Receipts {
			t.Fatalf("close did not flush: %+v", st)
		}
	})

	t.Run("dead server close fails loudly", func(t *testing.T) {
		ln, cl := serveDB(t, db)
		aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1024, MaxDelay: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.GetVerified("t", "c", []byte("pk0001")); err != nil {
			t.Fatal(err)
		}
		ln.Close()
		// Give the server a moment to tear down the connection.
		time.Sleep(20 * time.Millisecond)
		err = aud.Close()
		if err == nil {
			t.Fatal("closing with unverifiable receipts passed silently")
		}
		if errors.Is(err, spitz.ErrTampered) {
			t.Fatalf("transport failure misreported as tampering: %v", err)
		}
	})
}
