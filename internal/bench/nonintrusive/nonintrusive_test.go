package nonintrusive

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func deploy(t *testing.T) *System {
	t.Helper()
	s, err := Deploy()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func writeBatch(t *testing.T, s *System, lo, hi int, tag string) {
	t.Helper()
	batch := make([]KV, 0, hi-lo)
	for i := lo; i < hi; i++ {
		batch = append(batch, KV{PK: []byte(fmt.Sprintf("pk%05d", i)),
			Value: []byte(fmt.Sprintf("%s-%05d", tag, i))})
	}
	if err := s.Write(batch); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRead(t *testing.T) {
	s := deploy(t)
	writeBatch(t, s, 0, 100, "v")
	v, found, err := s.Read([]byte("pk00042"))
	if err != nil || !found || string(v) != "v-00042" {
		t.Fatalf("Read = %q %v %v", v, found, err)
	}
	_, found, err = s.Read([]byte("missing"))
	if err != nil || found {
		t.Fatal("absent key found")
	}
}

func TestReadVerified(t *testing.T) {
	s := deploy(t)
	writeBatch(t, s, 0, 200, "v")
	v, found, err := s.ReadVerified([]byte("pk00111"))
	if err != nil {
		t.Fatalf("ReadVerified: %v", err)
	}
	if !found || string(v) != "v-00111" {
		t.Fatalf("verified read = %q %v", v, found)
	}
	// Absent key: both systems agree, absence is proven.
	_, found, err = s.ReadVerified([]byte("zz-missing"))
	if err != nil || found {
		t.Fatalf("verified absent read: %v %v", found, err)
	}
}

func TestVerifiedReadAcrossUpdates(t *testing.T) {
	s := deploy(t)
	writeBatch(t, s, 0, 50, "old")
	if _, _, err := s.ReadVerified([]byte("pk00001")); err != nil {
		t.Fatal(err)
	}
	writeBatch(t, s, 0, 50, "new") // digest advances; client must resync
	v, found, err := s.ReadVerified([]byte("pk00001"))
	if err != nil || !found || string(v) != "new-00001" {
		t.Fatalf("after update: %q %v %v", v, found, err)
	}
}

func TestMismatchDetected(t *testing.T) {
	s := deploy(t)
	writeBatch(t, s, 0, 20, "v")
	// Tamper with the underlying database only: write to the KVS service
	// directly, bypassing the ledger.
	if _, err := s.kvs.do(kvsRequest{Op: "put",
		Batch: []KV{{PK: []byte("pk00003"), Value: []byte("tampered!")}}}); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.ReadVerified([]byte("pk00003"))
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("tampered value not detected: %v", err)
	}
	// A key the tamper did not touch still verifies.
	if _, _, err := s.ReadVerified([]byte("pk00004")); err != nil {
		t.Fatal(err)
	}
}

func TestMissingFromLedgerDetected(t *testing.T) {
	s := deploy(t)
	writeBatch(t, s, 0, 10, "v")
	// A key present only in the underlying database (never committed to
	// the ledger) must fail verification.
	if _, err := s.kvs.do(kvsRequest{Op: "put",
		Batch: []KV{{PK: []byte("ghost"), Value: []byte("x")}}}); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.ReadVerified([]byte("ghost"))
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("ghost record not detected: %v", err)
	}
}

func TestScan(t *testing.T) {
	s := deploy(t)
	writeBatch(t, s, 0, 100, "v")
	keys, vals, err := s.Scan([]byte("pk00010"), []byte("pk00020"))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 || len(vals) != 10 {
		t.Fatalf("scan = %d keys", len(keys))
	}
	if !bytes.Equal(keys[0], []byte("pk00010")) {
		t.Fatalf("first key = %s", keys[0])
	}
}
