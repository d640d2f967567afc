package baseline

import (
	"bytes"
	"fmt"
	"testing"

	"spitz/internal/cas"
)

func kvBatch(lo, hi int, tag string) []KV {
	out := make([]KV, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, KV{Key: []byte(fmt.Sprintf("key%06d", i)),
			Value: []byte(fmt.Sprintf("%s-%06d", tag, i))})
	}
	return out
}

func TestWriteGet(t *testing.T) {
	db := New(nil)
	if err := db.Write(kvBatch(0, 500, "v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("key000123"))
	if err != nil || !ok || string(v) != "v-000123" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := db.Get([]byte("missing")); ok {
		t.Fatal("found absent key")
	}
}

func TestOverwriteAndHistory(t *testing.T) {
	db := New(nil)
	db.Write(kvBatch(0, 10, "old"))
	db.Write(kvBatch(3, 5, "new"))
	v, _, _ := db.Get([]byte("key000003"))
	if string(v) != "new-000003" {
		t.Fatalf("current view = %q", v)
	}
	hist, err := db.History([]byte("key000003"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history = %d versions", len(hist))
	}
	if string(hist[0].Value) != "old-000003" || string(hist[1].Value) != "new-000003" {
		t.Fatal("history order wrong")
	}
	if hist[0].Version >= hist[1].Version {
		t.Fatal("history versions not increasing")
	}
}

func TestScan(t *testing.T) {
	db := New(nil)
	db.Write(kvBatch(0, 300, "v"))
	var got []string
	db.Scan([]byte("key000100"), []byte("key000110"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 10 || got[0] != "key000100" || got[9] != "key000109" {
		t.Fatalf("scan = %v", got)
	}
}

func TestBlockSealing(t *testing.T) {
	db := New(nil)
	db.Write(kvBatch(0, RecordsPerBlock+10, "v"))
	if db.Blocks() != 1 {
		t.Fatalf("sealed blocks = %d, want 1", db.Blocks())
	}
	db.Seal()
	if db.Blocks() != 2 {
		t.Fatalf("after Seal: %d blocks", db.Blocks())
	}
	db.Seal() // empty open block: no-op
	if db.Blocks() != 2 {
		t.Fatal("sealing empty block created a block")
	}
	if db.Digest().Size != 2 {
		t.Fatalf("digest size = %d", db.Digest().Size)
	}
}

func TestVerifiedGetRoundTrip(t *testing.T) {
	db := New(nil)
	db.Write(kvBatch(0, 1000, "v"))
	rec, ok, p, err := db.VerifiedGet([]byte("key000777"))
	if err != nil || !ok {
		t.Fatalf("VerifiedGet: %v", err)
	}
	if string(rec.Value) != "v-000777" {
		t.Fatalf("record value = %q", rec.Value)
	}
	// The digest must be taken after sealing (VerifiedGet seals).
	if err := p.Verify(db.Digest(), rec); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifiedGetAbsent(t *testing.T) {
	db := New(nil)
	db.Write(kvBatch(0, 10, "v"))
	_, ok, _, err := db.VerifiedGet([]byte("missing"))
	if err != nil || ok {
		t.Fatal("absent key misbehaved")
	}
}

func TestProofDetectsTampering(t *testing.T) {
	db := New(nil)
	db.Write(kvBatch(0, 100, "v"))
	rec, _, p, err := db.VerifiedGet([]byte("key000042"))
	if err != nil {
		t.Fatal(err)
	}
	d := db.Digest()

	forged := rec
	forged.Value = []byte("evil")
	if err := p.Verify(d, forged); err == nil {
		t.Fatal("forged value verified")
	}

	badBody := p
	badBody.Body = append([]byte(nil), p.Body...)
	badBody.Body[len(badBody.Body)-1] ^= 1
	if err := badBody.Verify(d, rec); err == nil {
		t.Fatal("tampered body verified")
	}

	badDigest := d
	badDigest.Root[0] ^= 1
	if err := p.Verify(badDigest, rec); err == nil {
		t.Fatal("wrong digest verified")
	}

	badIdx := p
	badIdx.Index++
	if err := badIdx.Verify(d, rec); err == nil {
		t.Fatal("wrong index verified")
	}
}

func TestVerifiedScan(t *testing.T) {
	db := New(nil)
	db.Write(kvBatch(0, 2000, "v"))
	recs, proofs, err := db.VerifiedScan([]byte("key000500"), []byte("key000520"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 || len(proofs) != 20 {
		t.Fatalf("scan = %d recs, %d proofs", len(recs), len(proofs))
	}
	d := db.Digest()
	for i := range recs {
		if err := proofs[i].Verify(d, recs[i]); err != nil {
			t.Fatalf("proof %d: %v", i, err)
		}
	}
}

func TestConsistencyProof(t *testing.T) {
	db := New(nil)
	db.Write(kvBatch(0, RecordsPerBlock, "a")) // seals one block
	db.Seal()
	old := db.Digest()
	db.Write(kvBatch(0, RecordsPerBlock, "b"))
	db.Seal()
	cur := db.Digest()
	cons, err := db.ConsistencyProof(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.Verify(old.Root, cur.Root); err != nil {
		t.Fatalf("consistency: %v", err)
	}
}

func TestViewsArePersisted(t *testing.T) {
	// Materialized views flush their dirty pages to storage on every
	// write batch — the write amplification the benchmarks measure.
	store := cas.NewMemory()
	db := New(store)
	db.Write(kvBatch(0, 1000, "v"))
	base := store.Stats().LogicalBytes
	db.Write(kvBatch(0, 1000, "w")) // rewrite same keys: all pages dirty
	grown := store.Stats().LogicalBytes - base
	if grown == 0 {
		t.Fatal("view flush wrote nothing")
	}
	// Roughly: 2 views fully rewritten plus journal; must exceed raw data
	// size (~16KB) several times over.
	if grown < 3*16_000 {
		t.Fatalf("write amplification suspiciously low: %d bytes", grown)
	}
}

func TestPagedViewSplitAndOrder(t *testing.T) {
	v := newPagedView()
	// Insert in reverse order to stress page splits and ordering.
	for i := 999; i >= 0; i-- {
		if err := v.Put(viewRecord{Key: []byte(fmt.Sprintf("k%04d", i)),
			Value: []byte("x"), Version: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var prev []byte
	n := 0
	v.Scan(nil, nil, func(r viewRecord) bool {
		if prev != nil && bytes.Compare(prev, r.Key) >= 0 {
			t.Fatal("view scan out of order")
		}
		prev = append(prev[:0], r.Key...)
		n++
		return true
	})
	if n != 1000 {
		t.Fatalf("scan saw %d", n)
	}
	rec, ok, err := v.Get([]byte("k0500"))
	if err != nil || !ok || rec.Version != 500 {
		t.Fatal("get after splits failed")
	}
}

func TestPagedViewFlushDecodeRoundTrip(t *testing.T) {
	store := cas.NewMemory()
	v := newPagedView()
	for i := 0; i < 200; i++ {
		v.Put(viewRecord{Key: []byte(fmt.Sprintf("k%04d", i)),
			Value: []byte(fmt.Sprintf("val%d", i)), Version: uint64(i), Block: 3, Index: uint32(i)})
	}
	if _, err := v.Flush(store); err != nil {
		t.Fatal(err)
	}
	// After flush, pages are storage-resident; reads decode them.
	rec, ok, err := v.Get([]byte("k0123"))
	if err != nil || !ok {
		t.Fatal("get after flush failed")
	}
	if string(rec.Value) != "val123" || rec.Block != 3 || rec.Index != 123 || rec.Version != 123 {
		t.Fatalf("decoded record = %+v", rec)
	}
	// Second flush with nothing dirty writes nothing.
	n, err := v.Flush(store)
	if err != nil || n != 0 {
		t.Fatalf("clean flush wrote %d bytes", n)
	}
}
