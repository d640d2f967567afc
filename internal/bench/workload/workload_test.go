package workload

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

func TestRecordsShape(t *testing.T) {
	recs := Records(5000, 1)
	if len(recs) != 5000 {
		t.Fatalf("generated %d records", len(recs))
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if len(r.Key) < 5 || len(r.Key) > 12 {
			t.Fatalf("key length %d outside [5,12]", len(r.Key))
		}
		if len(r.Value) != 20 {
			t.Fatalf("value length %d != 20", len(r.Value))
		}
		if seen[string(r.Key)] {
			t.Fatal("duplicate key")
		}
		seen[string(r.Key)] = true
	}
}

func TestRecordsDeterministic(t *testing.T) {
	a := Records(100, 7)
	b := Records(100, 7)
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			t.Fatal("generation not deterministic")
		}
	}
	c := Records(100, 8)
	if bytes.Equal(a[0].Key, c[0].Key) {
		t.Fatal("different seeds produced same keys")
	}
}

func TestBatches(t *testing.T) {
	recs := Records(2500, 2)
	bs := Batches(recs, 1000)
	if len(bs) != 3 || len(bs[0]) != 1000 || len(bs[2]) != 500 {
		t.Fatalf("batches = %d (%d, ..., %d)", len(bs), len(bs[0]), len(bs[len(bs)-1]))
	}
	if got := Batches(recs, 0); len(got) != 3 {
		t.Fatal("zero batch size should default")
	}
}

func TestReadSequence(t *testing.T) {
	recs := Records(100, 3)
	keys := ReadSequence(recs, 1000, 4)
	if len(keys) != 1000 {
		t.Fatalf("len = %d", len(keys))
	}
	valid := map[string]bool{}
	for _, r := range recs {
		valid[string(r.Key)] = true
	}
	for _, k := range keys {
		if !valid[string(k)] {
			t.Fatal("read key not in record set")
		}
	}
}

func TestUpdateSequence(t *testing.T) {
	recs := Records(100, 5)
	ups := UpdateSequence(recs, 500, 6)
	valid := map[string]bool{}
	for _, r := range recs {
		valid[string(r.Key)] = true
	}
	for _, u := range ups {
		if !valid[string(u.Key)] {
			t.Fatal("update key not in record set")
		}
		if len(u.Value) != 20 {
			t.Fatal("update value wrong size")
		}
	}
}

func TestRanges(t *testing.T) {
	recs := Records(10_000, 7)
	keys := make([][]byte, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	rs := Ranges(keys, 0.001, 50, 8)
	for _, r := range rs {
		if r.Count != 10 {
			t.Fatalf("0.1%% of 10k should span 10 keys, got %d", r.Count)
		}
		if bytes.Compare(r.Lo, r.Hi) >= 0 {
			t.Fatal("range inverted")
		}
	}
}

func TestWikiPagesAndEdit(t *testing.T) {
	pages := WikiPages(10, 16*1024, 9)
	if len(pages) != 10 || len(pages[0].Body) != 16*1024 {
		t.Fatal("wiki pages wrong shape")
	}
	rng := rand.New(rand.NewSource(10))
	edited := EditPage(pages[0].Body, rng)
	if bytes.Equal(edited, pages[0].Body) {
		t.Fatal("edit changed nothing")
	}
	if len(edited) != len(pages[0].Body) {
		t.Fatal("edit changed length")
	}
	diff := 0
	for i := range edited {
		if edited[i] != pages[0].Body[i] {
			diff++
		}
	}
	if diff > len(edited)/8 {
		t.Fatalf("edit touched %d bytes — too large", diff)
	}
}

func TestZipfSkew(t *testing.T) {
	idx := Zipf(1000, 10_000, 1.2, 11)
	counts := map[int]int{}
	for _, i := range idx {
		if i < 0 || i >= 1000 {
			t.Fatal("index out of range")
		}
		counts[i]++
	}
	if counts[0] < counts[500]*2 {
		t.Fatal("distribution not skewed toward hot keys")
	}
}
