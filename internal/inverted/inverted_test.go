package inverted

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"spitz/internal/cellstore"
)

func cell(pk string, ver uint64, value []byte) cellstore.Cell {
	return cellstore.Cell{Table: "t", Column: "c", PK: []byte(pk), Version: ver, Value: value}
}

func TestNumericEqual(t *testing.T) {
	ix := New()
	ix.Add(cell("a", 1, EncodeNumeric(100)))
	ix.Add(cell("b", 1, EncodeNumeric(100)))
	ix.Add(cell("c", 1, EncodeNumeric(200)))

	got := ix.LookupEqual("t", "c", EncodeNumeric(100))
	if len(got) != 2 {
		t.Fatalf("equal lookup returned %d postings", len(got))
	}
	if string(got[0].PK) != "a" || string(got[1].PK) != "b" {
		t.Fatalf("postings out of order: %v", got)
	}
	if got := ix.LookupEqual("t", "c", EncodeNumeric(999)); len(got) != 0 {
		t.Fatal("absent value matched")
	}
	if got := ix.LookupEqual("t", "missing", EncodeNumeric(100)); len(got) != 0 {
		t.Fatal("absent column matched")
	}
}

func TestNumericRange(t *testing.T) {
	ix := New()
	for i := 0; i < 100; i++ {
		ix.Add(cell(fmt.Sprintf("pk%03d", i), 1, EncodeNumeric(uint64(i*10))))
	}
	got := ix.LookupNumericRange("t", "c", 100, 200)
	if len(got) != 10 {
		t.Fatalf("range lookup returned %d postings, want 10", len(got))
	}
	// The paper's example query: "all items with stock-level lower than 50".
	got = ix.LookupNumericRange("t", "c", 0, 50)
	if len(got) != 5 {
		t.Fatalf("stock-level query returned %d", len(got))
	}
}

func TestStringValues(t *testing.T) {
	ix := New()
	ix.Add(cell("a", 1, []byte("alice")))
	ix.Add(cell("b", 1, []byte("bob")))
	ix.Add(cell("c", 1, []byte("alicia")))

	got := ix.LookupEqual("t", "c", []byte("alice"))
	if len(got) != 1 || string(got[0].PK) != "a" {
		t.Fatalf("string equal = %v", got)
	}
	if got := ix.LookupEqual("t", "c", []byte("ali")); len(got) != 0 {
		t.Fatalf("a prefix of two values matched: %v", got)
	}
}

func TestEightByteStringsAreNumeric(t *testing.T) {
	// An 8-byte value is classified as numeric by convention; both the Add
	// and Lookup paths must agree on the classification.
	ix := New()
	v := []byte("exactly8")
	ix.Add(cell("a", 1, v))
	if got := ix.LookupEqual("t", "c", v); len(got) != 1 {
		t.Fatal("8-byte value lookup disagreed with insertion path")
	}
}

func TestTombstonesNotIndexed(t *testing.T) {
	ix := New()
	ix.Add(cellstore.Cell{Table: "t", Column: "c", PK: []byte("a"), Version: 2, Tombstone: true})
	if got := ix.LookupEqual("t", "c", nil); len(got) != 0 {
		t.Fatal("tombstone was indexed")
	}
}

func TestTombstoneRemovesPriorPosting(t *testing.T) {
	// Regression: Add documents that a tombstone removes the prior posting,
	// but it used to return without touching the index, so deleted rows kept
	// surfacing in value lookups forever.
	ix := New()
	ix.Add(cell("a", 1, []byte("alice")))
	ix.Add(cell("b", 1, []byte("alice")))
	ix.Add(cellstore.Cell{Table: "t", Column: "c", PK: []byte("a"), Version: 2, Tombstone: true})
	got := ix.LookupEqual("t", "c", []byte("alice"))
	if len(got) != 1 || string(got[0].PK) != "b" {
		t.Fatalf("deleted row still surfaced: %v", got)
	}
	// Numeric side of the same bug.
	ix.Add(cell("n", 1, EncodeNumeric(7)))
	ix.Add(cellstore.Cell{Table: "t", Column: "c", PK: []byte("n"), Version: 2, Tombstone: true})
	if got := ix.LookupNumericRange("t", "c", 0, 100); len(got) != 0 {
		t.Fatalf("deleted numeric row still surfaced: %v", got)
	}
	// Re-insert after delete comes back with the new version only.
	ix.Add(cell("a", 3, []byte("alice")))
	got = ix.LookupEqual("t", "c", []byte("alice"))
	if len(got) != 2 || string(got[0].PK) != "a" || got[0].Version != 3 {
		t.Fatalf("re-insert after delete: %v", got)
	}
}

func TestUpdateMovesPosting(t *testing.T) {
	ix := New()
	ix.Add(cell("a", 1, []byte("draft")))
	ix.Add(cell("a", 2, []byte("final")))
	if got := ix.LookupEqual("t", "c", []byte("draft")); len(got) != 0 {
		t.Fatalf("superseded value still indexed: %v", got)
	}
	got := ix.LookupEqual("t", "c", []byte("final"))
	if len(got) != 1 || got[0].Version != 2 {
		t.Fatalf("updated value postings: %v", got)
	}
	// A stale replay of the old version must not resurrect it.
	ix.Add(cell("a", 1, []byte("draft")))
	if got := ix.LookupEqual("t", "c", []byte("draft")); len(got) != 0 {
		t.Fatalf("stale replay resurrected old value: %v", got)
	}
}

func TestDuplicateAddIdempotent(t *testing.T) {
	ix := New()
	c := cell("a", 1, EncodeNumeric(7))
	ix.Add(c)
	ix.Add(c)
	if got := ix.LookupEqual("t", "c", EncodeNumeric(7)); len(got) != 1 {
		t.Fatalf("duplicate add created %d postings", len(got))
	}
}

func TestColumnsIsolated(t *testing.T) {
	ix := New()
	ix.Add(cellstore.Cell{Table: "t", Column: "c1", PK: []byte("a"), Version: 1, Value: EncodeNumeric(1)})
	ix.Add(cellstore.Cell{Table: "t", Column: "c2", PK: []byte("b"), Version: 1, Value: EncodeNumeric(1)})
	if got := ix.LookupEqual("t", "c1", EncodeNumeric(1)); len(got) != 1 || string(got[0].PK) != "a" {
		t.Fatal("column isolation broken")
	}
}

func TestConcurrentAccess(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ix.Add(cell(fmt.Sprintf("pk-%d-%d", g, i), uint64(i), EncodeNumeric(uint64(i%50))))
				ix.LookupNumericRange("t", "c", 0, 25)
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for v := uint64(0); v < 50; v++ {
		total += len(ix.LookupEqual("t", "c", EncodeNumeric(v)))
	}
	if total != 8*200 {
		t.Fatalf("total postings = %d, want 1600", total)
	}
}

func TestNumericCodec(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		got, ok := DecodeNumeric(EncodeNumeric(v))
		if !ok || got != v {
			t.Fatalf("numeric round trip failed for %d", v)
		}
	}
	if _, ok := DecodeNumeric([]byte("short")); ok {
		t.Fatal("short value decoded as numeric")
	}
	if !bytes.Equal(EncodeNumeric(256), []byte{0, 0, 0, 0, 0, 0, 1, 0}) {
		t.Fatal("encoding not big-endian")
	}
}
