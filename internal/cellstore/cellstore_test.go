package cellstore

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"spitz/internal/proof"
	"testing"
	"testing/quick"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
	"spitz/internal/postree"
)

func emptyStore() Store {
	return Store{Tree: postree.Empty(cas.NewMemory())}
}

func mustApply(t *testing.T, s Store, cells []Cell) Store {
	t.Helper()
	next, _, err := s.Apply(cells)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// stored is how many chain objects applying cells to s stores.
func stored(t *testing.T, s Store, cells []Cell) int {
	t.Helper()
	_, n, err := s.Apply(cells)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// headEntry is the stored head entry of t.c.pk, its link and the versions
// down its chain, newest first.
func headEntry(t *testing.T, s Store, pk string) (head []byte, link hashutil.Digest, linked bool, chain [][]byte) {
	t.Helper()
	head, ok, err := s.Tree.Get(CellPrefix("t", "c", []byte(pk)))
	if err != nil || !ok {
		t.Fatalf("head of %s: %v %v", pk, ok, err)
	}
	link, linked = proof.Link(head)
	if chain, err = Chain(s.Tree.Store(), head); err != nil {
		t.Fatal(err)
	}
	return head, link, linked, chain
}

// versionsOf is the (version, value) list of t.c.pk's history, newest first.
func versionsOf(t *testing.T, s Store, pk string) string {
	t.Helper()
	hist, err := s.History("t", "c", []byte(pk))
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, c := range hist {
		out += fmt.Sprintf("%d:%s ", c.Version, c.Value)
	}
	return out
}

func TestKeyEncodeDecodeRoundTrip(t *testing.T) {
	k := proof.Key{Table: "accounts", Column: "balance", PK: []byte("user-42"), Version: 7,
		ValueHash: proof.ValueHash(7, []byte("100"), false)}
	got, err := DecodeKey(proof.EncodeKey(k))
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != k.Table || got.Column != k.Column || !bytes.Equal(got.PK, k.PK) ||
		got.Version != k.Version || got.ValueHash != k.ValueHash {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, k)
	}
}

func TestKeyEncodingHandlesZeroBytes(t *testing.T) {
	k := proof.Key{Table: "t\x00a", Column: "c\x00\x00", PK: []byte{0x00, 0xFF, 0x00}, Version: 1}
	got, err := DecodeKey(proof.EncodeKey(k))
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != k.Table || got.Column != k.Column || !bytes.Equal(got.PK, k.PK) {
		t.Fatal("zero-byte segments corrupted")
	}
}

func TestRefOrderingMatchesTupleOrder(t *testing.T) {
	a := CellPrefix("t", "c", []byte("a"))
	b := CellPrefix("t", "c", []byte("b"))
	c := CellPrefix("t", "d", []byte("a"))
	if !(bytes.Compare(a, b) < 0) {
		t.Error("pk order broken")
	}
	if !(bytes.Compare(b, c) < 0) {
		t.Error("column order broken")
	}
	// A pk that is a prefix of another must still sort before it.
	p1 := CellPrefix("t", "c", []byte("ab"))
	p2 := CellPrefix("t", "c", []byte("ab0"))
	if !(bytes.Compare(p1, p2) < 0) {
		t.Error("prefix pk order broken")
	}
}

func TestDecodeRefRoundTrip(t *testing.T) {
	ref := CellPrefix("tbl", "col", []byte("pk\x00x"))
	table, column, pk, err := proof.DecodeRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	if table != "tbl" || column != "col" || !bytes.Equal(pk, []byte("pk\x00x")) {
		t.Fatal("ref round trip mismatch")
	}
	if _, _, _, err := proof.DecodeRef(ref[:len(ref)-1]); err == nil {
		t.Error("truncated ref accepted")
	}
	if _, _, _, err := proof.DecodeRef(append(ref, 0x07)); err == nil {
		t.Error("ref with trailing bytes accepted")
	}
}

func TestDecodeKeyErrors(t *testing.T) {
	if _, err := DecodeKey([]byte{0x01, 0x02}); err == nil {
		t.Error("unterminated key accepted")
	}
	if _, err := DecodeKey(nil); err == nil {
		t.Error("empty key accepted")
	}
	k := proof.EncodeKey(proof.Key{Table: "t", Column: "c", PK: []byte("p"), Version: 1})
	if _, err := DecodeKey(k[:len(k)-3]); err == nil {
		t.Error("truncated key accepted")
	}
}

func TestVersionCodecRoundTrip(t *testing.T) {
	ver, v, tomb, err := proof.DecodeVersion(proof.EncodeVersion(99, []byte("hello"), false))
	if err != nil || tomb || ver != 99 || string(v) != "hello" {
		t.Fatal("live version round trip failed")
	}
	ver, v, tomb, err = proof.DecodeVersion(proof.EncodeVersion(7, nil, true))
	if err != nil || !tomb || ver != 7 || len(v) != 0 {
		t.Fatal("tombstone round trip failed")
	}
	if _, _, _, err := proof.DecodeVersion(nil); err == nil {
		t.Error("empty version accepted")
	}
	if _, _, _, err := proof.DecodeVersion([]byte{0x80, 1}); err == nil {
		t.Error("bad flags accepted")
	}
}

func TestPrefixEnd(t *testing.T) {
	if got := proof.PrefixEnd([]byte{0x01, 0x02}); !bytes.Equal(got, []byte{0x01, 0x03}) {
		t.Fatalf("PrefixEnd = %x", got)
	}
	if got := proof.PrefixEnd([]byte{0x01, 0xFF}); !bytes.Equal(got, []byte{0x02}) {
		t.Fatalf("PrefixEnd carry = %x", got)
	}
	if got := proof.PrefixEnd([]byte{0xFF, 0xFF}); got != nil {
		t.Fatalf("PrefixEnd all-FF = %x, want nil", got)
	}
}

func TestApplyAndGetHead(t *testing.T) {
	s := emptyStore()
	s = mustApply(t, s, []Cell{
		{Table: "t", Column: "c", PK: []byte("k1"), Version: 1, Value: []byte("v1")},
		{Table: "t", Column: "c", PK: []byte("k2"), Version: 1, Value: []byte("w1")},
	})
	// A first version names no predecessor: its bytes are the unlinked ones.
	if head, _, linked, chain := headEntry(t, s, "k1"); linked || len(chain) != 0 ||
		!bytes.Equal(head, proof.EncodeVersion(1, []byte("v1"), false)) {
		t.Fatalf("fresh insert linked=%v chain=%d", linked, len(chain))
	}
	c, ok, err := s.GetHead("t", "c", []byte("k1"))
	if err != nil || !ok || string(c.Value) != "v1" || c.Version != 1 {
		t.Fatalf("GetHead = %+v %v %v", c, ok, err)
	}
	if _, ok, _ := s.GetHead("t", "c", []byte("k3")); ok {
		t.Fatal("absent cell found")
	}
}

func TestApplyDemotesReplacedHead(t *testing.T) {
	s := emptyStore()
	s = mustApply(t, s, []Cell{{Table: "t", Column: "c", PK: []byte("k"), Version: 1, Value: []byte("old")}})
	next := []Cell{{Table: "t", Column: "c", PK: []byte("k"), Version: 5, Value: []byte("new")}}
	if n := stored(t, s, next); n != 1 {
		t.Fatalf("replacing a head stored %d chain objects, want 1", n)
	}
	s2 := mustApply(t, s, next)
	// The new head links the replaced head's stored bytes, unchanged, which
	// are its chain object.
	old, _, _, _ := headEntry(t, s, "k")
	_, link, linked, chain := headEntry(t, s2, "k")
	if !linked || link != hashutil.Sum(hashutil.DomainCell, old) || len(chain) != 1 || !bytes.Equal(chain[0], old) {
		t.Fatalf("linked=%v chain=%x, want the link to %x", linked, chain, old)
	}
	if got := versionsOf(t, s2, "k"); got != "5:new 1:old " {
		t.Fatalf("history = %s", got)
	}
	// New head visible in the new snapshot; old snapshot unchanged.
	c, _, _ := s2.GetHead("t", "c", []byte("k"))
	if string(c.Value) != "new" {
		t.Fatal("new head wrong")
	}
	c, _, _ = s.GetHead("t", "c", []byte("k"))
	if string(c.Value) != "old" {
		t.Fatal("old snapshot mutated")
	}
}

func TestApplyMultipleVersionsSameBatch(t *testing.T) {
	s := emptyStore()
	batch := []Cell{
		{Table: "t", Column: "c", PK: []byte("k"), Version: 3, Value: []byte("v3")},
		{Table: "t", Column: "c", PK: []byte("k"), Version: 1, Value: []byte("v1")},
		{Table: "t", Column: "c", PK: []byte("k"), Version: 2, Value: []byte("v2")},
	}
	if n := stored(t, s, batch); n != 2 {
		t.Fatalf("a folded batch stored %d chain objects, want v1 and v2", n)
	}
	s = mustApply(t, s, batch)
	c, ok, _ := s.GetHead("t", "c", []byte("k"))
	if !ok || c.Version != 3 || string(c.Value) != "v3" {
		t.Fatalf("head = %+v", c)
	}
	// Folded in version order: v3 links v2, v2 links v1, v1 names none.
	head, link, linked, chain := headEntry(t, s, "k")
	if !linked || len(chain) != 2 || link != hashutil.Sum(hashutil.DomainCell, chain[0]) {
		t.Fatalf("head %x: linked=%v, chain of %d", head, linked, len(chain))
	}
	if l, ok := proof.Link(chain[0]); !ok || l != hashutil.Sum(hashutil.DomainCell, chain[1]) {
		t.Fatal("v2 does not link v1")
	}
	if !bytes.Equal(chain[1], proof.EncodeVersion(1, []byte("v1"), false)) {
		t.Fatal("v1 is not the unlinked first version")
	}
	if got := versionsOf(t, s, "k"); got != "3:v3 2:v2 1:v1 " {
		t.Fatalf("history = %s", got)
	}
	// Over an existing head, the batch's oldest version links it.
	for i := range batch {
		batch[i].Version += 10
	}
	if n := stored(t, s, batch); n != 3 {
		t.Fatalf("a folded batch over a head stored %d chain objects, want 3", n)
	}
	s = mustApply(t, s, batch)
	if got := versionsOf(t, s, "k"); got != "13:v3 12:v2 11:v1 3:v3 2:v2 1:v1 " {
		t.Fatalf("history over a head = %s", got)
	}
}

func TestGetLatestRespectsAsOf(t *testing.T) {
	s := emptyStore()
	s = mustApply(t, s, []Cell{{Table: "t", Column: "c", PK: []byte("k"), Version: 5, Value: []byte("v")}})
	if _, ok, _ := s.GetLatest("t", "c", []byte("k"), 4); ok {
		t.Fatal("head newer than asOf returned")
	}
	c, ok, _ := s.GetLatest("t", "c", []byte("k"), 5)
	if !ok || string(c.Value) != "v" {
		t.Fatal("head at asOf missing")
	}
}

func TestTombstone(t *testing.T) {
	s := emptyStore()
	s = mustApply(t, s, []Cell{{Table: "t", Column: "c", PK: []byte("k"), Version: 1, Value: []byte("v")}})
	s = mustApply(t, s, []Cell{{Table: "t", Column: "c", PK: []byte("k"), Version: 2, Tombstone: true}})
	if got := versionsOf(t, s, "k"); got != "2: 1:v " {
		t.Fatalf("delete did not link the old head: history = %s", got)
	}
	c, ok, err := s.GetHead("t", "c", []byte("k"))
	if err != nil || !ok || !c.Tombstone {
		t.Fatal("tombstone head missing")
	}
}

func TestRangePK(t *testing.T) {
	s := emptyStore()
	var cells []Cell
	for i := 0; i < 100; i++ {
		cells = append(cells, Cell{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("pk%03d", i)), Version: 3,
			Value: []byte(fmt.Sprintf("val%d", i))})
	}
	s = mustApply(t, s, cells)
	s = mustApply(t, s, []Cell{
		{Table: "t", Column: "c", PK: []byte("pk010"), Version: 4, Tombstone: true},
		{Table: "t", Column: "c", PK: []byte("pk200"), Version: 9, Value: []byte("future")},
	})

	got, err := s.RangePK("t", "c", []byte("pk000"), []byte("pk020"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 19 { // 20 minus the tombstoned pk010
		t.Fatalf("range returned %d rows, want 19", len(got))
	}
	for _, c := range got {
		if string(c.PK) == "pk010" {
			t.Fatal("tombstoned row present")
		}
	}
	// A head newer than asOf is skipped.
	got, _ = s.RangePK("t", "c", []byte("pk200"), nil, 5)
	if len(got) != 0 {
		t.Fatal("future row visible")
	}
	got, _ = s.RangePK("t", "c", []byte("pk200"), nil, 9)
	if len(got) != 1 || string(got[0].Value) != "future" {
		t.Fatal("future row missing at its version")
	}
}

func TestProveGetHead(t *testing.T) {
	s := emptyStore()
	var cells []Cell
	for i := 0; i < 500; i++ {
		cells = append(cells, Cell{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("pk%04d", i)), Version: 2, Value: []byte(fmt.Sprintf("v%d", i))})
	}
	s = mustApply(t, s, cells)
	root := s.Tree.Root()

	cell, ok, p, err := s.ProveGetHead("t", "c", []byte("pk0123"))
	if err != nil || !ok {
		t.Fatalf("ProveGetHead: %v %v", ok, err)
	}
	if string(cell.Value) != "v123" || cell.Version != 2 {
		t.Fatalf("cell = %+v", cell)
	}
	if err := p.Verify(root); err != nil {
		t.Fatalf("proof: %v", err)
	}

	// Absence.
	_, ok, p, err = s.ProveGetHead("t", "c", []byte("nope"))
	if err != nil || ok {
		t.Fatal("absent cell misbehaved")
	}
	if err := p.Verify(root); err != nil {
		t.Fatalf("absence proof: %v", err)
	}
}

func TestProveRangePK(t *testing.T) {
	s := emptyStore()
	var cells []Cell
	for i := 0; i < 200; i++ {
		cells = append(cells, Cell{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("pk%04d", i)), Version: 1,
			Value: []byte(fmt.Sprintf("val-%04d", i))})
	}
	s = mustApply(t, s, cells)
	got, rp, err := s.ProveRangePK("t", "c", []byte("pk0050"), []byte("pk0060"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("range = %d rows", len(got))
	}
	if err := rp.Verify(s.Tree.Root()); err != nil {
		t.Fatalf("range proof: %v", err)
	}
	decoded, err := proof.DecodeEntries(rp.Entries)
	if err != nil || len(decoded) != 10 {
		t.Fatal("entry decoding failed")
	}
}

func TestMultiTableIsolation(t *testing.T) {
	s := emptyStore()
	s = mustApply(t, s, []Cell{
		{Table: "a", Column: "c", PK: []byte("k"), Version: 1, Value: []byte("in-a")},
		{Table: "b", Column: "c", PK: []byte("k"), Version: 1, Value: []byte("in-b")},
		{Table: "a", Column: "d", PK: []byte("k"), Version: 1, Value: []byte("in-a-d")},
	})
	c, ok, _ := s.GetHead("a", "c", []byte("k"))
	if !ok || string(c.Value) != "in-a" {
		t.Fatal("table a read wrong")
	}
	c, ok, _ = s.GetHead("b", "c", []byte("k"))
	if !ok || string(c.Value) != "in-b" {
		t.Fatal("table b read wrong")
	}
	rows, _ := s.RangePK("a", "c", nil, nil, 5)
	if len(rows) != 1 {
		t.Fatalf("table a scan saw %d rows", len(rows))
	}
}

// Property: ref encoding is order preserving w.r.t. pk order.
func TestQuickRefOrderPreserving(t *testing.T) {
	f := func(pk1, pk2 []byte) bool {
		k1 := CellPrefix("t", "c", pk1)
		k2 := CellPrefix("t", "c", pk2)
		cmp := bytes.Compare(pk1, pk2)
		if cmp == 0 {
			return bytes.Equal(k1, k2)
		}
		return (cmp < 0) == (bytes.Compare(k1, k2) < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: decode(encode(k)) == k for arbitrary universal keys.
func TestQuickKeyRoundTrip(t *testing.T) {
	f := func(table, column string, pk []byte, version uint64, vh [32]byte) bool {
		k := proof.Key{Table: table, Column: column, PK: pk, Version: version, ValueHash: vh}
		got, err := DecodeKey(proof.EncodeKey(k))
		if err != nil {
			return false
		}
		return got.Table == k.Table && got.Column == k.Column &&
			bytes.Equal(got.PK, k.PK) && got.Version == k.Version && got.ValueHash == k.ValueHash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: version codec round trips for arbitrary payloads.
func TestQuickVersionRoundTrip(t *testing.T) {
	f := func(version uint64, value []byte, tomb bool) bool {
		v, val, tb, err := proof.DecodeVersion(proof.EncodeVersion(version, value, tomb))
		return err == nil && v == version && bytes.Equal(val, value) && tb == tomb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestApplySameVersionDuplicateLastWins(t *testing.T) {
	s := emptyStore()
	s = mustApply(t, s, []Cell{
		{Table: "t", Column: "c", PK: []byte("k"), Version: 5, Value: []byte("first")},
		{Table: "t", Column: "c", PK: []byte("k"), Version: 5, Value: []byte("second")},
	})
	c, ok, _ := s.GetHead("t", "c", []byte("k"))
	if !ok || string(c.Value) != "second" {
		t.Fatalf("head = %q, want the batch's last write", c.Value)
	}
	// The overwritten write is no version: a history's versions fall strictly.
	if got := versionsOf(t, s, "k"); got != "5:second " {
		t.Fatalf("history = %s", got)
	}
}

// TestColumnsSeekPastEachColumn: Columns lists, for each table, exactly the
// columns a scan of every key finds — across table and column names that
// extend one another or hold zero bytes, and a column of tombstones — and
// reads one path per column, not the column's leaves.
func TestColumnsSeekPastEachColumn(t *testing.T) {
	counting := cas.NewCounting(cas.NewMemory())
	tables := []string{"", "t", "t\x00", "t\x00a", "tt", "u"}
	columns := []string{"", "a", "a\x00", "a\x00b", "ab", "b\xff", "dead"}
	var cells []Cell
	for i, table := range tables {
		for j, col := range columns {
			if (i+j)%3 == 0 {
				continue // each table its own column set
			}
			for k := 0; k < 300; k++ {
				cells = append(cells, Cell{Table: table, Column: col, PK: []byte(fmt.Sprintf("pk%04d", k)),
					Version: 1, Value: []byte("v"), Tombstone: col == "dead"})
			}
		}
	}
	s := mustApply(t, Store{Tree: postree.Empty(counting)}, cells)
	want := map[string][]string{}
	if err := s.Tree.Scan(nil, nil, func(e postree.Entry) bool {
		table, col, _, err := proof.DecodeRef(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if w := want[table]; len(w) == 0 || w[len(w)-1] != col {
			want[table] = append(w, col)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, table := range append(tables, "absent", "t\x00\x00") {
		_, before := counting.Ops()
		got, err := s.Columns(table)
		_, after := counting.Ops()
		if err != nil || !reflect.DeepEqual(got, want[table]) || !sort.StringsAreSorted(got) {
			t.Fatalf("Columns(%q) = %q, %v; want %q", table, got, err, want[table])
		}
		// A seek per column and one past the last: a leaf each, plus
		// whatever index nodes the tree's cache does not hold.
		if reads := after - before; reads > int64(4*(len(got)+1)) {
			t.Fatalf("Columns(%q) read %d nodes for %d columns", table, reads, len(got))
		}
	}
}
