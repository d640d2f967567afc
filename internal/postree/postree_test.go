package postree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spitz/internal/cas"
)

func testEntries(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]Entry, 0, n)
	for len(out) < n {
		k := fmt.Sprintf("key-%08d", rng.Intn(n*10))
		if seen[k] {
			continue
		}
		seen[k] = true
		v := make([]byte, 20)
		rng.Read(v)
		out = append(out, Entry{Key: []byte(k), Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	return out
}

func mustBulk(t *testing.T, entries []Entry) *Tree {
	t.Helper()
	tr, err := BulkLoad(cas.NewMemory(), entries)
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	return tr
}

func TestEmptyTree(t *testing.T) {
	tr := Empty(cas.NewMemory())
	if tr.Count() != 0 || !tr.Root().IsZero() {
		t.Fatal("empty tree not empty")
	}
	if _, ok, err := tr.Get([]byte("k")); err != nil || ok {
		t.Fatalf("Get on empty: ok=%v err=%v", ok, err)
	}
	if err := tr.Scan(nil, nil, func(Entry) bool { t.Fatal("scan yielded entry"); return false }); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadAndGet(t *testing.T) {
	entries := testEntries(5000, 1)
	tr := mustBulk(t, entries)
	if tr.Count() != len(entries) {
		t.Fatalf("Count = %d, want %d", tr.Count(), len(entries))
	}
	for _, e := range entries {
		v, ok, err := tr.Get(e.Key)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", e.Key, ok, err)
		}
		if !bytes.Equal(v, e.Value) {
			t.Fatalf("Get(%s) wrong value", e.Key)
		}
	}
	if _, ok, _ := tr.Get([]byte("absent-key")); ok {
		t.Fatal("found a key that was never inserted")
	}
	if _, ok, _ := tr.Get([]byte("zzzz-beyond-max")); ok {
		t.Fatal("found key beyond the maximum")
	}
}

// TestSeekFindsTheNextKey: Seek returns the entry itself for every key the
// tree holds, the next one for a key between two, and nothing past the
// last.
func TestSeekFindsTheNextKey(t *testing.T) {
	entries := testEntries(3000, 4)
	tr := mustBulk(t, entries)
	seek := func(key []byte, want int) {
		t.Helper()
		e, ok, err := tr.Seek(key)
		if err != nil || ok != (want < len(entries)) {
			t.Fatalf("Seek(%q): ok=%v err=%v, want entry %d", key, ok, err, want)
		}
		if ok && (!bytes.Equal(e.Key, entries[want].Key) || !bytes.Equal(e.Value, entries[want].Value)) {
			t.Fatalf("Seek(%q) = %q, want %q", key, e.Key, entries[want].Key)
		}
	}
	seek(nil, 0)
	for i, e := range entries {
		seek(e.Key, i)
		seek(append(append([]byte(nil), e.Key...), 0), i+1)
	}
	if _, ok, err := Empty(cas.NewMemory()).Seek(nil); ok || err != nil {
		t.Fatalf("Seek on an empty tree: ok=%v err=%v", ok, err)
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	bad := []Entry{{Key: []byte("b")}, {Key: []byte("a")}}
	if _, err := BulkLoad(cas.NewMemory(), bad); err == nil {
		t.Fatal("unsorted input accepted")
	}
	dup := []Entry{{Key: []byte("a")}, {Key: []byte("a")}}
	if _, err := BulkLoad(cas.NewMemory(), dup); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

// The defining SIRI property: structural invariance. The same logical
// content must produce the same root digest no matter how it was built.
func TestHistoryIndependence(t *testing.T) {
	entries := testEntries(2000, 2)

	bulk := mustBulk(t, entries)

	// One-by-one inserts in sorted order.
	inc := Empty(cas.NewMemory())
	var err error
	for _, e := range entries {
		if inc, err = inc.Put(e.Key, e.Value); err != nil {
			t.Fatal(err)
		}
	}

	// One-by-one inserts in random order.
	shuffled := append([]Entry(nil), entries...)
	rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	rnd := Empty(cas.NewMemory())
	for _, e := range shuffled {
		if rnd, err = rnd.Put(e.Key, e.Value); err != nil {
			t.Fatal(err)
		}
	}

	// Batched random-order inserts.
	bat := Empty(cas.NewMemory())
	for i := 0; i < len(shuffled); i += 97 {
		endIdx := i + 97
		if endIdx > len(shuffled) {
			endIdx = len(shuffled)
		}
		var edits []Edit
		for _, e := range shuffled[i:endIdx] {
			edits = append(edits, Edit{Key: e.Key, Value: e.Value})
		}
		if bat, err = bat.Apply(edits); err != nil {
			t.Fatal(err)
		}
	}

	if bulk.Root() != inc.Root() {
		t.Error("bulk vs sorted-incremental roots differ")
	}
	if bulk.Root() != rnd.Root() {
		t.Error("bulk vs random-incremental roots differ")
	}
	if bulk.Root() != bat.Root() {
		t.Error("bulk vs batched roots differ")
	}
	if inc.Count() != len(entries) || rnd.Count() != len(entries) || bat.Count() != len(entries) {
		t.Errorf("counts: inc=%d rnd=%d bat=%d want %d", inc.Count(), rnd.Count(), bat.Count(), len(entries))
	}
}

// Deleting what was inserted must return to the exact prior root
// (insert/delete round trip through arbitrary intermediate states).
func TestDeleteRestoresRoot(t *testing.T) {
	entries := testEntries(1500, 3)
	tr := mustBulk(t, entries)
	before := tr.Root()

	extra := testEntries(200, 77)
	cur := tr
	var err error
	for _, e := range extra {
		if _, ok, _ := tr.Get(e.Key); ok {
			continue // key collision with base set; skip
		}
		k := append([]byte("x-"), e.Key...) // guarantee disjoint
		if cur, err = cur.Put(k, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range extra {
		k := append([]byte("x-"), e.Key...)
		if cur, err = cur.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if cur.Root() != before {
		t.Fatalf("root after insert+delete cycle %s != original %s", cur.Root().Short(), before.Short())
	}
	if cur.Count() != tr.Count() {
		t.Fatalf("count after cycle = %d, want %d", cur.Count(), tr.Count())
	}
}

func TestDeleteAll(t *testing.T) {
	entries := testEntries(300, 4)
	tr := mustBulk(t, entries)
	var edits []Edit
	for _, e := range entries {
		edits = append(edits, Edit{Key: e.Key, Delete: true})
	}
	got, err := tr.Apply(edits)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Root().IsZero() || got.Count() != 0 {
		t.Fatalf("tree not empty after deleting all: count=%d", got.Count())
	}
}

func TestDeleteAbsentIsNoop(t *testing.T) {
	entries := testEntries(100, 5)
	tr := mustBulk(t, entries)
	got, err := tr.Delete([]byte("never-existed"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Root() != tr.Root() {
		t.Fatal("deleting an absent key changed the root")
	}
}

func TestUpsertReplacesValue(t *testing.T) {
	tr := mustBulk(t, testEntries(100, 6))
	key := []byte("key-00000001")
	// Ensure the key exists first (insert if the generator missed it).
	cur, err := tr.Put(key, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	n := cur.Count()
	cur, err = cur.Put(key, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if cur.Count() != n {
		t.Fatalf("upsert changed count: %d -> %d", n, cur.Count())
	}
	v, ok, _ := cur.Get(key)
	if !ok || string(v) != "v2" {
		t.Fatalf("Get after upsert = %q, %v", v, ok)
	}
}

func TestSnapshotsAreImmutable(t *testing.T) {
	tr := mustBulk(t, testEntries(500, 7))
	before := tr.Root()
	if _, err := tr.Put([]byte("new-key"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if tr.Root() != before {
		t.Fatal("Put mutated the receiver")
	}
	if _, ok, _ := tr.Get([]byte("new-key")); ok {
		t.Fatal("old snapshot sees new key")
	}
}

func TestStructuralSharing(t *testing.T) {
	store := cas.NewMemory()
	entries := testEntries(10_000, 8)
	tr, err := BulkLoad(store, entries)
	if err != nil {
		t.Fatal(err)
	}
	base := store.Stats().PhysicalBytes
	// One insert should rewrite only the O(log n) spine.
	if _, err := tr.Put([]byte("zzz-one-more"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	grown := store.Stats().PhysicalBytes - base
	if grown > base/20 {
		t.Fatalf("single insert grew storage by %d of %d bytes; sharing broken", grown, base)
	}
}

func TestScanRange(t *testing.T) {
	entries := testEntries(3000, 9)
	tr := mustBulk(t, entries)
	lo, hi := entries[500].Key, entries[700].Key
	var got []Entry
	if err := tr.Scan(lo, hi, func(e Entry) bool {
		got = append(got, Entry{Key: append([]byte(nil), e.Key...), Value: append([]byte(nil), e.Value...)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := entries[500:700]
	if len(got) != len(want) {
		t.Fatalf("scan returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("scan entry %d mismatch", i)
		}
	}
}

func TestScanFullAndEarlyStop(t *testing.T) {
	entries := testEntries(1000, 10)
	tr := mustBulk(t, entries)
	var n int
	if err := tr.Scan(nil, nil, func(Entry) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != len(entries) {
		t.Fatalf("full scan saw %d, want %d", n, len(entries))
	}
	n = 0
	if err := tr.Scan(nil, nil, func(Entry) bool { n++; return n < 10 }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("early-stop scan saw %d, want 10", n)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	store := cas.NewMemory()
	entries := testEntries(2000, 11)
	tr, err := BulkLoad(store, entries)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Load(store, tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if re.Count() != tr.Count() {
		t.Fatalf("reloaded count %d != %d", re.Count(), tr.Count())
	}
	v, ok, err := re.Get(entries[42].Key)
	if err != nil || !ok || !bytes.Equal(v, entries[42].Value) {
		t.Fatal("reloaded tree cannot serve reads")
	}
	empty, err := Load(store, Empty(store).Root())
	if err != nil || empty.Count() != 0 {
		t.Fatal("loading zero digest should give empty tree")
	}
}

// Property-based: a POS-tree agrees with a map oracle under random
// interleaved puts and deletes, and stays history independent.
func TestQuickOracle(t *testing.T) {
	type op struct {
		Key    uint16
		Val    uint16
		Delete bool
	}
	f := func(ops []op) bool {
		tr := Empty(cas.NewMemory())
		oracle := map[string]string{}
		var err error
		for _, o := range ops {
			k := []byte(fmt.Sprintf("k%05d", o.Key))
			v := []byte(fmt.Sprintf("v%05d", o.Val))
			if o.Delete {
				if tr, err = tr.Delete(k); err != nil {
					return false
				}
				delete(oracle, string(k))
			} else {
				if tr, err = tr.Put(k, v); err != nil {
					return false
				}
				oracle[string(k)] = string(v)
			}
		}
		if tr.Count() != len(oracle) {
			return false
		}
		for k, v := range oracle {
			got, ok, err := tr.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				return false
			}
		}
		// Rebuild from the oracle and compare roots (history independence).
		var entries []Entry
		for k, v := range oracle {
			entries = append(entries, Entry{Key: []byte(k), Value: []byte(v)})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].Key, entries[j].Key) < 0 })
		rebuilt, err := BulkLoad(cas.NewMemory(), entries)
		if err != nil {
			return false
		}
		return rebuilt.Root() == tr.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestApplyHashesOnlyWhatChanged: rewriting a node re-tests for a boundary
// only the entries an edit created and the node's last entry — the others
// were interior entries of a stored node, so they are known not to be
// boundaries. The number of boundary hashes per Apply is bounded by the
// edits plus the nodes written, not by the entries in those nodes.
func TestApplyHashesOnlyWhatChanged(t *testing.T) {
	entries := testEntries(40000, 17)
	store := cas.NewCounting(cas.NewMemory())
	tr, err := BulkLoad(store, entries)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	apply := func(name string, edits []Edit) {
		t.Helper()
		puts0, _ := store.Ops()
		hashes0 := mBoundaryHashes.Value()
		next, err := tr.Apply(edits)
		if err != nil {
			t.Fatal(err)
		}
		puts1, _ := store.Ops()
		hashes, puts := int64(mBoundaryHashes.Value()-hashes0), puts1-puts0
		t.Logf("%s: %d edits wrote %d nodes with %d boundary hashes", name, len(edits), puts, hashes)
		// Per node written: the routing entry it adds to its parent, and
		// the last entry of the node (and of a neighbour merged into it).
		if limit := int64(len(edits)) + 3*puts; hashes > limit {
			t.Fatalf("%s: %d boundary hashes for %d edits and %d nodes written, want at most %d",
				name, hashes, len(edits), puts, limit)
		}
		tr = next
	}
	for i := 0; i < 20; i++ {
		e := entries[rng.Intn(len(entries))]
		apply("update", []Edit{{Key: e.Key, Value: []byte(fmt.Sprintf("updated-%d", i))}})
		apply("insert", []Edit{{Key: []byte(fmt.Sprintf("key-%08d-new%d", rng.Intn(400000), i)), Value: []byte("inserted")}})
		apply("delete", []Edit{{Key: entries[rng.Intn(len(entries))].Key, Delete: true}})
	}
	batch := make([]Edit, 200)
	for i := range batch {
		batch[i] = Edit{Key: entries[rng.Intn(len(entries))].Key, Value: []byte(fmt.Sprintf("batch-%d", i))}
	}
	apply("batch", batch)
	// The tree the shortcut built is the tree a bulk load of the same
	// content builds.
	var want []Entry
	if err := tr.Scan(nil, nil, func(e Entry) bool {
		want = append(want, Entry{Key: append([]byte(nil), e.Key...), Value: append([]byte(nil), e.Value...)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fresh := mustBulk(t, want); fresh.Root() != tr.Root() {
		t.Fatalf("incremental root %s != bulk-load root %s", tr.Root().Short(), fresh.Root().Short())
	}
}

// TestUnchangedMatchesTheScans: Unchanged of two snapshots agrees with
// comparing what Scan yields of each over the same range, for point,
// bounded, open and empty ranges, after updates, inserts, deletes, writes
// of a value a key already holds, and batches that change the trees'
// height — the empty tree included.
func TestUnchangedMatchesTheScans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scan := func(tr *Tree, start, end []byte) (out []Entry) {
		if err := tr.Scan(start, end, func(e Entry) bool {
			out = append(out, Entry{Key: append([]byte(nil), e.Key...), Value: append([]byte(nil), e.Value...)})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	key := func() []byte { return []byte(fmt.Sprintf("key-%08d", rng.Intn(40000))) }
	cur := mustBulk(t, testEntries(3000, 3))
	for round := 0; round < 300; round++ {
		var edits []Edit
		switch n := rng.Intn(25); {
		case n == 0: // most keys go, or come back: the height changes
			for i := 0; i < 2500; i++ {
				edits = append(edits, Edit{Key: key(), Delete: round%2 == 0, Value: []byte("bulk")})
			}
		default:
			for i := 0; i <= n%3; i++ {
				k := key()
				switch rng.Intn(4) {
				case 0:
					edits = append(edits, Edit{Key: k, Delete: true})
				case 1: // the value the key holds, if any: nothing changes
					if v, ok, err := cur.Get(k); err == nil && ok {
						edits = append(edits, Edit{Key: k, Value: append([]byte(nil), v...)})
					}
				default:
					edits = append(edits, Edit{Key: k, Value: []byte(fmt.Sprint("v", round))})
				}
			}
		}
		sort.Slice(edits, func(i, j int) bool { return bytes.Compare(edits[i].Key, edits[j].Key) < 0 })
		next, err := cur.Apply(dedupEdits(edits))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			start, end := key(), []byte(nil)
			switch rng.Intn(4) {
			case 0:
				end = append(append([]byte(nil), start...), 0) // one key
			case 1:
				end = []byte(fmt.Sprintf("key-%08d", rng.Intn(40000))) // possibly empty
			case 2:
				end = append([]byte(nil), start...)
				end[len(end)-3]++
			}
			was, is := scan(cur, start, end), scan(next, start, end)
			want := len(was) == len(is)
			for j := 0; want && j < len(is); j++ {
				want = bytes.Equal(was[j].Key, is[j].Key) && bytes.Equal(was[j].Value, is[j].Value)
			}
			for _, pair := range [][2]*Tree{{cur, next}, {next, cur}, {Empty(cur.Store()), next}} {
				if pair[0].Root().IsZero() {
					want = len(is) == 0
				}
				got, err := pair[0].Unchanged(pair[1], start, end)
				if err != nil || got != want {
					t.Fatalf("round %d [%q, %q): Unchanged = %v, %v; the scans say %v", round, start, end, got, err, want)
				}
			}
		}
		cur = next
	}
}

// dedupEdits keeps the last edit of each key of a sorted batch.
func dedupEdits(edits []Edit) []Edit {
	out := edits[:0]
	for i, e := range edits {
		if i+1 < len(edits) && bytes.Equal(edits[i+1].Key, e.Key) {
			continue
		}
		out = append(out, e)
	}
	return out
}
