package posleaf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"spitz/internal/hashutil"
)

func testLeaf(n int) (body []byte, keys, values [][]byte) {
	w := NewWriter(n, n*40)
	for i := 0; i < n; i++ {
		k, v := []byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("value-%04d-%s", i, bytes.Repeat([]byte{'x'}, i%7)))
		keys, values = append(keys, k), append(values, v)
		w.Entry(k, v)
	}
	return w.Body(), keys, values
}

func entriesOf(t *testing.T, l Leaf) (keys, values [][]byte) {
	t.Helper()
	for rest := l.Entries; len(rest) > 0; {
		k, v, r, err := ReadEntry(rest)
		if err != nil {
			t.Fatal(err)
		}
		keys, values, rest = append(keys, k), append(values, v), r
	}
	return keys, values
}

func TestStoredLeafRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, groupSize - 1, groupSize, groupSize + 1, 5*groupSize + 3, 200} {
		body, keys, values := testLeaf(n)
		l, err := Parse(body)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		d, present, err := l.Verify()
		if err != nil || present != n || l.Count != n || l.First != 0 {
			t.Fatalf("n=%d: verify: %v, %d present of %d", n, err, present, l.Count)
		}
		if d != l.Digest() || d != hashutil.Sum(hashutil.DomainPOSLeaf, body[:len(body)-len(l.Entries)]) {
			t.Fatalf("n=%d: digest is not the header's hash", n)
		}
		gotK, gotV := entriesOf(t, l)
		if len(gotK) != n {
			t.Fatalf("n=%d: %d entries", n, len(gotK))
		}
		for i := range gotK {
			if !bytes.Equal(gotK[i], keys[i]) || !bytes.Equal(gotV[i], values[i]) {
				t.Fatalf("n=%d: entry %d differs", n, i)
			}
		}
		if want := 1 + uvarintLen(n) + groupsOf(n)*hashutil.DigestSize; len(body)-len(l.Entries) != want {
			t.Fatalf("n=%d: header is %d bytes, want %d", n, len(body)-len(l.Entries), want)
		}
	}
}

func uvarintLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

// TestEveryByteIsBound: flipping any byte of a stored leaf either changes
// its digest (the header) or fails verification (a group).
func TestEveryByteIsBound(t *testing.T) {
	body, _, _ := testLeaf(3*groupSize + 2)
	l, _ := Parse(body)
	want, _, err := l.Verify()
	if err != nil {
		t.Fatal(err)
	}
	for off := range body {
		bad := append([]byte(nil), body...)
		bad[off] ^= 0x04
		l, err := Parse(bad)
		if err != nil {
			continue
		}
		if d, _, err := l.Verify(); err == nil && d == want {
			t.Fatalf("byte %d flipped: leaf still verifies to the same digest", off)
		}
	}
	// Truncated at a group edge: every group present hashes, but a stored
	// leaf must hold them all.
	l, _ = Parse(body)
	cut, err := Prune(body, 0, groupSize) // groups 0 and 1
	if err != nil {
		t.Fatal(err)
	}
	pl, err := ParsePruned(cut)
	if err != nil {
		t.Fatal(err)
	}
	short := append(append([]byte(nil), body[:len(body)-len(l.Entries)]...), pl.Entries...)
	sl, err := Parse(short)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sl.Verify(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("stored leaf missing its last groups verified: %v", err)
	}
}

func TestPruneShipsWholeGroups(t *testing.T) {
	const n = 5*groupSize + 3
	body, keys, _ := testLeaf(n)
	whole, _ := Parse(body)
	for lo := 0; lo < n; lo++ {
		for _, hi := range []int{lo, min(lo+1, n-1)} {
			pruned, err := Prune(body, lo, hi)
			if err != nil {
				t.Fatalf("[%d,%d]: %v", lo, hi, err)
			}
			l, err := ParsePruned(pruned)
			if err != nil {
				t.Fatalf("[%d,%d]: %v", lo, hi, err)
			}
			d, present, err := l.Verify()
			if err != nil || d != whole.Digest() {
				t.Fatalf("[%d,%d]: pruned leaf does not verify to the leaf's digest: %v", lo, hi, err)
			}
			first, end := lo/groupSize*groupSize, min((hi/groupSize+1)*groupSize, n)
			if l.First != first || present != end-first || l.Count != n {
				t.Fatalf("[%d,%d]: shipped [%d,%d) of %d, want [%d,%d)", lo, hi, l.First, l.First+present, l.Count, first, end)
			}
			gotK, _ := entriesOf(t, l)
			if !bytes.Equal(gotK[lo-first], keys[lo]) {
				t.Fatalf("[%d,%d]: entry %d is not where its position says", lo, hi, lo)
			}
			if present > 2*groupSize {
				t.Fatalf("[%d,%d]: %d entries shipped for two adjacent positions", lo, hi, present)
			}
		}
	}
	for _, bad := range [][2]int{{-1, 0}, {3, 2}, {0, n}, {n, n}} {
		if _, err := Prune(body, bad[0], bad[1]); err == nil {
			t.Fatalf("Prune accepted positions %v of %d", bad, n)
		}
	}
}

// TestHostileLengths: count, the digest table and the group index are
// bounded by the bytes present before anything is sized from them.
func TestHostileLengths(t *testing.T) {
	body, _, _ := testLeaf(2 * groupSize)
	l, _ := Parse(body)
	header := body[:len(body)-len(l.Entries)]
	pruned, _ := Prune(body, 0, 0)

	withCount := func(count uint64, rest []byte) []byte {
		return append(binary.AppendUvarint([]byte{0}, count), rest...)
	}
	hostile := map[string][]byte{
		"empty":                      {},
		"level only":                 {0},
		"index level":                append([]byte{1}, body[1:]...),
		"count 2^62, no table":       withCount(1<<62, nil),
		"count 2^63":                 withCount(1<<63, bytes.Repeat([]byte{1}, 64)),
		"count overflows the varint": append([]byte{0}, bytes.Repeat([]byte{0xff}, 11)...),
		"count beyond the body":      withCount(uint64(len(body)), body[2:]),
		"table longer than the body": withCount(100*groupSize, bytes.Repeat([]byte{7}, 99*hashutil.DigestSize)),
	}
	for name, b := range hostile {
		for form, parse := range map[string]func([]byte) (Leaf, error){"stored": Parse, "pruned": ParsePruned} {
			l, err := parse(b)
			if err != nil {
				continue
			}
			if _, _, err := l.Verify(); err == nil {
				t.Fatalf("%s as %s: verified", name, form)
			}
		}
	}
	// The stored form of a bare header is a leaf missing every group; the
	// pruned form lacks its group index.
	if hl, err := Parse(header); err == nil {
		if _, _, err := hl.Verify(); err == nil {
			t.Fatal("a header with no entries verified as a stored leaf")
		}
	}
	if _, err := ParsePruned(header); err == nil {
		t.Fatal("a pruned leaf without a group index parsed")
	}

	// Group index: in range, out of range, absurd.
	hdrLen := len(header)
	relabel := func(first uint64) []byte {
		out := append([]byte(nil), pruned[:hdrLen]...)
		out = binary.AppendUvarint(out, first)
		return append(out, pruned[hdrLen+1:]...)
	}
	if _, err := ParsePruned(relabel(1)); err != nil {
		t.Fatalf("group 1 of 2 refused: %v", err)
	}
	for _, first := range []uint64{2, 3, 1 << 40, 1<<64 - 1} {
		if _, err := ParsePruned(relabel(first)); err == nil {
			t.Fatalf("group index %d of 2 groups parsed", first)
		}
	}
	// Right index range, wrong group under it.
	if l, err := ParsePruned(relabel(1)); err == nil {
		if _, _, err := l.Verify(); err == nil {
			t.Fatal("group 0 verified under group 1's slot")
		}
	}
	// More entries than the header counts.
	extra := append(append([]byte(nil), body...), AppendEntry(nil, []byte("k"), []byte("v"))...)
	if l, err := Parse(extra); err == nil {
		if _, _, err := l.Verify(); err == nil {
			t.Fatal("a leaf with an entry past its count verified")
		}
	}
	// An empty leaf: no groups, index 0 only.
	w := NewWriter(0, 0)
	empty := w.Body()
	if l, err := ParsePruned(append(append([]byte(nil), empty...), 0)); err != nil {
		t.Fatalf("empty pruned leaf: %v", err)
	} else if _, present, err := l.Verify(); err != nil || present != 0 {
		t.Fatalf("empty pruned leaf: %v, %d present", err, present)
	}
	if _, err := ParsePruned(append(append([]byte(nil), empty...), 1)); err == nil {
		t.Fatal("group 1 of an empty leaf parsed")
	}
}

func FuzzLeaf(f *testing.F) {
	body, _, _ := testLeaf(3*groupSize + 1)
	f.Add(body)
	for _, r := range [][2]int{{0, 0}, {groupSize - 1, groupSize}, {3 * groupSize, 3 * groupSize}} {
		p, _ := Prune(body, r[0], r[1])
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, parse := range []func([]byte) (Leaf, error){Parse, ParsePruned} {
			l, err := parse(data)
			if err != nil {
				continue
			}
			if l.Count > len(data)/2 || l.First > l.Count {
				t.Fatalf("parsed count %d, first %d from %d bytes", l.Count, l.First, len(data))
			}
			if _, present, err := l.Verify(); err == nil && l.First+present > l.Count {
				t.Fatalf("verified %d entries from %d in a leaf of %d", present, l.First, l.Count)
			}
		}
		if l, err := Parse(data); err == nil && l.Count > 0 {
			_, _ = Prune(data, 0, l.Count-1)
		}
	})
}

// TestFindSearchesInPlace: Find agrees with the decoded entries on every
// key a leaf holds and on keys before, between and after them, allocates
// nothing, and turns bytes that do not walk as a leaf into an error.
func TestFindSearchesInPlace(t *testing.T) {
	for _, n := range []int{0, 1, groupSize, 5*groupSize + 3, 200} {
		body, keys, values := testLeaf(n)
		for i, k := range keys {
			if v, ok, err := Find(body, k); err != nil || !ok || !bytes.Equal(v, values[i]) {
				t.Fatalf("n=%d: Find(%q) = %q %v %v", n, k, v, ok, err)
			}
			if v, ok, err := Find(body, append(append([]byte(nil), k...), '!')); err != nil || ok || v != nil {
				t.Fatalf("n=%d: Find just past %q = %q %v %v", n, k, v, ok, err)
			}
		}
		for _, k := range [][]byte{nil, []byte("a"), []byte("zzzz")} {
			if v, ok, err := Find(body, k); err != nil || ok || v != nil {
				t.Fatalf("n=%d: Find(%q) = %q %v %v", n, k, v, ok, err)
			}
		}
	}
	body, keys, _ := testLeaf(200)
	if allocs := testing.AllocsPerRun(100, func() { Find(body, keys[137]) }); allocs != 0 {
		t.Fatalf("Find allocates %v times", allocs)
	}
	// Cut inside the entries before the key's own: the walk fails, it does
	// not read past the end.
	if _, _, err := Find(body[:len(body)/2], keys[199]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Find in a truncated body: %v", err)
	}
	if _, _, err := Find([]byte{1, 2, 3}, keys[0]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Find in an index node's body: %v", err)
	}
}
