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

// refRoot is the tree hash as the package comment states it, over the
// encoded entries, with nothing shared with the code under test but the
// hash function.
func refRoot(entries [][]byte) hashutil.Digest {
	switch n := len(entries); n {
	case 0:
		return hashutil.Zero
	case 1:
		return hashutil.Sum(hashutil.DomainPOSEntry, entries[0])
	default:
		k := 1
		for 2*k < n {
			k *= 2
		}
		l, r := refRoot(entries[:k]), refRoot(entries[k:])
		return hashutil.Sum(hashutil.DomainPOSInner, append(l[:], r[:]...))
	}
}

func refDigest(keys, values [][]byte) hashutil.Digest {
	var entries [][]byte
	for i := range keys {
		entries = append(entries, AppendEntry(nil, keys[i], values[i]))
	}
	root := refRoot(entries)
	return hashutil.Sum(hashutil.DomainPOSLeaf, append(binary.AppendUvarint([]byte{0}, uint64(len(keys))), root[:]...))
}

// refSiblings counts the maximal subtrees of a leaf of count entries that
// hold nothing of [first, end).
func refSiblings(lo, hi, first, end int) int {
	switch {
	case hi <= first || end <= lo:
		return 1
	case hi-lo == 1:
		return 0
	}
	k := 1
	for 2*k < hi-lo {
		k *= 2
	}
	return refSiblings(lo, lo+k, first, end) + refSiblings(lo+k, hi, first, end)
}

func TestStoredLeafRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, groupSize - 1, groupSize, groupSize + 1, 5*groupSize + 3, 200} {
		body, keys, values := testLeaf(n)
		l, err := Parse(body)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		d, err := l.Verify()
		if err != nil || l.N != n || l.Count != n || l.First != 0 {
			t.Fatalf("n=%d: verify: %v, %d present of %d", n, err, l.N, l.Count)
		}
		if d != l.Digest() || d != refDigest(keys, values) {
			t.Fatalf("n=%d: digest is not the tree hash of the entries under the count", n)
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
			t.Fatalf("n=%d: %d bytes before the entries, want %d", n, len(body)-len(l.Entries), want)
		}
		// The table is the tree's level of 8-entry subtrees, written down.
		for g := 0; g < groupsOf(n); g++ {
			var entries [][]byte
			for i := g * groupSize; i < min((g+1)*groupSize, n); i++ {
				entries = append(entries, AppendEntry(nil, keys[i], values[i]))
			}
			if refRoot(entries) != hashutil.Digest(l.digests[g*hashutil.DigestSize:]) {
				t.Fatalf("n=%d: table slot %d is not the root of its group", n, g)
			}
		}
	}
}

func uvarintLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

// TestEveryByteIsBound: flipping any byte of a stored leaf changes its
// digest (the count, the table) or fails verification (an entry against
// the table).
func TestEveryByteIsBound(t *testing.T) {
	body, _, _ := testLeaf(3*groupSize + 2)
	l, _ := Parse(body)
	want, err := l.Verify()
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
		if d, err := l.Verify(); err == nil && d == want {
			t.Fatalf("byte %d flipped: leaf still verifies to the same digest", off)
		}
		if off >= len(body)-len(l.Entries) {
			if _, err := l.Verify(); !errors.Is(err, ErrMalformed) {
				t.Fatalf("entry byte %d flipped: stored leaf verified against its table: %v", off, err)
			}
		}
	}
	// Truncated at a group edge: every entry present hashes into its
	// group's root, but a stored leaf must hold them all.
	cut, err := Prune(body, 0, 2*groupSize-1)
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
	if _, err := sl.Verify(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("stored leaf missing its last groups verified: %v", err)
	}
}

// TestPruneEveryRun: for every leaf size up to 40 and every run of its
// entries, the pruned form parses, carries exactly the run and exactly the
// siblings the tree calls for, and verifies to the stored leaf's digest —
// which is the reference's, and the one a writer arrives at entry by entry
// and by taking over groups.
func TestPruneEveryRun(t *testing.T) {
	for n := 0; n <= 40; n++ {
		body, keys, values := testLeaf(n)
		whole, err := Parse(body)
		if err != nil {
			t.Fatal(err)
		}
		want := refDigest(keys, values)
		if whole.Digest() != want {
			t.Fatalf("n=%d: the writer's digest is not the reference's", n)
		}
		w := NewWriter(n, len(whole.Entries))
		src := whole.Source()
		for i := 0; i < n; {
			if took := w.Copy(src, i, n-i); took > 0 {
				i += took
				continue
			}
			w.Entry(keys[i], values[i])
			i++
		}
		if !bytes.Equal(w.Body(), body) {
			t.Fatalf("n=%d: a leaf written by Copy differs from the one written by Entry", n)
		}
		for lo := 0; lo < n; lo++ {
			for hi := lo; hi < n; hi++ {
				pruned, err := Prune(body, lo, hi)
				if err != nil {
					t.Fatalf("n=%d [%d,%d]: %v", n, lo, hi, err)
				}
				l, err := ParsePruned(pruned)
				if err != nil {
					t.Fatalf("n=%d [%d,%d]: %v", n, lo, hi, err)
				}
				if d, err := l.Verify(); err != nil || d != want {
					t.Fatalf("n=%d [%d,%d]: pruned leaf does not verify to the leaf's digest: %v", n, lo, hi, err)
				}
				if l.Count != n || l.First != lo || l.N != hi-lo+1 {
					t.Fatalf("n=%d [%d,%d]: shipped [%d,%d) of %d", n, lo, hi, l.First, l.First+l.N, l.Count)
				}
				gotK, gotV := entriesOf(t, l)
				for i := range gotK {
					if !bytes.Equal(gotK[i], keys[lo+i]) || !bytes.Equal(gotV[i], values[lo+i]) {
						t.Fatalf("n=%d [%d,%d]: entry %d is not the leaf's entry %d", n, lo, hi, i, lo+i)
					}
				}
				if got, want := len(l.digests)/hashutil.DigestSize, refSiblings(0, n, lo, hi+1); got != want || len(gotK) != l.N {
					t.Fatalf("n=%d [%d,%d]: %d entries and %d siblings, want %d and %d", n, lo, hi, len(gotK), got, l.N, want)
				}
			}
		}
		for _, bad := range [][2]int{{-1, 0}, {3, 2}, {0, n}, {n, n}} {
			if _, err := Prune(body, bad[0], bad[1]); err == nil {
				t.Fatalf("Prune accepted positions %v of %d", bad, n)
			}
		}
	}
	// The empty leaf has one pruned form: no run, no siblings.
	w := NewWriter(0, 0)
	if l, err := ParsePruned(append(append([]byte(nil), w.Body()...), 0, 0)); err != nil {
		t.Fatalf("empty pruned leaf: %v", err)
	} else if d, err := l.Verify(); err != nil || d != refDigest(nil, nil) || l.N != 0 {
		t.Fatalf("empty pruned leaf: %v, %d present", err, l.N)
	}
}

// A point read's slot: one entry and a sibling a level, not the entry's
// group and a table.
func TestPointSlotIsLogarithmic(t *testing.T) {
	body, keys, values := testLeaf(63)
	for pos := range keys {
		pruned, err := Prune(body, pos, pos)
		if err != nil {
			t.Fatal(err)
		}
		if limit := 4 + EntrySize(keys[pos], values[pos]) + 6*hashutil.DigestSize; len(pruned) > limit {
			t.Fatalf("entry %d of 63 travels in %d bytes, want at most %d", pos, len(pruned), limit)
		}
	}
}

// pruneParts cuts a pruned leaf into the pieces the forgeries rearrange.
type pruneParts struct {
	count, first, n uint64
	entries         [][]byte
	siblings        []hashutil.Digest
}

func partsOf(t *testing.T, pruned []byte) pruneParts {
	t.Helper()
	l, err := ParsePruned(pruned)
	if err != nil {
		t.Fatal(err)
	}
	p := pruneParts{count: uint64(l.Count), first: uint64(l.First), n: uint64(l.N)}
	for rest := l.Entries; len(rest) > 0; {
		_, _, r, _ := ReadEntry(rest)
		p.entries, rest = append(p.entries, rest[:len(rest)-len(r)]), r
	}
	for ds := l.digests; len(ds) > 0; ds = ds[hashutil.DigestSize:] {
		p.siblings = append(p.siblings, hashutil.Digest(ds))
	}
	return p
}

func (p pruneParts) encode() []byte {
	out := binary.AppendUvarint([]byte{0}, p.count)
	out = binary.AppendUvarint(out, p.first)
	out = binary.AppendUvarint(out, p.n)
	for _, e := range p.entries {
		out = append(out, e...)
	}
	for _, d := range p.siblings {
		out = append(out, d[:]...)
	}
	return out
}

// bound reports whether pruned parses and verifies to want.
func bound(pruned []byte, want hashutil.Digest) bool {
	l, err := ParsePruned(pruned)
	if err != nil {
		return false
	}
	d, err := l.Verify()
	return err == nil && d == want
}

// TestPrunedLeafForgeries: nothing but the leaf's own run, at its own
// position, beside its own siblings in their own order, is bound to the
// leaf's digest. (The pruned form holds nothing twice, so a forgery that
// still has the shape of a leaf shows as another digest, and one that does
// not as ErrMalformed; a caller turns away both.)
func TestPrunedLeafForgeries(t *testing.T) {
	const n = 3*groupSize + 5
	body, keys, _ := testLeaf(n)
	whole, _ := Parse(body)
	want := whole.Digest()
	other, _, _ := testLeaf(n + 1)

	for _, run := range [][2]int{{0, 0}, {groupSize + 2, groupSize + 2}, {groupSize - 1, groupSize}, {3, 2*groupSize + 1}, {n - 1, n - 1}, {2 * groupSize, n - 1}} {
		pruned, err := Prune(body, run[0], run[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bound(pruned, want) {
			t.Fatalf("run %v: the honest slot does not verify", run)
		}
		honest := func() pruneParts { return partsOf(t, pruned) }
		forged := map[string]func() (pruneParts, bool){
			"entry dropped": func() (pruneParts, bool) {
				p := honest()
				p.entries = p.entries[1:]
				return p, true
			},
			"entry dropped and n lowered": func() (pruneParts, bool) {
				p := honest()
				p.entries, p.n = p.entries[1:], p.n-1
				return p, p.n > 0
			},
			"first entry dropped, run said to start one later": func() (pruneParts, bool) {
				p := honest()
				p.entries, p.n, p.first = p.entries[1:], p.n-1, p.first+1
				return p, p.n > 0
			},
			"entries swapped": func() (pruneParts, bool) {
				p := honest()
				if len(p.entries) < 2 {
					return p, false
				}
				p.entries[0], p.entries[1] = p.entries[1], p.entries[0]
				return p, true
			},
			"value edited": func() (pruneParts, bool) {
				p := honest()
				p.entries[0] = AppendEntry(nil, keys[run[0]], []byte("forged"))
				return p, true
			},
			"entry of the neighbouring position in its place": func() (pruneParts, bool) {
				p := honest()
				q := partsOf(t, mustPrune(t, body, (run[0]+1)%n, (run[0]+1)%n))
				p.entries[0] = q.entries[0]
				return p, true
			},
			"entry added": func() (pruneParts, bool) {
				p := honest()
				p.entries = append(p.entries, AppendEntry(nil, []byte("zzz"), []byte("v")))
				return p, true
			},
			"entry added and n raised": func() (pruneParts, bool) {
				p := honest()
				p.entries, p.n = append(p.entries, AppendEntry(nil, []byte("zzz"), []byte("v"))), p.n+1
				return p, true
			},
			"sibling dropped": func() (pruneParts, bool) {
				p := honest()
				p.siblings = p.siblings[1:]
				return p, true
			},
			"last sibling dropped": func() (pruneParts, bool) {
				p := honest()
				p.siblings = p.siblings[:len(p.siblings)-1]
				return p, true
			},
			"sibling added": func() (pruneParts, bool) {
				p := honest()
				p.siblings = append(p.siblings, p.siblings[0])
				return p, true
			},
			"siblings reordered": func() (pruneParts, bool) {
				p := honest()
				if len(p.siblings) < 2 {
					return p, false
				}
				p.siblings[0], p.siblings[1] = p.siblings[1], p.siblings[0]
				return p, true
			},
			"sibling bit flipped": func() (pruneParts, bool) {
				p := honest()
				p.siblings[len(p.siblings)-1][31] ^= 1
				return p, true
			},
			"half a sibling": func() (pruneParts, bool) {
				p := honest()
				p.entries = append(p.entries, p.siblings[0][:16])
				return p, true
			},
			"count raised": func() (pruneParts, bool) {
				p := honest()
				p.count++
				return p, true
			},
			"count lowered": func() (pruneParts, bool) {
				p := honest()
				p.count--
				return p, true
			},
			"count lowered to the run's end": func() (pruneParts, bool) {
				p := honest()
				p.count = p.first + p.n
				return p, p.count != n
			},
			"first raised": func() (pruneParts, bool) {
				p := honest()
				p.first++
				return p, true
			},
			"first lowered": func() (pruneParts, bool) {
				p := honest()
				p.first--
				return p, true
			},
			"run claimed a group on": func() (pruneParts, bool) {
				p := honest()
				p.first = (p.first + groupSize) % (n - p.n + 1)
				return p, p.first != uint64(run[0])
			},
			"n raised": func() (pruneParts, bool) {
				p := honest()
				p.n++
				return p, true
			},
			"n lowered": func() (pruneParts, bool) {
				p := honest()
				p.n--
				return p, true
			},
			"siblings of another leaf": func() (pruneParts, bool) {
				p := honest()
				p.siblings = partsOf(t, mustPrune(t, other, run[0], run[1])).siblings
				return p, true
			},
		}
		for name, forge := range forged {
			if p, applies := forge(); applies && bound(p.encode(), want) {
				t.Errorf("run %v, %s: still bound to the leaf's digest", run, name)
			}
		}
	}

	// Domain separation: the two entry hashes of a leaf of two, framed as
	// the one entry of a leaf of one, do not hash to the first leaf's root
	// — let alone, under the other count, to its digest.
	var k0, k1 []byte
	var h0, h1 hashutil.Digest
	for i := 0; k0 == nil || k1 == nil; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		h := hashutil.Sum(hashutil.DomainPOSEntry, AppendEntry(nil, k, nil))
		if h[0] != hashutil.DigestSize-1 { // reads as the length of a 31-byte key or value
			continue
		}
		if k0 == nil {
			k0, h0 = k, h
		} else if k1 == nil {
			k1, h1 = k, h
		}
	}
	w := NewWriter(2, 2*EntrySize(k0, nil))
	w.Entry(k0, nil)
	w.Entry(k1, nil)
	two, _ := Parse(w.Body())
	inner := append(append([]byte(nil), h0[:]...), h1[:]...)
	if _, _, rest, err := ReadEntry(inner); err != nil || len(rest) != 0 {
		t.Fatalf("the crafted inner node does not read as one entry: %v", err)
	}
	if hashutil.Sum(hashutil.DomainPOSInner, inner) != hashutil.Digest(two.digests) {
		t.Fatal("the crafted bytes are not the two-entry leaf's root node")
	}
	if hashutil.Sum(hashutil.DomainPOSEntry, inner) == hashutil.Digest(two.digests) {
		t.Fatal("an inner node, offered as an entry, hashes to itself")
	}
	one := pruneParts{count: 1, n: 1, entries: [][]byte{inner}}
	if bound(one.encode(), two.Digest()) {
		t.Fatal("a leaf of one entry that is another leaf's root node is bound to that leaf's digest")
	}
}

func mustPrune(t *testing.T, body []byte, lo, hi int) []byte {
	t.Helper()
	out, err := Prune(body, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPrunedSlotEveryByteTrips flips every byte of a point slot, a slot
// for a miss at a group edge and a range edge's slot.
func TestPrunedSlotEveryByteTrips(t *testing.T) {
	body, _, _ := testLeaf(5*groupSize + 3)
	whole, _ := Parse(body)
	want := whole.Digest()
	for _, run := range [][2]int{{groupSize + 3, groupSize + 3}, {2*groupSize - 1, 2 * groupSize}, {3, 3*groupSize + 1}, {5 * groupSize, 5*groupSize + 2}} {
		pruned := mustPrune(t, body, run[0], run[1])
		for off := range pruned {
			for _, bit := range []byte{0x01, 0x80} {
				bad := append([]byte(nil), pruned...)
				bad[off] ^= bit
				if bound(bad, want) {
					t.Fatalf("run %v: byte %d flipped: slot still bound to the leaf's digest", run, off)
				}
			}
		}
		for cut := 0; cut < len(pruned); cut++ {
			if bound(pruned[:cut], want) {
				t.Fatalf("run %v: slot cut to %d bytes still bound", run, cut)
			}
		}
	}
}

// hostileSlots are pruned and stored forms whose count, first or n, taken
// at their word, would size or index something far beyond the bytes
// present.
func hostileSlots() map[string][]byte {
	body, _, _ := testLeaf(2 * groupSize)
	pruned, _ := Prune(body, 0, 0)
	l, _ := ParsePruned(pruned)
	tail := pruned[len(pruned)-len(l.Entries)-len(l.digests):]
	slot := func(count, first, n uint64, rest []byte) []byte {
		out := binary.AppendUvarint([]byte{0}, count)
		out = binary.AppendUvarint(out, first)
		return append(binary.AppendUvarint(out, n), rest...)
	}
	return map[string][]byte{
		"empty":                      {},
		"level only":                 {0},
		"index level":                append([]byte{1}, body[1:]...),
		"count 2^62":                 slot(1<<62, 0, 1, tail),
		"count 2^63":                 slot(1<<63, 0, 1, tail),
		"count past an int32":        slot(1<<31, 0, 1, tail),
		"count overflows the varint": append([]byte{0}, bytes.Repeat([]byte{0xff}, 11)...),
		"count beyond a stored body": append(binary.AppendUvarint([]byte{0}, uint64(len(body))), body[2:]...),
		"table longer than the body": append(binary.AppendUvarint([]byte{0}, 100*groupSize), bytes.Repeat([]byte{7}, 99*hashutil.DigestSize)...),
		"largest count, one entry":   slot(1<<31-1, 1<<31-2, 1, tail),
		"first 2^64-1":               slot(2*groupSize, 1<<64-1, 1, tail),
		"first at count":             slot(2*groupSize, 2*groupSize, 1, tail),
		"first + n wraps":            slot(2*groupSize, 1<<64-1, 2, tail),
		"n 2^40":                     slot(2*groupSize, 0, 1<<40, tail),
		"n beyond count":             slot(2*groupSize, 0, 2*groupSize+1, bytes.Repeat([]byte{1, 'k', 0}, 2*groupSize+1)),
		"n beyond the bytes":         slot(1000, 0, 500, bytes.Repeat([]byte{0, 0}, 499)),
		"n zero of a leaf with some": slot(2*groupSize, 0, 0, tail),
		"run without first and n":    body[:2],
	}
}

// TestHostileLengths: count, first and n are bounded — by the bytes
// present, by each other, by what fits an int — before anything is sized
// or indexed by them, in both forms.
func TestHostileLengths(t *testing.T) {
	body, _, _ := testLeaf(2 * groupSize)
	whole, _ := Parse(body)
	for name, b := range hostileSlots() {
		for form, parse := range map[string]func([]byte) (Leaf, error){"stored": Parse, "pruned": ParsePruned} {
			l, err := parse(b)
			if err != nil {
				continue
			}
			if l.N > len(b)/2 || l.First+l.N > l.Count {
				t.Fatalf("%s as %s: parsed a run [%d,%d) of %d from %d bytes", name, form, l.First, l.First+l.N, l.Count, len(b))
			}
			if d, err := l.Verify(); err == nil && d == whole.Digest() {
				t.Fatalf("%s as %s: verified", name, form)
			}
		}
	}
	// A bare count and table is a stored leaf missing every entry.
	if hl, err := Parse(body[:len(body)-len(whole.Entries)]); err == nil {
		if _, err := hl.Verify(); err == nil {
			t.Fatal("a table with no entries verified as a stored leaf")
		}
	}
	// More entries than the count says.
	extra := append(append([]byte(nil), body...), AppendEntry(nil, []byte("k"), []byte("v"))...)
	if l, err := Parse(extra); err == nil {
		if _, err := l.Verify(); err == nil {
			t.Fatal("a leaf with an entry past its count verified")
		}
	}
	// A run of the empty leaf.
	if _, err := ParsePruned([]byte{0, 0, 0, 1, 1, 'k', 0}); err == nil {
		t.Fatal("an entry of an empty leaf parsed")
	}
}

func FuzzLeaf(f *testing.F) {
	body, _, _ := testLeaf(3*groupSize + 1)
	f.Add(body)
	for _, r := range [][2]int{{0, 0}, {groupSize - 1, groupSize}, {3 * groupSize, 3 * groupSize}, {2, 2*groupSize + 3}} {
		p, _ := Prune(body, r[0], r[1])
		f.Add(p)
	}
	for _, b := range hostileSlots() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, parse := range []func([]byte) (Leaf, error){Parse, ParsePruned} {
			l, err := parse(data)
			if err != nil {
				continue
			}
			if l.N > len(data)/2 || l.First+l.N > l.Count || len(l.Entries)+len(l.digests) > len(data) {
				t.Fatalf("parsed a run [%d,%d) of %d from %d bytes", l.First, l.First+l.N, l.Count, len(data))
			}
			d, err := l.Verify()
			if err != nil {
				continue
			}
			// Whatever verifies is a leaf: pruned again to the same run, a
			// stored one gives a slot bound to the same digest.
			if !l.pruned && l.Count > 0 {
				p, err := Prune(data, 0, l.Count-1)
				if err != nil || !bound(p, d) {
					t.Fatalf("a stored leaf that verifies does not prune to its own digest: %v", err)
				}
			}
		}
		if l, err := Parse(data); err == nil && l.Count > 0 {
			_, _ = Prune(data, l.Count/2, l.Count-1)
		}
	})
}

// TestFindSearchesInPlace: Find agrees with the decoded entries on every
// key a leaf holds and on keys before, between and after them, allocates
// nothing, and turns bytes that do not walk as a leaf into an error.
func TestFindSearchesInPlace(t *testing.T) {
	for _, n := range []int{0, 1, groupSize, 5*groupSize + 3, 200} {
		body, keys, values := testLeaf(n)
		// at is the entry Find must stop at: position want, none at n.
		at := func(key string, want int) {
			t.Helper()
			var wk, wv []byte
			if want < n {
				wk, wv = keys[want], values[want]
			}
			if pos, k, v, err := Find(body, []byte(key)); err != nil || pos != want ||
				!bytes.Equal(k, wk) || !bytes.Equal(v, wv) || (k == nil) != (wk == nil) {
				t.Fatalf("n=%d: Find(%q) = %d %q %q %v, want %d", n, key, pos, k, v, err, want)
			}
		}
		for i, k := range keys {
			at(string(k), i)
			at(string(k)+"!", i+1)
		}
		for k, want := range map[string]int{"": 0, "a": 0, "zzzz": n} {
			at(k, want)
		}
	}
	body, keys, _ := testLeaf(200)
	if allocs := testing.AllocsPerRun(100, func() { Find(body, keys[137]) }); allocs != 0 {
		t.Fatalf("Find allocates %v times", allocs)
	}
	// Cut inside the entries before the key's own: the walk fails, it does
	// not read past the end.
	if _, _, _, err := Find(body[:len(body)/2], keys[199]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Find in a truncated body: %v", err)
	}
	if _, _, _, err := Find([]byte{1, 2, 3}, keys[0]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Find in an index node's body: %v", err)
	}
}

// TestCommitmentAllocatesNothingPerEntry: verifying a point slot and
// addressing a stored leaf allocate nothing; cutting a slot allocates the
// slot.
func TestCommitmentAllocatesNothingPerEntry(t *testing.T) {
	body, _, _ := testLeaf(63)
	pruned := mustPrune(t, body, 20, 20)
	if n := testing.AllocsPerRun(100, func() {
		l, _ := ParsePruned(pruned)
		l.Verify()
	}); n != 0 {
		t.Fatalf("verifying a point slot allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		l, _ := Parse(body)
		l.Digest()
	}); n != 0 {
		t.Fatalf("addressing a stored leaf allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { Prune(body, 20, 20) }); n != 1 {
		t.Fatalf("cutting a point slot allocates %v times, want the slot alone", n)
	}
}
