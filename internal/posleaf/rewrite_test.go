package posleaf

import (
	"bytes"
	"fmt"
	"testing"

	"spitz/internal/hashutil"
)

// edited is the content of a leaf made from a stored one: from[i] is the
// position in the source of entry i when it is that entry unchanged, -1
// when an edit made it.
type edited struct {
	keys, values [][]byte
	from         []int
}

func (e *edited) add(k, v []byte, from int) {
	e.keys, e.values, e.from = append(e.keys, k), append(e.values, v), append(e.from, from)
}

func (e edited) entryBytes() (n int) {
	for i := range e.keys {
		n += EntrySize(e.keys[i], e.values[i])
	}
	return n
}

// plain encodes e entry by entry: the reference.
func (e edited) plain() Writer {
	w := NewWriter(len(e.keys), e.entryBytes())
	for i := range e.keys {
		w.Entry(e.keys[i], e.values[i])
	}
	return w
}

// rewrite encodes e the way a tree apply does: offering the writer every
// run of entries that is the source's, and writing what it does not take.
func (e edited) rewrite(src *Source) Writer {
	w := NewWriter(len(e.keys), e.entryBytes())
	for i := 0; i < len(e.keys); {
		if e.from[i] >= 0 {
			n := 1
			for i+n < len(e.keys) && e.from[i+n] == e.from[i]+n {
				n++
			}
			if took := w.Copy(src, e.from[i], n); took > 0 {
				i += took
				continue
			}
		}
		w.Entry(e.keys[i], e.values[i])
		i++
	}
	return w
}

// checkRewrite requires the rewritten leaf to be, byte for byte, the
// leaf written from scratch, and to verify as a stored leaf.
func checkRewrite(t testing.TB, src []byte, e edited) (hashed, plainHashed int) {
	t.Helper()
	l, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want, got := e.plain(), e.rewrite(l.Source())
	if !bytes.Equal(got.Body(), want.Body()) {
		t.Fatalf("rewritten leaf differs from the leaf written from scratch (%d entries, from %v)", len(e.keys), e.from)
	}
	out, err := Parse(got.Body())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Verify(); err != nil || out.N != len(e.keys) {
		t.Fatalf("rewritten leaf does not verify: %v (%d of %d entries)", err, out.N, len(e.keys))
	}
	if got.Hashed() > want.Hashed() {
		t.Fatalf("rewrite hashed %d bytes, more than the %d of writing from scratch", got.Hashed(), want.Hashed())
	}
	return got.Hashed(), want.Hashed()
}

func TestLeafRewriteCopiesUnchangedGroups(t *testing.T) {
	const n = 5*groupSize + 3
	src, keys, values := testLeaf(n)
	// What a writer cannot avoid hashing: the nodes above the table and the
	// digest's input, which the store hashes to address the leaf.
	const node = 2 * hashutil.DigestSize
	above := (groupsOf(n)-1)*node + 1 + uvarintLen(n) + hashutil.DigestSize
	// groupCost is what group g of the source costs to hash: its entries and
	// the nodes over them.
	groupCost := func(g int) (b int) {
		for i := g * groupSize; i < min((g+1)*groupSize, n); i++ {
			b += EntrySize(keys[i], values[i])
		}
		return b + (min((g+1)*groupSize, n)-g*groupSize-1)*node
	}
	keep := func(e *edited, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.add(keys[i], values[i], i)
		}
	}

	t.Run("unchanged", func(t *testing.T) {
		var e edited
		keep(&e, 0, n)
		if hashed, _ := checkRewrite(t, src, e); hashed != above {
			t.Fatalf("hashed %d bytes, want the %d above the table", hashed, above)
		}
	})
	t.Run("overwrite keeps the count", func(t *testing.T) {
		for _, at := range []int{0, groupSize - 1, 2*groupSize + 3, n - 1} {
			var e edited
			keep(&e, 0, at)
			e.add(keys[at], []byte("a new value of another length"), -1)
			keep(&e, at+1, n)
			hashed, _ := checkRewrite(t, src, e)
			want := above + groupCost(at/groupSize) + len("a new value of another length") - len(values[at])
			if hashed != want {
				t.Fatalf("overwrite at %d hashed %d bytes, want one group and what is above the table = %d", at, hashed, want)
			}
		}
	})
	t.Run("insert re-hashes from its group on", func(t *testing.T) {
		at := 2*groupSize + 1
		var e edited
		keep(&e, 0, at)
		e.add([]byte("key-0017+"), []byte("inserted"), -1)
		keep(&e, at, n)
		hashed, plain := checkRewrite(t, src, e)
		if want := plain - groupCost(0) - groupCost(1); hashed != want {
			t.Fatalf("hashed %d bytes, want all but the two groups before the insert = %d", hashed, want)
		}
	})
	t.Run("delete, append, truncate, split", func(t *testing.T) {
		for name, build := range map[string]func(e *edited){
			"delete first":  func(e *edited) { keep(e, 1, n) },
			"delete inside": func(e *edited) { keep(e, 0, 9); keep(e, 10, n) },
			"delete last":   func(e *edited) { keep(e, 0, n-1) },
			"append":        func(e *edited) { keep(e, 0, n); e.add([]byte("key-9999"), []byte("appended"), -1) },
			"first half":    func(e *edited) { keep(e, 0, 2*groupSize) },
			"ragged half":   func(e *edited) { keep(e, 0, 2*groupSize+5) },
			"second half":   func(e *edited) { keep(e, 2*groupSize, n) },
			"carried in":    func(e *edited) { e.add([]byte("a"), []byte("carried"), -1); keep(e, 0, n) },
			"aligned carry": func(e *edited) {
				for i := 0; i < groupSize; i++ {
					e.add([]byte(fmt.Sprintf("a-%d", i)), []byte("carried"), -1)
				}
				keep(e, 0, n)
			},
			"nothing kept": func(e *edited) { e.add([]byte("k"), []byte("v"), -1) },
			"empty":        func(e *edited) {},
		} {
			var e edited
			build(&e)
			t.Run(name, func(t *testing.T) { checkRewrite(t, src, e) })
		}
	})
	t.Run("aligned carry copies every group", func(t *testing.T) {
		var e edited
		for i := 0; i < groupSize; i++ {
			e.add([]byte(fmt.Sprintf("a-%d", i)), []byte("carried"), -1)
		}
		keep(&e, 0, n)
		hashed, plain := checkRewrite(t, src, e)
		want := plain
		for g := 0; g < groupsOf(n); g++ {
			want -= groupCost(g)
		}
		if hashed != want {
			t.Fatalf("hashed %d bytes, want %d: all but the source's groups", hashed, want)
		}
	})
}

func TestLeafRewriteRefusesWhatItCannotCopy(t *testing.T) {
	src, _, _ := testLeaf(3 * groupSize)
	l, _ := Parse(src)
	s := l.Source()
	w := NewWriter(3*groupSize, len(l.Entries))
	for name, took := range map[string]int{
		"no source":          w.Copy(nil, 0, groupSize),
		"unaligned source":   w.Copy(s, 1, groupSize),
		"less than a group":  w.Copy(s, 0, groupSize-1),
		"beyond the source":  w.Copy(s, 2*groupSize, 2*groupSize),
		"beyond this leaf":   w.Copy(s, 0, 4*groupSize),
		"pruned leaf source": w.Copy(pruned(t, src).Source(), 0, groupSize),
	} {
		if took != 0 {
			t.Errorf("%s: took %d entries", name, took)
		}
	}
	w.Entry([]byte("k"), []byte("v"))
	if took := w.Copy(s, 0, groupSize); took != 0 {
		t.Errorf("unaligned writer: took %d entries", took)
	}
}

func pruned(t *testing.T, body []byte) Leaf {
	t.Helper()
	p, err := Prune(body, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ParsePruned(p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestUvarintLen(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1 << 40} {
		if UvarintLen(n) != uvarintLen(n) {
			t.Errorf("UvarintLen(%d) = %d, want %d", n, UvarintLen(n), uvarintLen(n))
		}
	}
	k, v := bytes.Repeat([]byte{'k'}, 200), bytes.Repeat([]byte{'v'}, 20000)
	if got := EntrySize(k, v); got != len(AppendEntry(nil, k, v)) {
		t.Errorf("EntrySize = %d, AppendEntry wrote %d", got, len(AppendEntry(nil, k, v)))
	}
}

// FuzzLeafRewrite edits a stored leaf by a script read off the input —
// per source entry: keep, overwrite, delete, or insert before it — and
// requires the rewrite, copied groups included, to be the leaf written
// from scratch and to pass Leaf.Verify.
func FuzzLeafRewrite(f *testing.F) {
	f.Add(uint8(43), []byte{0, 0, 0, 1})
	f.Add(uint8(64), []byte{0, 0, 0, 0, 0, 0, 0, 0, 3, 0})
	f.Add(uint8(17), []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Add(uint8(8), []byte{})
	f.Add(uint8(0), []byte{3})
	f.Fuzz(func(t *testing.T, n uint8, script []byte) {
		src, keys, values := testLeaf(int(n))
		var e edited
		for i := 0; i < int(n); i++ {
			op := byte(0)
			if i < len(script) {
				op = script[i] % 4
			}
			switch op {
			case 0:
				e.add(keys[i], values[i], i)
			case 1:
				e.add(keys[i], append([]byte("edited-"), script[i]), -1)
			case 2: // deleted
			case 3:
				e.add(append(append([]byte(nil), keys[i][:len(keys[i])-1]...), '+'), []byte("inserted"), -1)
				e.add(keys[i], values[i], i)
			}
		}
		checkRewrite(t, src, e)
	})
}
