package skiplist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	l := New[string](1)
	if _, ok := l.Get(42); ok {
		t.Fatal("found in empty list")
	}
	if l.Delete(42) {
		t.Fatal("deleted from empty list")
	}
	l.AscendRange(0, 100, func(uint64, string) bool {
		t.Fatal("scan yielded on empty list")
		return false
	})
}

func TestPutGet(t *testing.T) {
	l := New[int](2)
	const n = 5000
	perm := rand.New(rand.NewSource(5)).Perm(n)
	for _, i := range perm {
		if !l.Put(uint64(i), i) {
			t.Fatalf("Put(%d) reported existing", i)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := l.Get(uint64(i))
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := l.Get(n + 1); ok {
		t.Fatal("found absent key")
	}
}

func TestUpsert(t *testing.T) {
	l := New[string](3)
	l.Put(7, "a")
	if l.Put(7, "b") {
		t.Fatal("overwrite reported as insert")
	}
	v, _ := l.Get(7)
	if v != "b" {
		t.Fatal("upsert failed")
	}
}

func TestDelete(t *testing.T) {
	l := New[int](4)
	for i := 0; i < 1000; i++ {
		l.Put(uint64(i), i)
	}
	for i := 0; i < 1000; i += 3 {
		if !l.Delete(uint64(i)) {
			t.Fatalf("Delete(%d) reported absent", i)
		}
	}
	if l.Delete(0) {
		t.Fatal("double delete succeeded")
	}
	for i := 0; i < 1000; i++ {
		_, ok := l.Get(uint64(i))
		if want := i%3 != 0; ok != want {
			t.Fatalf("Get(%d) = %v, want %v", i, ok, want)
		}
	}
}

func TestAscendRange(t *testing.T) {
	l := New[int](5)
	for i := 0; i < 100; i++ {
		l.Put(uint64(i*10), i)
	}
	var got []uint64
	l.AscendRange(95, 250, func(k uint64, v int) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230, 240}
	if len(got) != len(want) {
		t.Fatalf("range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestAscendFromAndEarlyStop: an open-ended scan from a start key reaches
// the end of the list, and fn returning false stops the scan.
func TestAscendFromAndEarlyStop(t *testing.T) {
	l := New[int](6)
	for i := 0; i < 50; i++ {
		l.Put(uint64(i), i)
	}
	var n int
	l.AscendRange(40, ^uint64(0), func(uint64, int) bool { n++; return true })
	if n != 10 {
		t.Fatalf("scan from 40 saw %d", n)
	}
	n = 0
	l.AscendRange(0, ^uint64(0), func(uint64, int) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop at %d", n)
	}
}

// Property: skip list behaves like a sorted map under random ops.
func TestQuickOracle(t *testing.T) {
	type op struct {
		K   uint16
		V   int
		Del bool
	}
	f := func(ops []op, seed int64) bool {
		l := New[int](seed)
		oracle := map[uint64]int{}
		for _, o := range ops {
			k := uint64(o.K)
			if o.Del {
				_, present := oracle[k]
				if l.Delete(k) != present {
					return false
				}
				delete(oracle, k)
			} else {
				_, present := oracle[k]
				if l.Put(k, o.V) == present {
					return false
				}
				oracle[k] = o.V
			}
		}
		keys := make([]uint64, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		i := 0
		good := true
		l.AscendRange(0, ^uint64(0), func(k uint64, v int) bool {
			if i >= len(keys) || k != keys[i] || v != oracle[k] {
				good = false
				return false
			}
			i++
			return true
		})
		return good && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
