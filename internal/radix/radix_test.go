package radix

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	var tr Tree[int]
	for _, k := range []string{"a", ""} {
		if _, ok := tr.Get([]byte(k)); ok {
			t.Fatalf("found %q in empty tree", k)
		}
	}
	if tr.Delete([]byte("a")) {
		t.Fatal("deleted from empty tree")
	}
}

func TestPutGetBasic(t *testing.T) {
	var tr Tree[int]
	keys := []string{"romane", "romanus", "romulus", "rubens", "ruber", "rubicon", "rubicundus", "r", "", "z"}
	for i, k := range keys {
		if !tr.Put([]byte(k), i) {
			t.Fatalf("Put(%q) reported existing", k)
		}
	}
	for i, k := range keys {
		v, ok := tr.Get([]byte(k))
		if !ok || v != i {
			t.Fatalf("Get(%q) = %d,%v", k, v, ok)
		}
	}
	for _, k := range []string{"rom", "roman", "rubico", "romanesque", "x"} {
		if _, ok := tr.Get([]byte(k)); ok {
			t.Fatalf("found absent key %q", k)
		}
	}
}

func TestUpsert(t *testing.T) {
	var tr Tree[string]
	tr.Put([]byte("k"), "a")
	if tr.Put([]byte("k"), "b") {
		t.Fatal("overwrite reported as insert")
	}
	v, _ := tr.Get([]byte("k"))
	if v != "b" {
		t.Fatal("upsert failed")
	}
}

func TestDelete(t *testing.T) {
	var tr Tree[int]
	keys := []string{"a", "ab", "abc", "abd", "b", "ba"}
	for i, k := range keys {
		tr.Put([]byte(k), i)
	}
	if !tr.Delete([]byte("ab")) {
		t.Fatal("Delete(ab) reported absent")
	}
	if tr.Delete([]byte("ab")) {
		t.Fatal("double delete succeeded")
	}
	if tr.Delete([]byte("zzz")) {
		t.Fatal("deleting absent key succeeded")
	}
	if _, ok := tr.Get([]byte("ab")); ok {
		t.Fatal("deleted key still present")
	}
	// Neighbors survive.
	for _, k := range []string{"a", "abc", "abd", "b", "ba"} {
		if _, ok := tr.Get([]byte(k)); !ok {
			t.Fatalf("neighbor %q lost", k)
		}
	}
}

func TestSharedPrefixCompression(t *testing.T) {
	// All keys share a long prefix: it is stored once, on one edge below
	// the root, and every key still resolves.
	var tr Tree[int]
	prefix := strings.Repeat("shared-prefix/", 4)
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("%s%03d", prefix, i)), i)
	}
	if len(tr.root.children) != 1 || !strings.HasPrefix(string(tr.root.children[0].prefix), prefix) {
		t.Fatalf("shared prefix not compressed onto one edge: %d root children", len(tr.root.children))
	}
	for i := 0; i < 100; i++ {
		if v, ok := tr.Get([]byte(fmt.Sprintf("%s%03d", prefix, i))); !ok || v != i {
			t.Fatalf("key %d: %d, %v", i, v, ok)
		}
	}
	if _, ok := tr.Get([]byte(prefix)); ok {
		t.Fatal("the shared prefix itself resolved")
	}
}

// Property: radix tree behaves like a map.
func TestQuickOracle(t *testing.T) {
	type op struct {
		K   uint16
		V   int
		Del bool
	}
	f := func(ops []op) bool {
		var tr Tree[int]
		oracle := map[string]int{}
		for _, o := range ops {
			k := []byte(fmt.Sprintf("%b", o.K)) // binary strings share prefixes heavily
			if o.Del {
				_, present := oracle[string(k)]
				if tr.Delete(k) != present {
					return false
				}
				delete(oracle, string(k))
			} else {
				_, present := oracle[string(k)]
				if tr.Put(k, o.V) == present {
					return false
				}
				oracle[string(k)] = o.V
			}
		}
		// Every key an op touched reads as the map says: present with its
		// value, or absent.
		for _, o := range ops {
			k := fmt.Sprintf("%b", o.K)
			want, present := oracle[k]
			if got, ok := tr.Get([]byte(k)); ok != present || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRandomizedLargeSet(t *testing.T) {
	var tr Tree[int]
	rng := rand.New(rand.NewSource(11))
	oracle := map[string]int{}
	deleted := map[string]bool{}
	for i := 0; i < 20000; i++ {
		k := make([]byte, 1+rng.Intn(12))
		rng.Read(k)
		if rng.Intn(4) == 0 {
			tr.Delete(k)
			delete(oracle, string(k))
			deleted[string(k)] = true
		} else {
			tr.Put(append([]byte(nil), k...), i)
			oracle[string(k)] = i
		}
	}
	for k, v := range oracle {
		got, ok := tr.Get([]byte(k))
		if !ok || got != v {
			t.Fatalf("Get(%q) = %d,%v want %d", k, got, ok, v)
		}
	}
	for k := range deleted {
		if _, live := oracle[k]; !live {
			if _, ok := tr.Get([]byte(k)); ok {
				t.Fatalf("deleted key %q still present", k)
			}
		}
	}
}
