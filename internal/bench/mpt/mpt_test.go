package mpt

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spitz/internal/cas"
)

func kv(i int) ([]byte, []byte) {
	return []byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("value-%06d", i))
}

func buildTrie(t *testing.T, n int) *Trie {
	t.Helper()
	tr := Empty(cas.NewMemory())
	var err error
	for i := 0; i < n; i++ {
		k, v := kv(i)
		if tr, err = tr.Put(k, v); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	return tr
}

func TestEmpty(t *testing.T) {
	tr := Empty(cas.NewMemory())
	if tr.Count() != 0 || !tr.Root().IsZero() {
		t.Fatal("empty trie not empty")
	}
	if _, ok, err := tr.Get([]byte("a")); ok || err != nil {
		t.Fatal("Get on empty trie misbehaved")
	}
}

func TestPutGet(t *testing.T) {
	const n = 2000
	tr := buildTrie(t, n)
	if tr.Count() != n {
		t.Fatalf("Count = %d, want %d", tr.Count(), n)
	}
	for i := 0; i < n; i++ {
		k, v := kv(i)
		got, ok, err := tr.Get(k)
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get(%s) = %q,%v,%v", k, got, ok, err)
		}
	}
	if _, ok, _ := tr.Get([]byte("key-999999x")); ok {
		t.Fatal("found absent key")
	}
	if _, ok, _ := tr.Get([]byte("ke")); ok {
		t.Fatal("found prefix of a key")
	}
}

func TestUpsert(t *testing.T) {
	tr := buildTrie(t, 100)
	k, _ := kv(50)
	tr2, err := tr.Put(k, []byte("replaced"))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != tr.Count() {
		t.Fatal("upsert changed count")
	}
	v, ok, _ := tr2.Get(k)
	if !ok || string(v) != "replaced" {
		t.Fatal("upsert value not visible")
	}
	// Old snapshot untouched.
	v, _, _ = tr.Get(k)
	if string(v) == "replaced" {
		t.Fatal("old snapshot mutated")
	}
}

func TestPrefixKeys(t *testing.T) {
	// Keys where one is a strict prefix of another stress branch values.
	tr := Empty(cas.NewMemory())
	keys := [][]byte{[]byte("a"), []byte("ab"), []byte("abc"), []byte("abd"), []byte("b"), []byte("")}
	var err error
	for i, k := range keys {
		if tr, err = tr.Put(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count() != len(keys) {
		t.Fatalf("Count = %d, want %d", tr.Count(), len(keys))
	}
	for i, k := range keys {
		v, ok, err := tr.Get(k)
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("Get(%q) failed: %v %v", k, ok, err)
		}
	}
}

func TestHistoryIndependence(t *testing.T) {
	const n = 500
	perm := rand.New(rand.NewSource(42)).Perm(n)
	a := Empty(cas.NewMemory())
	b := Empty(cas.NewMemory())
	var err error
	for i := 0; i < n; i++ {
		k, v := kv(i)
		if a, err = a.Put(k, v); err != nil {
			t.Fatal(err)
		}
		k, v = kv(perm[i])
		if b, err = b.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if a.Root() != b.Root() {
		t.Fatal("insertion order changed the root digest")
	}
}

func TestDeleteRestoresRoot(t *testing.T) {
	tr := buildTrie(t, 300)
	before := tr.Root()
	cur := tr
	var err error
	for i := 300; i < 400; i++ {
		k, v := kv(i)
		if cur, err = cur.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 300; i < 400; i++ {
		k, _ := kv(i)
		if cur, err = cur.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if cur.Root() != before {
		t.Fatal("insert+delete cycle changed the root")
	}
	if cur.Count() != 300 {
		t.Fatalf("Count = %d, want 300", cur.Count())
	}
}

func TestDeleteAll(t *testing.T) {
	tr := buildTrie(t, 64)
	cur := tr
	var err error
	for i := 0; i < 64; i++ {
		k, _ := kv(i)
		if cur, err = cur.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if !cur.Root().IsZero() || cur.Count() != 0 {
		t.Fatal("trie not empty after deleting everything")
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := buildTrie(t, 50)
	got, err := tr.Delete([]byte("missing"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Root() != tr.Root() || got.Count() != tr.Count() {
		t.Fatal("deleting absent key changed the trie")
	}
}

func TestScan(t *testing.T) {
	const n = 200
	tr := buildTrie(t, n)
	var keys [][]byte
	if err := tr.Scan(func(k, v []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("scan saw %d keys, want %d", len(keys), n)
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatal("scan not in order")
		}
	}
}

func TestLoad(t *testing.T) {
	store := cas.NewMemory()
	tr := Empty(store)
	var err error
	for i := 0; i < 150; i++ {
		k, v := kv(i)
		if tr, err = tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Load(store, tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if re.Count() != 150 {
		t.Fatalf("reloaded count = %d", re.Count())
	}
	k, v := kv(77)
	got, ok, _ := re.Get(k)
	if !ok || !bytes.Equal(got, v) {
		t.Fatal("reloaded trie cannot serve reads")
	}
}

func TestProofPresentAbsent(t *testing.T) {
	tr := buildTrie(t, 1000)
	root := tr.Root()
	k, v := kv(123)
	p, err := tr.ProveGet(k)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Found || !bytes.Equal(p.Value, v) {
		t.Fatal("proof carries wrong value")
	}
	if err := p.Verify(root); err != nil {
		t.Fatalf("presence proof: %v", err)
	}

	for _, absent := range []string{"key-zzz", "nope", "key-0001234"} {
		p, err := tr.ProveGet([]byte(absent))
		if err != nil {
			t.Fatal(err)
		}
		if p.Found {
			t.Fatalf("absent key %q found", absent)
		}
		if err := p.Verify(root); err != nil {
			t.Fatalf("absence proof for %q: %v", absent, err)
		}
	}
}

func TestProofTamperDetection(t *testing.T) {
	tr := buildTrie(t, 500)
	k, _ := kv(42)
	p, err := tr.ProveGet(k)
	if err != nil {
		t.Fatal(err)
	}
	// Forged value.
	forged := p
	forged.Value = []byte("evil")
	if err := forged.Verify(tr.Root()); err == nil {
		t.Fatal("forged value verified")
	}
	// Forged absence.
	forged = p
	forged.Found, forged.Value = false, nil
	if err := forged.Verify(tr.Root()); err == nil {
		t.Fatal("forged absence verified")
	}
	// Tampered node body.
	forged = p
	forged.Nodes = append([][]byte(nil), p.Nodes...)
	body := append([]byte(nil), forged.Nodes[0]...)
	body[len(body)-1] ^= 1
	forged.Nodes[0] = body
	if err := forged.Verify(tr.Root()); err == nil {
		t.Fatal("tampered node verified")
	}
	// Wrong root.
	bad := tr.Root()
	bad[0] ^= 1
	if err := p.Verify(bad); err == nil {
		t.Fatal("proof verified against wrong root")
	}
}

func TestProofEmptyTrie(t *testing.T) {
	tr := Empty(cas.NewMemory())
	p, err := tr.ProveGet([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(tr.Root()); err != nil {
		t.Fatal(err)
	}
	p.Found = true
	if err := p.Verify(tr.Root()); err == nil {
		t.Fatal("forged presence against empty root verified")
	}
}

// Property: trie agrees with a map oracle under random operations and the
// root depends only on the final content.
func TestQuickOracle(t *testing.T) {
	type op struct {
		Key uint8
		Val uint16
		Del bool
	}
	f := func(ops []op) bool {
		tr := Empty(cas.NewMemory())
		oracle := map[string]string{}
		var err error
		for _, o := range ops {
			k := []byte(fmt.Sprintf("%03d", o.Key))
			v := []byte(fmt.Sprintf("%05d", o.Val))
			if o.Del {
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
		// Rebuild in sorted order; roots must match.
		rb := Empty(cas.NewMemory())
		keys := make([]string, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		for _, k := range keys {
			if rb, err = rb.Put([]byte(k), []byte(oracle[k])); err != nil {
				return false
			}
		}
		return rb.Root() == tr.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: proofs generated for random keys always verify.
func TestQuickProofs(t *testing.T) {
	tr := buildTrie(t, 400)
	root := tr.Root()
	f := func(k uint16) bool {
		key := []byte(fmt.Sprintf("key-%06d", int(k)))
		p, err := tr.ProveGet(key)
		if err != nil {
			return false
		}
		return p.Verify(root) == nil && p.Found == (int(k) < 400)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
