package mbt

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
)

func kv(i int) ([]byte, []byte) {
	return []byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("value-%06d", i))
}

func buildTree(t *testing.T, n, buckets int) *Tree {
	t.Helper()
	tr := New(cas.NewMemory(), buckets)
	var err error
	for i := 0; i < n; i++ {
		k, v := kv(i)
		if tr, err = tr.Put(k, v); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	return tr
}

func TestNewRoundsBuckets(t *testing.T) {
	s := cas.NewMemory()
	if got := New(s, 0).Buckets(); got != 1024 {
		t.Fatalf("default buckets = %d", got)
	}
	if got := New(s, 100).Buckets(); got != 128 {
		t.Fatalf("rounded buckets = %d, want 128", got)
	}
	if got := New(s, 64).Buckets(); got != 64 {
		t.Fatalf("power-of-two buckets changed: %d", got)
	}
}

func TestEmptyTreesShareRoot(t *testing.T) {
	s := cas.NewMemory()
	a, b := New(s, 64), New(s, 64)
	if a.Root() != b.Root() {
		t.Fatal("two empty trees differ")
	}
	c := New(s, 128)
	if a.Root() == c.Root() {
		t.Fatal("different bucket counts share a root")
	}
}

func TestPutGet(t *testing.T) {
	const n = 3000
	tr := buildTree(t, n, 256)
	if tr.Count() != n {
		t.Fatalf("Count = %d, want %d", tr.Count(), n)
	}
	for i := 0; i < n; i += 7 {
		k, v := kv(i)
		got, ok, err := tr.Get(k)
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get(%s): %q %v %v", k, got, ok, err)
		}
	}
	if _, ok, _ := tr.Get([]byte("absent")); ok {
		t.Fatal("found absent key")
	}
}

func TestUpsertAndSnapshots(t *testing.T) {
	tr := buildTree(t, 100, 64)
	k, _ := kv(10)
	tr2, err := tr.Put(k, []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != tr.Count() {
		t.Fatal("upsert changed count")
	}
	v, _, _ := tr2.Get(k)
	if string(v) != "new" {
		t.Fatal("upsert not visible")
	}
	v, _, _ = tr.Get(k)
	if string(v) == "new" {
		t.Fatal("old snapshot mutated")
	}
}

func TestHistoryIndependence(t *testing.T) {
	const n = 400
	perm := rand.New(rand.NewSource(7)).Perm(n)
	a := New(cas.NewMemory(), 128)
	b := New(cas.NewMemory(), 128)
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
		t.Fatal("insertion order changed MBT root")
	}
}

func TestDeleteRestoresRoot(t *testing.T) {
	tr := buildTree(t, 200, 64)
	before := tr.Root()
	cur := tr
	var err error
	for i := 200; i < 250; i++ {
		k, v := kv(i)
		if cur, err = cur.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 200; i < 250; i++ {
		k, _ := kv(i)
		if cur, err = cur.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if cur.Root() != before || cur.Count() != 200 {
		t.Fatal("insert+delete cycle did not restore the tree")
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := buildTree(t, 50, 64)
	got, err := tr.Delete([]byte("missing"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Root() != tr.Root() {
		t.Fatal("deleting absent key changed root")
	}
}

func TestStructuralSharing(t *testing.T) {
	store := cas.NewMemory()
	tr := New(store, 1024)
	var err error
	for i := 0; i < 5000; i++ {
		k, v := kv(i)
		if tr, err = tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	base := store.Stats().PhysicalBytes
	if _, err = tr.Put([]byte("one-more"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	grown := store.Stats().PhysicalBytes - base
	if grown > base/20 {
		t.Fatalf("one insert grew store by %d of %d; sharing broken", grown, base)
	}
}

func TestScan(t *testing.T) {
	const n = 500
	tr := buildTree(t, n, 64)
	seen := map[string]bool{}
	if err := tr.Scan(func(k, v []byte) bool {
		seen[string(k)] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("scan saw %d keys, want %d", len(seen), n)
	}
}

func TestLoad(t *testing.T) {
	store := cas.NewMemory()
	tr := New(store, 64)
	var err error
	for i := 0; i < 100; i++ {
		k, v := kv(i)
		if tr, err = tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	re := Load(store, tr.Root(), tr.Buckets(), tr.Count())
	k, v := kv(31)
	got, ok, err := re.Get(k)
	if err != nil || !ok || !bytes.Equal(got, v) {
		t.Fatal("reloaded tree cannot serve reads")
	}
}

func TestProofPresentAbsent(t *testing.T) {
	tr := buildTree(t, 800, 128)
	root := tr.Root()
	k, v := kv(99)
	p, err := tr.ProveGet(k)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Found || !bytes.Equal(p.Value, v) {
		t.Fatal("wrong proof payload")
	}
	if err := p.Verify(root); err != nil {
		t.Fatalf("presence proof: %v", err)
	}
	p2, err := tr.ProveGet([]byte("not-there"))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Found {
		t.Fatal("absent key found")
	}
	if err := p2.Verify(root); err != nil {
		t.Fatalf("absence proof: %v", err)
	}
}

func TestProofTamperDetection(t *testing.T) {
	tr := buildTree(t, 500, 128)
	k, _ := kv(123)
	p, err := tr.ProveGet(k)
	if err != nil {
		t.Fatal(err)
	}
	forged := p
	forged.Value = []byte("evil")
	if err := forged.Verify(tr.Root()); err == nil {
		t.Fatal("forged value verified")
	}
	forged = p
	forged.Found = false
	forged.Value = nil
	if err := forged.Verify(tr.Root()); err == nil {
		t.Fatal("forged absence verified")
	}
	forged = p
	forged.Bucket = append([]byte(nil), p.Bucket...)
	forged.Bucket[len(forged.Bucket)-1] ^= 1
	if err := forged.Verify(tr.Root()); err == nil {
		t.Fatal("tampered bucket verified")
	}
	forged = p
	forged.Siblings = append([]hashutil.Digest(nil), p.Siblings...)
	forged.Siblings[0][0] ^= 1
	if err := forged.Verify(tr.Root()); err == nil {
		t.Fatal("tampered sibling verified")
	}
	bad := tr.Root()
	bad[0] ^= 1
	if err := p.Verify(bad); err == nil {
		t.Fatal("proof verified against wrong root")
	}
}

func TestProofMalformed(t *testing.T) {
	tr := buildTree(t, 100, 64)
	k, _ := kv(5)
	p, _ := tr.ProveGet(k)
	p.Buckets = 63 // not a power of two
	if err := p.Verify(tr.Root()); err == nil {
		t.Fatal("bad bucket count accepted")
	}
	p2, _ := tr.ProveGet(k)
	p2.Siblings = p2.Siblings[:len(p2.Siblings)-1]
	if err := p2.Verify(tr.Root()); err == nil {
		t.Fatal("short sibling list accepted")
	}
}

// Property: MBT agrees with a map oracle.
func TestQuickOracle(t *testing.T) {
	type op struct {
		Key uint8
		Val uint16
		Del bool
	}
	f := func(ops []op) bool {
		tr := New(cas.NewMemory(), 32)
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: proofs for random keys verify and report correct membership.
func TestQuickProofs(t *testing.T) {
	tr := buildTree(t, 300, 64)
	root := tr.Root()
	f := func(k uint16) bool {
		key := []byte(fmt.Sprintf("key-%06d", int(k)))
		p, err := tr.ProveGet(key)
		if err != nil {
			return false
		}
		return p.Verify(root) == nil && p.Found == (int(k) < 300)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
