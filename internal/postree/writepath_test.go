package postree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
)

// encode is the node written from scratch, as the forgery tables build
// their bodies: no entry is kept from a stored node, so nothing is checked.
func encodeNode(n *node) []byte {
	_, body, _, _ := new(Tree).encode(n.Level, run{entries: n.Entries})
	return body
}

// model is the content a tree under test should hold.
type model map[string][]byte

func (m model) entries() []Entry {
	out := make([]Entry, 0, len(m))
	for k, v := range m {
		out = append(out, Entry{Key: []byte(k), Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	return out
}

func (m model) apply(edits []Edit) {
	for _, e := range edits {
		if e.Delete {
			delete(m, string(e.Key))
		} else {
			m[string(e.Key)] = e.Value
		}
	}
}

// storedBodies returns every node body reachable from the tree's root,
// by the address it is stored under.
func storedBodies(t *testing.T, tr *Tree) map[hashutil.Digest][]byte {
	t.Helper()
	out := make(map[hashutil.Digest][]byte)
	if err := tr.WalkNodes(func(level int, body []byte) bool {
		out[cas.Address(nodeDomain(level), body)] = body
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// intact reports whether a node body is, byte for byte, the node d
// addresses: an index node hashes whole to d; a leaf's table hashes up to
// d and every group checks against it.
func intact(body []byte, d hashutil.Digest) bool {
	if body[0] != 0 {
		return hashutil.Sum(hashutil.DomainPOSIndex, body) == d
	}
	l, err := posleaf.Parse(body)
	if err != nil {
		return false
	}
	got, err := l.Verify()
	return err == nil && got == d
}

// requireSameAsBulkLoad checks the incrementally built tree against a
// bulk load of the same content into a fresh store — a full re-encode:
// same root, and every stored body byte for byte the one written from
// scratch (a leaf's address covers its header only, so a group copied
// wrongly under the right digest would keep the root and show here).
func requireSameAsBulkLoad(t *testing.T, step string, tr *Tree, m model) {
	t.Helper()
	ref, err := BulkLoad(cas.NewMemory(), m.entries())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root() != ref.Root() || tr.Count() != ref.Count() {
		t.Fatalf("%s: root %s (%d entries), bulk load of the same content gives %s (%d)",
			step, tr.Root().Short(), tr.Count(), ref.Root().Short(), ref.Count())
	}
	got, want := storedBodies(t, tr), storedBodies(t, ref)
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes reachable, bulk load has %d", step, len(got), len(want))
	}
	for d, body := range got {
		if !bytes.Equal(body, want[d]) {
			t.Fatalf("%s: node %s is not the body a full re-encode writes", step, d.Short())
		}
		if !intact(body, d) {
			t.Fatalf("%s: node %s fails the store's re-hash", step, d.Short())
		}
	}
}

// boundaryValue finds a value that makes (key, value) a node boundary, or
// one that does not.
func boundaryValue(rng *rand.Rand, key []byte, boundary bool) []byte {
	for {
		v := make([]byte, 8+rng.Intn(60))
		rng.Read(v)
		if isBoundary(Entry{Key: key, Value: v}) == boundary {
			return v
		}
	}
}

// TestApplyEqualsBulkLoad is the property that lets encode copy what
// it does not change: over random edit sequences — overwrites, inserts,
// deletes, edits that create and remove boundary entries (so leaves split,
// merge and carry into their neighbours), several edits in one leaf and
// batches across many — every tree equals a bulk load of its content,
// stored bodies included, on the memory and the disk store.
func TestApplyEqualsBulkLoad(t *testing.T) {
	stores := map[string]func(t *testing.T) cas.Store{
		"memory": func(t *testing.T) cas.Store { return cas.NewMemory() },
		"disk": func(t *testing.T) cas.Store {
			d, err := cas.OpenDisk(t.TempDir(), cas.DiskOptions{CacheBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(22))
			m := model{}
			value := func() []byte {
				v := make([]byte, 8+rng.Intn(60))
				rng.Read(v)
				return v
			}
			for len(m) < 2500 {
				m[fmt.Sprintf("key-%06d", rng.Intn(100000))] = value()
			}
			tr, err := BulkLoad(open(t), m.entries())
			if err != nil {
				t.Fatal(err)
			}
			keys := func() []string {
				ks := make([]string, 0, len(m))
				for k := range m {
					ks = append(ks, k)
				}
				sort.Strings(ks)
				return ks
			}
			existing := func(ks []string) []byte { return []byte(ks[rng.Intn(len(ks))]) }
			fresh := func() []byte { return []byte(fmt.Sprintf("key-%06d-%d", rng.Intn(100000), rng.Intn(10))) }
			for step := 0; step < 250; step++ {
				ks := keys()
				var edits []Edit
				var kind string
				switch step % 8 {
				case 0:
					kind = "overwrite"
					edits = []Edit{{Key: existing(ks), Value: value()}}
				case 1:
					kind = "insert"
					edits = []Edit{{Key: fresh(), Value: value()}}
				case 2:
					kind = "delete"
					edits = []Edit{{Key: existing(ks), Delete: true}}
				case 3:
					kind = "create boundary"
					k := existing(ks)
					if step%16 == 3 {
						k = fresh()
					}
					edits = []Edit{{Key: k, Value: boundaryValue(rng, k, true)}}
				case 4:
					kind = "remove boundary"
					for _, k := range ks[rng.Intn(len(ks)):] {
						if isBoundary(Entry{Key: []byte(k), Value: m[k]}) {
							if step%16 == 4 {
								edits = []Edit{{Key: []byte(k), Delete: true}}
							} else {
								edits = []Edit{{Key: []byte(k), Value: boundaryValue(rng, []byte(k), false)}}
							}
							break
						}
					}
				case 5:
					kind = "several edits in one leaf"
					at := rng.Intn(len(ks) - 12)
					for i := 0; i < 12; i += 1 + rng.Intn(3) {
						k := []byte(ks[at+i])
						switch rng.Intn(3) {
						case 0:
							edits = append(edits, Edit{Key: k, Value: value()})
						case 1:
							edits = append(edits, Edit{Key: k, Delete: true})
						default:
							edits = append(edits, Edit{Key: append(k, '+'), Value: value()})
						}
					}
				case 6:
					kind = "carry across leaves"
					// Delete a boundary and what follows it, so the leaf's
					// remainder joins the next leaf's entries.
					for i := rng.Intn(len(ks) - 4); i < len(ks)-4; i++ {
						if isBoundary(Entry{Key: []byte(ks[i]), Value: m[ks[i]]}) {
							edits = []Edit{{Key: []byte(ks[i]), Delete: true}, {Key: []byte(ks[i+1]), Delete: true},
								{Key: []byte(ks[i+3]), Value: value()}}
							break
						}
					}
				case 7:
					kind = "batch across leaves"
					for i := 0; i < 40; i++ {
						switch rng.Intn(4) {
						case 0:
							edits = append(edits, Edit{Key: fresh(), Value: value()})
						case 1:
							edits = append(edits, Edit{Key: existing(ks), Delete: true})
						default:
							edits = append(edits, Edit{Key: existing(ks), Value: value()})
						}
					}
				}
				if tr, err = tr.Apply(edits); err != nil {
					t.Fatalf("step %d (%s): %v", step, kind, err)
				}
				m.apply(edits)
				requireSameAsBulkLoad(t, fmt.Sprintf("step %d (%s)", step, kind), tr, m)
			}
		})
	}
}

// TestLeafRewriteHashesOneGroup: an overwrite that keeps its leaf's entry
// count feeds SHA-256 the index nodes above it, the leaf's header and one
// group — not the leaf.
func TestLeafRewriteHashesOneGroup(t *testing.T) {
	store := cas.NewCounting(cas.NewMemory())
	entries := testEntries(4000, 5)
	for i := range entries {
		entries[i].Value = bytes.Repeat(entries[i].Value, 5) // 100-byte values
	}
	tr, err := BulkLoad(store, entries)
	if err != nil {
		t.Fatal(err)
	}
	written := func() (leaf, index int64) {
		per, _ := store.PerDomain()
		return per[hashutil.DomainPOSLeaf].Written, per[hashutil.DomainPOSIndex].Written
	}
	rng := rand.New(rand.NewSource(6))
	var leafWritten, leafHashed int64
	for i := 0; i < 200; i++ {
		e := entries[rng.Intn(len(entries))]
		if isBoundary(e) {
			continue // stays a boundary or not: keep leaf shapes fixed
		}
		v := boundaryValue(rng, e.Key, false)
		l0, x0 := written()
		h0 := mHashedBytes.Value()
		if tr, err = tr.Put(e.Key, v); err != nil {
			t.Fatal(err)
		}
		l1, x1 := written()
		leafWritten += l1 - l0
		leafHashed += int64(mHashedBytes.Value()-h0) - (x1 - x0)
	}
	t.Logf("leaf bytes written %d, hashed %d", leafWritten, leafHashed)
	if leafHashed*2 > leafWritten {
		t.Fatalf("overwrites hashed %d of the %d leaf bytes they wrote: unchanged groups are re-hashed", leafHashed, leafWritten)
	}
}

func inside(b, body []byte) bool {
	if len(b) == 0 {
		return true
	}
	p, lo := uintptr(unsafe.Pointer(&b[0])), uintptr(unsafe.Pointer(&body[0]))
	return p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(body))
}

// churn applies n rounds of overwrites, inserts and deletes.
func churn(t testing.TB, tr *Tree, entries []Entry, rng *rand.Rand, n int) *Tree {
	t.Helper()
	for i := 0; i < n; i++ {
		var edits []Edit
		for j := 0; j < 1+rng.Intn(4); j++ {
			e := entries[rng.Intn(len(entries))]
			switch rng.Intn(4) {
			case 0:
				edits = append(edits, Edit{Key: e.Key, Delete: true})
			case 1:
				edits = append(edits, Edit{Key: append(append([]byte(nil), e.Key...), byte('a'+rng.Intn(26))), Value: e.Value})
			default:
				v := make([]byte, 20)
				rng.Read(v)
				edits = append(edits, Edit{Key: e.Key, Value: v})
			}
		}
		next, err := tr.Apply(edits)
		if err != nil {
			t.Fatal(err)
		}
		tr = next
	}
	return tr
}

// TestNodeCacheEntriesPointIntoOwnBody: a node built by an apply has
// entries merged from the nodes it replaces, from edits and from freshly
// made routing entries; the node the cache admits must alias none of
// them, or every cached node pins the bodies of its ancestors.
func TestNodeCacheEntriesPointIntoOwnBody(t *testing.T) {
	entries := testEntries(20000, 31)
	tr, err := BulkLoad(cas.NewMemory(), entries)
	if err != nil {
		t.Fatal(err)
	}
	tr = churn(t, tr, entries, rand.New(rand.NewSource(32)), 300)
	c := tr.cache
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.m) < 20 {
		t.Fatalf("only %d nodes cached after a bulk load and 300 applies: nothing is admitted at write", len(c.m))
	}
	var bytesHeld int64
	for d, e := range c.m {
		if e.n.Level == 0 {
			t.Fatalf("leaf %s is cached", d.Short())
		}
		if hashutil.Sum(hashutil.DomainPOSIndex, e.body) != d {
			t.Fatalf("node %s is cached with another node's body", d.Short())
		}
		for i, en := range e.n.Entries {
			if !inside(en.Key, e.body) || !inside(en.Value, e.body) {
				t.Fatalf("entry %d of cached node %s points outside the node's own body", i, d.Short())
			}
		}
		if cap(e.n.Entries) != len(e.n.Entries) {
			t.Fatalf("cached node %s holds %d entry slots for %d entries", d.Short(), cap(e.n.Entries), len(e.n.Entries))
		}
		bytesHeld += e.size()
	}
	if bytesHeld != c.live+c.retired {
		t.Fatalf("cache accounts %d bytes, its entries hold %d", c.live+c.retired, bytesHeld)
	}
}

// collectingStore is a memory store that forgets what a tree no longer
// reaches, so a test can run tens of thousands of copy-on-write commits
// without holding every superseded node.
type collectingStore struct {
	*cas.Memory
	put []hashutil.Digest
}

func (s *collectingStore) Put(domain byte, data []byte) hashutil.Digest {
	d := s.Memory.Put(domain, data)
	s.put = append(s.put, d)
	return d
}

func (s *collectingStore) PutOwned(domain byte, data []byte) hashutil.Digest {
	d := s.Memory.PutOwned(domain, data)
	s.put = append(s.put, d)
	return d
}

func (s *collectingStore) collect(t *testing.T, tr *Tree) {
	live := storedBodies(t, tr)
	for _, d := range s.put {
		if _, ok := live[d]; !ok {
			s.Memory.Delete(d)
		}
	}
	s.put = s.put[:0]
	for d := range live {
		s.put = append(s.put, d)
	}
}

// TestCacheBytesStayFlatUnderCommits: 50k single-cell commits. What the
// cache holds is the interior of the head plus a bounded stretch of
// history, so its accounted bytes settle and stay put — under the
// constants, whatever the number of commits.
func TestCacheBytesStayFlatUnderCommits(t *testing.T) {
	store := &collectingStore{Memory: cas.NewMemory()}
	entries := testEntries(20000, 41)
	tr, err := BulkLoad(store, entries)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	held := func() int64 {
		tr.cache.mu.RLock()
		defer tr.cache.mu.RUnlock()
		c := tr.cache
		if c.live > liveCacheBytes || c.retired > retiredCacheBytes {
			t.Fatalf("cache holds %d live and %d retired bytes, over its bounds of %d and %d",
				c.live, c.retired, liveCacheBytes, retiredCacheBytes)
		}
		if len(c.queue) > len(c.m) || cap(c.queue) > 4*len(c.m)+64 {
			t.Fatalf("retired queue of %d (capacity %d) for %d cached nodes", len(c.queue), cap(c.queue), len(c.m))
		}
		return c.live + c.retired
	}
	var settled int64
	for i := 1; i <= 50000; i++ {
		v := make([]byte, 20)
		rng.Read(v)
		if tr, err = tr.Put(entries[rng.Intn(len(entries))].Key, v); err != nil {
			t.Fatal(err)
		}
		if i%5000 == 0 {
			store.collect(t, tr)
			switch h := held(); {
			case i == 10000:
				settled = h
			case i > 10000 && (h > settled+settled/20 || h < settled-settled/20):
				t.Fatalf("cache holds %d bytes after %d commits, %d after 10000: not flat", h, i, settled)
			}
		}
	}
	if hits, miss := mNodeCacheHits.Value(), mNodeCacheMiss.Value(); hits == 0 || miss == 0 {
		t.Fatalf("hits %d misses %d", hits, miss)
	}
}

// TestRetiredHistoryServedFromStore: once the nodes of an old root have
// left the retired generation they are ordinary stored nodes again; reads
// and proofs at that root still work, from the store, and verify.
func TestRetiredHistoryServedFromStore(t *testing.T) {
	store := cas.NewCounting(cas.NewMemory())
	entries := testEntries(20000, 51)
	tr, err := BulkLoad(store, entries)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	old := churn(t, tr, entries, rng, 3)
	oldWant := make(map[string][]byte)
	for _, e := range entries[:50] {
		if v, ok, err := old.Get(e.Key); err != nil {
			t.Fatal(err)
		} else if ok {
			oldWant[string(e.Key)] = append([]byte(nil), v...)
		}
	}
	cached := func(d hashutil.Digest) (cachedNode, bool) {
		tr.cache.mu.RLock()
		defer tr.cache.mu.RUnlock()
		e, ok := tr.cache.m[d]
		return e, ok
	}
	tr = old
	for i := 0; ; i++ {
		tr = churn(t, tr, entries, rng, 100)
		if e, ok := cached(old.Root()); !ok {
			break
		} else if !e.retired {
			t.Fatal("a superseded root is still counted live")
		}
		if i > 100 {
			t.Fatal("the old root never left the retired generation")
		}
	}
	_, gets0 := store.Ops()
	at, err := tr.At(old.Root())
	if err != nil {
		t.Fatal(err)
	}
	if at.Count() != old.Count() {
		t.Fatalf("historical tree has %d entries, want %d", at.Count(), old.Count())
	}
	var keys [][]byte
	for _, e := range entries[:50] {
		keys = append(keys, e.Key)
		v, ok, err := at.Get(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if want, had := oldWant[string(e.Key)]; ok != had || !bytes.Equal(v, want) {
			t.Fatalf("historical read of %s differs from what the tree held then", e.Key)
		}
		p, err := at.ProveGet(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(old.Root()); err != nil {
			t.Fatalf("historical point proof: %v", err)
		}
	}
	bp, err := at.ProveGetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Verify(old.Root()); err != nil {
		t.Fatalf("historical batch proof: %v", err)
	}
	if _, gets1 := store.Ops(); gets1 == gets0 {
		t.Fatal("no store reads: the old root's nodes were not served from the store")
	}
	// What the historical reads fetched must not have displaced the head.
	if _, ok := cached(tr.Root()); !ok {
		t.Fatal("the head's root is not cached")
	}
}

// TestNodeCacheRetireRace runs readers and proof builders on older
// snapshots while applies admit and retire nodes in the cache they share.
func TestNodeCacheRetireRace(t *testing.T) {
	entries := testEntries(5000, 61)
	tr, err := BulkLoad(cas.NewMemory(), entries)
	if err != nil {
		t.Fatal(err)
	}
	var head atomic.Pointer[Tree]
	head.Store(tr)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := head.Load() // falls behind the head while it is read
				for i := 0; i < 20; i++ {
					k := entries[rng.Intn(len(entries))].Key
					p, err := snap.ProveGet(k)
					if err != nil {
						t.Error(err)
						return
					}
					if err := p.Verify(snap.Root()); err != nil {
						t.Errorf("point proof on a snapshot behind the head: %v", err)
						return
					}
					if v, ok, err := snap.Get(k); err != nil || ok != p.Found[0] || !bytes.Equal(v, p.Values[0]) {
						t.Errorf("read on a snapshot behind the head disagrees with its proof (%v)", err)
						return
					}
				}
				lo := rng.Intn(len(entries) - 40)
				bp, err := snap.ProveGetBatch([][]byte{entries[lo].Key, entries[lo+20].Key, entries[lo+39].Key})
				if err == nil {
					err = bp.Verify(snap.Root())
				}
				if err != nil {
					t.Errorf("batch proof on a snapshot behind the head: %v", err)
					return
				}
				rp, err := snap.ProveScan(entries[lo].Key, entries[lo+39].Key)
				if err == nil {
					err = rp.Verify(snap.Root())
				}
				if err != nil {
					t.Errorf("range proof on a snapshot behind the head: %v", err)
					return
				}
			}
		}(int64(62 + r))
	}
	rng := rand.New(rand.NewSource(69))
	for i := 0; i < 150; i++ {
		tr = churn(t, tr, entries, rng, 1)
		head.Store(tr)
	}
	close(done)
	wg.Wait()
}
