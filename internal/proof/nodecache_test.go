package proof_test

import (
	"errors"
	"fmt"
	"math/rand"
	"spitz/internal/proof"
	"sync"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/postree"
)

// cacheLedger is a one-block ledger with enough rows for two index
// levels, so point proofs have something to elide.
func cacheLedger(t testing.TB, rows int) *ledger.Ledger {
	t.Helper()
	l := ledger.New(cas.NewMemory())
	cells := make([]cellstore.Cell, rows)
	for i := range cells {
		cells[i] = cellstore.Cell{Table: "t", Column: "c", PK: cachePK(i), Version: 1,
			Value: []byte(fmt.Sprintf("value-%06d@1", i))}
	}
	if _, err := l.Commit(1, nil, cells); err != nil {
		t.Fatal(err)
	}
	return l
}

func cachePK(i int) []byte { return []byte(fmt.Sprintf("pk%06d", i)) }

// hintedReader is the client's verified point read in miniature — hint,
// prove, elide, sync the digest, verify against the pinned path — with
// the ledger called directly in place of the wire.
type hintedReader struct {
	l      *ledger.Ledger
	v      *proof.Verifier
	mu     sync.Mutex // serializes digest refreshes, as shardLink's does
	tamper func(p *ledger.Proof)
	live   [][]proof.Cell // what the last readBatch's Check read off its proof
}

func (r *hintedReader) read(pk []byte) ([]byte, error) {
	path := r.v.PinFor([]ledger.BatchQuery{{Table: "t", Column: "c", PK: pk}}).Path
	_, _, p, d, err := r.l.ProveGetHead("t", "c", pk)
	if err != nil {
		return nil, err
	}
	p = ledger.Cut(p, r.l.Held(path.Have()))
	if r.tamper != nil {
		r.tamper(&p)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch cur := r.v.Digest(); {
	case cur == (ledger.Digest{}):
		if err := r.v.Advance(d, mtree.ConsistencyProof{}); err != nil {
			return nil, err
		}
	case cur != d:
		head := r.l.Digest()
		toHead, err := r.l.ConsistencyProof(cur.Height, head.Height)
		if err != nil {
			return nil, err
		}
		prefix, err := r.l.ConsistencyProof(d.Height, head.Height)
		if err != nil {
			return nil, err
		}
		if err := r.v.Advance(head, toHead); err != nil {
			return nil, err
		}
		if err := prefix.Verify(d.Root, head.Root); err != nil {
			return nil, fmt.Errorf("%w: %v", proof.ErrTampered, err)
		}
	}
	live, err := r.v.Check(&p, d, []ledger.BatchQuery{{Table: "t", Column: "c", PK: pk}}, 1, &proof.Pin{Path: path})
	if err != nil {
		return nil, err
	}
	if len(live[0]) != 1 {
		return nil, fmt.Errorf("cells: %v %v", live, err)
	}
	return live[0][0].Value, nil
}

func TestWarmVerifierElidesIndexPath(t *testing.T) {
	l := cacheLedger(t, 40000)
	r := &hintedReader{l: l, v: new(proof.Verifier)} // the zero Verifier is usable
	if have := r.v.PinFor([]ledger.BatchQuery{{Table: "t", Column: "c", PK: cachePK(7)}}).Path.Have(); have != nil {
		t.Fatalf("a cold verifier hints %d nodes", len(have))
	}
	if v, err := r.read(cachePK(7)); err != nil || string(v) != "value-000007@1" {
		t.Fatalf("cold read: %q %v", v, err)
	}
	cold := r.v.ProofStats()
	height := int(cold.NodesShipped)
	if height < 3 || cold.NodesElided != 0 || cold.CacheEntries != height-1 {
		t.Fatalf("cold read stats: %+v", cold)
	}
	if v, err := r.read(cachePK(7)); err != nil || string(v) != "value-000007@1" {
		t.Fatalf("warm read: %q %v", v, err)
	}
	warm := r.v.ProofStats()
	if warm.NodesElided != int64(height-1) || warm.NodesShipped != int64(height)+1 {
		t.Fatalf("warm read shipped %d / elided %d nodes, want 1 / %d",
			warm.NodesShipped-cold.NodesShipped, warm.NodesElided, height-1)
	}
	if warmBytes := warm.ProofBytes - cold.ProofBytes; warmBytes >= cold.ProofBytes*3/4 {
		t.Fatalf("warm proof is %d bytes, cold one %d", warmBytes, cold.ProofBytes)
	}
	if warm.CacheEntries != cold.CacheEntries || warm.CacheBytes != cold.CacheBytes {
		t.Fatalf("a fully elided read changed the cache: %+v -> %+v", cold, warm)
	}
	// A key at the far end of the tree shares only the root.
	if _, err := r.read(cachePK(39999)); err != nil {
		t.Fatal(err)
	}
	far := r.v.ProofStats()
	if got := far.NodesElided - warm.NodesElided; got != 1 {
		t.Fatalf("far key: %d nodes elided, want the root only", got)
	}
	if far.CacheEntries != warm.CacheEntries+height-2 {
		t.Fatalf("far key cached %d new nodes, want %d", far.CacheEntries-warm.CacheEntries, height-2)
	}
	if verified, _ := r.v.Stats(); verified != 3 {
		t.Fatalf("verified = %d", verified)
	}
	// A path-less check of a full proof still works and caches nothing.
	_, _, p, d, err := l.ProveGetHead("t", "c", cachePK(20000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.v.Check(&p, d, []ledger.BatchQuery{{Table: "t", Column: "c", PK: cachePK(20000)}}, 1, &proof.Pin{}); err != nil {
		t.Fatal(err)
	}
	if st := r.v.ProofStats(); st.CacheEntries != far.CacheEntries {
		t.Fatal("a path-less check admitted nodes to the cache")
	}
}

// TestRejectedProofLeavesCacheUnchanged is the cache-poisoning test: a
// response that fails verification — even one whose upper nodes are
// genuine and were hashed before the bad byte was reached — changes
// nothing: not the entries, not their order, not the hint root, not the
// traffic counters.
func TestRejectedProofLeavesCacheUnchanged(t *testing.T) {
	l := cacheLedger(t, 40000)
	r := &hintedReader{l: l, v: proof.NewVerifier()}
	if _, err := r.read(cachePK(7)); err != nil {
		t.Fatal(err)
	}
	before := r.v.ProofStats()
	root, order, bytes := proof.CacheState(r.v)

	tampers := map[string]func(p *ledger.Proof){
		"leaf byte": func(p *ledger.Proof) {
			n := p.Point.Nodes
			leaf := append([]byte(nil), n[len(n)-1]...)
			leaf[len(leaf)/2] ^= 1
			p.Point.Nodes = append(append([][]byte(nil), n[:len(n)-1]...), leaf)
		},
		"found flag": func(p *ledger.Proof) { p.Point.Found = []bool{!p.Point.Found[0]} },
		"header":     func(p *ledger.Proof) { p.Header.CellCount++ },
		"no leaf": func(p *ledger.Proof) {
			p.Point.Nodes = p.Point.Nodes[:len(p.Point.Nodes)-1]
		},
		"emptied leaf": func(p *ledger.Proof) {
			n := append([][]byte(nil), p.Point.Nodes...)
			n[len(n)-1] = nil
			p.Point.Nodes = n
		},
	}
	// pk 39999 shares only the root with the warm path, so its proof ships
	// genuine, never-seen index nodes above whatever is corrupted.
	for name, tamper := range tampers {
		r.tamper = tamper
		for _, pk := range [][]byte{cachePK(7), cachePK(39999)} {
			// PinFor refreshes recency of the held nodes; take the
			// reference state after the same touch an honest read makes.
			r.v.PinFor([]ledger.BatchQuery{{Table: "t", Column: "c", PK: pk}})
			_, order, _ = proof.CacheState(r.v)
			if _, err := r.read(pk); !errors.Is(err, proof.ErrTampered) {
				t.Fatalf("%s on %s: err = %v", name, pk, err)
			}
			gotRoot, gotOrder, gotBytes := proof.CacheState(r.v)
			if gotRoot != root || gotBytes != bytes || fmt.Sprint(gotOrder) != fmt.Sprint(order) {
				t.Fatalf("%s on %s: rejected proof changed the cache (%d -> %d entries)",
					name, pk, len(order), len(gotOrder))
			}
			if st := r.v.ProofStats(); st != before {
				t.Fatalf("%s on %s: rejected proof moved the stats: %+v -> %+v", name, pk, before, st)
			}
		}
	}
	r.tamper = nil
	if v, err := r.read(cachePK(39999)); err != nil || string(v) != "value-039999@1" {
		t.Fatalf("honest read after the rejected ones: %q %v", v, err)
	}
	// A value the proof claims is never read: the answer is the one the
	// walk reaches.
	r.tamper = func(p *ledger.Proof) { p.Point.Values = [][]byte{[]byte("forged")} }
	if v, err := r.read(cachePK(39999)); err != nil || string(v) != "value-039999@1" {
		t.Fatalf("a claimed value was read: %q %v", v, err)
	}
	r.tamper = nil

	// The same after a commit that rewrote pk 7's whole path: the honest
	// response now supersedes every pinned node on it, and the walk has
	// passed them by before it reaches the bad byte — but nothing is
	// dropped for a proof that did not verify.
	commitRow(t, l, 7, 2)
	before = r.v.ProofStats()
	root, _, bytes = proof.CacheState(r.v)
	for name, tamper := range tampers {
		r.tamper = tamper
		r.v.PinFor([]ledger.BatchQuery{{Table: "t", Column: "c", PK: cachePK(7)}})
		_, order, _ = proof.CacheState(r.v)
		if _, err := r.read(cachePK(7)); !errors.Is(err, proof.ErrTampered) {
			t.Fatalf("%s after a commit: err = %v", name, err)
		}
		gotRoot, gotOrder, gotBytes := proof.CacheState(r.v)
		if gotRoot != root || gotBytes != bytes || fmt.Sprint(gotOrder) != fmt.Sprint(order) {
			t.Fatalf("%s after a commit: rejected proof changed the cache (%d -> %d entries)",
				name, len(order), len(gotOrder))
		}
		if st := r.v.ProofStats(); st != before {
			t.Fatalf("%s after a commit: rejected proof moved the stats: %+v -> %+v", name, before, st)
		}
	}
	r.tamper = nil
	if v, err := r.read(cachePK(7)); err != nil || string(v) != "value-000007@2" {
		t.Fatalf("honest read after the commit: %q %v", v, err)
	}
}

// commitRow commits a new version of one row.
func commitRow(t *testing.T, l *ledger.Ledger, pk int, ver uint64) {
	t.Helper()
	cell := cellstore.Cell{Table: "t", Column: "c", PK: cachePK(pk), Version: ver,
		Value: []byte(fmt.Sprintf("value-%06d@%d", pk, ver))}
	if _, err := l.Commit(ver, nil, []cellstore.Cell{cell}); err != nil {
		t.Fatal(err)
	}
}

// TestSupersededNodesAreDropped: when a proof ships a node where the
// verifier held a different one, the held node is no longer part of the
// tree under the new root — no hint walk reaches it — so it leaves the
// cache with that proof instead of aging out of the LRU. The cache of a
// client re-reading a key under write churn stays one path large.
func TestSupersededNodesAreDropped(t *testing.T) {
	l := cacheLedger(t, 40000)
	r := &hintedReader{l: l, v: proof.NewVerifier()}
	if _, err := r.read(cachePK(7)); err != nil {
		t.Fatal(err)
	}
	// path is the number of index nodes on the key's search path at the
	// head: a rewritten routing entry is a node boundary one time in 32, so
	// now and then a commit makes the path a node longer or shorter.
	path := func() int {
		t.Helper()
		_, _, p, _, err := l.ProveGetHead("t", "c", cachePK(7))
		if err != nil {
			t.Fatal(err)
		}
		return len(p.Point.Nodes) - 1
	}
	_, held, _ := proof.CacheState(r.v)
	for ver := uint64(2); ver < 12; ver++ {
		// A write to the key itself replaces its whole path...
		commitRow(t, l, 7, ver)
		if v, err := r.read(cachePK(7)); err != nil || string(v) != fmt.Sprintf("value-000007@%d", ver) {
			t.Fatalf("read at version %d: %q %v", ver, v, err)
		}
		st := r.v.ProofStats()
		if st.CacheEntries != path() {
			t.Fatalf("version %d: cache holds %d nodes, want the one path (%d)", ver, st.CacheEntries, path())
		}
		_, now, _ := proof.CacheState(r.v)
		for _, d := range now {
			for _, old := range held {
				if d == old {
					t.Fatalf("version %d: superseded node %s is still cached", ver, d.Short())
				}
			}
		}
		held = now
		// ...and a re-read is fully elided from what replaced it.
		if _, err := r.read(cachePK(7)); err != nil {
			t.Fatal(err)
		}
		if again := r.v.ProofStats(); again.NodesElided-st.NodesElided != int64(path()) || again.CacheEntries != path() {
			t.Fatalf("version %d: re-read elided %d nodes, cache %d", ver, again.NodesElided-st.NodesElided, again.CacheEntries)
		}
	}
	// A write under another child of the root supersedes the root only.
	for i, far := range []int{39999, 20000} {
		before := r.v.ProofStats()
		commitRow(t, l, far, 100+uint64(i))
		if _, err := r.read(cachePK(7)); err != nil {
			t.Fatal(err)
		}
		st := r.v.ProofStats()
		if st.CacheEntries != path() {
			t.Fatalf("after a write to row %d the cache holds %d nodes, want %d", far, st.CacheEntries, path())
		}
		if shipped := st.NodesShipped - before.NodesShipped; shipped < 2 || shipped > int64(path()) {
			t.Fatalf("after a write to row %d the read shipped %d nodes", far, shipped)
		}
	}
}

func TestNodeCacheEvictsLeastRecentlyUsed(t *testing.T) {
	l := cacheLedger(t, 40000)
	r := &hintedReader{l: l, v: proof.NewVerifier()}
	if _, err := r.read(cachePK(0)); err != nil {
		t.Fatal(err)
	}
	one := r.v.ProofStats()
	// Room for the first path and little more.
	proof.SetCacheLimit(r.v, one.CacheBytes*2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		pk := rng.Intn(40000)
		if v, err := r.read(cachePK(pk)); err != nil || string(v) != fmt.Sprintf("value-%06d@1", pk) {
			t.Fatalf("read %d under eviction: %q %v", pk, v, err)
		}
		if st := r.v.ProofStats(); st.CacheBytes > proof.CacheLimit(r.v) || st.CacheEntries == 0 {
			t.Fatalf("cache holds %d bytes in %d entries, cap %d", st.CacheBytes, st.CacheEntries, proof.CacheLimit(r.v))
		}
	}
	st := r.v.ProofStats()
	if st.NodesElided == one.NodesElided {
		t.Fatal("nothing was ever elided under a small cache")
	}
	// The root is touched by every read, so it is never the eviction
	// victim while anything below it is cached.
	if r.v.PinFor([]ledger.BatchQuery{{Table: "t", Column: "c", PK: cachePK(1)}}).Path.Len() == 0 {
		t.Fatal("the root was evicted ahead of its descendants")
	}
	// A node larger than the whole cache is not admitted (and evicts
	// nothing to make room it could never fill).
	proof.SetCacheLimit(r.v, 1)
	if _, err := r.read(cachePK(12345)); err != nil {
		t.Fatal(err)
	}
	if st := r.v.ProofStats(); st.CacheBytes > 1 {
		t.Fatalf("cap 1: cache holds %d bytes", st.CacheBytes)
	}
}

// TestConcurrentHintedReadsUnderChurn races readers sharing one verifier
// — and one node cache small enough to evict constantly — against a
// writer that keeps committing: a hint's nodes are pinned, so an eviction
// or a commit between request and response never fails an honest read.
func TestConcurrentHintedReadsUnderChurn(t *testing.T) {
	const rows = 20000
	l := cacheLedger(t, rows)
	r := &hintedReader{l: l, v: proof.NewVerifier()}
	if _, err := r.read(cachePK(0)); err != nil {
		t.Fatal(err)
	}
	proof.SetCacheLimit(r.v, r.v.ProofStats().CacheBytes*3/2)

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(11))
		for ver := uint64(2); ; ver++ {
			select {
			case <-stop:
				return
			default:
			}
			cells := make([]cellstore.Cell, 8)
			for i := range cells {
				pk := rng.Intn(rows)
				cells[i] = cellstore.Cell{Table: "t", Column: "c", PK: cachePK(pk), Version: ver,
					Value: []byte(fmt.Sprintf("value-%06d@%d", pk, ver))}
			}
			if _, err := l.Commit(ver, nil, cells); err != nil {
				t.Errorf("commit %d: %v", ver, err)
				return
			}
		}
	}()

	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 300; i++ {
				pk := rng.Intn(rows)
				v, err := r.read(cachePK(pk))
				if err != nil {
					t.Errorf("reader %d: read %d: %v", g, pk, err)
					return
				}
				var gotPK, ver int
				if _, err := fmt.Sscanf(string(v), "value-%06d@%d", &gotPK, &ver); err != nil || gotPK != pk {
					t.Errorf("reader %d: read %d returned %q", g, pk, v)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	st := r.v.ProofStats()
	if st.NodesElided == 0 || st.CacheBytes > proof.CacheLimit(r.v) {
		t.Fatalf("after churn: %+v (cap %d)", st, proof.CacheLimit(r.v))
	}
}

// readBatch is an audit flush (or a verified query) in miniature: pin
// what is held where the queries will walk, prove the batch at the head,
// cut the proof down as the wire boundary does, and verify against the
// pinned set.
func (r *hintedReader) readBatch(queries []ledger.BatchQuery, tamper func(p *ledger.Proof)) (ledger.Proof, error) {
	path := r.v.PinFor(queries)
	d := r.l.Digest()
	res, err := r.l.ProveBatch(r.v.Digest(), d, queries)
	if err != nil {
		return ledger.Proof{}, err
	}
	p := ledger.Cut(res.Proof, r.l.Held(path.Have()))
	if tamper != nil {
		tamper(&p)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.v.Advance(res.Digest, res.ConsTrusted); err != nil {
		return ledger.Proof{}, err
	}
	r.live, err = r.v.Check(&p, res.Digest, queries, len(queries), path)
	return p, err
}

func batchQueries() []ledger.BatchQuery {
	return []ledger.BatchQuery{
		{Table: "t", Column: "c", PK: cachePK(7)},
		{Table: "t", Column: "c", PK: cachePK(20000), PKHi: cachePK(20120), Range: true},
		{Table: "t", Column: "c", PK: cachePK(39999)},
		{Table: "t", Column: "c", PK: []byte("pk020000!")},
		{Table: "t", Column: "c", PK: cachePK(31000), PKHi: cachePK(31003), Range: true},
	}
}

// TestWarmVerifierElidesBatchAndRangeProofs: the batch and range shapes
// go through the verifier the way point proofs do — hinted, counted,
// admitted — and a second flush of the same reads is sent leaves only.
func TestWarmVerifierElidesBatchAndRangeProofs(t *testing.T) {
	l := cacheLedger(t, 40000)
	r := &hintedReader{l: l, v: proof.NewVerifier()}
	qs := batchQueries()
	if r.v.PinFor(qs).Len() != 0 {
		t.Fatal("a cold verifier pins nodes")
	}
	p, err := r.readBatch(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ranges) != 2 || len(r.live[1]) != 120 || len(r.live[4]) != 3 {
		t.Fatalf("rows read off the verified leaves: %d ranges, %d and %d rows", len(p.Ranges), len(r.live[1]), len(r.live[4]))
	}
	cold := r.v.ProofStats()
	if cold.NodesShipped == 0 || cold.NodesElided != 0 || cold.ProofBytes == 0 || cold.CacheEntries == 0 {
		t.Fatalf("a batch proof is invisible to ProofStats: %+v", cold)
	}
	if verified, _ := r.v.Stats(); verified != int64(len(qs)) {
		t.Fatalf("verified = %d, want %d", verified, len(qs))
	}
	index := 0 // index-node bodies the cold proof shipped, repeats across sub-proofs included
	count := func(nodes [][]byte) {
		for _, body := range nodes {
			if body[0] != 0 {
				index++
			}
		}
	}
	full, err := l.ProveBatch(r.v.Digest(), l.Digest(), qs)
	if err != nil {
		t.Fatal(err)
	}
	count(full.Proof.Point.Nodes)
	for i := range full.Proof.Ranges {
		count(full.Proof.Ranges[i].Nodes)
	}

	warmProof, err := r.readBatch(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := r.v.ProofStats()
	for _, nodes := range [][][]byte{warmProof.Point.Nodes, warmProof.Ranges[0].Nodes, warmProof.Ranges[1].Nodes} {
		for _, body := range nodes {
			if body[0] != 0 {
				t.Fatal("an index node was shipped to a verifier that holds it")
			}
		}
	}
	if warm.NodesElided != int64(cold.CacheEntries) {
		t.Fatalf("warm flush resolved %d nodes from the cache, which holds %d", warm.NodesElided, cold.CacheEntries)
	}
	if shipped := warm.NodesShipped - cold.NodesShipped; shipped != cold.NodesShipped-int64(index) {
		t.Fatalf("warm flush shipped %d nodes, want the cold flush's %d minus its %d index nodes", shipped, cold.NodesShipped, index)
	}
	if warmBytes := warm.ProofBytes - cold.ProofBytes; warmBytes >= cold.ProofBytes*3/4 {
		t.Fatalf("warm proof is %d bytes, cold one %d", warmBytes, cold.ProofBytes)
	}
	if warm.CacheEntries != cold.CacheEntries || warm.CacheBytes != cold.CacheBytes {
		t.Fatalf("a fully elided flush changed the cache: %+v -> %+v", cold, warm)
	}
	// The point path reads the same cache.
	if _, err := r.read(cachePK(20050)); err != nil {
		t.Fatal(err)
	}
	if st := r.v.ProofStats(); st.NodesShipped-warm.NodesShipped != 1 {
		t.Fatalf("a point read inside the warmed range shipped %d nodes, want the leaf", st.NodesShipped-warm.NodesShipped)
	}

	// One commit under the first range: what it replaced is shipped again
	// and dropped from the cache, nothing else.
	commitRow(t, l, 20060, 2)
	before := r.v.ProofStats()
	if p, err = r.readBatch(qs, nil); err != nil {
		t.Fatal(err)
	}
	after := r.v.ProofStats()
	if after.CacheEntries != before.CacheEntries {
		t.Fatalf("cache went from %d to %d nodes over one commit", before.CacheEntries, after.CacheEntries)
	}
	found := false
	for _, c := range r.live[1] {
		found = found || string(c.Value) == "value-020060@2"
	}
	if !found {
		t.Fatal("the range read off the leaves is stale")
	}
}

// TestRejectedBatchLeavesVerifierUnchanged: as for point proofs, a batch
// that fails anywhere — after genuine new nodes have been hashed, after
// pinned ones have been passed by — moves nothing.
func TestRejectedBatchLeavesVerifierUnchanged(t *testing.T) {
	l := cacheLedger(t, 40000)
	r := &hintedReader{l: l, v: proof.NewVerifier()}
	qs := batchQueries()
	if _, err := r.readBatch(qs[:2], nil); err != nil {
		t.Fatal(err)
	}
	commitRow(t, l, 20060, 2) // the next proof supersedes pinned nodes and ships new ones
	if _, err := r.read(cachePK(3)); err != nil {
		t.Fatal(err) // moves the digest honestly, so only the proof is at stake below
	}
	before := r.v.ProofStats()
	verified, deferred := r.v.Stats()
	digest := r.v.Digest()
	lastLeaf := func(nodes [][]byte) [][]byte {
		out := append([][]byte(nil), nodes...)
		leaf := append([]byte(nil), out[len(out)-1]...)
		leaf[len(leaf)-1] ^= 1
		out[len(out)-1] = leaf
		return out
	}
	tampers := map[string]func(p *ledger.Proof){
		"point leaf byte": func(p *ledger.Proof) {
			pts := *p.Point
			pts.Nodes = lastLeaf(pts.Nodes)
			p.Point = &pts
		},
		"last range's leaf byte": func(p *ledger.Proof) {
			p.Ranges = append([]postree.RangeProof(nil), p.Ranges...)
			p.Ranges[len(p.Ranges)-1].Nodes = lastLeaf(p.Ranges[len(p.Ranges)-1].Nodes)
		},
		"a found flag": func(p *ledger.Proof) {
			pts := *p.Point
			pts.Found = append([]bool(nil), pts.Found...)
			pts.Found[0] = !pts.Found[0]
			p.Point = &pts
		},
		"narrower range": func(p *ledger.Proof) {
			p.Ranges = append([]postree.RangeProof(nil), p.Ranges...)
			p.Ranges[0].End = cellstore.CellPrefix("t", "c", cachePK(20050))
		},
		"an extra node": func(p *ledger.Proof) {
			pts := *p.Point
			pts.Nodes = append(append([][]byte(nil), pts.Nodes...), p.Ranges[0].Nodes[len(p.Ranges[0].Nodes)-1])
			p.Point = &pts
		},
		"header": func(p *ledger.Proof) { p.Header.CellCount++ },
	}
	for name, tamper := range tampers {
		r.v.PinFor(qs) // the recency touch an honest flush makes too
		root, order, bytes := proof.CacheState(r.v)
		if _, err := r.readBatch(qs, tamper); !errors.Is(err, proof.ErrTampered) {
			t.Fatalf("%s: err = %v", name, err)
		}
		gotRoot, gotOrder, gotBytes := proof.CacheState(r.v)
		if gotRoot != root || gotBytes != bytes || fmt.Sprint(gotOrder) != fmt.Sprint(order) {
			t.Fatalf("%s: rejected batch changed the cache (%d -> %d entries)", name, len(order), len(gotOrder))
		}
		if st := r.v.ProofStats(); st != before {
			t.Fatalf("%s: rejected batch moved the stats: %+v -> %+v", name, before, st)
		}
		if v, d := r.v.Stats(); v != verified || d != deferred || r.v.Digest() != digest {
			t.Fatalf("%s: rejected batch moved the verifier", name)
		}
	}
	if _, err := r.readBatch(qs, nil); err != nil {
		t.Fatalf("honest flush after the rejected ones: %v", err)
	}
	// A value the proof claims is never read: the answer is the one the
	// walk reaches.
	if _, err := r.readBatch(qs, func(p *ledger.Proof) {
		pts := *p.Point
		pts.Values = [][]byte{[]byte("forged"), nil, nil}
		p.Point = &pts
	}); err != nil || string(r.live[0][0].Value) != "value-000007@1" {
		t.Fatalf("a claimed value was read: %v %v", r.live, err)
	}
}

// staleBelowRoot leaves r's verifier holding the current root and, below
// it on pk 7's path, a node one commit old: it reads pk 7, a neighbouring
// row is committed (pk 7's path is rewritten), and a read at the far end of
// the tree brings in the new root without touching that path.
func staleBelowRoot(t *testing.T, l *ledger.Ledger, r *hintedReader) {
	t.Helper()
	if _, err := r.read(cachePK(7)); err != nil {
		t.Fatal(err)
	}
	commitRow(t, l, 8, 2)
	if _, err := r.read(cachePK(39999)); err != nil {
		t.Fatal(err)
	}
}

// TestStaleNodeIsOfferedByPosition: where the cached root routes to a node
// the cache lacks, the hint walk offers the version of that node it does
// hold — found by position — and goes on below it; the server answers with
// a patch against it; the verified patch takes its place in the cache.
func TestStaleNodeIsOfferedByPosition(t *testing.T) {
	l := cacheLedger(t, 40000)
	r := &hintedReader{l: l, v: proof.NewVerifier()}
	staleBelowRoot(t, l, r)
	_, before, _ := proof.CacheState(r.v)
	path := r.v.PinFor([]ledger.BatchQuery{{Table: "t", Column: "c", PK: cachePK(7)}}).Path
	if path.Len() < 2 {
		t.Fatalf("the hint walk pinned %d nodes: it stopped at the child the root names and the cache lacks", path.Len())
	}
	stale := path.Have()[path.Len()-1]
	st := r.v.ProofStats()
	if st.NodesPatched == 0 {
		t.Fatal("the far read was not sent the new root as a patch against the old one")
	}
	if v, err := r.read(cachePK(7)); err != nil || string(v) != "value-000007@1" {
		t.Fatalf("read through a stale pin: %q %v", v, err)
	}
	got := r.v.ProofStats()
	if got.NodesPatched-st.NodesPatched != int64(path.Len()-1) || got.NodesElided-st.NodesElided != 1 ||
		got.NodesShipped-st.NodesShipped != int64(path.Len()) {
		t.Fatalf("read through a stale pin: %+v -> %+v, want the root elided, every node below it patched, and the leaf", st, got)
	}
	if bytes := got.ProofBytes - st.ProofBytes; bytes > 1200 {
		t.Fatalf("a read that patched %d nodes took %d proof bytes", path.Len()-1, bytes)
	}
	_, after, _ := proof.CacheState(r.v)
	if len(after) != len(before) {
		t.Fatalf("cache went from %d to %d nodes: a patched node replaces its base", len(before), len(after))
	}
	for _, d := range after {
		if d == stale {
			t.Fatal("the stale node is still cached beside the node patched from it")
		}
	}
	// What was patched in is held like any shipped node: a re-read is
	// elided down to the leaf.
	if _, err := r.read(cachePK(7)); err != nil {
		t.Fatal(err)
	}
	if again := r.v.ProofStats(); again.NodesShipped-got.NodesShipped != 1 || again.NodesPatched != got.NodesPatched {
		t.Fatalf("re-read after a patch: %+v -> %+v", got, again)
	}
}

// TestRejectedPatchedProofLeavesVerifierUnchanged: a response that carries
// a patch and fails — a flipped byte in it, a base the verifier holds but
// did not pin for this request, an edit that does not fit the base, a
// second patch nobody asked for — is ErrTampered and changes nothing: not
// the cache, not its order, not the hint root, not the counters.
func TestRejectedPatchedProofLeavesVerifierUnchanged(t *testing.T) {
	l := cacheLedger(t, 40000)
	r := &hintedReader{l: l, v: proof.NewVerifier()}
	staleBelowRoot(t, l, r)
	// A node the cache holds that pk 7's path does not pin.
	var unpinned hashutil.Digest
	far := r.v.PinFor([]ledger.BatchQuery{{Table: "t", Column: "c", PK: cachePK(39999)}}).Path.Have()
	unpinned = far[len(far)-1]
	patchAt := func(p *ledger.Proof) int {
		for i, slot := range p.Point.Nodes {
			if slot[0] == 0xFF {
				return i
			}
		}
		t.Fatal("the response carries no patch")
		return 0
	}
	rewrite := func(p *ledger.Proof, i int, slot []byte) {
		p.Point.Nodes = append([][]byte(nil), p.Point.Nodes...)
		p.Point.Nodes[i] = slot
	}
	tampers := map[string]func(p *ledger.Proof){
		"a flipped byte in the patch": func(p *ledger.Proof) {
			i := patchAt(p)
			slot := append([]byte(nil), p.Point.Nodes[i]...)
			slot[len(slot)-1] ^= 1
			rewrite(p, i, slot)
		},
		"a base the request did not hint": func(p *ledger.Proof) {
			i := patchAt(p)
			slot := append([]byte(nil), p.Point.Nodes[i]...)
			copy(slot[1:], unpinned[:])
			rewrite(p, i, slot)
		},
		"an edit past the base": func(p *ledger.Proof) {
			i := patchAt(p)
			rewrite(p, i, append(append([]byte(nil), p.Point.Nodes[i]...), 0xFE, 0x7F)) // delete at entry 4095
		},
		"a second patch nobody asked for": func(p *ledger.Proof) {
			i := patchAt(p)
			p.Point.Nodes = append(append([][]byte(nil), p.Point.Nodes...), p.Point.Nodes[i][:1+hashutil.DigestSize])
		},
	}
	r.v.PinFor([]ledger.BatchQuery{{Table: "t", Column: "c", PK: cachePK(7)}}) // the touch an honest read makes
	before := r.v.ProofStats()
	digest := r.v.Digest()
	root, order, bytes := proof.CacheState(r.v)
	for name, tamper := range tampers {
		r.tamper = tamper
		if _, err := r.read(cachePK(7)); !errors.Is(err, proof.ErrTampered) {
			t.Fatalf("%s: err = %v", name, err)
		}
		gotRoot, gotOrder, gotBytes := proof.CacheState(r.v)
		if gotRoot != root || gotBytes != bytes || fmt.Sprint(gotOrder) != fmt.Sprint(order) {
			t.Fatalf("%s: rejected proof changed the cache (%d -> %d entries)", name, len(order), len(gotOrder))
		}
		if st := r.v.ProofStats(); st != before || r.v.Digest() != digest {
			t.Fatalf("%s: rejected proof moved the verifier: %+v -> %+v", name, before, st)
		}
	}
	r.tamper = nil
	if v, err := r.read(cachePK(7)); err != nil || string(v) != "value-000007@1" {
		t.Fatalf("honest read after the rejected ones: %q %v", v, err)
	}
	if st := r.v.ProofStats(); st.NodesPatched == before.NodesPatched {
		t.Fatal("the honest read was not patched")
	}
}
