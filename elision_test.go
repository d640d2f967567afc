package spitz_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"spitz"
	"spitz/internal/core"
	"spitz/internal/proof"
	"spitz/internal/wire"
)

// Proof elision over the wire: a client whose verifier already holds the
// index nodes of a key's search path says so, the server ships only the
// rest, and nothing about what a verified read returns — or rejects —
// changes. The structural soundness tests (with the blind-verifier
// reference) live in internal/postree; these drive the real clients.

func elisionPK(i int) []byte { return []byte(fmt.Sprintf("pk%06d", i)) }

func elisionValue(i, gen int) []byte { return []byte(fmt.Sprintf("value-%06d@%d", i, gen)) }

// seedElisionRows writes rows [0, n) in batches through apply.
func seedElisionRows(t testing.TB, n int, apply func(puts []spitz.Put) error) {
	t.Helper()
	for base := 0; base < n; base += 2000 {
		puts := make([]spitz.Put, 0, 2000)
		for i := base; i < base+2000 && i < n; i++ {
			puts = append(puts, spitz.Put{Table: "t", Column: "c", PK: elisionPK(i), Value: elisionValue(i, 0)})
		}
		if err := apply(puts); err != nil {
			t.Fatal(err)
		}
	}
}

const elisionRows = 40000

// startElisionServer is the fault server over an engine with two index
// levels, so point proofs have something to elide.
func startElisionServer(t *testing.T) *faultServer {
	t.Helper()
	eng := core.New(core.Options{})
	seedElisionRows(t, elisionRows, func(puts []spitz.Put) error {
		cp := make([]core.Put, len(puts))
		for i, p := range puts {
			cp[i] = core.Put{Table: p.Table, Column: p.Column, PK: p.PK, Value: p.Value}
		}
		_, err := eng.Apply("seed", cp)
		return err
	})
	return serveFaultEngine(t, eng)
}

// onVerifiedGet restricts a mutator to the responses under test, so the
// digest and consistency traffic beside them stays honest.
func onVerifiedGet(m func(req wire.Request, resp *wire.Response)) func(wire.Request, *wire.Response) {
	return func(req wire.Request, resp *wire.Response) {
		if req.Op == wire.OpGetVerified && resp.Proof != nil {
			m(req, resp)
		}
	}
}

// warmClient returns a client that has read pk once, so its verifier
// holds pk's whole index path.
func warmClient(t *testing.T, fs *faultServer, pk []byte) *spitz.Client {
	t.Helper()
	cl := fs.client(t)
	t.Cleanup(func() { cl.Close() })
	if _, found, err := cl.GetVerified("t", "c", pk); err != nil || !found {
		t.Fatalf("warm-up read: %v %v", found, err)
	}
	return cl
}

// TestGetVerifiedSameResultsEverywhere: the embedded DB and the three
// network clients agree on every verified point read — hits, deleted
// rows, and misses inside a leaf group, at group edges, below the tree's
// smallest key and above its largest — cold and warm, with OpGetVerified
// carrying the row in the proof only.
func TestGetVerifiedSameResultsEverywhere(t *testing.T) {
	const rows = 6000
	deleted := elisionPK(4242)
	load := func(apply func(string, []spitz.Put) (spitz.BlockHeader, error)) {
		seedElisionRows(t, rows, func(puts []spitz.Put) error { _, err := apply("seed", puts); return err })
		if _, err := apply("delete", []spitz.Put{{Table: "t", Column: "c", PK: deleted, Tombstone: true}}); err != nil {
			t.Fatal(err)
		}
	}

	// A durable primary: replicas follow its log.
	db, err := spitz.OpenDir(t.TempDir(), spitz.Options{Sync: spitz.SyncNever, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	load(db.Apply)
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()
	dialPrimary := func() (*wire.Client, error) { return wire.Connect(ln) }

	wc, err := dialPrimary()
	if err != nil {
		t.Fatal(err)
	}
	cl := spitz.NewClient(wc)
	defer cl.Close()

	rep, err := spitz.NewReplica(dialPrimary, spitz.ReplicaOptions{ReconnectDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	rln, _ := wire.Listen()
	go rep.Serve(rln)
	defer rln.Close()
	if err := rep.WaitForHeight(0, db.Height(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	rc, err := spitz.NewReplicatedClient(dialPrimary,
		[]func() (*wire.Client, error){func() (*wire.Client, error) { return wire.Connect(rln) }},
		spitz.ReplicatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	cdb, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	load(func(stmt string, puts []spitz.Put) (spitz.BlockHeader, error) {
		_, err := cdb.Apply(stmt, puts)
		return spitz.BlockHeader{}, err
	})
	_, dialCluster := serveCluster(t, cdb)
	sc, err := spitz.NewShardedClient(dialCluster)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	readers := []struct {
		name string
		get  func(pk []byte) ([]byte, bool, error)
	}{
		{"embedded", func(pk []byte) ([]byte, bool, error) {
			res, err := db.GetVerified("t", "c", pk)
			if err != nil {
				return nil, false, err
			}
			v := spitz.NewVerifier()
			if err := v.Advance(res.Digest, spitz.ConsistencyProof{}); err != nil {
				return nil, false, err
			}
			if err := v.VerifyNow(res.Proof); err != nil {
				return nil, false, err
			}
			if !res.Found {
				return nil, false, nil
			}
			return res.Cells[0].Value, true, nil
		}},
		{"client", func(pk []byte) ([]byte, bool, error) { return cl.GetVerified("t", "c", pk) }},
		{"replicated", func(pk []byte) ([]byte, bool, error) { return rc.GetVerified("t", "c", pk) }},
		{"sharded", func(pk []byte) ([]byte, bool, error) { return sc.GetVerified("t", "c", pk) }},
	}
	keys := []struct {
		pk    []byte
		found bool
		value []byte
	}{
		{elisionPK(0), true, elisionValue(0, 0)},
		{elisionPK(3141), true, elisionValue(3141, 0)},
		{elisionPK(rows - 1), true, elisionValue(rows-1, 0)},
		{deleted, false, nil},
		{[]byte("pk00314x"), false, nil},
		{[]byte("zzzz"), false, nil}, // above the tree's largest key
		{[]byte(""), false, nil},     // below its smallest
	}
	// A run of consecutive rows longer than two leaf groups, and the gap
	// after each: hits in every position of a group, misses inside groups
	// and at both sides of group edges (where two groups ship).
	for i := 3000; i < 3024; i++ {
		keys = append(keys, struct {
			pk    []byte
			found bool
			value []byte
		}{elisionPK(i), true, elisionValue(i, 0)}, struct {
			pk    []byte
			found bool
			value []byte
		}{append(elisionPK(i), '!'), false, nil})
	}
	for _, r := range readers {
		for pass := 0; pass < 3; pass++ { // cold, then warm twice
			for _, k := range keys {
				v, found, err := r.get(k.pk)
				if err != nil || found != k.found || !bytes.Equal(v, k.value) {
					t.Fatalf("%s pass %d key %q: %q %v %v, want %q %v", r.name, pass, k.pk, v, found, err, k.value, k.found)
				}
			}
		}
	}
	// The network clients did get elided proofs on the warm passes.
	for name, v := range map[string]*spitz.Verifier{"client": cl.Verifier(), "replicated": rc.Verifier()} {
		if st := v.ProofStats(); st.NodesElided == 0 || st.CacheEntries == 0 {
			t.Fatalf("%s verifier never saw an elided proof: %+v", name, st)
		}
	}
}

// elidedProofSlices enumerates every byte slice of an elided read's
// response a tamperer could flip.
func elidedProofSlices(resp *wire.Response) [][]byte {
	var out [][]byte
	for _, n := range resp.Proof.Point.Nodes {
		if len(n) > 0 {
			out = append(out, n)
		}
	}
	out = append(out, resp.Proof.Point.Value, resp.Proof.Point.Key)
	for i := range resp.Proof.Inclusion.Path {
		out = append(out, resp.Proof.Inclusion.Path[i][:])
	}
	out = append(out, resp.Proof.Header.CellRoot[:], resp.Proof.Header.Parent[:], resp.Proof.Header.BodyHash[:])
	return append(out, resp.Digest.Root[:])
}

// verifierState is everything a rejected response must leave alone.
type verifierState struct {
	digest             spitz.Digest
	verified, deferred int64
	proofs             proof.ProofStats
}

func stateOf(v *spitz.Verifier) verifierState {
	st := verifierState{digest: v.Digest(), proofs: v.ProofStats()}
	st.verified, st.deferred = v.Stats()
	return st
}

// TestElidedResponseEveryByteTrips flips every byte of a warm client's
// response — every index node elided, the leaf pruned to the group (for
// the miss, the groups) that decide the answer — one at a time, on one
// long-lived warm client: each flip is ErrTampered, and a rejected
// response leaves the verifier's digest, counters and node cache exactly
// as they were, so the next response is elided exactly as before.
func TestElidedResponseEveryByteTrips(t *testing.T) {
	es := startElisionServer(t)
	hit := elisionPK(12345)
	cl := warmClient(t, es, hit)
	for _, tc := range []struct {
		name  string
		pk    []byte
		found bool
		value []byte
	}{
		{"hit", hit, true, elisionValue(12345, 0)},
		{"miss", append(elisionPK(12345), '!'), false, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var total, index, leafBytes int
			es.setMutate(onVerifiedGet(func(req wire.Request, resp *wire.Response) {
				nodes := resp.Proof.Point.Nodes
				for i, n := range nodes[:len(nodes)-1] {
					if len(n) != 0 {
						t.Errorf("index node %d was shipped to a warm client", i)
					}
				}
				index, leafBytes = len(nodes)-1, len(nodes[len(nodes)-1])
				total = 0
				for _, s := range elidedProofSlices(resp) {
					total += len(s)
				}
			}))
			if _, found, err := cl.GetVerified("t", "c", tc.pk); err != nil || found != tc.found {
				t.Fatal(found, err)
			}
			if index < 2 || total == 0 {
				t.Fatalf("elided read: %d index positions, %d proof bytes", index, total)
			}
			// The stored leaf holds tens of rows; what ships is a group or two.
			if leafBytes == 0 || leafBytes > 16*len("pk012345value-012345@0")+20*32 {
				t.Fatalf("the leaf slot of a point proof is %d bytes: not pruned", leafBytes)
			}
			warm := stateOf(cl.Verifier())
			step := 1
			if testing.Short() {
				step = 13
			}
			for off := 0; off < total; off += step {
				off := off
				es.setMutate(onVerifiedGet(func(req wire.Request, resp *wire.Response) {
					if len(req.Have) != index {
						t.Errorf("byte %d: the client hinted %d nodes, want %d (was its cache disturbed?)", off, len(req.Have), index)
					}
					detachResponse(t, resp)
					k := off
					for _, s := range elidedProofSlices(resp) {
						if k < len(s) {
							s[k] ^= 0x01
							return
						}
						k -= len(s)
					}
				}))
				if _, _, err := cl.GetVerified("t", "c", tc.pk); !errors.Is(err, spitz.ErrTampered) {
					t.Fatalf("byte %d of an elided response flipped: err = %v", off, err)
				}
			}
			es.setMutate(nil)
			if got := stateOf(cl.Verifier()); got != warm {
				t.Fatalf("rejected responses changed the verifier: %+v -> %+v", warm, got)
			}
			if v, found, err := cl.GetVerified("t", "c", tc.pk); err != nil || found != tc.found || !bytes.Equal(v, tc.value) {
				t.Fatalf("honest read after the sweep: %q %v %v", v, found, err)
			}
		})
	}
}

// TestElisionForgeriesOverTheWire replays the structured forgeries
// against a real client: whatever a lying server does with the elided
// positions, the read is ErrTampered and the cache is not poisoned.
func TestElisionForgeriesOverTheWire(t *testing.T) {
	es := startElisionServer(t)
	pk, otherPK := elisionPK(12345), elisionPK(31000)
	full := func(pk []byte) wire.Response {
		resp := wire.Dispatch(es.eng, wire.Request{Op: wire.OpGetVerified, Table: "t", Column: "c", PK: pk})
		detachResponse(t, &resp)
		return resp
	}
	// coldOnly marks the forgery that, against a warm client, is simply
	// the honest elided response.
	const coldOnly = "elides every node of a cold client's proof"
	forgeries := map[string]func(req wire.Request, resp *wire.Response){
		"elides the leaf and claims a value": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			n := resp.Proof.Point.Nodes
			n[len(n)-1] = nil
			resp.Proof.Point.Value = bytes.Replace(resp.Proof.Point.Value, []byte("value-"), []byte("VALUE-"), 1)
		},
		coldOnly: func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			n := resp.Proof.Point.Nodes
			for i := range n[:len(n)-1] {
				n[i] = nil
			}
		},
		"answers with another key's path under the asked key": func(req wire.Request, resp *wire.Response) {
			other := full(otherPK)
			other.Proof.Point.Key = resp.Proof.Point.Key
			other.Proof.Point.Found, other.Proof.Point.Value = false, nil
			n := other.Proof.Point.Nodes
			for i := range n[:len(n)-1] {
				n[i] = nil
			}
			other.Found = false
			*resp = other
		},
		"answers another key outright": func(req wire.Request, resp *wire.Response) {
			*resp = full(otherPK)
		},
		"shifts the elided positions one level down": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			honest := full(pk)
			n := resp.Proof.Point.Nodes
			n[0] = honest.Proof.Point.Nodes[0]
			n[len(n)-1] = nil
		},
		"ships an index node relabelled as a leaf": func(req wire.Request, resp *wire.Response) {
			honest := full(pk)
			n := honest.Proof.Point.Nodes
			n[len(n)-2][0] = 0
			*resp = honest
		},
	}
	for name, forge := range forgeries {
		t.Run(name, func(t *testing.T) {
			for _, kind := range []string{"warm", "cold"} {
				if kind == "warm" && name == coldOnly {
					continue
				}
				var cl *spitz.Client
				if kind == "warm" {
					cl = warmClient(t, es, pk)
				} else {
					cl = es.client(t)
					defer cl.Close()
					// Pin the digest honestly so only the forgery is at stake.
					if err := cl.SyncDigest(); err != nil {
						t.Fatal(err)
					}
				}
				before := cl.Verifier().ProofStats()
				es.setMutate(onVerifiedGet(forge))
				_, _, err := cl.GetVerified("t", "c", pk)
				es.setMutate(nil)
				if !errors.Is(err, spitz.ErrTampered) {
					t.Fatalf("%s client: err = %v, want ErrTampered", kind, err)
				}
				if after := cl.Verifier().ProofStats(); after != before {
					t.Fatalf("%s client: rejected forgery moved verifier state: %+v -> %+v", kind, before, after)
				}
				if v, found, err := cl.GetVerified("t", "c", pk); err != nil || !found || !bytes.Equal(v, elisionValue(12345, 0)) {
					t.Fatalf("%s client: honest read after the forgery: %q %v %v", kind, v, found, err)
				}
			}
		})
	}
}

// TestClientHintsAcrossCommits: the cache needs no invalidation. After a
// write elsewhere only the changed top of the path is shipped again;
// after a write to the key itself the whole path is; values are always
// current.
func TestClientHintsAcrossCommits(t *testing.T) {
	es := startElisionServer(t)
	pk := elisionPK(12345)
	cl := warmClient(t, es, pk)
	height := int(cl.Verifier().ProofStats().NodesShipped)
	if height < 3 {
		t.Fatalf("tree height %d, want >= 3", height)
	}
	shippedBy := func(want []byte) int {
		t.Helper()
		before := cl.Verifier().ProofStats()
		v, found, err := cl.GetVerified("t", "c", pk)
		if err != nil || !found || !bytes.Equal(v, want) {
			t.Fatalf("read: %q %v %v, want %q", v, found, err, want)
		}
		after := cl.Verifier().ProofStats()
		if got := int(after.NodesShipped-before.NodesShipped) + int(after.NodesElided-before.NodesElided); got != height {
			t.Fatalf("shipped + elided = %d, want the path length %d", got, height)
		}
		return int(after.NodesShipped - before.NodesShipped)
	}
	if n := shippedBy(elisionValue(12345, 0)); n != 1 {
		t.Fatalf("warm read shipped %d nodes, want the leaf only", n)
	}
	apply := func(i, gen int) {
		t.Helper()
		if _, err := cl.Apply("update", []spitz.Put{{Table: "t", Column: "c", PK: elisionPK(i), Value: elisionValue(i, gen)}}); err != nil {
			t.Fatal(err)
		}
	}
	// A write at one end of the key space or the other lands under a
	// different child of the root than pk (which end depends on where the
	// root happens to split): the root changes, the rest of pk's path does
	// not.
	var sibling []int
	for _, far := range []int{elisionRows - 1, 0} {
		apply(far, 1)
		sibling = append(sibling, shippedBy(elisionValue(12345, 0)))
		if sibling[len(sibling)-1] == 2 {
			break
		}
	}
	if sibling[len(sibling)-1] != 2 {
		t.Fatalf("after a write in a sibling subtree the read shipped %v nodes, want root + leaf", sibling)
	}
	if n := shippedBy(elisionValue(12345, 0)); n != 1 {
		t.Fatalf("re-read shipped %d nodes, want the leaf only", n)
	}
	// A write to pk itself: every node on its path is new.
	apply(12345, 1)
	if n := shippedBy(elisionValue(12345, 1)); n != height {
		t.Fatalf("after a write to the key the read shipped %d nodes, want all %d", n, height)
	}
	if n := shippedBy(elisionValue(12345, 1)); n != 1 {
		t.Fatalf("re-read shipped %d nodes, want the leaf only", n)
	}
	// A bulk insert that grows the tree by a level: reads stay correct
	// whatever the old hints now line up with.
	before := cl.Verifier().ProofStats()
	for base := 0; base < 1200000 && int(cl.Verifier().ProofStats().NodesShipped-before.NodesShipped) < height+1; base += 100000 {
		puts := make([]spitz.Put, 100000)
		for i := range puts {
			puts[i] = spitz.Put{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("grow%07d", base+i)), Value: []byte("x")}
		}
		if _, err := cl.Apply("grow", puts); err != nil {
			t.Fatal(err)
		}
		before = cl.Verifier().ProofStats()
		if v, found, err := cl.GetVerified("t", "c", pk); err != nil || !found || !bytes.Equal(v, elisionValue(12345, 1)) {
			t.Fatalf("read after growth: %q %v %v", v, found, err)
		}
	}
	if got := int(cl.Verifier().ProofStats().NodesShipped - before.NodesShipped); got < height+1 {
		t.Skipf("tree did not gain a level within the insert budget (path %d)", got)
	}
	if v, found, err := cl.GetVerified("t", "c", pk); err != nil || !found || !bytes.Equal(v, elisionValue(12345, 1)) {
		t.Fatalf("warm read on the taller tree: %q %v %v", v, found, err)
	}
}

// TestConcurrentGetVerifiedUnderChurn: several goroutines share one
// client (one verifier, one node cache) while a writer keeps moving the
// head. Every read verifies and returns a value that was really written.
// (The same race with a cache small enough to evict on every read is
// internal/proof's TestConcurrentHintedReadsUnderChurn.)
func TestConcurrentGetVerifiedUnderChurn(t *testing.T) {
	es := startElisionServer(t)
	cl := warmClient(t, es, elisionPK(0))
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(5))
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			i := rng.Intn(elisionRows)
			if _, err := es.eng.Apply("churn", []core.Put{{Table: "t", Column: "c", PK: elisionPK(i), Value: elisionValue(i, gen)}}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(50 + g)))
			for n := 0; n < 250; n++ {
				i := rng.Intn(elisionRows)
				v, found, err := cl.GetVerified("t", "c", elisionPK(i))
				if err != nil || !found {
					t.Errorf("reader %d: row %d: %v %v", g, i, found, err)
					return
				}
				var row, gen int
				if _, err := fmt.Sscanf(string(v), "value-%06d@%d", &row, &gen); err != nil || row != i {
					t.Errorf("reader %d: row %d returned %q", g, i, v)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if st := cl.Verifier().ProofStats(); st.NodesElided == 0 {
		t.Fatalf("no node was ever elided under churn: %+v", st)
	}
}

// TestWarmClientOnPointReadShape loads the benchmark's point-read-mem
// data shape (200k rows, 16-byte keys, 100-byte values, one table) and
// checks the acceptance numbers: a warm client is sent one node of four
// per read, and its whole cache is under 1 MiB.
func TestWarmClientOnPointReadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 200k rows")
	}
	const rows = 200000
	db := spitz.Open(spitz.Options{})
	defer db.Close()
	rng := rand.New(rand.NewSource(1))
	pkOf := func(i int) []byte { return []byte(fmt.Sprintf("k%015d", i)) }
	for base := 0; base < rows; base += 10000 {
		puts := make([]spitz.Put, 10000)
		for i := range puts {
			v := make([]byte, 100)
			rng.Read(v)
			puts[i] = spitz.Put{Table: "bench", Column: "v", PK: pkOf(base + i), Value: v}
		}
		if _, err := db.Apply("load", puts); err != nil {
			t.Fatal(err)
		}
	}
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()
	wc, err := wire.Connect(ln)
	if err != nil {
		t.Fatal(err)
	}
	cl := spitz.NewClient(wc)
	defer cl.Close()
	read := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, found, err := cl.GetVerified("bench", "v", pkOf(rng.Intn(rows))); err != nil || !found {
				t.Fatalf("read: %v %v", found, err)
			}
		}
	}
	read(5000) // the benchmark's per-client warm-up
	warm := cl.Verifier().ProofStats()
	const n = 2000
	read(n)
	st := cl.Verifier().ProofStats()
	shipped, elided := st.NodesShipped-warm.NodesShipped, st.NodesElided-warm.NodesElided
	bytesPerRead := (st.ProofBytes - warm.ProofBytes) / n
	t.Logf("warm client: %d reads shipped %d nodes, elided %d; %d proof bytes/read; cache %d nodes, %d bytes",
		n, shipped, elided, bytesPerRead, st.CacheEntries, st.CacheBytes)
	if shipped+elided != 4*n {
		t.Fatalf("path length is not 4: %d shipped + %d elided over %d reads", shipped, elided, n)
	}
	if elided < 3*n*995/1000 {
		t.Fatalf("elided %d of %d index nodes", elided, 3*n)
	}
	if st.CacheBytes >= 1<<20 {
		t.Fatalf("cache holds %d bytes, want < 1 MiB", st.CacheBytes)
	}
}
