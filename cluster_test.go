package spitz_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"spitz"
	"spitz/internal/wire"
)

type dialFunc = func() (*wire.Client, error)

func dialer(ln net.Listener) dialFunc {
	return func() (*wire.Client, error) { return wire.Connect(ln) }
}

// serveCluster serves db behind one listener and returns a dial function
// for it.
func serveCluster(t *testing.T, db *spitz.ClusterDB) (net.Listener, dialFunc) {
	t.Helper()
	ln, transport := wire.Listen()
	t.Logf("transport: %s", transport)
	go db.Serve(ln)
	return ln, dialer(ln)
}

// connect builds the client for a topology; it is closed with the test.
func connect(t testing.TB, primary dialFunc, replicas ...dialFunc) *spitz.Client {
	t.Helper()
	cl, err := spitz.Connect(spitz.Topology{Primary: primary, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestOpenClusterBasics(t *testing.T) {
	db, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 4, Options: spitz.Options{MaintainInverted: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Shards() != 4 {
		t.Fatalf("shards = %d", db.Shards())
	}
	// A multi-key batch spans shards and still commits atomically.
	var puts []spitz.Put
	for i := 0; i < 32; i++ {
		puts = append(puts, spitz.Put{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("pk%03d", i)), Value: []byte(fmt.Sprintf("v%03d", i))})
	}
	if _, err := db.Apply("seed", puts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		v, err := db.Get("t", "c", []byte(fmt.Sprintf("pk%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("get %d: %q %v", i, v, err)
		}
	}
	cells, err := db.RangePK("t", "c", []byte("pk005"), []byte("pk015"))
	if err != nil || len(cells) != 10 {
		t.Fatalf("range: %d cells, %v", len(cells), err)
	}

	// Cross-shard transaction through the public API.
	tx := db.Begin()
	v, ok, err := tx.Get("t", "c", []byte("pk001"))
	if err != nil || !ok {
		t.Fatalf("txn get: %v %v", ok, err)
	}
	tx.Put("t", "c", []byte("pk001"), append(v, '!'))
	tx.Put("t", "c", []byte("pk002"), []byte("rewritten"))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("t", "c", []byte("pk001"))
	if string(got) != "v001!" {
		t.Fatalf("txn write lost: %q", got)
	}

	st := db.ClusterStats()
	if len(st.Shards) != 4 || st.Commits < 2 {
		t.Fatalf("stats: %+v", st)
	}
	// Every shard should have seen some of the 32 keys.
	busy := 0
	for _, s := range st.Shards {
		if s.Height > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d shards advanced", busy)
	}
}

func TestClusterVerifiedReads(t *testing.T) {
	db, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 3, Options: spitz.Options{MaintainInverted: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, dial := serveCluster(t, db)

	sc := connect(t, dial)
	if sc.Shards() != 3 {
		t.Fatalf("client sees %d shards", sc.Shards())
	}

	var puts []spitz.Put
	for i := 0; i < 24; i++ {
		val := []byte("blue")
		if i%3 == 0 {
			val = []byte("gold")
		}
		puts = append(puts, spitz.Put{Table: "t", Column: "tag",
			PK: []byte(fmt.Sprintf("pk%03d", i)), Value: val})
	}
	if _, err := sc.Apply("seed", puts); err != nil {
		t.Fatal(err)
	}

	// Verified point reads route to owning shards; each proof checks
	// against that shard's own trusted digest.
	for i := 0; i < 24; i++ {
		pk := []byte(fmt.Sprintf("pk%03d", i))
		v, found, err := sc.GetVerified("t", "tag", pk)
		if err != nil || !found {
			t.Fatalf("verified get %d: found=%v err=%v", i, found, err)
		}
		want := "blue"
		if i%3 == 0 {
			want = "gold"
		}
		if string(v) != want {
			t.Fatalf("verified get %d: %q", i, v)
		}
	}
	// After the reads, the per-shard verifiers pinned exactly the
	// server's shard digests.
	d := db.ClusterDigest()
	for i := 0; i < sc.Shards(); i++ {
		if got := sc.ShardVerifier(i).Digest(); got != d.Shards[i] {
			t.Fatalf("shard %d verifier digest %+v, server %+v", i, got, d.Shards[i])
		}
	}

	// Verified fan-out range scan and lookup fan-out.
	cells, err := sc.RangePKVerified("t", "tag", []byte("pk000"), []byte("pk010"))
	if err != nil || len(cells) != 10 {
		t.Fatalf("verified range: %d cells, %v", len(cells), err)
	}
	for i := 1; i < len(cells); i++ {
		if string(cells[i-1].PK) >= string(cells[i].PK) {
			t.Fatal("verified range not merged in pk order")
		}
	}
	golds, err := sc.Query("SELECT tag FROM t WHERE tag = 'gold'")
	if err != nil || len(golds.Rows) != 8 {
		t.Fatalf("lookup: %d rows, %v", len(golds.Rows), err)
	}

	// History, digest sync.
	if _, err := sc.Apply("update", []spitz.Put{{Table: "t", Column: "tag",
		PK: []byte("pk001"), Value: []byte("rose")}}); err != nil {
		t.Fatal(err)
	}
	hist, err := sc.History("t", "tag", []byte("pk001"))
	if err != nil || len(hist) != 2 {
		t.Fatalf("history: %d, %v", len(hist), err)
	}
	if err := sc.SyncDigest(); err != nil {
		t.Fatal(err)
	}

	// A plain connection names the shard it asks: the cluster routes
	// nothing by key.
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	get := wire.Request{Op: wire.OpGet, Table: "t", Column: "tag", PK: []byte("pk002")}
	if _, err := conn.Do(get); err == nil || !strings.Contains(err.Error(), "set Shard") {
		t.Fatalf("plain client get naming no shard: %v, want a refusal", err)
	}
	get.Shard = db.ShardFor(get.PK) + 1
	if resp, err := conn.Do(get); err != nil || !resp.Found {
		t.Fatalf("plain client get at the owning shard: %+v %v", resp, err)
	}
}

// TestOpenClusterCrashRecovery is the acceptance test for the sharded
// durable deployment: a 4-shard durable cluster served over one listener
// is killed without shutdown; on reopen every shard's replayed digest
// must equal its pre-crash ClusterDigest entry, and a client's
// verified read must check its proof against the correct shard digest.
func TestOpenClusterCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := spitz.ClusterOptions{Shards: 4, Options: spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1}}
	db, err := spitz.OpenCluster(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, dial := serveCluster(t, db)
	sc := connect(t, dial)

	// Write through the served listener so the whole path is exercised.
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := sc.Apply(fmt.Sprintf("write %d", i), []spitz.Put{{
			Table: "t", Column: "c",
			PK:    []byte(fmt.Sprintf("pk%04d", i)),
			Value: []byte(fmt.Sprintf("v%04d", i)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// One cross-shard transaction so 2PC state is in the logs too.
	tx := db.Begin()
	tx.Put("x", "c", []byte("left"), []byte("L"))
	tx.Put("x", "c", []byte("right"), []byte("R"))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := db.ClusterDigest()

	// Crash: stop serving and abandon the cluster handle. No Close, no
	// flush beyond what SyncAlways already guaranteed per commit.
	sc.Close()
	ln.Close()

	db2, err := spitz.OpenCluster(dir, spitz.ClusterOptions{Options: spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1}})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if db2.Shards() != 4 {
		t.Fatalf("recovered %d shards, want 4", db2.Shards())
	}
	got := db2.ClusterDigest()
	for i := range want.Shards {
		if got.Shards[i] != want.Shards[i] {
			t.Fatalf("shard %d replayed digest %+v, want pre-crash %+v", i, got.Shards[i], want.Shards[i])
		}
	}
	if got.Root != want.Root {
		t.Fatal("combined root changed across recovery")
	}

	// Serve the recovered cluster and read back verified, over the wire.
	ln2, dial2 := serveCluster(t, db2)
	defer ln2.Close()
	sc2 := connect(t, dial2)
	for i := 0; i < n; i++ {
		pk := []byte(fmt.Sprintf("pk%04d", i))
		v, found, err := sc2.GetVerified("t", "c", pk)
		if err != nil || !found || string(v) != fmt.Sprintf("v%04d", i) {
			t.Fatalf("verified read %d after recovery: %q found=%v err=%v", i, v, found, err)
		}
		// The proof was checked against the owning shard's digest — which
		// must be the pre-crash one.
		si := sc2.ShardFor(pk)
		if got := sc2.ShardVerifier(si).Digest(); got != want.Shards[si] {
			t.Fatalf("shard %d verifier pinned %+v, want pre-crash %+v", si, got, want.Shards[si])
		}
	}
	if v, _, err := sc2.GetVerified("x", "c", []byte("left")); err != nil || string(v) != "L" {
		t.Fatalf("cross-shard txn write lost: %q %v", v, err)
	}

	// Cross-shard misbinding is rejected: a proof produced by one shard
	// must not verify against another shard's digest.
	pkA := []byte("pk0000")
	siA := sc2.ShardFor(pkA)
	res, shard, err := db2.GetVerified("t", "c", pkA)
	if err != nil || shard != siA {
		t.Fatalf("embedded verified read: shard=%d err=%v", shard, err)
	}
	for i := range want.Shards {
		err := res.Proof.Verify(want.Shards[i])
		if i == siA && err != nil {
			t.Fatalf("proof fails against owning shard: %v", err)
		}
		if i != siA && err == nil {
			t.Fatalf("proof verified against wrong shard %d", i)
		}
	}

	// The recovered cluster accepts new writes above the replayed state.
	if _, err := sc2.Apply("post", []spitz.Put{{Table: "t", Column: "c",
		PK: []byte("fresh"), Value: []byte("alive")}}); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
}

func TestOpenClusterShardCountGuard(t *testing.T) {
	dir := t.TempDir()
	db, err := spitz.OpenCluster(dir, spitz.ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := spitz.OpenCluster(dir, spitz.ClusterOptions{Shards: 3}); err == nil {
		t.Fatal("shard count mismatch accepted")
	}
	// Shards == 0 adopts the recorded count.
	db2, err := spitz.OpenCluster(dir, spitz.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Shards() != 2 {
		t.Fatalf("adopted %d shards, want 2", db2.Shards())
	}
}

// TestLayoutGuards: a cluster directory must not open as a single-engine
// database (its shards' data would be silently ignored) and vice versa.
func TestLayoutGuards(t *testing.T) {
	clusterDir := t.TempDir()
	cdb, err := spitz.OpenCluster(clusterDir, spitz.ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cdb.Close()
	if _, err := spitz.OpenDir(clusterDir, spitz.Options{}); err == nil {
		t.Fatal("OpenDir opened a cluster directory as a single engine")
	}

	singleDir := t.TempDir()
	sdb, err := spitz.OpenDir(singleDir, spitz.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sdb.Close()
	if _, err := spitz.OpenCluster(singleDir, spitz.ClusterOptions{Shards: 2}); err == nil {
		t.Fatal("OpenCluster sharded a single-engine directory in place")
	}
}

// TestClusterConcurrentVerifiedReads: verified reads racing
// concurrent commits must never report tampering on an honest server —
// digest refreshes serialize per shard and stale-proof responses are
// refetched, not misreported.
func TestClusterConcurrentVerifiedReads(t *testing.T) {
	db, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, dial := serveCluster(t, db)
	sc := connect(t, dial)

	const keys = 8
	for i := 0; i < keys; i++ {
		if _, err := sc.Apply("seed", []spitz.Put{{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v0")}}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Apply("churn", []spitz.Put{{Table: "t", Column: "c",
				PK: []byte(fmt.Sprintf("k%d", i%keys)), Value: []byte(fmt.Sprintf("v%d", i))}}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pk := []byte(fmt.Sprintf("k%d", (r+i)%keys))
				if _, _, err := sc.GetVerified("t", "c", pk); err != nil {
					t.Errorf("verified read under churn: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	<-writerDone
}

// TestEmptyWriteBatchRefused: a write batch with no puts is refused by
// every deployment — a database, a 2-shard cluster, and a client of
// either served — and cuts no block.
func TestEmptyWriteBatchRefused(t *testing.T) {
	db := spitz.Open(spitz.Options{})
	dbLn, _ := wire.Listen()
	go db.Serve(dbLn)
	t.Cleanup(func() { dbLn.Close() })
	cluster, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	clusterLn, clusterDial := serveCluster(t, cluster)
	t.Cleanup(func() { clusterLn.Close() })
	dbClient, clusterClient := connect(t, dialer(dbLn)), connect(t, clusterDial)

	height := func() uint64 {
		return db.Height() + cluster.Engine(0).Ledger().Height() + cluster.Engine(1).Ledger().Height()
	}
	for _, c := range []struct {
		name  string
		apply func([]spitz.Put) error
	}{
		{"DB", func(p []spitz.Put) error { _, err := db.Apply("empty", p); return err }},
		{"ClusterDB", func(p []spitz.Put) error { _, err := cluster.Apply("empty", p); return err }},
		{"Client of a DB", func(p []spitz.Put) error { _, err := dbClient.Apply("empty", p); return err }},
		{"Client of a ClusterDB", func(p []spitz.Put) error { _, err := clusterClient.Apply("empty", p); return err }},
	} {
		for _, puts := range [][]spitz.Put{nil, {}} {
			if err := c.apply(puts); err == nil {
				t.Errorf("%s: empty batch %#v accepted", c.name, puts)
			}
			if h := height(); h != 0 {
				t.Fatalf("%s: empty batch %#v cut a block (heights sum to %d)", c.name, puts, h)
			}
		}
	}
}
