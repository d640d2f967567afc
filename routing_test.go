package spitz_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"spitz"
	"spitz/internal/ledger"
	"spitz/internal/wire"
)

// matrixDeployment is one served configuration of the routing matrix.
type matrixDeployment struct {
	name    string
	shards  int
	replica bool // no writer: every mutation is refused
	durable bool // its state is its data directory's, which no restore replaces
	dial    dialFunc
}

// What a request does under the addressing rule (wire.Router).
const (
	point    = iota // answered by the shard it names; found iff that shard owns the key
	perShard        // answered by the shard it names
	whole           // describes the deployment
	write           // goes to the writer whatever Shard says
	unknown         // an op or statement no server answers
)

type matrixOp struct {
	name  string
	class int
	req   wire.Request
}

// expect derives a request's outcome from the addressing rule: "" when
// it is served, else a substring of the refusal.
func (d matrixDeployment) expect(op matrixOp, shard int) string {
	switch {
	case shard > d.shards:
		return "beyond"
	case op.class == write && d.replica:
		return "read-only"
	case op.class == write && op.req.Op == wire.OpRestore && (d.durable || d.shards > 1):
		return "restore is not supported"
	case (op.class == point || op.class == perShard || op.class == unknown) && shard == 0 && d.shards > 1:
		return "set Shard"
	case op.class == unknown && op.req.Op == wire.OpQuery:
		return "proven by OpHistory" // HISTORY is a proven read of its own
	case op.class == unknown:
		return "unknown op"
	}
	return ""
}

// matrixPK is the key every point op reads.
var matrixPK = []byte("k03")

func matrixSeed(t *testing.T, apply func(string, []spitz.Put) error) {
	t.Helper()
	puts := make([]spitz.Put, 16)
	for i := range puts {
		puts[i] = spitz.Put{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("k%02d", i)), Value: []byte(fmt.Sprintf("v%02d", i))}
	}
	if err := apply("seed", puts); err != nil {
		t.Fatal(err)
	}
}

// matrixCluster opens, seeds and serves a cluster; dir "" keeps it in memory.
func matrixCluster(t *testing.T, dir string, shards int) (*spitz.ClusterDB, dialFunc) {
	t.Helper()
	db, err := spitz.OpenCluster(dir, spitz.ClusterOptions{Shards: shards, Options: spitz.Options{MaintainInverted: true, CheckpointInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	matrixSeed(t, func(s string, p []spitz.Put) error { _, err := db.Apply(s, p); return err })
	for i := 0; i < shards; i++ {
		if db.Engine(i).Ledger().Height() == 0 {
			t.Fatalf("shard %d holds no block; the matrix needs a block on every shard", i)
		}
	}
	ln, dial := serveCluster(t, db)
	t.Cleanup(func() { ln.Close() })
	return db, dial
}

// matrixReplica serves a replica of the primary behind primary, once
// every shard has caught up to heights.
func matrixReplica(t *testing.T, primary dialFunc, heights []uint64) dialFunc {
	t.Helper()
	rep, err := spitz.NewReplica(primary, spitz.ReplicaOptions{MaintainInverted: true, ReconnectDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	for i, h := range heights {
		if err := rep.WaitForHeight(i, h, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	ln, _ := wire.Listen()
	go rep.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	return dialer(ln)
}

// TestRoutingMatrix runs every op against every Shard value a client can
// name — 0, 1, N and N+1 — on every serving configuration, over the wire,
// and checks each answer against the one addressing rule: a memory DB
// (1×0), a 1-shard and a 4-shard cluster, a durable DB, and replicas of
// that DB and of a durable 2-shard cluster.
func TestRoutingMatrix(t *testing.T) {
	mem := spitz.Open(spitz.Options{MaintainInverted: true})
	matrixSeed(t, func(s string, p []spitz.Put) error { _, err := mem.Apply(s, p); return err })
	var snap bytes.Buffer
	if err := mem.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	memLn, _ := wire.Listen()
	go mem.Serve(memLn)
	t.Cleanup(func() { memLn.Close() })

	_, one := matrixCluster(t, "", 1)
	_, four := matrixCluster(t, "", 4)

	durable, err := spitz.OpenDir(t.TempDir(), spitz.Options{MaintainInverted: true, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	matrixSeed(t, func(s string, p []spitz.Put) error { _, err := durable.Apply(s, p); return err })
	durLn, _ := wire.Listen()
	go durable.Serve(durLn)
	t.Cleanup(func() { durLn.Close() })
	two, twoDial := matrixCluster(t, t.TempDir(), 2)

	deployments := []matrixDeployment{
		{name: "memory-db", shards: 1, dial: dialer(memLn)},
		{name: "cluster-1", shards: 1, dial: one},
		{name: "cluster-4", shards: 4, dial: four},
		{name: "durable-db", shards: 1, durable: true, dial: dialer(durLn)},
		{name: "replica-of-db", shards: 1, replica: true,
			dial: matrixReplica(t, dialer(durLn), []uint64{durable.Height()})},
		{name: "replica-of-cluster-2", shards: 2, replica: true,
			dial: matrixReplica(t, twoDial, []uint64{two.Engine(0).Ledger().Height(), two.Engine(1).Ledger().Height()})},
	}

	at := ledger.Digest{Height: 1} // every shard holds block 0
	ops := []matrixOp{
		{"put", write, wire.Request{Op: wire.OpPut, Statement: "m", Puts: []wire.Put{{Table: "t", Column: "c", PK: []byte("new"), Value: []byte("x")}}}},
		{"restore", write, wire.Request{Op: wire.OpRestore, Snapshot: snap.Bytes()}},
		{"insert", write, wire.Request{Op: wire.OpQuery, Statement: "INSERT INTO t (pk, c) VALUES ('ins', 'x')"}},
		{"get", point, wire.Request{Op: wire.OpGet, Table: "t", Column: "c", PK: matrixPK}},
		{"get-verified", point, wire.Request{Op: wire.OpGetVerified, Table: "t", Column: "c", PK: matrixPK}},
		{"history", point, wire.Request{Op: wire.OpHistory, Table: "t", Column: "c", PK: matrixPK}},
		{"select-point", point, wire.Request{Op: wire.OpQuery, Statement: "SELECT c FROM t WHERE pk = 'k03'"}},
		{"sql-history", unknown, wire.Request{Op: wire.OpQuery, Statement: "HISTORY t.c WHERE pk = 'k03'"}},
		{"range", perShard, wire.Request{Op: wire.OpRange, Table: "t", Column: "c", PK: []byte("k00"), PKHi: []byte("k99")}},
		{"range-verified", perShard, wire.Request{Op: wire.OpRangeVer, Table: "t", Column: "c", PK: []byte("k00"), PKHi: []byte("k99")}},
		{"digest", perShard, wire.Request{Op: wire.OpDigest}},
		{"consistency", perShard, wire.Request{Op: wire.OpConsistency}},
		{"prove-batch", perShard, wire.Request{Op: wire.OpProveBatch, OldDigest2: &at,
			Audits: []ledger.BatchQuery{{Table: "t", Column: "c", PK: matrixPK}}}},
		{"snapshot", perShard, wire.Request{Op: wire.OpSnapshot}},
		{"select-range", perShard, wire.Request{Op: wire.OpQuery, Statement: "SELECT c FROM t WHERE pk BETWEEN 'k00' AND 'k99'"}},
		{"shard-map", whole, wire.Request{Op: wire.OpShardMap}},
		{"cluster-digest", whole, wire.Request{Op: wire.OpClusterDigest}},
		{"stats", whole, wire.Request{Op: wire.OpStats}},
		{"lookup-eq", unknown, wire.Request{Op: "lookup-eq", Table: "t", Column: "c"}}, // retired
	}

	for _, d := range deployments {
		c, err := d.dial()
		if err != nil {
			t.Fatal(err)
		}
		owner := wire.ShardIndex(matrixPK, d.shards)
		for _, shard := range []int{0, 1, d.shards, d.shards + 1} {
			if shard == d.shards && shard == 1 {
				continue // N = 1: already run
			}
			for _, op := range ops {
				name := fmt.Sprintf("%s/shard=%d/%s", d.name, shard, op.name)
				req := op.req
				req.Shard = shard
				resp, err := c.Do(req)
				want := d.expect(op, shard)
				if want != "" {
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s: got err %v, want a refusal containing %q", name, err, want)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: refused (%v), want served", name, err)
					continue
				}
				serving := 0 // Shard = 0 is served only by a one-shard deployment
				if shard > 0 {
					serving = shard - 1
				}
				switch {
				case op.class == point && resp.Found != (serving == owner):
					t.Errorf("%s: found = %v, but shard %d serves and shard %d owns the key", name, resp.Found, serving, owner)
				case op.req.Op == wire.OpShardMap && resp.ShardCount != d.shards,
					op.req.Op == wire.OpClusterDigest && (resp.Cluster == nil || len(resp.Cluster.Shards) != d.shards),
					op.req.Op == wire.OpStats && (resp.Stats == nil || len(resp.Stats.Shards) != d.shards):
					t.Errorf("%s: does not describe a deployment of %d shards: %+v", name, d.shards, resp)
				}
			}
		}
		c.Close()
	}
}
