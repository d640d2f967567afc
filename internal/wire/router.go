package wire

// The one serving path: a Router serves a deployment of N shards behind
// one listener. A single engine, a sharded cluster and a replica of
// either are configurations of it, so the addressing rule below exists
// once.

import (
	"fmt"
	"hash/fnv"

	"spitz/internal/core"
	"spitz/internal/ledger"
	"spitz/internal/proof"
	"spitz/internal/query"
)

// Shard is one shard of a served deployment.
type Shard struct {
	// Engine returns the shard's current engine. It is called per
	// request, so a shard whose engine is replaced (a replica adopting a
	// snapshot, an in-memory database restored from one) serves the new
	// engine from the next request on.
	Engine func() *core.Engine
	// Source, when non-nil, streams the shard's write-ahead log to
	// replication followers and reports its WAL span and followers.
	Source ReplSource
	// Replica, when non-nil, reports the replication state of a shard
	// that mirrors a primary.
	Replica func() ReplicaStats
}

// ReplSource is a shard's replication source (internal/repl.Source).
type ReplSource interface {
	ReplStreamer
	WALStats() WALStats
	Followers() []FollowerStats
}

// Router is the Handler of a deployment of N shards.
//
// The addressing rule, applied to Request.Shard: i > 0 addresses shard
// i-1, and a shard the deployment does not have is refused ("beyond").
// With one shard, 0 addresses it too. With more, 0 addresses the
// deployment as a whole: OpShardMap, OpClusterDigest and OpStats describe
// it, mutations (OpPut, OpRestore, INSERT/UPDATE/DELETE) go to Write
// whatever the request names, and every other op is refused with one
// error telling the client to set Shard. Nothing routes by key: a client
// holds the shard map (ShardIndex) and names the shard it asks.
type Router struct {
	Shards []Shard
	// Write executes mutations: a served deployment's writer
	// (spitz.ClusterDB), or an engine's own Dispatch (EngineHandler). nil
	// refuses them (a read replica).
	Write func(Request) Response
}

// EngineHandler returns the Router of one fixed engine that also takes
// its writes — the building block for wrapping a served engine (e.g.
// with a fault injector in tamper-detection tests).
func EngineHandler(eng *core.Engine) Handler {
	return &Router{
		Shards: []Shard{{Engine: func() *core.Engine { return eng }}},
		Write:  func(req Request) Response { return Dispatch(eng, req) },
	}
}

// shardOf applies the addressing rule to a Shard field: the shard index
// it names, or -1 when a deployment of several was addressed as a whole.
func (r *Router) shardOf(shard int) (int, error) {
	n := len(r.Shards)
	switch {
	case shard < 0 || shard > n:
		return 0, fmt.Errorf("wire: shard %d beyond deployment of %d", shard-1, n)
	case n == 1:
		return 0, nil
	}
	return shard - 1, nil
}

// unaddressed is the refusal of a per-shard request that names no shard
// of a deployment of several.
func (r *Router) unaddressed() error {
	return fmt.Errorf("wire: a deployment of %d shards answers this per shard; set Shard", len(r.Shards))
}

// Handle implements Handler.
func (r *Router) Handle(req Request) Response {
	si, err := r.shardOf(req.Shard)
	if err != nil {
		return Response{Err: err.Error()}
	}
	switch req.Op {
	case OpShardMap:
		return Response{ShardCount: len(r.Shards)}
	case OpClusterDigest:
		d := r.ClusterDigest()
		return Response{Cluster: &d}
	case OpStats:
		st := r.Stats()
		st.Metrics = RegistryMetrics()
		return Response{Stats: &st}
	case OpPut, OpRestore:
		return r.write(req)
	case OpQuery:
		return r.query(si, req)
	}
	return r.on(si, req, Dispatch)
}

func (r *Router) write(req Request) Response {
	if r.Write == nil {
		return Response{Err: "repl: replica is read-only; write to the primary"}
	}
	return r.Write(req)
}

// query routes an OpQuery statement: mutations to the writer, and the
// rest to the addressed shard — there is no cross-shard authenticated
// structure to prove a SELECT against, so sharded clients fan those out
// per shard.
func (r *Router) query(si int, req Request) Response {
	stmt, err := query.Parse(req.Statement)
	if err != nil {
		return Response{Err: err.Error()}
	}
	switch stmt.(type) {
	case query.Insert, query.Update, query.Delete:
		return r.write(req)
	}
	return r.on(si, req, func(eng *core.Engine, req Request) Response {
		return fit(eng, req, dispatchQuery(eng, req, stmt))
	})
}

// on serves a request from shard si, and refuses it when it named none
// (si < 0). Across several shards a traced request gets a child span
// labelled with the shard, so the engine's proof and ledger stages land
// on a per-shard span of the stitched timeline.
func (r *Router) on(si int, req Request, serve func(*core.Engine, Request) Response) Response {
	switch {
	case si < 0:
		return Response{Err: r.unaddressed().Error()}
	case len(r.Shards) == 1:
		return serve(r.Shards[0].Engine(), req)
	}
	leg := req.Trace().ChildAt("shard.dispatch", ShardName(si))
	req.SetTrace(leg)
	resp := serve(r.Shards[si].Engine(), req)
	leg.Finish()
	return resp
}

// Repl resolves a replication-stream request's shard to its source
// (Server.Repl), under the same addressing rule as Handle.
func (r *Router) Repl(shard int) (ReplStreamer, error) {
	si, err := r.shardOf(shard)
	if err != nil {
		return nil, err
	}
	if si < 0 {
		return nil, r.unaddressed()
	}
	if src := r.Shards[si].Source; src != nil {
		return src, nil
	}
	return nil, fmt.Errorf("wire: shard %d has no write-ahead log to replicate (an in-memory database or a replica); serve one opened on a data directory", si)
}

// ClusterDigest returns every shard's ledger digest under one combined
// root. Shards advance independently, so it is a per-shard snapshot, not
// an atomic cut.
func (r *Router) ClusterDigest() proof.ClusterDigest {
	shards := make([]ledger.Digest, len(r.Shards))
	for i, sh := range r.Shards {
		shards[i] = sh.Engine().Digest()
	}
	return proof.NewClusterDigest(shards)
}

// Stats summarizes every shard for OpStats: engine counters, plus the WAL
// span and followers of a shard with a replication source, plus the
// replication state of a replica shard.
func (r *Router) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(r.Shards))}
	for i, sh := range r.Shards {
		eng := sh.Engine()
		b := eng.BatchStats()
		s := ShardStats{Height: eng.Ledger().Height(), Blocks: b.Blocks, Txns: b.Txns}
		if sh.Source != nil {
			w := sh.Source.WALStats()
			s.WAL = &w
			s.Followers = sh.Source.Followers()
		}
		if sh.Replica != nil {
			rs := sh.Replica()
			s.Replica = &rs
		}
		st.Shards[i] = s
	}
	return st
}

// ShardIndex routes a primary key to its shard by FNV-1a hash. Clients
// and servers must agree on this function; it is a deployment's shard
// map.
func ShardIndex(pk []byte, shards int) int {
	h := fnv.New32a()
	h.Write(pk)
	return int(h.Sum32() % uint32(shards))
}

// ShardName labels shard i in traces and 2PC participant names.
func ShardName(i int) string { return fmt.Sprintf("shard-%d", i) }
