package repl

import (
	"fmt"
	"sync"

	"spitz/internal/cellstore"
	"spitz/internal/ledger"
	"spitz/internal/query"
	"spitz/internal/server"
	"spitz/internal/wire"
)

// Set mirrors every shard of a primary deployment: one Replica per wire
// shard, served behind one listener with the same routing surface as the
// primary cluster — a client (spitz.Dial) works against a replica set
// exactly as against the primary, reads only. A one-shard Set serves a
// single-engine primary's replica.
type Set struct {
	replicas []*Replica
}

// NewSet starts one replica per shard of the primary reached by dial
// (shards as reported by its shard map).
func NewSet(dial func() (*wire.Client, error), shards int, opts Options) *Set {
	if shards < 1 {
		shards = 1
	}
	s := &Set{replicas: make([]*Replica, shards)}
	for i := 0; i < shards; i++ {
		o := opts
		if shards == 1 {
			o.Shard = 0 // single-engine primaries accept 0 (and 1)
		} else {
			o.Shard = i + 1
		}
		s.replicas[i] = New(dial, o)
	}
	return s
}

// Shards returns the number of mirrored shards.
func (s *Set) Shards() int { return len(s.replicas) }

// Replica returns the follower mirroring shard i.
func (s *Set) Replica(i int) *Replica { return s.replicas[i] }

// Close stops every follower. They keep serving their verified state.
func (s *Set) Close() {
	for _, r := range s.replicas {
		r.Close()
	}
}

// Status reports every shard's replication state, in shard order.
func (s *Set) Status() []Status {
	out := make([]Status, len(s.replicas))
	for i, r := range s.replicas {
		out[i] = r.Status()
	}
	return out
}

// ClusterDigest returns the replica set's per-shard digest vector under
// one combined root — the same shape the primary cluster serves.
func (s *Set) ClusterDigest() ledger.ClusterDigest {
	shards := make([]ledger.Digest, len(s.replicas))
	for i, r := range s.replicas {
		shards[i] = r.Digest()
	}
	return ledger.NewClusterDigest(shards)
}

// WireStats summarizes every shard for OpStats.
func (s *Set) WireStats() wire.Stats {
	st := wire.Stats{Shards: make([]wire.ShardStats, len(s.replicas))}
	for i, r := range s.replicas {
		st.Shards[i] = r.wireStats()
	}
	return st
}

// Handle implements wire.Handler with the cluster's routing rules:
// Shard > 0 addresses one mirrored shard directly, Shard = 0 routes point
// reads by primary key and scatters scans — and every mutation is
// refused. A one-shard set behaves exactly like a single replica.
func (s *Set) Handle(req wire.Request) wire.Response {
	switch req.Op {
	case wire.OpPut, wire.OpRestore:
		return wire.Response{Err: "repl: replica is read-only; write to the primary"}
	case wire.OpQuery:
		if query.Mutates(req.Statement) {
			return wire.Response{Err: "repl: replica is read-only; write to the primary"}
		}
	case wire.OpShardMap:
		return wire.Response{ShardCount: len(s.replicas)}
	case wire.OpStats:
		st := s.WireStats()
		return wire.Response{Stats: &st}
	case wire.OpClusterDigest:
		d := s.ClusterDigest()
		return wire.Response{Cluster: &d}
	}
	if len(s.replicas) == 1 {
		return s.replicas[0].Handle(req)
	}
	if req.Shard > 0 {
		if req.Shard > len(s.replicas) {
			return wire.Response{Err: fmt.Sprintf("repl: shard %d beyond replica set of %d", req.Shard-1, len(s.replicas))}
		}
		resp := wire.Dispatch(s.replicas[req.Shard-1].Engine(), req)
		resp.Shard = req.Shard
		return resp
	}
	switch req.Op {
	case wire.OpGet, wire.OpGetVerified, wire.OpHistory:
		si := server.ShardIndex(req.PK, len(s.replicas))
		resp := wire.Dispatch(s.replicas[si].Engine(), req)
		resp.Shard = si + 1
		return resp
	case wire.OpRange:
		cells, err := s.scatter(func(r *Replica) ([]cellstore.Cell, error) {
			return r.Engine().RangePK(req.Table, req.Column, req.PK, req.PKHi)
		})
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{Found: len(cells) > 0, Cells: cells}
	case wire.OpLookupEq:
		cells, err := s.scatter(func(r *Replica) ([]cellstore.Cell, error) {
			return r.Engine().LookupEqual(req.Table, req.Column, req.Value)
		})
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{Found: len(cells) > 0, Cells: cells}
	case wire.OpQuery:
		// Point SELECTs and HISTORY route to the owning mirrored shard
		// (proofs stay checkable against that shard's digest); wider
		// statements are proven per shard, so sharded clients fan them
		// out with explicit Shard targets.
		stmt, err := query.Parse(req.Statement)
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		var pk string
		switch q := stmt.(type) {
		case query.History:
			pk = q.PK
		case query.Select:
			if !q.HasPK {
				return wire.Response{Err: "wire: range, lookup and aggregate queries are proven per shard; " +
					"set Shard or connect with a sharded client"}
			}
			pk = q.PK
		default:
			return wire.Response{Err: "repl: replica is read-only; write to the primary"}
		}
		si := server.ShardIndex([]byte(pk), len(s.replicas))
		resp := wire.Dispatch(s.replicas[si].Engine(), req)
		resp.Shard = si + 1
		return resp
	case wire.OpRangeVer:
		return wire.Response{Err: "wire: verified range scans across a cluster must target one shard at a time (set Shard)"}
	case wire.OpDigest, wire.OpConsistency, wire.OpProveBatch:
		return wire.Response{Err: "wire: digests and audit proofs are per-shard in a replica set; set Shard, use " +
			string(wire.OpClusterDigest) + ", or connect with spitz.Dial, which addresses each shard"}
	case wire.OpSnapshot:
		return wire.Response{Err: "wire: snapshots are per-shard in a replica set; set Shard"}
	default:
		return wire.Response{Err: fmt.Sprintf("wire: unknown op %q", req.Op)}
	}
}

// scatter runs fn against every mirrored shard concurrently and merges
// the per-shard results into pk order (the cluster's scan order).
func (s *Set) scatter(fn func(*Replica) ([]cellstore.Cell, error)) ([]cellstore.Cell, error) {
	parts := make([][]cellstore.Cell, len(s.replicas))
	errs := make([]error, len(s.replicas))
	var wg sync.WaitGroup
	for i := range s.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = fn(s.replicas[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return server.MergeCellsByPK(parts), nil
}

// Compile-time interface check.
var _ wire.Handler = (*Set)(nil)
