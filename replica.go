package spitz

import (
	"fmt"
	"net"
	"time"

	"spitz/internal/core"
	"spitz/internal/repl"
	"spitz/internal/wire"
)

// ReplicaOptions configures DialReplica / NewReplica.
type ReplicaOptions struct {
	// MaintainInverted keeps the replica's inverted index so it can serve
	// equality lookups (SELECT ... WHERE c = 'v').
	MaintainInverted bool
	// ReconnectDelay is the pause between reconnection attempts to the
	// primary (default 250ms).
	ReconnectDelay time.Duration
	// Logf, when non-nil, receives replication lifecycle messages.
	Logf func(format string, args ...any)
}

// Replica is a read-only mirror of a served Spitz deployment: it
// discovers the primary's shard map at connect time, streams every
// shard's write-ahead log, applies each block through the verified-replay
// path (a corrupt or lying primary is detected at apply time), and serves
// the full read surface — verified point reads, scans, history and
// consistency proofs — against its own digests. It reconnects and resumes
// from its current height whenever either side restarts.
//
// Serve exposes it over the wire protocol with the same routing surface
// as the primary, reads only: name its listener in Topology.Replicas (the
// client then anchors trust at the primary), or connect to it alone.
type Replica struct {
	shards []*repl.Replica // one follower per shard of the primary
}

// DialReplica starts a replica of the Spitz server at addr.
func DialReplica(network, addr string, opts ReplicaOptions) (*Replica, error) {
	return NewReplica(func() (*wire.Client, error) { return wire.Dial(network, addr) }, opts)
}

// NewReplica starts a replica from a dialling function — the
// transport-agnostic form DialReplica wraps. The primary must be
// reachable once at construction to discover its shard map; afterwards
// the replica tolerates primary downtime indefinitely.
func NewReplica(dial func() (*wire.Client, error), opts ReplicaOptions) (*Replica, error) {
	c, err := dial()
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(wire.Request{Op: wire.OpShardMap})
	c.Close()
	if err != nil {
		return nil, fmt.Errorf("spitz: replica shard map: %w", err)
	}
	if resp.ShardCount < 1 {
		return nil, fmt.Errorf("spitz: primary reported %d shards", resp.ShardCount)
	}
	r := &Replica{shards: make([]*repl.Replica, resp.ShardCount)}
	for i := range r.shards {
		// Shard i of a cluster streams as wire shard i+1; a one-shard
		// primary streams as 0, which a single engine also accepts.
		shard := i + 1
		if len(r.shards) == 1 {
			shard = 0
		}
		r.shards[i] = repl.New(dial, repl.Options{
			Shard:            shard,
			MaintainInverted: opts.MaintainInverted,
			ReconnectDelay:   opts.ReconnectDelay,
			Logf:             opts.Logf,
		})
	}
	return r, nil
}

// Close stops following the primary. The replica keeps its verified
// state (and any running Serve keeps answering reads from it).
func (r *Replica) Close() {
	for _, sh := range r.shards {
		sh.Close()
	}
}

// Shards returns the number of mirrored shards.
func (r *Replica) Shards() int { return len(r.shards) }

// Status reports each shard's replication state, in shard order.
func (r *Replica) Status() []ReplicaStatus {
	out := make([]ReplicaStatus, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.Status()
	}
	return out
}

// Height returns shard i's ledger height.
func (r *Replica) Height(i int) uint64 { return r.shards[i].Height() }

// Digest returns shard i's ledger digest — what a client proves to be a
// prefix of the primary's before trusting this replica's proofs.
func (r *Replica) Digest(i int) Digest { return r.shards[i].Digest() }

// ClusterDigest returns the replica's per-shard digest vector under one
// combined root (one entry for single-engine primaries).
func (r *Replica) ClusterDigest() ClusterDigest { return r.router().ClusterDigest() }

// Engine exposes shard i's engine for local (in-process) reads.
func (r *Replica) Engine(i int) *core.Engine { return r.shards[i].Engine() }

// WaitForHeight blocks until shard i's ledger reaches height, or the
// timeout elapses. Convenience for tests, benchmarks and scripted
// catch-up.
func (r *Replica) WaitForHeight(i int, height uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if r.Height(i) >= height {
			return nil
		}
		if st := r.shards[i].Status(); st.Poisoned {
			return fmt.Errorf("spitz: replica shard %d poisoned: %s", i, st.LastError)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("spitz: replica shard %d stuck at height %d, want %d", i, r.Height(i), height)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Serve exposes the replica over a listener using the Spitz wire
// protocol; it blocks until the listener closes. All mutations are
// refused; reads follow the primary's routing rules.
func (r *Replica) Serve(ln net.Listener) error { return serve(ln, r.router(), "replica") }

// router is the replica as one listener serves it: every mirrored shard
// at its current engine, and no writer, so every mutation is refused.
func (r *Replica) router() *wire.Router {
	d := &wire.Router{Shards: make([]wire.Shard, len(r.shards))}
	for i, sh := range r.shards {
		d.Shards[i] = sh.Shard()
	}
	return d
}

// ServerStats returns the observability payload this replica serves to
// OpStats clients: per-shard replica heights and apply progress. Use it
// to publish instance gauges on an admin endpoint (wire.PublishStats).
func (r *Replica) ServerStats() ServerStats { return r.router().Stats() }
