package spitz

import (
	"net"
	"time"

	"spitz/internal/core"
	"spitz/internal/ledger"
	"spitz/internal/repl"
	"spitz/internal/server"
	"spitz/internal/txn"
	"spitz/internal/wire"
)

// Cluster-level re-exports.
type (
	// ClusterDigest is the sharded deployment's commitment: one ledger
	// digest per shard plus a combined root binding the vector.
	ClusterDigest = ledger.ClusterDigest
	// ClusterTxn is an interactive cross-shard transaction committed with
	// two-phase commit.
	ClusterTxn = server.Txn
	// ClusterStats reports per-shard engine counters and 2PC outcomes.
	ClusterStats = server.Stats
	// ShardStats is one shard's slice of ClusterStats.
	ShardStats = server.ShardStats
)

// ClusterOptions configures OpenCluster.
type ClusterOptions struct {
	// Shards is the number of shards. When reopening an existing durable
	// cluster it may be 0 to adopt the recorded count; a conflicting
	// non-zero value is rejected rather than silently rerouting keys.
	Shards int

	// Mode selects each shard's concurrency control scheme.
	Mode txn.Mode
	// MaintainInverted enables each shard's inverted index, so
	// LookupEqual fans out across the cluster.
	MaintainInverted bool
	// MaxBatchTxns and MaxBatchDelay tune each shard's group-commit
	// pipeline (see Options).
	MaxBatchTxns  int
	MaxBatchDelay time.Duration

	// The fields below configure per-shard durability; ignored when
	// OpenCluster is called with an empty dir.
	Sync                  SyncPolicy
	SyncEvery             time.Duration
	CheckpointInterval    time.Duration
	CheckpointEveryBlocks uint64
	WALSegmentSize        int64
	// NodeCacheMB bounds each shard's node cache, so a cluster's total
	// budget is Shards × NodeCacheMB.
	NodeCacheMB int
}

// ClusterDB is a sharded Spitz deployment (Section 5.2): the key space
// is partitioned across shards by primary-key hash, every shard is a
// full engine with its own tamper-evident ledger (and, with a data
// directory, its own write-ahead log and checkpoints under
// <dir>/shard-NNN/), and cross-shard writes commit with two-phase
// commit. Timestamps come from a hybrid logical clock, so no central
// oracle sits on the commit path.
//
// Reads that name a primary key (history included) route to the owning
// shard; range scans and value lookups merge parallel per-shard scans. Verified
// reads return the owning shard's proof together with the shard index,
// to be checked against that shard's entry in the ClusterDigest.
// Safe for concurrent use.
type ClusterDB struct {
	c *server.Cluster
	// srcs are the per-shard replication sources (nil for memory-only
	// clusters, which have no write-ahead log to ship).
	srcs []*repl.Source
}

// IsClusterDir reports whether dir holds a sharded cluster's data
// layout (as written by OpenCluster) rather than a single-engine one
// (OpenDir). Opening a directory with the wrong call fails loudly; this
// lets tools pick the right one up front.
func IsClusterDir(dir string) bool { return server.IsClusterDir(dir) }

// OpenCluster opens (creating if needed) a sharded verifiable database.
// With a non-empty dir every shard is durable — commits are written
// ahead to the shard's log before acknowledgement, and a crash recovers
// every shard to its exact pre-crash digest on the next OpenCluster. An
// empty dir serves a memory-only cluster. Call Close when done.
func OpenCluster(dir string, opts ClusterOptions) (*ClusterDB, error) {
	c, err := server.Open(server.Options{
		Shards:                opts.Shards,
		Dir:                   dir,
		Mode:                  opts.Mode,
		MaintainInverted:      opts.MaintainInverted,
		MaxBatchTxns:          opts.MaxBatchTxns,
		MaxBatchDelay:         opts.MaxBatchDelay,
		Sync:                  opts.Sync,
		SyncInterval:          opts.SyncEvery,
		SegmentSize:           opts.WALSegmentSize,
		CheckpointInterval:    opts.CheckpointInterval,
		CheckpointEveryBlocks: opts.CheckpointEveryBlocks,
		NodeCacheMB:           opts.NodeCacheMB,
	})
	if err != nil {
		return nil, err
	}
	db := &ClusterDB{c: c}
	if dir != "" {
		// Every durable shard can have replication followers.
		db.srcs = make([]*repl.Source, c.Shards())
		for i := 0; i < c.Shards(); i++ {
			db.srcs[i] = repl.NewSource(c.Durable(i))
		}
	}
	return db, nil
}

// Close makes all acknowledged commits durable and releases every
// shard's data directory.
func (db *ClusterDB) Close() error { return db.c.Close() }

// Checkpoint forces a durable snapshot of every shard now.
func (db *ClusterDB) Checkpoint() error { return db.c.Checkpoint() }

// Shards returns the number of shards.
func (db *ClusterDB) Shards() int { return db.c.Shards() }

// ShardFor reports which shard owns a primary key.
func (db *ClusterDB) ShardFor(pk []byte) int { return db.c.ShardFor(pk) }

// Apply commits a batch of writes atomically, grouped by owning shard;
// batches spanning shards commit with two-phase commit, so they are
// never half-applied. It returns the cluster commit timestamp.
func (db *ClusterDB) Apply(statement string, puts []Put) (uint64, error) {
	return db.c.Apply(statement, puts)
}

// PutRow writes all columns of one row atomically (one shard: rows never
// span shards).
func (db *ClusterDB) PutRow(table string, pk []byte, columns map[string][]byte) (uint64, error) {
	puts := make([]Put, 0, len(columns))
	for col, val := range columns {
		puts = append(puts, Put{Table: table, Column: col, PK: pk, Value: val})
	}
	return db.Apply("PUT ROW "+table, puts)
}

// Get returns the latest live value of a cell from its owning shard, or
// ErrNotFound.
func (db *ClusterDB) Get(table, column string, pk []byte) ([]byte, error) {
	return db.c.Get(table, column, pk)
}

// GetRow reads the given columns of one row from a single ledger
// snapshot of the owning shard.
func (db *ClusterDB) GetRow(table string, pk []byte, columns []string) (map[string][]byte, error) {
	return db.c.GetRow(table, pk, columns)
}

// GetVerified returns the latest version of a cell with its integrity
// proof and the owning shard's index: the proof verifies against that
// shard's digest (ClusterDigest().Shards[shard]).
func (db *ClusterDB) GetVerified(table, column string, pk []byte) (VerifiedResult, int, error) {
	shard, res, err := db.c.GetVerified(table, column, pk)
	return res, shard, err
}

// RangePK scans the latest live cells with primary keys in [pkLo, pkHi)
// across every shard in parallel, merged into one pk-ordered result.
func (db *ClusterDB) RangePK(table, column string, pkLo, pkHi []byte) ([]Cell, error) {
	return db.c.RangePK(table, column, pkLo, pkHi)
}

// LookupEqual returns cells of one column whose latest value equals
// value, gathered from every shard's inverted index in parallel
// (requires ClusterOptions.MaintainInverted).
func (db *ClusterDB) LookupEqual(table, column string, value []byte) ([]Cell, error) {
	return db.c.LookupEqual(table, column, value)
}

// History returns every version of a cell, newest first.
func (db *ClusterDB) History(table, column string, pk []byte) ([]Cell, error) {
	return db.c.History(table, column, pk)
}

// Exec parses and executes one statement against the cluster: reads
// scatter-gather across every shard, mutations group by key ownership
// and commit with two-phase commit. The embedded, unverified form of
// the query surface — see Client.Query for verified execution.
func (db *ClusterDB) Exec(statement string) (QueryResult, error) {
	return db.c.Exec(statement)
}

// Begin starts an interactive cross-shard transaction: reads collect
// versions to validate, writes stage locally, and Commit runs two-phase
// commit over every touched shard.
func (db *ClusterDB) Begin() *ClusterTxn { return db.c.Begin() }

// ClusterDigest returns the per-shard digest vector with its combined
// root — what a verifying client saves.
func (db *ClusterDB) ClusterDigest() ClusterDigest { return db.c.Digest() }

// ClusterStats returns per-shard ledger heights and batching behaviour
// plus the 2PC coordinator's commit/abort counters.
func (db *ClusterDB) ClusterStats() ClusterStats { return db.c.Stats() }

// Engine exposes shard i's engine for shard-local operations (per-shard
// verified range scans, snapshots, benchmarks).
func (db *ClusterDB) Engine(i int) *core.Engine { return db.c.Engine(i) }

// Serve exposes the whole cluster over one listener using the Spitz wire
// protocol; it blocks until the listener closes. Connect with Dial: the
// client learns the shard map and verifies per shard. Durable clusters
// also serve per-shard replication streams, so each shard can have
// followers (DialReplica mirrors the whole cluster, shard by shard).
func (db *ClusterDB) Serve(ln net.Listener) error { return serve(ln, db.router(), "primary") }

// router is the cluster as one listener serves it: N fixed shard engines
// written through the 2PC coordinator.
func (db *ClusterDB) router() *wire.Router {
	d := &wire.Router{Shards: make([]wire.Shard, db.c.Shards()), Write: db.c.Write}
	for i := range d.Shards {
		eng := db.c.Engine(i)
		d.Shards[i].Engine = func() *core.Engine { return eng }
		if db.srcs != nil {
			d.Shards[i].Source = db.srcs[i]
		}
	}
	return d
}

// ServerStats returns the observability payload this cluster serves to
// OpStats clients: per-shard heights, WAL spans and attached followers.
// Use it to publish instance gauges on an admin endpoint
// (wire.PublishStats).
func (db *ClusterDB) ServerStats() ServerStats { return db.router().Stats() }
