// Package spitz is a verifiable database: an immutable, tamper-evident,
// multi-version transactional store in which every query result can carry
// an integrity proof verifiable against a compact ledger digest.
//
// It is a from-scratch Go implementation of the system described in
// "Spitz: A Verifiable Database System" (Zhang, Xie, Yue, Zhong;
// PVLDB 13(12), 2020). The engine unifies the query index and the ledger:
// the same authenticated index traversal that answers a query produces its
// proof, which is what makes verified reads, writes and range scans cheap
// compared with bolting a separate ledger onto an existing database.
//
// # Quick start
//
//	db := spitz.Open(spitz.Options{})
//	db.Apply("credit alice", []spitz.Put{
//		{Table: "accounts", Column: "balance", PK: []byte("alice"), Value: []byte("100")},
//	})
//	v, _ := db.Get("accounts", "balance", []byte("alice"))
//
//	verifier := spitz.NewVerifier()
//	res, _ := db.GetVerified("accounts", "balance", []byte("alice"))
//	_ = verifier.Advance(res.Digest, spitz.ConsistencyProof{}) // pin trust
//	read := []spitz.BatchQuery{{Table: "accounts", Column: "balance", PK: []byte("alice")}}
//	live, err := verifier.Check(&res.Proof, res.Digest, read, 1, nil)
//	if err != nil {
//		// tampering detected
//	}
//	// live[0]: alice's live cell as the proof shows it, or none
//
// A DB is a deployment of one shard: OpenCluster opens N, and the two
// share every method but the single-ledger ones (Digest, Height, Block,
// consistency proofs, GetAt, documents, snapshots). On a cluster the
// same GetVerified proof verifies against the owning shard's digest:
//
//	cluster, _ := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 4})
//	res, _ = cluster.GetVerified("accounts", "balance", []byte("alice"))
//	shard := cluster.ShardFor([]byte("alice"))
//	_ = res.Digest == cluster.ClusterDigest().Shards[shard] // one verifier per shard
//
// See the examples directory for transactional, analytical, and networked
// usage, and DESIGN.md for the architecture.
package spitz

import (
	"io"
	"time"

	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/durable"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/proof"
	"spitz/internal/query"
	"spitz/internal/repl"
	"spitz/internal/wal"
	"spitz/internal/wire"
)

// Re-exported core types. The aliases keep one canonical definition while
// letting applications depend only on this package.
type (
	// Cell is one value of one column of one row at one version.
	Cell = cellstore.Cell
	// Put is one cell write in a batch.
	Put = core.Put
	// Digest is the compact ledger commitment a client saves locally.
	Digest = ledger.Digest
	// Proof is the integrity proof attached to a verified query result:
	// of one read, or of a deferred-audit flush's receipts.
	Proof = ledger.Proof
	// BatchQuery is one read a Proof proves (Verifier.Check).
	BatchQuery = ledger.BatchQuery
	// ConsistencyProof shows one digest's ledger is a prefix of another's.
	ConsistencyProof = mtree.ConsistencyProof
	// BlockHeader describes one committed ledger block.
	BlockHeader = ledger.BlockHeader
	// VerifiedResult carries a result with its proof and digest.
	VerifiedResult = core.VerifiedResult
	// Verifier tracks a client's trusted digest and checks proofs.
	Verifier = proof.Verifier
	// BatchStats describes the group-commit pipeline's behaviour.
	BatchStats = core.BatchStats
	// WALStats summarizes the write-ahead log: durable height and the
	// retained segment span (what a late replication follower can still
	// resume from).
	WALStats = durable.WALStats
	// FollowerStats describes one attached replication follower: acked
	// height and lag in blocks and bytes.
	FollowerStats = wire.FollowerStats
	// ServerStats is the wire-level observability payload a running
	// server reports (Client.Stats, spitz-cli stats).
	ServerStats = wire.Stats
	// Metric is one named counter or gauge sample in ServerStats.
	Metric = wire.Metric
	// ReplicaStatus is a read replica's replication state.
	ReplicaStatus = repl.Status
)

// SyncPolicy controls when durable commits reach the disk (OpenDir).
type SyncPolicy = wal.SyncPolicy

// Sync policies for Options.Sync.
const (
	// SyncAlways fsyncs the write-ahead log before acknowledging every
	// commit; concurrent commits share one fsync (group commit).
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a background timer; a crash loses at most
	// the last interval of commits.
	SyncInterval = wal.SyncInterval
	// SyncNever hands commits to the OS immediately but never fsyncs.
	SyncNever = wal.SyncNever
)

// Sentinel errors.
var (
	// ErrNotFound is returned by Get for absent or deleted cells.
	ErrNotFound = core.ErrNotFound
	// ErrConflict is returned by Txn.Commit on serialization conflicts,
	// on a single engine and a cluster alike, and by a write that meets a
	// key a cross-shard transaction holds prepared.
	ErrConflict = core.ErrConflict
	// ErrTampered is returned by Verifier methods when verification fails.
	ErrTampered = proof.ErrTampered
)

// Options configures Open and OpenDir, and every shard of OpenCluster.
type Options struct {
	// MaintainInverted enables the inverted index for value lookups
	// (LookupEqual, LookupNumericRange) at some write cost.
	MaintainInverted bool

	// MaxBatchTxns caps how many concurrent transactions the group-commit
	// pipeline folds into one ledger block (default 128).
	// Batching adds no latency: a block holds the commits that arrived
	// while the previous one was being built, which self-tunes with load.
	MaxBatchTxns int

	// The fields below configure durability and apply to OpenDir and a
	// durable OpenCluster only; Open ignores them.

	// Sync selects when commits become durable (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval
	// (default 50ms).
	SyncEvery time.Duration
	// CheckpointInterval and CheckpointEveryBlocks control background
	// checkpoints; both zero means 1 minute / 4096 blocks, and a
	// negative interval disables automatic checkpoints.
	CheckpointInterval    time.Duration
	CheckpointEveryBlocks uint64
	// WALSegmentSize caps write-ahead log segment files (default 64 MiB).
	WALSegmentSize int64

	// NodeCacheMB bounds the node store's cache in MiB (default 64,
	// minimum 1).
	NodeCacheMB int

	// Deprecated: every data directory is the disk-native node store, so
	// Store is ignored; the field stays for the frozen benchmark module.
	Store StoreKind
}

// Deprecated: there is one node store; the name stays for the frozen
// benchmark module.
type StoreKind = durable.StoreKind

// Deprecated: see StoreKind.
const StoreDisk = durable.StoreDisk

// DB is an embedded Spitz database: a deployment of one shard (Open,
// OpenDir, Restore). Everything a ClusterDB does it does, through the one
// implementation, and it adds the methods that need a single ledger.
// Safe for concurrent use.
type DB struct{ *ClusterDB }

// Open creates an in-memory verifiable database. State is lost when the
// process exits; use OpenDir for a durable database.
func Open(opts Options) *DB {
	db, _ := openShards(opts, []string{""}) // memory: nothing to fail
	return &DB{db}
}

// engines maps opts onto an in-memory engine's settings and a data
// directory's — the one mapping every shard (openShards) and every
// restore share. ts, when non-nil, is the clock a deployment's shards
// draw commit versions from; nil gives each engine its own oracle. The
// engine settings name no store, so each engine built from them gets a
// fresh in-memory one.
func (opts Options) engines(ts durable.TimestampSource) (core.Options, durable.Options) {
	eng := core.Options{
		Timestamps:       ts,
		MaintainInverted: opts.MaintainInverted,
		MaxBatchTxns:     opts.MaxBatchTxns,
	}
	return eng, durable.Options{
		Timestamps:            ts,
		MaintainInverted:      opts.MaintainInverted,
		MaxBatchTxns:          opts.MaxBatchTxns,
		Sync:                  opts.Sync,
		SyncInterval:          opts.SyncEvery,
		SegmentSize:           opts.WALSegmentSize,
		CheckpointInterval:    opts.CheckpointInterval,
		CheckpointEveryBlocks: opts.CheckpointEveryBlocks,
		NodeCacheMB:           opts.NodeCacheMB,
	}
}

// OpenDir opens (creating if needed) a durable verifiable database in
// dir. State lives in a disk-native node store behind a bounded cache.
// Every commit is written ahead to a log before it is acknowledged,
// checkpoints flush new nodes and record the head's root in the
// background, and a crash recovers on the next OpenDir: the state is
// addressed by the checkpointed root and the log tail replayed with
// per-block hash verification, so clients' saved digests keep verifying
// across the restart. Call Close when done.
func OpenDir(dir string, opts Options) (*DB, error) {
	db, err := openShards(opts, []string{dir})
	if err != nil {
		return nil, err
	}
	return &DB{db}, nil
}

// NewVerifier returns a client-side proof verifier with no pinned digest;
// the first Advance pins trust-on-first-use.
func NewVerifier() *Verifier { return proof.NewVerifier() }

// RangePKVerified scans a primary-key range with one proof covering the
// complete result set.
func (db *DB) RangePKVerified(table, column string, pkLo, pkHi []byte) (VerifiedResult, error) {
	return db.Engine(0).Verified(ledger.BatchQuery{Table: table, Column: column, PK: pkLo, PKHi: pkHi, Range: true}, 0, nil)
}

// GetAt reads a cell as of a historical ledger block (time travel).
func (db *DB) GetAt(height uint64, table, column string, pk []byte) (Cell, bool, error) {
	return db.Engine(0).GetAt(height, table, column, pk)
}

// LookupNumericRange returns cells whose 8-byte big-endian numeric value
// lies in [lo, hi) (requires Options.MaintainInverted).
func (db *DB) LookupNumericRange(table, column string, lo, hi uint64) ([]Cell, error) {
	return db.Engine(0).LookupNumericRange(table, column, lo, hi)
}

// Digest returns the current ledger digest; clients save it and verify
// later proofs (and history consistency) against it.
func (db *DB) Digest() Digest { return db.Engine(0).Digest() }

// ConsistencyProof proves that the current ledger extends the one
// committed by old — history was appended to, never rewritten.
func (db *DB) ConsistencyProof(old Digest) (ConsistencyProof, error) {
	_, cons, err := db.ConsistencyUpdate(old)
	return cons, err
}

// ConsistencyUpdate returns the current digest together with the proof
// that it extends old. Clients refreshing a pinned digest while commits
// are in flight should use this instead of calling Digest and
// ConsistencyProof separately, which can straddle a new block and fail
// to match.
func (db *DB) ConsistencyUpdate(old Digest) (Digest, ConsistencyProof, error) {
	eng := db.Engine(0)
	d := eng.Digest()
	cons, err := eng.ConsistencyProof(old.Height, d.Height)
	return d, cons, err
}

// Height returns the number of committed ledger blocks.
func (db *DB) Height() uint64 { return db.Engine(0).Ledger().Height() }

// Block returns the header of the block at the given height.
func (db *DB) Block(height uint64) (BlockHeader, error) {
	return db.Engine(0).Ledger().Header(height)
}

// ResetFromSnapshot replaces this in-memory database's entire state with
// the contents of a snapshot stream (WriteSnapshot's output), validating
// it like Restore does. In-flight reads complete against the old state;
// a write or transaction that began on it fails with ErrConflict. Durable
// databases refuse: their state is owned by the data directory.
func (db *DB) ResetFromSnapshot(r io.Reader) error {
	_, err := db.restore(r)
	return err
}

// PutDocument stores a JSON document (the paper's self-defined JSON
// schema): fields map to columns, nested objects to dotted paths, so each
// field gets cell-level history and verifiability. It returns the block
// height of the commit.
func (db *DB) PutDocument(table string, pk []byte, doc []byte) (uint64, error) {
	return query.PutDocument(db.Engine(0), table, pk, doc)
}

// GetDocument reassembles the latest version of a document.
func (db *DB) GetDocument(table string, pk []byte) ([]byte, bool, error) {
	return query.GetDocument(db.Engine(0), table, pk)
}

// WriteSnapshot serializes the database to w for restart durability:
// block headers and every live object, each cell's chain included. Restore the
// stream with Restore.
func (db *DB) WriteSnapshot(w io.Writer) error { return db.Engine(0).WriteSnapshot(w) }

// Restore reconstructs a database from a snapshot written by
// WriteSnapshot. Every object is re-inserted through content addressing
// and the block chain revalidated, so tampered snapshots are rejected;
// clients' saved digests keep verifying against the restored database.
func Restore(opts Options, r io.Reader) (*DB, error) {
	db := Open(opts)
	if err := db.ResetFromSnapshot(r); err != nil {
		return nil, err
	}
	return db, nil
}
