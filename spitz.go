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
// See the examples directory for transactional, analytical, and networked
// usage, and DESIGN.md for the architecture.
package spitz

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
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

// Stats is a point-in-time snapshot of database counters.
type Stats struct {
	// Height is the number of committed ledger blocks.
	Height uint64
	// Batch reports the group-commit pipeline: blocks cut, transactions
	// per block, and the batch-size distribution.
	Batch BatchStats
	// Txns reports interactive transaction outcomes.
	Txns TxnStats
	// WAL reports the write-ahead log's durable height and retained
	// segment span; nil for in-memory databases.
	WAL *WALStats
	// Followers lists the replication followers currently streaming this
	// database's log (populated while the database is served).
	Followers []FollowerStats
}

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

// DB is an embedded Spitz database. Safe for concurrent use.
type DB struct {
	mu   sync.RWMutex
	eng  *core.Engine
	dur  *durable.Manager
	src  *repl.Source // replication source over dur's WAL; nil in memory
	opts Options
	txns txnCounts
}

// engine returns the current engine (swappable via ResetFromSnapshot).
func (db *DB) engine() *core.Engine {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.eng
}

// Open creates an in-memory verifiable database. State is lost when the
// process exits; use OpenDir for a durable database.
func Open(opts Options) *DB {
	eng, _ := opts.engines(nil)
	return &DB{eng: core.New(eng), opts: opts}
}

// engines maps opts onto an in-memory engine's settings and a data
// directory's — the one mapping Open, Restore, ResetFromSnapshot, OpenDir
// and every OpenCluster shard share. ts, when non-nil, is the clock a
// cluster's shards draw commit versions from; nil gives each engine its
// own oracle. The engine settings name no store, so each engine built
// from them gets a fresh in-memory one.
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
	_, dur := opts.engines(nil)
	m, err := durable.Open(dir, dur)
	if err != nil {
		return nil, err
	}
	return &DB{eng: m.Engine(), dur: m, src: repl.NewSource(m), opts: opts}, nil
}

// Close makes all acknowledged commits durable and releases the data
// directory. It is a no-op for in-memory databases. Commits issued after
// Close fail.
func (db *DB) Close() error {
	if db.dur != nil {
		return db.dur.Close()
	}
	return nil
}

// Checkpoint forces a checkpoint now instead of waiting for the
// background cadence, shrinking both recovery time and the write-ahead
// log. It is a no-op for in-memory databases.
func (db *DB) Checkpoint() error {
	if db.dur != nil {
		return db.dur.Checkpoint()
	}
	return nil
}

// NewVerifier returns a client-side proof verifier with no pinned digest;
// the first Advance pins trust-on-first-use.
func NewVerifier() *Verifier { return proof.NewVerifier() }

// Apply commits a batch of writes as one ledger block (group commit) and
// returns its header. statement is recorded in the block for auditing.
func (db *DB) Apply(statement string, puts []Put) (BlockHeader, error) {
	return db.engine().Apply(statement, puts)
}

// PutRow writes all columns of one row in a single block.
func (db *DB) PutRow(table string, pk []byte, columns map[string][]byte) (BlockHeader, error) {
	puts := make([]Put, 0, len(columns))
	for col, val := range columns {
		puts = append(puts, Put{Table: table, Column: col, PK: pk, Value: val})
	}
	return db.Apply("PUT ROW "+table, puts)
}

// Get returns the latest live value of a cell, or ErrNotFound.
func (db *DB) Get(table, column string, pk []byte) ([]byte, error) {
	return db.engine().Get(table, column, pk)
}

// GetRow reads the given columns of one row; absent columns are omitted.
// All columns are read from one ledger snapshot, so a concurrent commit
// never interleaves old and new column values in the result.
func (db *DB) GetRow(table string, pk []byte, columns []string) (map[string][]byte, error) {
	return db.engine().GetRow(table, pk, columns)
}

// GetVerified returns the latest version of a cell together with its
// integrity proof and the digest it verifies against.
func (db *DB) GetVerified(table, column string, pk []byte) (VerifiedResult, error) {
	return db.engine().GetVerified(table, column, pk)
}

// RangePK scans the latest live cells of one column with primary keys in
// [pkLo, pkHi); nil bounds are open.
func (db *DB) RangePK(table, column string, pkLo, pkHi []byte) ([]Cell, error) {
	return db.engine().RangePK(table, column, pkLo, pkHi)
}

// RangePKVerified scans a primary-key range with one proof covering the
// complete result set.
func (db *DB) RangePKVerified(table, column string, pkLo, pkHi []byte) (VerifiedResult, error) {
	return db.engine().Verified(ledger.BatchQuery{Table: table, Column: column, PK: pkLo, PKHi: pkHi, Range: true}, 0, nil)
}

// History returns every version of a cell, newest first, including
// tombstones.
func (db *DB) History(table, column string, pk []byte) ([]Cell, error) {
	return db.engine().History(table, column, pk)
}

// GetAt reads a cell as of a historical ledger block (time travel).
func (db *DB) GetAt(height uint64, table, column string, pk []byte) (Cell, bool, error) {
	return db.engine().GetAt(height, table, column, pk)
}

// LookupEqual returns cells of one column whose latest value equals value
// (requires Options.MaintainInverted).
func (db *DB) LookupEqual(table, column string, value []byte) ([]Cell, error) {
	return db.engine().LookupEqual(table, column, value)
}

// LookupNumericRange returns cells whose 8-byte big-endian numeric value
// lies in [lo, hi) (requires Options.MaintainInverted).
func (db *DB) LookupNumericRange(table, column string, lo, hi uint64) ([]Cell, error) {
	return db.engine().LookupNumericRange(table, column, lo, hi)
}

// Begin starts an interactive serializable transaction (Txn).
func (db *DB) Begin() *Txn { return newTxn([]*core.Engine{db.engine()}, nil, &db.txns) }

// Digest returns the current ledger digest; clients save it and verify
// later proofs (and history consistency) against it.
func (db *DB) Digest() Digest { return db.engine().Digest() }

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
	eng := db.engine()
	d := eng.Digest()
	cons, err := eng.ConsistencyProof(old.Height, d.Height)
	return d, cons, err
}

// Height returns the number of committed ledger blocks.
func (db *DB) Height() uint64 { return db.engine().Ledger().Height() }

// Stats returns a snapshot of the database's runtime counters: ledger
// height, group-commit batching behaviour, transaction outcomes, and —
// for durable databases — the write-ahead log's durable height and
// retained span plus every attached replication follower's progress.
func (db *DB) Stats() Stats {
	eng := db.engine()
	s := Stats{
		Height: eng.Ledger().Height(),
		Batch:  eng.BatchStats(),
		Txns:   db.txns.stats(),
	}
	if db.dur != nil {
		ws := db.dur.WALStats()
		s.WAL = &ws
		s.Followers = db.src.Followers()
	}
	return s
}

// Block returns the header of the block at the given height.
func (db *DB) Block(height uint64) (BlockHeader, error) {
	return db.engine().Ledger().Header(height)
}

// Serve exposes the database over a listener using the Spitz wire
// protocol; it blocks until the listener closes. Use Client to connect.
// In-memory databases additionally accept the wire protocol's restore
// operation (Client.Restore / spitz-cli restore), which replaces the
// served state from an operator-supplied snapshot; durable databases
// reject it, because their state must come from their own data directory.
func (db *DB) Serve(ln net.Listener) error { return serve(ln, db.router(), "primary") }

// router is the database as one listener serves it: one shard, read at
// its current engine on every request (so a restore takes effect on the
// next one), written through its own Dispatch with restores in front.
func (db *DB) router() *wire.Router {
	sh := wire.Shard{Engine: db.engine}
	if db.src != nil {
		sh.Source = db.src
	}
	return &wire.Router{Shards: []wire.Shard{sh}, Write: func(req wire.Request) wire.Response {
		if req.Op != wire.OpRestore {
			return wire.Dispatch(db.engine(), req)
		}
		eng, err := db.resetFromSnapshot(bytes.NewReader(req.Snapshot))
		if err != nil {
			return wire.Response{Err: fmt.Sprintf("wire: restore: %v", err)}
		}
		return wire.Response{Digest: eng.Digest()}
	}}
}

// serve runs one wire server over a deployment until ln closes; node
// labels its spans in stitched traces ("primary", "replica").
func serve(ln net.Listener, d *wire.Router, node string) error {
	srv := wire.NewHandlerServer(d)
	srv.Node = node
	srv.Repl = d.Repl
	return srv.Serve(ln)
}

// ServerStats returns the observability payload this database serves to
// OpStats clients: shard heights, WAL span, attached followers. Use it
// to publish instance gauges on an admin endpoint (wire.PublishStats).
func (db *DB) ServerStats() ServerStats { return db.router().Stats() }

// ResetFromSnapshot replaces this in-memory database's entire state with
// the contents of a snapshot stream (WriteSnapshot's output), validating
// it like Restore does. In-flight operations complete against the old
// state. Durable databases refuse: their state is owned by the data
// directory.
func (db *DB) ResetFromSnapshot(r io.Reader) error {
	_, err := db.resetFromSnapshot(r)
	return err
}

func (db *DB) resetFromSnapshot(r io.Reader) (*core.Engine, error) {
	if db.dur != nil {
		return nil, errors.New("spitz: cannot restore a snapshot into a durable database; recover from its data directory instead")
	}
	opts, _ := db.opts.engines(nil)
	eng, err := core.Restore(opts, r)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.eng = eng
	db.mu.Unlock()
	return eng, nil
}

// QueryResult is the outcome of Exec: rows for SELECT/HISTORY, an affected
// count and block height for mutations.
type QueryResult = query.Result

// QueryRow is one result row.
type QueryRow = query.Row

// Exec parses and executes one SQL statement (the paper's SQL interface):
//
//	INSERT INTO t (pk, col, ...) VALUES ('k', 'v', ...)
//	SELECT col, ... | * FROM t WHERE pk = 'k' | pk BETWEEN 'a' AND 'b'
//	UPDATE t SET col = 'v' WHERE pk = 'k'
//	DELETE FROM t WHERE pk = 'k'
//	HISTORY t.col WHERE pk = 'k'
//
// Mutating statements are recorded verbatim in their ledger block.
func (db *DB) Exec(statement string) (QueryResult, error) {
	return query.Exec(db.engine(), statement)
}

// PutDocument stores a JSON document (the paper's self-defined JSON
// schema): fields map to columns, nested objects to dotted paths, so each
// field gets cell-level history and verifiability. It returns the block
// height of the commit.
func (db *DB) PutDocument(table string, pk []byte, doc []byte) (uint64, error) {
	return query.PutDocument(db.engine(), table, pk, doc)
}

// GetDocument reassembles the latest version of a document.
func (db *DB) GetDocument(table string, pk []byte) ([]byte, bool, error) {
	return query.GetDocument(db.engine(), table, pk)
}

// Columns lists the columns ever written to a table: those its keys in
// the authenticated tree name.
func (db *DB) Columns(table string) ([]string, error) { return db.engine().Columns(table) }

// WriteSnapshot serializes the database to w for restart durability:
// block headers and every live object, each cell's chain included. Restore the
// stream with Restore.
func (db *DB) WriteSnapshot(w io.Writer) error { return db.engine().WriteSnapshot(w) }

// Restore reconstructs a database from a snapshot written by
// WriteSnapshot. Every object is re-inserted through content addressing
// and the block chain revalidated, so tampered snapshots are rejected;
// clients' saved digests keep verifying against the restored database.
func Restore(opts Options, r io.Reader) (*DB, error) {
	engOpts, _ := opts.engines(nil)
	eng, err := core.Restore(engOpts, r)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng, opts: opts}, nil
}
