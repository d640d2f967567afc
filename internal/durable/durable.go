// Package durable is the persistence layer of Spitz: it pairs the
// verifiable engine (internal/core) with a write-ahead log (internal/wal)
// and a disk-native, content-addressed node store (internal/cas) so that
// the tamper-evident history survives a process crash.
//
// A Manager owns one data directory:
//
//	<dir>/STORE     node-store format marker, written once at creation
//	<dir>/MANIFEST  root pointer: the newest checkpointed head header
//	<dir>/wal/      segmented write-ahead log of committed blocks
//	<dir>/nodes/    append-only node-store segment files
//
// Every committed block is framed into the WAL — statement, writes and
// the block hash — before the commit is acknowledged (the Manager is the
// engine's core.CommitSink). A checkpoint flushes the nodes written since
// the previous one, repoints the MANIFEST at the new head and prunes WAL
// segments it made redundant. On open, the header chain is walked back
// from the MANIFEST's head, the cell tree is addressed by its root hash,
// and the WAL tail is replayed on top; each replayed block must reproduce
// its logged hash, so recovery is verified end to end — a tampered log or
// store is rejected, never silently loaded. See FORMAT.md for the on-disk
// format.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spitz/internal/cas"
	"spitz/internal/core"
	"spitz/internal/ledger"
	"spitz/internal/txn/tso"
	"spitz/internal/wal"
)

// TimestampSource allocates commit versions and can be advanced past
// versions recovered from disk. tso.Oracle satisfies it: a fresh one by
// default, or one shared by every shard of a cluster.
type TimestampSource interface {
	core.TimestampSource
	Advance(v uint64)
}

// Options configures a Manager.
type Options struct {
	// Timestamps, when non-nil, allocates the engine's commit versions;
	// recovery advances it past every replayed version. nil uses a fresh
	// local oracle.
	Timestamps TimestampSource
	// MaintainInverted enables the engine's inverted index.
	MaintainInverted bool
	// MaxBatchTxns configures the engine's group-commit pipeline (see
	// core.Options).
	MaxBatchTxns int

	// Sync selects when commits become durable (default wal.SyncAlways).
	Sync wal.SyncPolicy
	// SyncInterval is the background fsync period under wal.SyncInterval.
	SyncInterval time.Duration
	// SegmentSize caps WAL segment files (default 64 MiB).
	SegmentSize int64

	// CheckpointInterval triggers a background checkpoint this often;
	// CheckpointEveryBlocks triggers one after that many commits. When
	// both are zero they default to 1 minute and 4096 blocks; a negative
	// CheckpointInterval disables automatic checkpoints entirely
	// (Checkpoint can still be called by hand).
	CheckpointInterval    time.Duration
	CheckpointEveryBlocks uint64

	// NodeCacheMB bounds the node store's in-memory body cache (clean
	// bodies plus the dirty write-back set), in MiB. Zero means the 64 MiB
	// default.
	NodeCacheMB int

	// Deprecated: every data directory is the disk-native node store, so
	// Store is ignored; the field stays for the frozen benchmark module.
	Store StoreKind
}

// ClusterMarkerName is the file a sharded cluster (spitz.OpenCluster)
// writes at the top of its data directory. durable refuses to open such
// a directory as a single-engine database; the name lives here so the
// cluster layer and every layout guard agree on one spelling.
const ClusterMarkerName = "CLUSTER"

var errCkptCrashed = fmt.Errorf("durable: simulated checkpoint crash")

// Manager ties an engine to its data directory. Obtain the engine with
// Engine(); all reads and commits go through it as usual — the Manager
// intercepts commits via the engine's CommitSink.
type Manager struct {
	dir  string
	opts Options
	eng  *core.Engine
	log  *wal.Log
	// nodes is the node store whose Flush is the checkpoint primitive.
	nodes     *cas.Disk
	ckptCrash func(stage string) bool // test hook: true aborts Checkpoint after stage

	// seqOff maps ledger heights to WAL sequence numbers: every record is
	// exactly one block, appended in ledger order, so seq(h) = h + seqOff
	// for the log's whole lineage. Computed once at open (modular uint64
	// arithmetic keeps it valid even for logs that postdate checkpoints).
	seqOff uint64

	sinceCkpt atomic.Uint64 // commits since the last durable checkpoint

	ckptMu     sync.Mutex // serializes checkpoints
	ckptHeight uint64     // height covered by the newest durable checkpoint

	closing   chan struct{}
	loopDone  chan struct{}
	ckptPoke  chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// Open opens (creating if needed) the database in dir and recovers it:
// open the node store, walk the header chain back from the MANIFEST's
// head, address the cell tree at its root,
// and replay the WAL tail with per-block hash verification. No state is
// scanned — the first verified read faults in only its O(log n) proof
// path. A torn final WAL record — the signature of a crash mid-append —
// is truncated; any other damage is a hard error, and a directory in a
// format this build does not read is refused untouched.
func Open(dir string, opts Options) (*Manager, error) {
	if opts.CheckpointInterval == 0 && opts.CheckpointEveryBlocks == 0 {
		opts.CheckpointInterval = time.Minute
		opts.CheckpointEveryBlocks = 4096
	}
	if opts.CheckpointInterval < 0 {
		// Documented kill switch: no automatic checkpoints of any kind,
		// including block-count-triggered ones.
		opts.CheckpointEveryBlocks = 0
	}
	// A sharded cluster directory (spitz.OpenCluster) nests one durable
	// layout per shard; opening its top level as a single-engine database
	// would silently ignore every shard's data.
	if _, err := os.Stat(filepath.Join(dir, ClusterMarkerName)); err == nil {
		return nil, fmt.Errorf("durable: %s holds a sharded cluster; open it with OpenCluster (or spitz-server -shards)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := checkLayout(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
		return nil, err
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	nodes, err := cas.OpenDisk(filepath.Join(dir, nodesDirName), cas.DiskOptions{
		CacheBytes: int64(opts.NodeCacheMB) << 20,
	})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Manager, error) {
		nodes.Close()
		return nil, err
	}

	log, err := wal.Open(filepath.Join(dir, walDirName), wal.Options{
		Policy:      opts.Sync,
		Interval:    opts.SyncInterval,
		SegmentSize: opts.SegmentSize,
	})
	if err != nil {
		return fail(err)
	}
	failLog := func(err error) (*Manager, error) {
		log.Close()
		return fail(err)
	}
	// Decode the WAL tail up front: its length is bounded by the
	// checkpoint cadence, and knowing the records before building the
	// engine keeps recovery a single forward pass.
	var recs []core.CommitRecord
	if err := log.Replay(func(seq uint64, payload []byte) error {
		// Records the manifest already covers replay as no-ops; peeking
		// the height skips their body decode entirely, keeping a clean
		// restart's WAL cost proportional to the tail, not the log.
		if h, err := DecodeRecordHeight(payload); err == nil && h < man.height {
			return nil
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return fmt.Errorf("wal record %d: %w", seq, err)
		}
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return failLog(fmt.Errorf("durable: %w", err))
	}

	var orc TimestampSource = opts.Timestamps
	if orc == nil {
		orc = tso.New(0)
	}
	copts := core.Options{
		Store:            nodes,
		MaintainInverted: opts.MaintainInverted,
		Timestamps:       orc,
		MaxBatchTxns:     opts.MaxBatchTxns,
	}
	var eng *core.Engine
	if man.height > 0 {
		headers, err := walkHeaders(nodes, man.head, man.height)
		if err != nil {
			return failLog(err)
		}
		l, err := ledger.Reopen(nodes, headers)
		if err != nil {
			return failLog(err)
		}
		eng, err = core.NewWithLedger(copts, l, man.maxTxn)
		if err != nil {
			return failLog(err)
		}
	} else {
		eng = core.New(copts)
	}
	if h, ok := eng.Ledger().Head(); ok {
		orc.Advance(h.Version)
	}

	height, replayed, err := replayTail(eng, orc, recs)
	if err != nil {
		return failLog(err)
	}

	m := &Manager{
		dir:        dir,
		opts:       opts,
		eng:        eng,
		log:        log,
		nodes:      nodes,
		seqOff:     log.NextSeq() - height,
		ckptHeight: man.height,
		closing:    make(chan struct{}),
		loopDone:   make(chan struct{}),
		ckptPoke:   make(chan struct{}, 1),
	}
	m.sinceCkpt.Store(uint64(replayed))
	eng.SetCommitSink(m)
	if opts.CheckpointInterval > 0 || opts.CheckpointEveryBlocks > 0 {
		go m.checkpointLoop()
	} else {
		close(m.loopDone)
	}
	return m, nil
}

// replayTail re-commits the WAL records above the engine's recovered
// height, verifying each block hash, and advances the timestamp oracle
// past every replayed version. Records below the recovered height are
// duplicates the checkpoint already covers; a gap above it is fatal.
func replayTail(eng *core.Engine, orc TimestampSource, recs []core.CommitRecord) (height uint64, replayed int, err error) {
	height = eng.Ledger().Height()
	for _, rec := range recs {
		if rec.Height < height {
			continue // already inside the checkpoint
		}
		if rec.Height > height {
			return 0, 0, fmt.Errorf("durable: wal gap: next logged block is %d but engine is at height %d",
				rec.Height, height)
		}
		if _, err := eng.ReplayBlock(rec); err != nil {
			return 0, 0, fmt.Errorf("durable: %w", err)
		}
		orc.Advance(rec.Version)
		height++
		replayed++
	}
	return height, replayed, nil
}

// Engine returns the recovered engine. All queries and commits go through
// it; commits are durably logged before they are acknowledged.
func (m *Manager) Engine() *core.Engine { return m.eng }

// Dir returns the data directory.
func (m *Manager) Dir() string { return m.dir }

// Log exposes the underlying write-ahead log. Replication reads committed
// frames from it (internal/repl); everything else should go through the
// engine.
func (m *Manager) Log() *wal.Log { return m.log }

// NodeStore returns the disk-backed node store. Benchmarks and tests read
// its cache statistics.
func (m *Manager) NodeStore() *cas.Disk { return m.nodes }

// SeqForHeight returns the WAL sequence number of the block at height h.
func (m *Manager) SeqForHeight(h uint64) uint64 { return h + m.seqOff }

// HeightForSeq returns the ledger height of the block in WAL record s.
func (m *Manager) HeightForSeq(s uint64) uint64 { return s - m.seqOff }

// WALStats summarizes the write-ahead log for observability: how much of
// the ledger is durable and what span of it the retained log still holds
// (everything older lives only in the node store).
type WALStats struct {
	// DurableHeight is the number of leading ledger blocks known durable
	// (fsynced) in the log.
	DurableHeight uint64
	// LoggedHeight is the number of blocks written to the log (they may
	// still be awaiting an fsync under the weaker sync policies).
	LoggedHeight uint64
	// OldestRetainedHeight is the height of the first block still present
	// in the retained log; replication followers at or above it resume
	// from the log, older ones need a snapshot.
	OldestRetainedHeight uint64
	// Segments and RetainedBytes size the retained log on disk.
	Segments      int
	RetainedBytes int64
}

// WALStats returns a point-in-time summary of the write-ahead log.
func (m *Manager) WALStats() WALStats {
	info := m.log.Info()
	return WALStats{
		DurableHeight:        m.HeightForSeq(info.SyncedSeq + 1),
		LoggedHeight:         m.HeightForSeq(info.AppendedSeq + 1),
		OldestRetainedHeight: m.HeightForSeq(info.OldestSeq),
		Segments:             info.Segments,
		RetainedBytes:        info.RetainedBytes,
	}
}

// CheckpointHeight returns the block height covered by the newest durable
// checkpoint (0 when none has been taken).
func (m *Manager) CheckpointHeight() uint64 {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	return m.ckptHeight
}

// Append implements core.CommitSink: frame the block into the WAL. It is
// called with the engine lock held, so records land in ledger order; the
// returned wait blocks (outside the lock) until the record is durable
// under the configured sync policy.
func (m *Manager) Append(rec core.CommitRecord) (func() error, error) {
	_, wait, err := m.log.AppendAsync(EncodeRecord(rec))
	if err != nil {
		return nil, err
	}
	if n := m.sinceCkpt.Add(1); m.opts.CheckpointEveryBlocks > 0 && n >= m.opts.CheckpointEveryBlocks {
		select {
		case m.ckptPoke <- struct{}{}:
		default:
		}
	}
	return wait, nil
}

func (m *Manager) checkpointLoop() {
	defer close(m.loopDone)
	var tick <-chan time.Time
	if m.opts.CheckpointInterval > 0 {
		t := time.NewTicker(m.opts.CheckpointInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-m.closing:
			return
		case <-tick:
		case <-m.ckptPoke:
		}
		// Background failures are deliberately swallowed: the WAL still
		// holds everything, so durability is not reduced — the next
		// checkpoint (or a manual one, which reports errors) retries.
		_ = m.Checkpoint()
	}
}

// Checkpoint makes everything committed so far recoverable without the
// WAL tail, then prunes WAL segments that became redundant. It is
// incremental: flush dirty nodes (only bytes written since the last
// flush, chain objects among them), and atomically repoint the
// MANIFEST at the new head. The sequencing makes a crash at any point
// recover to either the old root or the new one, never between. Safe to
// call at any time, concurrently with commits.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	if err := m.nodes.Err(); err != nil {
		return fmt.Errorf("durable: node store failed: %w", err)
	}
	height := m.eng.Ledger().Height()
	if height == 0 || height == m.ckptHeight {
		return nil
	}
	// Sample the WAL position first: every record below keepSeq is
	// covered by a head at or above height. Records at or above it may or
	// may not be — recovery skips duplicates by height, so keeping them
	// is safe.
	keepSeq := m.log.NextSeq()
	head, err := m.eng.Ledger().Header(height - 1)
	if err != nil {
		return err
	}
	maxTxn := m.eng.NextTxnID()
	if err := m.nodes.Flush(); err != nil {
		return fmt.Errorf("durable: flush node store: %w", err)
	}
	if m.ckptCrash != nil && m.ckptCrash("flush") {
		return errCkptCrashed
	}
	if err := writeManifest(m.dir, manifest{height: height, head: head.Hash(), maxTxn: maxTxn}); err != nil {
		return err
	}
	m.ckptHeight = height
	m.sinceCkpt.Store(0)
	return m.log.PruneTo(keepSeq)
}

// Close flushes and closes the WAL and the node store and stops
// background checkpointing. The engine remains readable but further
// commits will fail; callers should quiesce writers first.
func (m *Manager) Close() error {
	m.closeOnce.Do(func() {
		close(m.closing)
		<-m.loopDone
		// Closing the node store flushes the write-back set; data not yet
		// named by the MANIFEST is still recovered from the WAL on reopen.
		for _, closeFn := range []func() error{m.log.Close, m.nodes.Close} {
			if err := closeFn(); err != nil && m.closeErr == nil {
				m.closeErr = err
			}
		}
	})
	return m.closeErr
}

// Compile-time interface check.
var _ core.CommitSink = (*Manager)(nil)
