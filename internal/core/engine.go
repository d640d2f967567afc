// Package core implements the Spitz engine — the paper's primary
// contribution (Section 5). An Engine is one processor node's view of the
// system: a request handler surface (the exported methods), an auditor
// (the ledger interaction: every write updates the ledger, every verified
// read obtains its proof from it), and a commit gate (MVCC validation over
// the multi-versioned cell store, and the shard's side of two-phase
// commit — gate.go).
//
// The write path follows Section 5.1: (1) collect the transaction,
// (2) the auditor updates the ledger, which records the changes and
// returns a proof, (3) the processor traverses the B+-tree index (here the
// authenticated tree) and writes the cell store, (4) results and proof
// return to the user. Steps 2 and 3 are one atomic ledger commit here —
// that fusion is exactly the "unified index" design the paper credits for
// Spitz's performance.
//
// Commits run through a group-commit pipeline: concurrent committers
// enqueue their write sets and one leader folds everything queued into a
// single ledger block ("each block tracks the modification of the
// records, query statements, metadata and the root node of the indexes"
// — Section 5), so a burst of N transactions costs one POS-tree apply,
// one commitment-tree append and one durability record instead of N.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"spitz/internal/proof"
	"sync"
	"sync/atomic"
	"time"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/inverted"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/obs"
	"spitz/internal/postree"
	"spitz/internal/txn/tso"
)

// Group-commit pipeline metrics. Queue wait is enqueue-to-batch-cut;
// ledger time is the POS-tree apply + commitment append per block; the
// durable wait is one block's shared wait, timed by whichever committer
// resolves it (the WAL layer times the fsync itself); in-flight blocks
// are appended to the sink but not yet durable.
var (
	mCommitBlocks    = obs.Default.Counter("spitz_commit_blocks_total")
	mCommitTxns      = obs.Default.Counter("spitz_commit_txns_total")
	mCommitCells     = obs.Default.Counter("spitz_commit_cells_total")
	mCommitQueueWait = obs.Default.Histogram("spitz_commit_queue_wait_ns")
	mCommitBatchTxns = obs.Default.Histogram("spitz_commit_batch_txns")
	mCommitLedger    = obs.Default.Histogram("spitz_commit_ledger_ns")
	mCommitDurWait   = obs.Default.Histogram("spitz_commit_durable_wait_ns")
	mCommitInflight  = obs.Default.Gauge("spitz_commit_inflight_blocks")
)

// Put is one cell write in a batch.
type Put struct {
	Table     string
	Column    string
	PK        []byte
	Value     []byte
	Tombstone bool
}

// Options configures an Engine.
type Options struct {
	// Store is the content-addressed object store; nil creates a fresh
	// in-memory store.
	Store cas.Store
	// Timestamps allocates commit versions; nil uses a local oracle.
	Timestamps TimestampSource
	// MaintainInverted keeps the inverted index updated on every commit,
	// enabling value lookups (LookupEqual etc.) at some write cost.
	MaintainInverted bool

	// MaxBatchTxns caps how many transactions the group-commit leader
	// folds into one ledger block (default 128).
	// The leader commits whatever is queued at once: batching comes only
	// from commits that arrive while the previous block is being built,
	// which adds no latency and self-tunes with load.
	MaxBatchTxns int
}

const defaultMaxBatchTxns = 128

// TimestampSource allocates strictly increasing commit versions.
// tso.Oracle satisfies it.
type TimestampSource interface {
	Next() uint64
}

// Engine is an embedded Spitz database instance. Safe for concurrent use.
type Engine struct {
	store  cas.Store
	ledger *ledger.Ledger
	ts     TimestampSource
	inv    *inverted.Index

	maxBatchTxns int

	mu        sync.RWMutex
	nextTxnID uint64

	// Group-commit pipeline state, guarded by mu. queue holds commits
	// waiting for the leader; leading is true while some goroutine is
	// draining it. pending indexes the newest enqueued-but-uncommitted
	// write per cell reference so that the commit gate observes commits
	// the pipeline has accepted but not yet folded into a block — without
	// it, two transactions validated back to back could both miss each
	// other's queued writes and break serializability.
	queue   []*commitReq
	leading bool
	pending map[string]pendingCell

	// The prepared state of cross-shard transactions (gate.go), guarded by
	// mu: the write keys each holds exclusively, the read keys each holds
	// shared, and each one's write set until CommitPrepared or Abort.
	locks    map[string]uint64
	readers  map[string]map[uint64]struct{}
	prepared map[uint64]*preparedTxn
	// lastVersion is the highest commit version ever enqueued. Because
	// versions are drawn and checked under mu at enqueue time, queue order
	// equals version order and every batch's cells land inside its block's
	// version window.
	lastVersion uint64
	bstats      BatchStats

	// sink, when set, receives every committed block before the commit is
	// acknowledged (write-ahead logging). sinkErr is sticky: once an
	// append or a durability wait fails, the failed block exists in memory
	// but not in the log, so any further commit would leave a permanent gap
	// in the log — the engine refuses writes instead. sinkErrAt is the
	// height of that block: no block at or above it is acknowledged, even
	// one whose own wait succeeds. All guarded by mu.
	sink      CommitSink
	sinkErr   error
	sinkErrAt uint64
	// lastWait is the shared durability wait of the last block appended to
	// the sink (guarded by mu), olderWait that of the one before it, which
	// the leader reads without the lock (see lead).
	lastWait  *func() error
	olderWait atomic.Pointer[func() error]
	// retired, once set (Retire), refuses every commit: the deployment
	// serves another engine in this one's place. Guarded by mu.
	retired error
}

// pendingCell is the newest enqueued-but-uncommitted write of one cell,
// visible to the commit gate and to Read. An older queued version of the
// cell is superseded here but still reaches its block: the gate only ever
// compares against the newest.
type pendingCell struct {
	version   uint64
	value     []byte
	tombstone bool
}

// commitReq is one transaction riding the group-commit pipeline.
type commitReq struct {
	id         uint64
	version    uint64
	statement  string
	cells      []cellstore.Cell // stamped with version at enqueue
	enqueuedAt time.Time        // queue-wait accounting

	lead     bool          // elected leader at enqueue (no leader was active)
	takeover chan struct{} // closed when a finishing leader hands leadership over

	// Results, valid once done is closed.
	hdr     ledger.BlockHeader
	err     error
	durWait func() error // shared per-batch durability wait; nil without sink
	done    chan struct{}
}

// TxnCommit is one transaction inside a CommitRecord: its identity,
// commit version, audited statement and write set.
type TxnCommit struct {
	ID        uint64
	Version   uint64
	Statement string
	Cells     []cellstore.Cell
}

// CommitRecord describes one committed block to a CommitSink: everything
// needed to re-execute the commit deterministically on recovery, plus the
// block hash the replay must reproduce. A block carries one or more
// transactions (group commit); Version is the block version, the highest
// transaction version in the batch.
type CommitRecord struct {
	Height    uint64
	Version   uint64
	Txns      []TxnCommit
	BlockHash hashutil.Digest
}

// CommitSink is the durability hook on the commit path. Append is called
// with the engine lock held, immediately after the ledger commit, so sinks
// observe blocks in exactly ledger order; it must not block on I/O
// completion. The returned wait function is invoked after the lock is
// released and blocks until the record is durable. Later blocks are
// appended while earlier waits are still pending — that separation is
// what lets a write-ahead log group many concurrent commits under one
// fsync. core deliberately knows nothing about the sink's implementation
// (internal/durable provides one) so the dependency points outward only.
type CommitSink interface {
	Append(rec CommitRecord) (wait func() error, err error)
}

// SetCommitSink installs the durability sink. Call before serving traffic;
// blocks committed earlier are not retroactively delivered.
func (e *Engine) SetCommitSink(s CommitSink) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sink = s
}

// New creates an engine.
func New(opts Options) *Engine {
	if opts.Store == nil {
		opts.Store = cas.NewMemory()
	}
	return build(opts, ledger.New(opts.Store))
}

// build assembles an engine around the ledger l: new commit versions
// continue above its head's.
func build(opts Options, l *ledger.Ledger) *Engine {
	var headVersion uint64
	if h, ok := l.Head(); ok {
		headVersion = h.Version
	}
	if opts.Timestamps == nil {
		opts.Timestamps = tso.New(headVersion)
	}
	if opts.MaxBatchTxns <= 0 {
		opts.MaxBatchTxns = defaultMaxBatchTxns
	}
	e := &Engine{
		store:        opts.Store,
		ledger:       l,
		ts:           opts.Timestamps,
		maxBatchTxns: opts.MaxBatchTxns,
		pending:      make(map[string]pendingCell),
		locks:        make(map[string]uint64),
		readers:      make(map[string]map[uint64]struct{}),
		prepared:     make(map[uint64]*preparedTxn),
		lastVersion:  headVersion,
	}
	if opts.MaintainInverted {
		e.inv = inverted.New()
	}
	return e
}

// NewWithLedger builds an engine around a recovered ledger (ledger.Reopen,
// ledger.LoadSnapshot). nextTxnID is the recovered transaction-ID floor;
// WAL tail replay via ReplayBlock advances it further. The engine keeps no
// index of the cells beside the tree but the optional inverted one, so the
// open scans the head only to rebuild that, with MaintainInverted set, and
// otherwise does no O(state) work.
func NewWithLedger(opts Options, l *ledger.Ledger, nextTxnID uint64) (*Engine, error) {
	if opts.Store == nil {
		return nil, errors.New("core: NewWithLedger requires the ledger's store")
	}
	e := build(opts, l)
	e.nextTxnID = nextTxnID
	if e.inv == nil {
		return e, nil
	}
	cells, head, ok := l.Latest()
	if !ok {
		return e, nil
	}
	var bad error
	err := cells.Tree.Scan(nil, nil, func(entry postree.Entry) bool {
		c, err := proof.DecodeEntries([]postree.Entry{entry})
		if bad = err; err == nil {
			e.inv.AddBlock(c, head.Height+1) // copies what it keeps
		}
		return err == nil
	})
	if err = errors.Join(err, bad); err != nil {
		return nil, fmt.Errorf("core: rebuild inverted index: %w", err)
	}
	return e, nil
}

// NextTxnID returns the next transaction ID the engine would assign. The
// durable layer persists it at checkpoint so recovered engines never
// reuse an ID already bound into the audit history.
func (e *Engine) NextTxnID() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.nextTxnID
}

// Ledger exposes the underlying ledger (the auditor's counterpart) for
// digest retrieval and consistency proofs.
func (e *Engine) Ledger() *ledger.Ledger { return e.ledger }

// Store returns the underlying object store (for storage accounting).
func (e *Engine) Store() cas.Store { return e.store }

// Digest returns the current ledger digest a client should save.
func (e *Engine) Digest() ledger.Digest { return e.ledger.Digest() }

// ConsistencyProof proves the ledger of height from is a prefix of the
// ledger of height to (ledger.Ledger.ConsistencyProof).
func (e *Engine) ConsistencyProof(from, to uint64) (mtree.ConsistencyProof, error) {
	return e.ledger.ConsistencyProof(from, to)
}

// ---------------------------------------------------------------------------
// Write path: the group-commit pipeline

// BatchStats describes the group-commit pipeline's behaviour: how many
// blocks it cut, how many transactions and cells rode them, and the
// distribution of transactions per block.
type BatchStats struct {
	Blocks  uint64 // ledger blocks committed through the pipeline
	Txns    uint64 // transactions across those blocks
	Cells   uint64 // cell writes across those blocks
	MaxTxns uint64 // largest batch observed
	// SizeHist counts blocks by transactions per block in power-of-two
	// buckets: 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, ≥65.
	SizeHist [8]uint64
}

// MeanTxns returns the average number of transactions per block.
func (s BatchStats) MeanTxns() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.Txns) / float64(s.Blocks)
}

// SizeBuckets labels SizeHist's buckets, index for index.
func (BatchStats) SizeBuckets() [8]string {
	return [8]string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", ">=65"}
}

// BatchStats returns a snapshot of the pipeline counters.
func (e *Engine) BatchStats() BatchStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.bstats
}

// errReadOnly wraps the sticky pipeline error for committers.
func errReadOnly(err error) error {
	return fmt.Errorf("core: engine read-only after durability failure: %w", err)
}

// refusalLocked is why the engine takes no commit now, or nil: it was
// retired, or is read-only after a durability failure. Caller holds e.mu.
func (e *Engine) refusalLocked() error {
	if e.retired != nil {
		return e.retired
	}
	if e.sinkErr != nil {
		return errReadOnly(e.sinkErr)
	}
	return nil
}

// Retire makes the engine refuse every later commit with err, and fail
// the commits queued or in a block being built: the deployment serves
// another engine in its place (a restore), so a write that reached this
// one would be acknowledged where no read looks.
func (e *Engine) Retire(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.retired = err
}

// errEmptyBatch refuses a commit with neither reads nor writes: there is
// nothing to check, and a block would record nothing.
var errEmptyBatch = errors.New("core: empty write batch")

// enqueueLocked stamps one transaction's write set with a commit version
// drawn from the engine's timestamp source and queues it for the leader;
// its writes are visible to the gate from here on. A version at or below
// one already enqueued (a clock that repeats) mirrors the ledger's own
// window check but fails the one offending transaction instead of a whole
// batch. Caller holds e.mu, and passes the returned request to waitCommit
// once it has released it.
func (e *Engine) enqueueLocked(statement string, cells []cellstore.Cell) (*commitReq, error) {
	if err := e.refusalLocked(); err != nil {
		return nil, err
	}
	version := e.ts.Next()
	if version <= e.lastVersion {
		return nil, fmt.Errorf("core: commit version %d not above pipeline version %d", version, e.lastVersion)
	}
	e.lastVersion = version
	for i := range cells {
		cells[i].Version = version
	}
	req := &commitReq{
		id:         e.nextTxnID,
		version:    version,
		statement:  statement,
		cells:      cells,
		enqueuedAt: time.Now(),
		takeover:   make(chan struct{}),
		done:       make(chan struct{}),
	}
	e.nextTxnID++
	e.queue = append(e.queue, req)
	for i := range cells {
		c := &cells[i]
		e.pending[cellRef(c)] = pendingCell{version: version, value: c.Value, tombstone: c.Tombstone}
	}
	if !e.leading {
		e.leading = true
		req.lead = true
	}
	return req, nil
}

// waitCommit drives a queued request to completion: if this request was
// elected leader at enqueue — or a finishing leader hands leadership
// over — it runs the leader loop (committing batches, its own
// included), then blocks until the request's block is in the ledger and,
// when a sink is installed, durable. Must be called exactly once per
// enqueued request, outside any lock ordered before the engine's.
func (e *Engine) waitCommit(req *commitReq) (ledger.BlockHeader, error) {
	if req.lead {
		e.lead(req)
	} else {
		select {
		case <-req.done:
		case <-req.takeover:
			e.lead(req)
		}
	}
	<-req.done
	if req.err != nil {
		return ledger.BlockHeader{}, req.err
	}
	if req.durWait != nil {
		if err := req.durWait(); err != nil {
			return ledger.BlockHeader{}, err
		}
	}
	return req.hdr, nil
}

// lead runs the group-commit leader loop: repeatedly cut a batch of up to
// MaxBatchTxns queued requests, commit it as one ledger block, and wake
// the waiters. Once the leader's own request has committed it hands
// leadership to the oldest queued request's committer instead of leading
// forever — under sustained load the queue never empties, and a leader
// that drains until empty would never return from its own commit call.
// Leadership therefore either passes to a queued request (whose waiter
// is guaranteed to pick it up in waitCommit) or is released with an
// empty queue, so every enqueued request is guaranteed a leader.
//
// The loop is the pipeline's apply stage: committers wait for their own
// block in waitCommit, after the handover, so the next block is built
// while this one's fsync is in flight and a block costs the slower stage,
// not the sum. Two stages hold two blocks: before cutting a third the
// leader waits, leadership held, for the older to be durable. Behind a
// slow disk that wait is what lets followers queue up and blocks grow;
// behind a slow apply it is over before it is asked for.
func (e *Engine) lead(own *commitReq) {
	for {
		if older := e.olderWait.Load(); older != nil {
			_ = (*older)() // a failure has poisoned the engine: the cut below sees it
		}
		e.mu.Lock()
		n := len(e.queue)
		if n == 0 {
			e.leading = false
			e.mu.Unlock()
			return
		}
		if n > e.maxBatchTxns {
			n = e.maxBatchTxns
		}
		batch := make([]*commitReq, n)
		copy(batch, e.queue)
		rest := copy(e.queue, e.queue[n:])
		for i := rest; i < len(e.queue); i++ {
			e.queue[i] = nil
		}
		e.queue = e.queue[:rest]
		poison := e.refusalLocked()
		e.mu.Unlock()
		if poison != nil {
			// A previous batch poisoned the pipeline, or the engine was
			// retired, while these requests were queued behind it.
			e.mu.Lock()
			for _, r := range batch {
				r.err = poison
			}
			e.clearPendingLocked(batch)
			e.mu.Unlock()
		} else {
			e.commitBatch(batch)
		}
		for _, r := range batch {
			close(r.done)
		}
		select {
		case <-own.done:
			// Our own commit is resolved: hand leadership to the oldest
			// queued request, or release it if nothing is waiting.
			e.mu.Lock()
			if len(e.queue) > 0 {
				next := e.queue[0]
				e.mu.Unlock()
				close(next.takeover)
				return
			}
			e.leading = false
			e.mu.Unlock()
			return
		default:
			// Own request still queued (beyond MaxBatchTxns); keep leading.
		}
	}
}

// commitBatch folds a batch of requests into one ledger block: one
// POS-tree apply over the merged write sets, one commitment-tree append,
// one block whose body carries every transaction's summary, and one
// CommitRecord to the durability sink. Only the (single) leader calls
// this, so blocks reach the ledger and the sink in batch order. The
// ledger commit — the expensive part — deliberately runs outside e.mu so
// new commits can enqueue while the block is being built; that overlap
// is where batching comes from under load.
func (e *Engine) commitBatch(batch []*commitReq) {
	txns := make([]TxnCommit, len(batch))
	cut := time.Now()
	for i, r := range batch {
		txns[i] = TxnCommit{ID: r.id, Version: r.version, Statement: r.statement, Cells: r.cells}
		mCommitQueueWait.Observe(uint64(cut.Sub(r.enqueuedAt)))
	}
	summaries, cells := fold(txns)
	h, err := e.ledger.Commit(batch[len(batch)-1].version, summaries, cells)
	mCommitLedger.ObserveSince(cut)
	if publishHook != nil && err == nil {
		publishHook()
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.retired != nil {
		// Retired while the block was built: no read looks here now.
		for _, r := range batch {
			r.err = e.retired
		}
		e.clearPendingLocked(batch)
		return
	}
	if err != nil {
		// Nothing reached the ledger, but transactions validated against
		// these requests' pending writes may already be queued behind us —
		// their reads would be of writes that never committed. Fail stop.
		err = fmt.Errorf("core: batch commit: %w", err)
		e.sinkErr, e.sinkErrAt = err, e.ledger.Height()
		for _, r := range batch {
			r.err = err
		}
		e.clearPendingLocked(batch)
		return
	}
	e.indexCellsLocked(cells, h)
	e.clearPendingLocked(batch)

	mCommitBlocks.Inc()
	mCommitTxns.Add(uint64(len(batch)))
	mCommitCells.Add(uint64(len(cells)))
	mCommitBatchTxns.Observe(uint64(len(batch)))

	e.bstats.Blocks++
	e.bstats.Txns += uint64(len(batch))
	e.bstats.Cells += uint64(len(cells))
	if n := uint64(len(batch)); n > e.bstats.MaxTxns {
		e.bstats.MaxTxns = n
	}
	bucket := bits.Len(uint(len(batch) - 1)) // 1→0, 2→1, 3-4→2, …
	if bucket > 7 {
		bucket = 7
	}
	e.bstats.SizeHist[bucket]++

	if e.sink != nil {
		wait, err := e.sink.Append(CommitRecord{
			Height:    h.Height,
			Version:   h.Version,
			Txns:      txns,
			BlockHash: h.Hash(),
		})
		if err != nil {
			// The block is in the in-memory ledger but not in the log. A
			// later logged block would leave a gap recovery cannot bridge,
			// so poison the commit path: this engine is read-only now.
			e.sinkErr, e.sinkErrAt = err, h.Height
			werr := fmt.Errorf("core: commit not durable: %w", err)
			for _, r := range batch {
				r.err = werr
			}
			return
		}
		// The whole batch shares one durability wait (one WAL frame, at
		// most one fsync); wrap it so any number of waiters resolve it once.
		mCommitInflight.Add(1)
		var once sync.Once
		var werr error
		shared := func() error {
			once.Do(func() {
				start := time.Now()
				err := wait()
				mCommitDurWait.ObserveSince(start)
				mCommitInflight.Add(-1)
				werr = e.settleDurable(h.Height, err)
			})
			return werr
		}
		e.olderWait.Store(e.lastWait)
		e.lastWait = &shared
		for _, r := range batch {
			r.durWait = shared
		}
	}
	for _, r := range batch {
		r.hdr = h
	}
}

// settleDurable turns the outcome of block height's durability wait into
// what its committers are told. A failed wait poisons the engine at once
// (the next Append may already have happened), and a block at or above a
// failed one is refused even when its own wait succeeded: recovery stops
// at the first missing block.
func (e *Engine) settleDurable(height uint64, err error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil && e.sinkErr == nil {
		e.sinkErr, e.sinkErrAt = err, height
	}
	if err == nil && e.sinkErr != nil && height >= e.sinkErrAt {
		err = e.sinkErr
	}
	if err != nil {
		return fmt.Errorf("core: commit not durable: %w", err)
	}
	return nil
}

// clearPendingLocked removes a finished batch's entries from the pending
// index; an entry a newer queued version replaced stays until that
// version's own batch finishes.
func (e *Engine) clearPendingLocked(batch []*commitReq) {
	for _, r := range batch {
		for i := range r.cells {
			c := &r.cells[i]
			if ref := cellRef(c); e.pending[ref].version == c.Version {
				delete(e.pending, ref)
			}
		}
	}
}

// Apply commits a batch of writes as one transaction and returns the
// header of the ledger block that carried it (which may include other
// concurrently committed transactions): Commit with no reads, the
// high-throughput ingest path.
func (e *Engine) Apply(statement string, puts []Put) (ledger.BlockHeader, error) {
	return e.Commit(statement, nil, puts)
}

// ReplayBlock re-commits a block recovered from a durability log. The
// commit reuses the logged transaction IDs, versions and statements so the
// reconstructed block is bit-identical to the original, and fails unless
// the resulting block hash equals the logged one — recovery is itself
// verified, a tampered log cannot smuggle in different data. The commit
// sink is deliberately bypassed: the record being replayed is already in
// the log.
func (e *Engine) ReplayBlock(rec CommitRecord) (ledger.BlockHeader, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range rec.Txns {
		for j := range t.Cells {
			t.Cells[j].Version = t.Version
		}
	}
	summaries, cells := fold(rec.Txns)
	h, err := e.ledger.Commit(rec.Version, summaries, cells)
	if err != nil {
		return ledger.BlockHeader{}, fmt.Errorf("core: replay block %d: %w", rec.Height, err)
	}
	if got := h.Hash(); got != rec.BlockHash {
		return ledger.BlockHeader{}, fmt.Errorf("core: replay block %d: hash %s does not match logged %s",
			rec.Height, got.Short(), rec.BlockHash.Short())
	}
	e.indexCellsLocked(cells, h)
	for i := range rec.Txns {
		if rec.Txns[i].ID >= e.nextTxnID {
			e.nextTxnID = rec.Txns[i].ID + 1
		}
	}
	if rec.Version > e.lastVersion {
		e.lastVersion = rec.Version
	}
	return h, nil
}

// fold builds one block's body from its transactions: each one's summary,
// and every cell in transaction order. commitBatch and ReplayBlock both
// build their blocks here, so a replayed block reproduces the logged one.
func fold(txns []TxnCommit) ([]ledger.TxnSummary, []cellstore.Cell) {
	summaries := make([]ledger.TxnSummary, len(txns))
	total := 0
	for _, t := range txns {
		total += len(t.Cells)
	}
	cells := make([]cellstore.Cell, 0, total)
	for i, t := range txns {
		summaries[i] = ledger.TxnSummary{ID: t.ID, Statement: t.Statement, WriteHash: ledger.WriteSetHash(t.Cells)}
		cells = append(cells, t.Cells...)
	}
	return summaries, cells
}

// publishHook, when set (tests), runs between the ledger publishing a
// committed block and the engine indexing its cells.
var publishHook func()

// indexCellsLocked adds the cells of block h, which the ledger has just
// published, to the inverted index, when it is on, and moves the height
// the index reports with its lookups onto that block's. Caller holds e.mu,
// so cells arrive in commit order. The index ignores a version at or below
// the one it holds for the cell and removes superseded postings itself;
// resolvePostings re-checks versions as a safety net.
func (e *Engine) indexCellsLocked(cells []cellstore.Cell, h ledger.BlockHeader) {
	if e.inv != nil {
		e.inv.AddBlock(cells, h.Height+1)
	}
}

// Columns returns the sorted set of columns ever written to a table: the
// columns the head tree's keys name (cellstore.Store.Columns).
func (e *Engine) Columns(table string) ([]string, error) {
	cells, _, ok := e.ledger.Latest()
	if !ok {
		return nil, nil
	}
	return cells.Columns(table)
}

// ---------------------------------------------------------------------------
// Read path

// ErrNotFound is returned by Get when the cell does not exist (never
// written, or deleted).
var ErrNotFound = errors.New("core: not found")

// Get returns the latest live value of a cell. The read follows Section
// 5.1, where a B+-tree routes a cell reference to the cell store: here the
// routing index is the authenticated tree itself, whose lookup of the
// exact universal key serves the head version. No proof is generated (see
// GetVerified).
func (e *Engine) Get(table, column string, pk []byte) ([]byte, error) {
	value, _, live, err := e.head(cellstore.CellPrefix(table, column, pk))
	if err == nil && !live {
		err = ErrNotFound
	}
	return value, err
}

// head reads the head version of the cell at ref: its value, copied out of
// node storage so that no caller can edit the store through it, the
// version that wrote it (0 for a cell never written) and whether it is
// live.
func (e *Engine) head(ref []byte) ([]byte, uint64, bool, error) {
	cells, _, ok := e.ledger.Latest()
	if !ok {
		return nil, 0, false, nil
	}
	raw, found, err := cells.Tree.Get(ref)
	if err != nil || !found {
		return nil, 0, false, err
	}
	version, value, tomb, err := proof.DecodeVersion(raw)
	if err != nil || tomb {
		return nil, version, false, err
	}
	return bytes.Clone(value), version, true, nil
}

// GetRow reads several columns of one row from a single cell-store
// snapshot, so a concurrent commit can never interleave old and new
// column values in the result. Absent or deleted columns are omitted.
func (e *Engine) GetRow(table string, pk []byte, columns []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(columns))
	cells, head, ok := e.ledger.Latest()
	if !ok {
		return out, nil
	}
	for _, col := range columns {
		c, found, err := cells.GetLatest(table, col, pk, head.Version)
		if err != nil {
			return nil, err
		}
		if !found || c.Tombstone {
			continue
		}
		out[col] = c.Value
	}
	return out, nil
}

// VerifiedResult carries a query result together with everything a client
// needs to verify it: the proof and the digest it verifies against.
type VerifiedResult struct {
	Cells  []cellstore.Cell
	Found  bool
	Proof  ledger.Proof
	Digest ledger.Digest
}

// Verified serves one eager verified read, a point read or with q.Range a
// primary-key range scan (Section 6.2.2: "the proofs of the resultant
// records are returned simultaneously when the resultant records are
// scanned"), with the proof and digest ledger.ProveCurrent captures for a
// reader trusting height trusted. The answer is read off the proof: a
// point read's head version (a tombstone is not Found), or the live cells.
func (e *Engine) Verified(q ledger.BatchQuery, trusted uint64, tr *obs.Trace) (VerifiedResult, error) {
	p, d, err := e.ledger.ProveCurrent(q, trusted, tr)
	if err != nil || d.Height == 0 {
		return VerifiedResult{Digest: d}, err
	}
	res := VerifiedResult{Proof: p, Digest: d}
	if q.Range {
		res.Cells, err = proof.LiveCells(p.Ranges[0].Entries)
		res.Found = len(res.Cells) > 0
		return res, err
	}
	cell, ok, err := cellstore.HeadCell(q.Table, q.Column, q.PK, *p.Point)
	if ok {
		res.Cells, res.Found = []cellstore.Cell{cell}, !cell.Tombstone
	}
	return res, err
}

// GetVerified returns the latest version of a cell with its unified-index
// proof (the auditor's step 3 of the read path in Section 5.1): Verified
// for a reader that trusts nothing yet.
func (e *Engine) GetVerified(table, column string, pk []byte) (VerifiedResult, error) {
	return e.Verified(ledger.BatchQuery{Table: table, Column: column, PK: pk}, 0, nil)
}

// GetAttested serves the optimistic half of a deferred-audit point read:
// the head version of a cell plus the digest it was read at, captured
// atomically, with no proof work at all. Clients in AuditMode record a
// receipt and batch-verify it later through ProveBatch.
func (e *Engine) GetAttested(table, column string, pk []byte) (cellstore.Cell, bool, ledger.Digest, error) {
	return e.ledger.GetHeadAttested(table, column, pk)
}

// RangePKAttested is the range form of GetAttested: live head cells in
// [pkLo, pkHi) plus the digest they were read at, atomically, proof-free.
func (e *Engine) RangePKAttested(table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, ledger.Digest, error) {
	return e.ledger.RangePKHeadAttested(table, column, pkLo, pkHi)
}

// ProveBatch serves one deferred-verification flush (see
// ledger.ProveBatch): every receipt taken at digest `at` is proven with
// one aggregated proof, bound to the current digest together with the
// consistency proofs that advance the client's trust.
func (e *Engine) ProveBatch(trusted, at ledger.Digest, queries []ledger.BatchQuery) (ledger.BatchRes, error) {
	return e.ledger.ProveBatch(trusted, at, queries)
}

// RangePK scans the latest live cells of one column with primary keys in
// [pkLo, pkHi), without proofs.
func (e *Engine) RangePK(table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, error) {
	cells, head, ok := e.ledger.Latest()
	if !ok {
		return nil, nil
	}
	return cells.RangePK(table, column, pkLo, pkHi, head.Version)
}

// History returns every version of a cell, newest first (the trusted data
// history requirement of Section 1).
func (e *Engine) History(table, column string, pk []byte) ([]cellstore.Cell, error) {
	return e.ledger.History(table, column, pk)
}

// GetAt reads a cell as of a historical block height (time travel over the
// immutable snapshots).
func (e *Engine) GetAt(height uint64, table, column string, pk []byte) (cellstore.Cell, bool, error) {
	snap, h, err := e.ledger.Snapshot(height)
	if err != nil {
		return cellstore.Cell{}, false, err
	}
	return snap.GetLatest(table, column, pk, h.Version)
}

// ---------------------------------------------------------------------------
// Analytical reads via the inverted index

// ErrNoInvertedIndex is returned by value lookups when the engine was
// created without MaintainInverted.
var ErrNoInvertedIndex = errors.New("core: inverted index not enabled")

// LookupEqual returns the cells of one column whose latest value equals
// value, located through the inverted index (LookupEqualAt).
func (e *Engine) LookupEqual(table, column string, value []byte) ([]cellstore.Cell, error) {
	cells, _, err := e.LookupEqualAt(table, column, value)
	return cells, err
}

// LookupEqualAt is LookupEqual with the digest of the ledger the index is
// current to: the cells are the live ones of that digest's head block,
// which is where a caller reads and proves the rest of its answer — the
// ledger publishes a block before the index has its cells, so the ledger's
// head may be a block ahead of the index.
func (e *Engine) LookupEqualAt(table, column string, value []byte) ([]cellstore.Cell, ledger.Digest, error) {
	if e.inv == nil {
		return nil, ledger.Digest{}, ErrNoInvertedIndex
	}
	ps, height := e.inv.LookupEqual(table, column, value)
	cells, err := e.resolvePostings(table, column, ps, height)
	if err != nil {
		return nil, ledger.Digest{}, err
	}
	d, err := e.ledger.DigestAt(height)
	return cells, d, err
}

// LookupNumericRange returns cells whose numeric value is in [lo, hi).
func (e *Engine) LookupNumericRange(table, column string, lo, hi uint64) ([]cellstore.Cell, error) {
	if e.inv == nil {
		return nil, ErrNoInvertedIndex
	}
	ps, height := e.inv.LookupNumericRange(table, column, lo, hi)
	return e.resolvePostings(table, column, ps, height)
}

// resolvePostings reads the postings' cells at the head block of the
// ledger of the given height, the one the index reported them at, keeping
// those a posting still names the latest version of.
func (e *Engine) resolvePostings(table, column string, ps []inverted.Posting, height uint64) ([]cellstore.Cell, error) {
	if height == 0 {
		return nil, nil
	}
	cells, head, err := e.ledger.Snapshot(height - 1)
	if err != nil {
		return nil, err
	}
	out := make([]cellstore.Cell, 0, len(ps))
	for _, p := range ps {
		c, found, err := cells.GetLatest(table, column, p.PK, head.Version)
		if err != nil {
			return nil, err
		}
		// Only surface postings that still are the latest version.
		if found && !c.Tombstone && c.Version == p.Version {
			out = append(out, c)
		}
	}
	return out, nil
}

// WriteSnapshot serializes the database state (see ledger.WriteSnapshot)
// for restart durability.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	_, err := e.ledger.WriteSnapshot(w)
	return err
}

// Restore reconstructs an engine from a snapshot stream (NewWithLedger over
// the loaded ledger); new commit versions continue above the restored head.
func Restore(opts Options, r io.Reader) (*Engine, error) {
	if opts.Store == nil {
		opts.Store = cas.NewMemory()
	}
	l, err := ledger.LoadSnapshot(opts.Store, r)
	if err != nil {
		return nil, err
	}
	// Resume transaction IDs above every ID recorded in the restored
	// ledger, so post-restore commits never reuse an ID already bound
	// into the audit history.
	var next uint64
	for height := uint64(0); height < l.Height(); height++ {
		body, err := l.Body(height)
		if err != nil {
			return nil, fmt.Errorf("core: restore block %d body: %w", height, err)
		}
		for _, t := range body {
			next = max(next, t.ID+1)
		}
	}
	return NewWithLedger(opts, l, next)
}
