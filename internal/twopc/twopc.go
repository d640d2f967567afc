// Package twopc implements two-phase commit across Spitz processor nodes.
// Section 5.2: "The solution is to add distributed transactions to each
// node, and follow the two-phase commit (2PC) protocol to coordinate each
// transaction so that transactions committed by different nodes can be
// made serializable."
//
// A Coordinator drives Prepare/Commit/Abort over named participants (one
// per shard). Prepare validates the transaction's reads against the
// shard's store and takes shared locks on read keys and exclusive locks
// on write keys; any conflict is a vote to abort, and the coordinator
// rolls back every prepared participant when any vote fails. Locks are
// never waited on — conflicting prepares abort immediately, so the
// protocol cannot deadlock.
package twopc

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"spitz/internal/obs"
	"spitz/internal/txn"
)

// 2PC outcome counters. Aborts split by cause: "conflict" is the
// expected OCC/lock outcome under contention, "error" is anything else
// (store failures, poisoned engines) and deserves alerting.
var (
	mPrepares       = obs.Default.Counter("spitz_twopc_prepares_total")
	mCommits        = obs.Default.Counter("spitz_twopc_commits_total")
	mAbortsConflict = obs.Default.Counter(`spitz_twopc_aborts_total{cause="conflict"}`)
	mAbortsError    = obs.Default.Counter(`spitz_twopc_aborts_total{cause="error"}`)
)

// ErrAborted is returned when a distributed transaction fails to prepare
// on every shard and is rolled back.
var ErrAborted = errors.New("twopc: transaction aborted")

// Participant is one shard's interface in the protocol.
type Participant interface {
	// Prepare validates the shard-local reads and locks the read and
	// write keys of the transaction's portion. An error is a vote to
	// abort.
	Prepare(txnID uint64, req Request) error
	// Commit applies a prepared transaction and releases its locks. The
	// shard's store allocates the commit version, so it is the shard's own,
	// not the coordinator's timestamp. Commit must succeed for prepared
	// transactions.
	Commit(txnID uint64) error
	// Abort releases a prepared (or never-prepared) transaction's locks.
	Abort(txnID uint64) error
}

// Coordinator runs 2PC over a set of named shards.
type Coordinator struct {
	mu     sync.Mutex
	shards map[string]Participant
	ts     txn.TimestampSource
	nextID uint64

	commits int64
	aborts  int64
}

// NewCoordinator returns a coordinator allocating commit timestamps from
// ts.
func NewCoordinator(ts txn.TimestampSource) *Coordinator {
	return &Coordinator{shards: make(map[string]Participant), ts: ts}
}

// Register adds a shard.
func (c *Coordinator) Register(name string, p Participant) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shards[name] = p
}

// Stats returns commit and abort counts.
func (c *Coordinator) Stats() (commits, aborts int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commits, c.aborts
}

// Request carries one shard's portion of a distributed transaction.
type Request struct {
	Shard     string
	Statement string            // audited statement recorded in the shard's ledger
	Reads     map[string]uint64 // key -> version observed during execution
	Writes    []txn.Write
}

// Execute runs the two phases. On success every shard has committed and
// the coordinator's commit timestamp is returned. On abort, ErrAborted
// wraps the first failing shard's vote. A transaction must touch a shard:
// with no request there is nothing to commit, and it is refused.
func (c *Coordinator) Execute(reqs []Request) (uint64, error) {
	return c.ExecuteTraced(nil, reqs)
}

// ExecuteTraced is Execute carrying the request's trace: each shard's
// prepare and commit leg records a child span, so a stitched timeline
// shows which participant a cross-shard write was waiting on.
func (c *Coordinator) ExecuteTraced(tr *obs.Trace, reqs []Request) (uint64, error) {
	if len(reqs) == 0 {
		return 0, errors.New("twopc: transaction touches no shard")
	}
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	parts := make([]Participant, len(reqs))
	for i, r := range reqs {
		p, ok := c.shards[r.Shard]
		if !ok {
			c.mu.Unlock()
			return 0, fmt.Errorf("twopc: unknown shard %q", r.Shard)
		}
		parts[i] = p
	}
	c.mu.Unlock()

	// Phase 1: prepare all shards in parallel.
	mPrepares.Add(uint64(len(reqs)))
	errs := make([]error, len(reqs))
	FanOut(len(reqs), func(i int) {
		leg := tr.ChildAt("twopc.prepare", reqs[i].Shard)
		errs[i] = parts[i].Prepare(id, reqs[i])
		leg.Finish()
	})
	for i, err := range errs {
		if err != nil {
			// Roll back every shard (including non-prepared ones; Abort is
			// idempotent).
			for j := range reqs {
				_ = parts[j].Abort(id)
			}
			c.mu.Lock()
			c.aborts++
			c.mu.Unlock()
			if errors.Is(err, txn.ErrConflict) {
				mAbortsConflict.Inc()
			} else {
				mAbortsError.Inc()
			}
			return 0, fmt.Errorf("%w: shard %q: %v", ErrAborted, reqs[i].Shard, err)
		}
	}

	// Phase 2: commit everywhere, in parallel — each shard's commit may
	// wait on its own durability (WAL fsync), and those waits overlap.
	version := c.ts.Next()
	FanOut(len(reqs), func(i int) {
		leg := tr.ChildAt("twopc.commit", reqs[i].Shard)
		errs[i] = parts[i].Commit(id)
		leg.Finish()
	})
	for i, err := range errs {
		if err != nil {
			// A prepared participant failing to commit is a broken
			// invariant; surface it loudly rather than half-committing.
			return 0, fmt.Errorf("twopc: shard %q failed prepared commit: %v", reqs[i].Shard, err)
		}
	}
	c.mu.Lock()
	c.commits++
	c.mu.Unlock()
	mCommits.Inc()
	return version, nil
}

// FanOut runs leg(i) for every i < n concurrently and returns when all
// have. The last leg runs on the caller's goroutine, whose stack the
// commit or verify path has already grown: a fresh goroutine's regrows
// (runtime.newstack/copystack) on every call. A one-leg fan-out — a
// one-shard transaction's phases, a one-shard scatter — spawns nothing.
func FanOut(n int, leg func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := range n - 1 {
		go func() {
			defer wg.Done()
			leg(i)
		}()
	}
	leg(n - 1)
	wg.Wait()
}

// preparedTxn is one transaction's footprint on a participant between
// Prepare and Commit/Abort.
type preparedTxn struct {
	statement string
	reads     []string
	writes    []txn.Write
}

// ShardParticipant is the standard Participant over a txn.Store: reads
// are validated against the store itself (so writes reaching the store
// outside this participant — bulk ingest, recovery — are still
// detected), read keys take shared locks and write keys exclusive locks
// between Prepare and Commit/Abort. The locks close the classic 2PC
// window: between a transaction's validation and its commit, no other
// distributed transaction can write what it read or read/write what it
// writes.
type ShardParticipant struct {
	mu       sync.Mutex
	store    txn.Store
	locks    map[string]uint64              // write key -> txn holding the exclusive lock
	readers  map[string]map[uint64]struct{} // read key -> txns holding shared locks
	prepared map[uint64]*preparedTxn
}

// NewShardParticipant returns a participant over store.
func NewShardParticipant(store txn.Store) *ShardParticipant {
	return &ShardParticipant{
		store:    store,
		locks:    make(map[string]uint64),
		readers:  make(map[string]map[uint64]struct{}),
		prepared: make(map[uint64]*preparedTxn),
	}
}

// Prepare implements Participant.
func (s *ShardParticipant) Prepare(txnID uint64, req Request) error {
	reads, writes := req.Reads, req.Writes
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.prepared[txnID]; dup {
		return fmt.Errorf("twopc: txn %d already prepared", txnID)
	}
	// Deterministic validation order keeps conflict errors stable.
	readKeys := make([]string, 0, len(reads))
	for key := range reads {
		readKeys = append(readKeys, key)
	}
	sort.Strings(readKeys)

	p := &preparedTxn{statement: req.Statement, writes: writes}
	release := func() {
		s.releaseLocked(txnID, p)
	}
	// Validate reads (OCC backward validation against the store's current
	// state) and take shared locks so no later-preparing transaction can
	// overwrite them before we commit.
	for _, key := range readKeys {
		if holder, locked := s.locks[key]; locked && holder != txnID {
			release()
			return txn.ErrConflict // read key being written by another txn
		}
		_, cur, _, err := s.store.ReadLatest([]byte(key), ^uint64(0))
		if err != nil {
			release()
			return err
		}
		if cur != reads[key] {
			release()
			return txn.ErrConflict
		}
		set := s.readers[key]
		if set == nil {
			set = make(map[uint64]struct{})
			s.readers[key] = set
		}
		set[txnID] = struct{}{}
		p.reads = append(p.reads, key)
	}
	// Lock write keys exclusively: conflict with other writers and with
	// other transactions' shared read locks.
	for _, w := range writes {
		key := string(w.Key)
		if holder, locked := s.locks[key]; locked && holder != txnID {
			release()
			return txn.ErrConflict
		}
		for reader := range s.readers[key] {
			if reader != txnID {
				release()
				return txn.ErrConflict
			}
		}
		s.locks[key] = txnID
	}
	s.prepared[txnID] = p
	return nil
}

// releaseLocked drops every lock a transaction holds. Caller holds s.mu.
func (s *ShardParticipant) releaseLocked(txnID uint64, p *preparedTxn) {
	for _, key := range p.reads {
		if set := s.readers[key]; set != nil {
			delete(set, txnID)
			if len(set) == 0 {
				delete(s.readers, key)
			}
		}
	}
	for _, w := range p.writes {
		if s.locks[string(w.Key)] == txnID {
			delete(s.locks, string(w.Key))
		}
	}
}

// Commit implements Participant. The store allocates the shard's commit
// version, so two coordinators (or a coordinator racing local commits)
// reaching one shard out of timestamp order cannot break its version
// order, and the writes are visible to later validations before the
// locks release. A part with no writes only releases its locks.
func (s *ShardParticipant) Commit(txnID uint64) error {
	s.mu.Lock()
	p, ok := s.prepared[txnID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("twopc: commit of unprepared txn %d", txnID)
	}
	wait := func() error { return nil }
	if len(p.writes) > 0 {
		var err error
		if _, wait, err = s.store.Commit(p.statement, p.writes); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.releaseLocked(txnID, p)
	delete(s.prepared, txnID)
	s.mu.Unlock()
	// Only durability is pending. Waiting outside the lock lets
	// concurrent commits share the store's group-commit machinery.
	return wait()
}

// Abort implements Participant. It is idempotent and safe to call for
// transactions that never prepared on this shard.
func (s *ShardParticipant) Abort(txnID uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.prepared[txnID]
	if !ok {
		return nil
	}
	s.releaseLocked(txnID, p)
	delete(s.prepared, txnID)
	return nil
}

// ReadLatest reads through to the underlying store, reporting the version
// for use in Request.Reads.
func (s *ShardParticipant) ReadLatest(key []byte, asOf uint64) ([]byte, uint64, bool, error) {
	return s.store.ReadLatest(key, asOf)
}
