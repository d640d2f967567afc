// Package twopc implements two-phase commit across Spitz processor nodes.
// Section 5.2: "The solution is to add distributed transactions to each
// node, and follow the two-phase commit (2PC) protocol to coordinate each
// transaction so that transactions committed by different nodes can be
// made serializable."
//
// A Coordinator drives Prepare/CommitPrepared/Abort over named
// participants, one per shard: the shard's engine (core.Engine), whose
// commit gate validates a transaction's reads and holds its keys under the
// same lock that admits every other commit on that shard. Any conflict is
// a vote to abort, and the coordinator rolls back every participant when
// any vote fails. Locks are never waited on — conflicting prepares abort
// immediately, so the protocol cannot deadlock. A transaction that
// touches one shard needs no coordinator: it is one gated commit there.
package twopc

import (
	"errors"
	"fmt"
	"sync"

	"spitz/internal/core"
	"spitz/internal/obs"
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

// Participant is one shard's interface in the protocol; core.Engine is
// the one implementation.
type Participant interface {
	// Prepare validates the shard-local reads (cell reference → version
	// read) and holds the transaction's read and write keys. An error is a
	// vote to abort.
	Prepare(txnID uint64, statement string, reads map[string]uint64, puts []core.Put) error
	// CommitPrepared commits a prepared transaction's writes and releases
	// its keys. The shard allocates the commit version, so it is the
	// shard's own, not the coordinator's timestamp. It must succeed for a
	// prepared transaction.
	CommitPrepared(txnID uint64) error
	// Abort releases a prepared (or never-prepared) transaction's keys.
	Abort(txnID uint64)
}

// Coordinator runs 2PC over a set of named shards.
type Coordinator struct {
	mu     sync.Mutex
	shards map[string]Participant
	ts     core.TimestampSource
	nextID uint64
}

// NewCoordinator returns a coordinator allocating commit timestamps from
// ts.
func NewCoordinator(ts core.TimestampSource) *Coordinator {
	return &Coordinator{shards: make(map[string]Participant), ts: ts}
}

// Register adds a shard.
func (c *Coordinator) Register(name string, p Participant) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shards[name] = p
}

// Request carries one shard's portion of a distributed transaction.
type Request struct {
	Shard     string
	Statement string            // audited statement recorded in the shard's ledger
	Reads     map[string]uint64 // cell reference -> version observed during execution
	Puts      []core.Put
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
		errs[i] = parts[i].Prepare(id, reqs[i].Statement, reqs[i].Reads, reqs[i].Puts)
		leg.Finish()
	})
	for i, err := range errs {
		if err != nil {
			// Roll back every shard (including non-prepared ones; Abort is
			// idempotent).
			for j := range reqs {
				parts[j].Abort(id)
			}
			if errors.Is(err, core.ErrConflict) {
				mAbortsConflict.Inc()
			} else {
				mAbortsError.Inc()
			}
			return 0, fmt.Errorf("%w: shard %q: %w", ErrAborted, reqs[i].Shard, err)
		}
	}

	// Phase 2: commit everywhere, in parallel — each shard's commit may
	// wait on its own durability (WAL fsync), and those waits overlap.
	version := c.ts.Next()
	FanOut(len(reqs), func(i int) {
		leg := tr.ChildAt("twopc.commit", reqs[i].Shard)
		errs[i] = parts[i].CommitPrepared(id)
		leg.Finish()
	})
	for i, err := range errs {
		if err != nil {
			// A prepared participant failing to commit is a broken
			// invariant; surface it loudly rather than half-committing.
			return 0, fmt.Errorf("twopc: shard %q failed prepared commit: %w", reqs[i].Shard, err)
		}
	}
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
