package repl

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"spitz/internal/core"
	"spitz/internal/durable"
	"spitz/internal/ledger"
	"spitz/internal/obs"
	"spitz/internal/wire"
)

// Follower-side replication counters, aggregated across the process's
// replicas (one per mirrored shard). Resyncs and poisonings are the
// alarm series: both should stay at zero against an honest primary.
var (
	mRepBlocksApplied = obs.Default.Counter("spitz_replica_blocks_applied_total")
	mRepBytesApplied  = obs.Default.Counter("spitz_replica_bytes_applied_total")
	mRepApplyNs       = obs.Default.Histogram("spitz_replica_apply_ns")
	mRepSnapshotLoads = obs.Default.Counter("spitz_replica_snapshot_loads_total")
	mRepResyncs       = obs.Default.Counter("spitz_replica_resyncs_total")
	mRepPoisoned      = obs.Default.Counter("spitz_replica_poisonings_total")
)

// Options configures a Replica.
type Options struct {
	// Shard is the wire shard id to stream: 0 for a single-engine
	// primary, i for shard i-1 of a sharded one.
	Shard int
	// MaintainInverted keeps the replica's inverted index, so it can
	// serve equality lookups (the primary must maintain its own
	// independently).
	MaintainInverted bool
	// ReconnectDelay is the pause between connection attempts
	// (default 250ms).
	ReconnectDelay time.Duration
	// Logf, when non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

// maxResyncs bounds back-to-back from-scratch resyncs without a single
// successfully applied block: an honest divergence (a primary that lost
// an unsynced tail) resolves in one, so repeated failures mean the
// primary keeps shipping blocks that fail verified replay.
const maxResyncs = 3

// errResync asks the run loop to reconnect and restart the stream (the
// replica reset itself to resynchronize from scratch).
var errResync = errors.New("repl: replica diverged from primary; resynchronizing")

// Status is a point-in-time summary of a replica's replication state.
type Status struct {
	// Height is the replica's own ledger height, counting only blocks it
	// has finished applying: a block the ledger has published but the
	// engine not yet indexed is not in it.
	Height uint64
	// Connected reports whether a stream to the primary is live.
	Connected bool
	// LastError is the most recent connection or apply failure ("" when
	// none).
	LastError string
	// AppliedBlocks and AppliedBytes count verified-replayed frames.
	AppliedBlocks uint64
	AppliedBytes  uint64
	// SnapshotLoads counts full state transfers (bootstrap or resync).
	SnapshotLoads uint64
	// Poisoned is set when a block failed verified replay repeatedly:
	// the primary is corrupt or lying, and the replica has stopped
	// following it. It keeps serving its last verified state.
	Poisoned bool
}

// Replica mirrors one primary engine by streaming its WAL. It maintains
// its own full ledger and POS-tree, serves the complete read surface
// (point, range, history, consistency proofs) against its own digest,
// and is strictly read-only: served as a Shard of a Router with no
// writer, every mutation is refused. Safe for concurrent use.
type Replica struct {
	dial func() (*wire.Client, error)
	opts Options

	mu       sync.RWMutex
	eng      *core.Engine
	st       Status
	resyncs  int          // consecutive resyncs without progress
	needSnap bool         // diverged: next attach must be a full state transfer
	conn     *wire.Client // the live stream connection, severed by Close

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// New starts a replica that follows the primary reached by dial,
// reconnecting with backoff until Close. The replica begins empty and
// bootstraps from the primary's log (or a snapshot hand-off when the log
// no longer reaches back far enough).
func New(dial func() (*wire.Client, error), opts Options) *Replica {
	if opts.ReconnectDelay <= 0 {
		opts.ReconnectDelay = 250 * time.Millisecond
	}
	r := &Replica{
		dial: dial,
		opts: opts,
		eng:  core.New(core.Options{MaintainInverted: opts.MaintainInverted}),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go r.run()
	return r
}

// Engine returns the replica's own engine, for local reads.
func (r *Replica) Engine() *core.Engine {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.eng
}

// Digest returns the replica's own ledger digest. Clients prove it is a
// prefix of the primary's before trusting replica-served proofs.
func (r *Replica) Digest() ledger.Digest { return r.Engine().Digest() }

// Height returns the replica's own ledger height (Status.Height).
func (r *Replica) Height() uint64 { return r.Status().Height }

// Status returns the replica's replication state.
func (r *Replica) Status() Status {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.st
}

// Close stops following the primary, severing any live stream. The
// replica keeps serving whatever it has verified so far.
func (r *Replica) Close() {
	r.closeOnce.Do(func() { close(r.stop) })
	r.mu.Lock()
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	<-r.done
}

func (r *Replica) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// run is the reconnect loop: dial, stream from the current height, apply
// until the stream breaks, repeat.
func (r *Replica) run() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		c, err := r.dial()
		if err != nil {
			r.noteError(err)
			if !r.sleep() {
				return
			}
			continue
		}
		r.mu.Lock()
		r.conn = c
		r.st.Connected = true
		closing := false
		select {
		case <-r.stop:
			closing = true
		default:
		}
		r.mu.Unlock()
		if closing {
			c.Close()
			return
		}
		from := r.Height()
		r.mu.RLock()
		if r.needSnap {
			// The replica's chain diverged from the primary's: resuming
			// from any height on our chain cannot work, so request a
			// position the primary can only serve with a snapshot.
			from = ^uint64(0)
		}
		r.mu.RUnlock()
		r.logf("repl: streaming from primary at height %d", from)
		err = c.StreamBlocks(r.opts.Shard, from, r.onSnapshot, r.onBlock)
		c.Close()
		r.mu.Lock()
		r.conn = nil
		r.st.Connected = false
		r.mu.Unlock()
		if err != nil && !errors.Is(err, errResync) {
			r.noteError(err)
		}
		if r.poisoned() {
			r.logf("repl: replica poisoned, no longer following the primary")
			return
		}
		if !r.sleep() {
			return
		}
	}
}

// sleep waits the reconnect delay; false means the replica was closed.
func (r *Replica) sleep() bool {
	select {
	case <-r.stop:
		return false
	case <-time.After(r.opts.ReconnectDelay):
		return true
	}
}

// onSnapshot adopts a full state transfer. The snapshot replaces the
// replica's state unconditionally: the source only sends one when the
// follower's position cannot be served from the log — bootstrap, a
// primary that lost an unsynced tail, or a detected divergence — and
// core.Restore revalidates the whole chain, so a tampered snapshot is
// rejected rather than loaded.
func (r *Replica) onSnapshot(snapshot []byte, height uint64) (uint64, error) {
	eng, err := core.Restore(core.Options{MaintainInverted: r.opts.MaintainInverted}, bytes.NewReader(snapshot))
	if err != nil {
		err = fmt.Errorf("repl: snapshot failed verification: %w", err)
		r.poison(err)
		return 0, err
	}
	got := eng.Ledger().Height()
	mRepSnapshotLoads.Inc()
	r.mu.Lock()
	r.eng = eng
	r.st.Height = got
	r.st.SnapshotLoads++
	r.needSnap = false
	r.mu.Unlock()
	r.logf("repl: adopted snapshot at height %d (advertised %d)", got, height)
	return got, nil
}

// onBlock applies one streamed block through the verified-replay path.
func (r *Replica) onBlock(height uint64, frame []byte) (uint64, error) {
	rec, err := durable.DecodeRecord(frame)
	if err != nil {
		err = fmt.Errorf("repl: undecodable frame at height %d: %w", height, err)
		r.poison(err)
		return 0, err
	}
	if rec.Height != height {
		err = fmt.Errorf("repl: stream says height %d but frame holds block %d", height, rec.Height)
		r.poison(err)
		return 0, err
	}
	eng := r.Engine()
	cur := eng.Ledger().Height()
	switch {
	case rec.Height < cur:
		// Overlap from a snapshot or resume hand-off: skip it, but only
		// after checking it matches our own history — a mismatch means
		// the primary's chain and ours diverged.
		hdr, err := eng.Ledger().Header(rec.Height)
		if err == nil && hdr.Hash() == rec.BlockHash {
			return cur, nil
		}
		return 0, r.resync(fmt.Errorf("repl: block %d does not match replica history", rec.Height))
	case rec.Height > cur:
		// A gap cannot be applied; reconnecting renegotiates the start.
		return 0, fmt.Errorf("repl: stream gap: got block %d, replica at height %d", rec.Height, cur)
	}
	// Block-apply has no inbound trace context (the stream was opened
	// long before this block's transaction), so apply spans are sampled
	// replica-local roots rather than children of the write's trace.
	tr := obs.DefaultTracer.Root("repl.apply", "replica")
	applyStart := time.Now()
	if _, err := eng.ReplayBlock(rec); err != nil {
		tr.Finish()
		// Verified replay failed: the frame does not reproduce its logged
		// hash on our chain. Either the primary rewrote history (honest
		// only after losing an unsynced tail) or it is lying; resync from
		// scratch and give up if that keeps happening.
		return 0, r.resync(fmt.Errorf("repl: block %d failed verified replay: %w", rec.Height, err))
	}
	tr.Stage("repl.replay-block", applyStart)
	tr.Finish()
	mRepApplyNs.ObserveSince(applyStart)
	mRepBlocksApplied.Inc()
	mRepBytesApplied.Add(uint64(len(frame)))
	r.mu.Lock()
	r.st.Height = rec.Height + 1
	r.st.AppliedBlocks++
	r.st.AppliedBytes += uint64(len(frame))
	r.st.LastError = ""
	r.resyncs = 0
	r.mu.Unlock()
	return rec.Height + 1, nil
}

// resync schedules a full state transfer on the next attach; after
// maxResyncs consecutive failures it poisons the replica instead (the
// primary keeps shipping unverifiable blocks). The current engine keeps
// serving its last verified state until the replacement snapshot is
// verified and adopted — a diverged follower degrades to stale, never
// to empty.
func (r *Replica) resync(cause error) error {
	mRepResyncs.Inc()
	r.mu.Lock()
	r.resyncs++
	tooMany := r.resyncs > maxResyncs
	if !tooMany {
		r.needSnap = true
		r.st.LastError = cause.Error()
	}
	r.mu.Unlock()
	if tooMany {
		err := fmt.Errorf("repl: primary keeps shipping unverifiable blocks (%d resyncs): %w", maxResyncs, cause)
		r.poison(err)
		return err
	}
	r.logf("%v", cause)
	return fmt.Errorf("%w: %v", errResync, cause)
}

func (r *Replica) poison(err error) {
	mRepPoisoned.Inc()
	r.mu.Lock()
	r.st.Poisoned = true
	r.st.LastError = err.Error()
	r.mu.Unlock()
}

func (r *Replica) poisoned() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.st.Poisoned
}

func (r *Replica) noteError(err error) {
	r.mu.Lock()
	r.st.LastError = err.Error()
	r.mu.Unlock()
	r.logf("repl: %v", err)
}

// Shard describes the replica as one shard of a served deployment: its
// current engine (replaced when it adopts a snapshot) and its replication
// state.
func (r *Replica) Shard() wire.Shard {
	return wire.Shard{Engine: r.Engine, Replica: func() wire.ReplicaStats {
		st := r.Status()
		return wire.ReplicaStats{
			Height:        st.Height,
			Connected:     st.Connected,
			LastError:     st.LastError,
			AppliedBlocks: st.AppliedBlocks,
			AppliedBytes:  st.AppliedBytes,
			SnapshotLoads: st.SnapshotLoads,
		}
	}}
}
