// Package repl implements log-shipping replication: untrusted read
// replicas that mirror a primary by streaming its write-ahead log.
//
// The primary side is a Source over the durable layer's WAL: followers
// attach at a ledger height and receive every committed block's WAL frame
// from there on, the log held against pruning while they are attached
// (wal.Reader retention holds). A follower too far behind the retained
// log — or impossibly ahead of it — is handed a full snapshot first and
// resumes from the snapshot's height.
//
// The follower side is a Replica: it applies each streamed block through
// the engine's verified-replay path (core.ReplayBlock), which fails
// unless the replayed block reproduces the logged hash — a corrupt or
// lying primary is detected at apply time, not at read time. The replica
// maintains its own full ledger and POS-tree and serves verified reads,
// scans, history and consistency proofs against its own digest; it is
// strictly read-only and resumes from its current height whenever either
// side restarts.
//
// Trust never flows from the primary to the replica's clients: a client
// accepts a replica-served proof only after proving — against the
// primary's digest, with the ordinary consistency-proof machinery — that
// the replica's digest is a prefix of the primary's history (see
// spitz.Client). Replication therefore adds read capacity
// without adding any trusted machines.
package repl

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"spitz/internal/durable"
	"spitz/internal/obs"
	"spitz/internal/wal"
	"spitz/internal/wire"
)

// Primary-side replication counters. Snapshot hand-offs are the fallback
// for followers outside the retained log — a nonzero rate under steady
// state means retention is too short for follower restart times.
var (
	mSrcAttaches      = obs.Default.Counter("spitz_repl_attaches_total")
	mSrcFramesSent    = obs.Default.Counter("spitz_repl_frames_sent_total")
	mSrcBytesSent     = obs.Default.Counter("spitz_repl_bytes_sent_total")
	mSrcSnapshotsSent = obs.Default.Counter("spitz_repl_snapshots_sent_total")
)

// Source serves one durable engine's committed-block stream to
// replication followers. It implements wire.ReplStreamer; a server
// exposes it through wire.Server.Repl. Safe for concurrent use.
type Source struct {
	m *durable.Manager

	mu        sync.Mutex
	nextID    int
	followers map[int]*followerState
}

// followerState is the observability record of one attached follower.
type followerState struct {
	remote    string
	start     uint64 // height the stream began at
	sent      uint64 // blocks shipped
	acked     uint64 // blocks the follower confirmed applying
	sentBytes uint64
	// unacked tracks shipped-but-unacknowledged payload sizes, keyed by
	// the follower height each ships it to, so byte lag is exact.
	unacked []shipped
}

type shipped struct {
	height uint64 // follower height after applying this payload
	bytes  uint64
}

// NewSource returns a replication source over m's engine and WAL.
func NewSource(m *durable.Manager) *Source {
	return &Source{m: m, followers: make(map[int]*followerState)}
}

// Attach implements wire.ReplStreamer: subscribe a follower whose ledger
// is from blocks tall. When the follower's position is inside the
// retained log the feed streams frames directly; otherwise it first hands
// over a full engine snapshot — taken only after a log hold is in place,
// so snapshot plus retained tail is gapless however checkpoint pruning
// races the attach.
func (s *Source) Attach(remote string, from uint64) (wire.ReplFeed, error) {
	log := s.m.Log()
	f := &feed{src: s}
	cur := s.m.Engine().Ledger().Height()
	if from <= cur {
		r, err := log.Follow(s.m.SeqForHeight(from))
		if err == nil {
			f.r = r
		} else if !errors.Is(err, wal.ErrPruned) {
			return nil, err
		}
	}
	if f.r == nil {
		// Snapshot hand-off: either the follower predates the retained
		// log, or it is ahead of this primary (it replicated blocks a
		// crash under a weak sync policy then lost) and only a full state
		// transfer can realign it. Hold the log at its current oldest
		// record first; the snapshot is at least as new as that point.
		var r *wal.Reader
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if r, err = log.Follow(log.OldestSeq()); !errors.Is(err, wal.ErrPruned) {
				break // success, or a non-racing error
			}
		}
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		snapHeight := s.m.Engine().Ledger().Height()
		if err := s.m.Engine().WriteSnapshot(&buf); err != nil {
			r.Close()
			return nil, fmt.Errorf("repl: snapshot for follower: %w", err)
		}
		// The snapshot covers everything below snapHeight (at least —
		// commits racing the write may push it further, and the replica
		// skips such overlap by hash check); shipping the retained log
		// below it would be pure redundancy, so release that prefix.
		r.SkipTo(s.m.SeqForHeight(snapHeight))
		f.r = r
		f.snap = buf.Bytes()
		f.snapHeight = snapHeight
	}
	start := from
	if start > cur {
		// A follower asking beyond our history (divergence resync) is
		// really starting over from the snapshot.
		start = cur
	}
	s.mu.Lock()
	f.id = s.nextID
	s.nextID++
	s.followers[f.id] = &followerState{remote: remote, start: start, acked: start}
	s.mu.Unlock()
	mSrcAttaches.Inc()
	return f, nil
}

// WALStats returns the primary's WAL span, for OpStats.
func (s *Source) WALStats() wire.WALStats { return s.m.WALStats() }

// Followers reports every attached follower's progress and lag.
func (s *Source) Followers() []wire.FollowerStats {
	cur := s.m.Engine().Ledger().Height()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]wire.FollowerStats, 0, len(s.followers))
	for _, st := range s.followers {
		fs := wire.FollowerStats{
			Remote:      st.remote,
			StartHeight: st.start,
			SentHeight:  st.sent,
			AckedHeight: st.acked,
			SentBytes:   st.sentBytes,
		}
		if cur > st.acked {
			fs.LagBlocks = cur - st.acked
		}
		for _, sh := range st.unacked {
			fs.LagBytes += sh.bytes
		}
		out = append(out, fs)
	}
	return out
}

// noteSent records a shipped payload against follower id.
func (s *Source) noteSent(id int, height uint64, n uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.followers[id]
	if st == nil {
		return
	}
	if height > st.sent {
		st.sent = height
	}
	st.sentBytes += n
	st.unacked = append(st.unacked, shipped{height: height, bytes: n})
}

// noteAck records a follower's progress report.
func (s *Source) noteAck(id int, height uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.followers[id]
	if st == nil {
		return
	}
	if height > st.acked {
		st.acked = height
	}
	keep := st.unacked[:0]
	for _, sh := range st.unacked {
		if sh.height > height {
			keep = append(keep, sh)
		}
	}
	st.unacked = keep
}

func (s *Source) detach(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.followers, id)
}

// feed is one follower's stream. Next is called by a single goroutine
// (the serving connection); Ack and Close may race it.
type feed struct {
	src        *Source
	id         int
	r          *wal.Reader
	snap       []byte
	snapHeight uint64
	closeOnce  sync.Once
}

// Next implements wire.ReplFeed: the pending snapshot hand-off first,
// then WAL frames in height order, blocking at the durable tail.
func (f *feed) Next(stop <-chan struct{}) (wire.ReplEvent, error) {
	if f.snap != nil {
		ev := wire.ReplEvent{IsSnapshot: true, Height: f.snapHeight, Snapshot: f.snap}
		f.src.noteSent(f.id, f.snapHeight, uint64(len(f.snap)))
		mSrcSnapshotsSent.Inc()
		mSrcBytesSent.Add(uint64(len(f.snap)))
		f.snap = nil
		return ev, nil
	}
	seq, payload, err := f.r.Next(stop)
	if err != nil {
		return wire.ReplEvent{}, err
	}
	h := f.src.m.HeightForSeq(seq)
	f.src.noteSent(f.id, h+1, uint64(len(payload)))
	mSrcFramesSent.Inc()
	mSrcBytesSent.Add(uint64(len(payload)))
	return wire.ReplEvent{Height: h, Frame: payload}, nil
}

// Ack implements wire.ReplFeed.
func (f *feed) Ack(height uint64) { f.src.noteAck(f.id, height) }

// Close implements wire.ReplFeed: release the log hold and drop the
// follower from the stats.
func (f *feed) Close() {
	f.closeOnce.Do(func() {
		f.r.Close()
		f.src.detach(f.id)
	})
}

// Compile-time interface checks.
var (
	_ wire.ReplStreamer = (*Source)(nil)
	_ wire.ReplFeed     = (*feed)(nil)
)
