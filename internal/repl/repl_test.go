package repl_test

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spitz/internal/core"
	"spitz/internal/durable"
	"spitz/internal/repl"
	"spitz/internal/wal"
	"spitz/internal/wire"
)

// primary is one durable engine served with replication enabled.
type primary struct {
	m   *durable.Manager
	src *repl.Source
	srv *wire.Server
	ln  net.Listener
}

func startPrimary(t *testing.T, dir string, opts durable.Options) *primary {
	t.Helper()
	m, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	src := repl.NewSource(m)
	d := &wire.Router{Shards: []wire.Shard{{Engine: m.Engine, Source: src}}}
	srv := wire.NewHandlerServer(d)
	srv.Repl = d.Repl
	ln, _ := wire.Listen()
	go srv.Serve(ln)
	return &primary{m: m, src: src, srv: srv, ln: ln}
}

func (p *primary) stop() {
	p.ln.Close()
	p.m.Close()
}

func (p *primary) apply(t *testing.T, i int) {
	t.Helper()
	if _, err := p.m.Engine().Apply(fmt.Sprintf("w%d", i), []core.Put{{
		Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%04d", i)),
		Value: []byte(fmt.Sprintf("v%04d", i)),
	}}); err != nil {
		t.Fatal(err)
	}
}

func waitHeight(t *testing.T, r *repl.Replica, h uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.Height() >= h {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica stuck at height %d, want %d (status %+v)", r.Height(), h, r.Status())
}

// TestReplicaTailAndBootstrap: a replica bootstraps from the retained
// log, follows live commits, and serves verified reads at the primary's
// exact digest; the primary reports it as an attached follower.
func TestReplicaTailAndBootstrap(t *testing.T) {
	p := startPrimary(t, t.TempDir(), durable.Options{CheckpointInterval: -1})
	defer p.stop()
	for i := 0; i < 10; i++ {
		p.apply(t, i)
	}
	r := repl.New(func() (*wire.Client, error) { return wire.Connect(p.ln) }, repl.Options{ReconnectDelay: 5 * time.Millisecond})
	defer r.Close()
	waitHeight(t, r, 10)

	// Live tail: new commits arrive without reconnecting.
	for i := 10; i < 20; i++ {
		p.apply(t, i)
	}
	waitHeight(t, r, 20)
	if got, want := r.Digest(), p.m.Engine().Digest(); got != want {
		t.Fatalf("replica digest %+v, want primary's %+v", got, want)
	}
	st := r.Status()
	if st.SnapshotLoads != 0 {
		t.Fatalf("log-only bootstrap took %d snapshots", st.SnapshotLoads)
	}
	if st.AppliedBlocks != 20 {
		t.Fatalf("applied %d blocks, want 20", st.AppliedBlocks)
	}

	// The replica serves a verified read that proves against its digest.
	res, err := r.Engine().GetVerified("t", "c", []byte("pk0007"))
	if err != nil || !res.Found {
		t.Fatalf("replica verified read: found=%v err=%v", res.Found, err)
	}
	if res.Digest != r.Digest() {
		t.Fatalf("proof digest %+v, want replica digest %+v", res.Digest, r.Digest())
	}
	if err := res.Proof.Verify(res.Digest); err != nil {
		t.Fatalf("replica proof does not verify: %v", err)
	}

	// Follower accounting: one attached follower, caught up.
	deadline := time.Now().Add(2 * time.Second)
	for {
		fs := p.src.Followers()
		if len(fs) == 1 && fs[0].AckedHeight == 20 && fs[0].LagBlocks == 0 && fs[0].LagBytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stats never converged: %+v", fs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicaSnapshotBootstrap: when checkpoints have pruned the log, a
// fresh follower is handed a snapshot and then tails the remaining log.
func TestReplicaSnapshotBootstrap(t *testing.T) {
	p := startPrimary(t, t.TempDir(), durable.Options{
		CheckpointInterval: -1,
		SegmentSize:        256, // rotate often so checkpoints can prune
	})
	defer p.stop()
	for i := 0; i < 30; i++ {
		p.apply(t, i)
	}
	if err := p.m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := p.m.WALStats().OldestRetainedHeight; got == 0 {
		t.Fatal("checkpoint pruned nothing; test needs a pruned prefix")
	}
	for i := 30; i < 35; i++ {
		p.apply(t, i)
	}

	r := repl.New(func() (*wire.Client, error) { return wire.Connect(p.ln) }, repl.Options{ReconnectDelay: 5 * time.Millisecond})
	defer r.Close()
	waitHeight(t, r, 35)
	if got, want := r.Digest(), p.m.Engine().Digest(); got != want {
		t.Fatalf("replica digest %+v, want primary's %+v", got, want)
	}
	if st := r.Status(); st.SnapshotLoads != 1 {
		t.Fatalf("snapshot loads = %d, want 1 (status %+v)", st.SnapshotLoads, st)
	}
	// History before the pruned point is fully present (the snapshot
	// carried it).
	cells, err := r.Engine().History("t", "c", []byte("pk0001"))
	if err != nil || len(cells) != 1 {
		t.Fatalf("replica history through snapshot: %v, %v", cells, err)
	}
}

// TestReplicaReadOnly: a replica served as a deployment's shard refuses
// every mutation and passes reads through.
func TestReplicaReadOnly(t *testing.T) {
	p := startPrimary(t, t.TempDir(), durable.Options{CheckpointInterval: -1})
	defer p.stop()
	p.apply(t, 0)
	r := repl.New(func() (*wire.Client, error) { return wire.Connect(p.ln) }, repl.Options{ReconnectDelay: 5 * time.Millisecond})
	defer r.Close()
	waitHeight(t, r, 1)
	h := &wire.Router{Shards: []wire.Shard{r.Shard()}}

	resp := h.Handle(wire.Request{Op: wire.OpPut, Puts: []wire.Put{{Table: "t", Column: "c", PK: []byte("x"), Value: []byte("y")}}})
	if !strings.Contains(resp.Err, "read-only") {
		t.Fatalf("replica accepted a write: %+v", resp)
	}
	resp = h.Handle(wire.Request{Op: wire.OpRestore})
	if !strings.Contains(resp.Err, "read-only") {
		t.Fatalf("replica accepted a restore: %+v", resp)
	}
	// Reads pass through.
	resp = h.Handle(wire.Request{Op: wire.OpGet, Table: "t", Column: "c", PK: []byte("pk0000")})
	if resp.Err != "" || !resp.Found || string(resp.Value) != "v0000" {
		t.Fatalf("replica read: %+v", resp)
	}
	if r.Height() != 1 {
		t.Fatalf("replica height changed to %d", r.Height())
	}
}

// TestReplicaResumeAfterPrimaryRestart: the primary stops uncleanly and
// restarts; the follower reconnects and resumes from its own height over
// the log, without a snapshot transfer.
func TestReplicaResumeAfterPrimaryRestart(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir, durable.Options{CheckpointInterval: -1})
	for i := 0; i < 8; i++ {
		p.apply(t, i)
	}

	var mu sync.Mutex
	cur := p
	dial := func() (*wire.Client, error) {
		mu.Lock()
		ln := cur.ln
		mu.Unlock()
		return wire.Connect(ln)
	}
	r := repl.New(dial, repl.Options{ReconnectDelay: 5 * time.Millisecond})
	defer r.Close()
	waitHeight(t, r, 8)

	// Unclean stop: close the listener (which kills the stream) and the
	// WAL, but take no checkpoint.
	p.ln.Close()
	p.m.Close()

	p2 := startPrimary(t, dir, durable.Options{CheckpointInterval: -1})
	defer p2.stop()
	mu.Lock()
	cur = p2
	mu.Unlock()
	for i := 8; i < 16; i++ {
		p2.apply(t, i)
	}
	waitHeight(t, r, 16)
	if got, want := r.Digest(), p2.m.Engine().Digest(); got != want {
		t.Fatalf("replica digest %+v, want restarted primary's %+v", got, want)
	}
	if st := r.Status(); st.SnapshotLoads != 0 {
		t.Fatalf("resume took %d snapshot transfers, want 0 (status %+v)", st.SnapshotLoads, st)
	}
}

// TestReplicaDivergenceResync: repointing a follower at a primary with a
// different history triggers a from-scratch resync (snapshot adoption),
// not a poisoned replica — divergence is survivable, persistent
// unverifiable blocks are not.
func TestReplicaDivergenceResync(t *testing.T) {
	pA := startPrimary(t, t.TempDir(), durable.Options{CheckpointInterval: -1})
	for i := 0; i < 6; i++ {
		pA.apply(t, i)
	}
	var mu sync.Mutex
	cur := pA
	dial := func() (*wire.Client, error) {
		mu.Lock()
		ln := cur.ln
		mu.Unlock()
		return wire.Connect(ln)
	}
	r := repl.New(dial, repl.Options{ReconnectDelay: 5 * time.Millisecond})
	defer r.Close()
	waitHeight(t, r, 6)

	// Swap in a different primary with a shorter, different history: the
	// follower is now "ahead" of a chain that is not its own.
	pB := startPrimary(t, t.TempDir(), durable.Options{CheckpointInterval: -1})
	defer pB.stop()
	if _, err := pB.m.Engine().Apply("other", []core.Put{{
		Table: "t", Column: "c", PK: []byte("other"), Value: []byte("history")}}); err != nil {
		t.Fatal(err)
	}
	pA.stop()
	mu.Lock()
	cur = pB
	mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if r.Digest() == pB.m.Engine().Digest() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never adopted the new primary: %+v", r.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := r.Status()
	if st.Poisoned {
		t.Fatalf("honest divergence poisoned the replica: %+v", st)
	}
	if st.SnapshotLoads == 0 {
		t.Fatalf("divergence resolved without a state transfer: %+v", st)
	}
}

// TestReplicaLostTailResync: a weak-sync primary crashes, loses an
// unsynced tail, and rewrites those heights with different blocks. The
// follower — which had replicated the lost blocks — detects the
// divergence at verified replay, keeps serving its last verified state
// through the resync window, and converges to the rewritten history via
// one snapshot transfer, unpoisoned.
func TestReplicaLostTailResync(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir, durable.Options{Sync: wal.SyncNever, CheckpointInterval: -1})
	for i := 0; i < 10; i++ {
		p.apply(t, i)
	}
	var mu sync.Mutex
	cur := p
	dial := func() (*wire.Client, error) {
		mu.Lock()
		ln := cur.ln
		mu.Unlock()
		return wire.Connect(ln)
	}
	r := repl.New(dial, repl.Options{ReconnectDelay: 5 * time.Millisecond})
	defer r.Close()
	waitHeight(t, r, 10)

	// Crash the primary and drop its last two WAL records — the
	// unsynced tail a SyncNever crash loses.
	p.ln.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := countFrames(data)
	if err != nil || recs < 3 {
		t.Fatalf("segment holds %d records (%v)", recs, err)
	}
	trunc, err := bytesForFrames(data, recs-2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:trunc], 0o644); err != nil {
		t.Fatal(err)
	}

	p2 := startPrimary(t, dir, durable.Options{Sync: wal.SyncNever, CheckpointInterval: -1})
	defer p2.stop()
	if got := p2.m.Engine().Ledger().Height(); got != 8 {
		t.Fatalf("primary recovered to height %d, want 8", got)
	}
	// Rewrite the lost heights with different content, and go further.
	for i := 0; i < 6; i++ {
		if _, err := p2.m.Engine().Apply("rewritten", []core.Put{{
			Table: "t", Column: "c", PK: []byte(fmt.Sprintf("new%02d", i)),
			Value: []byte("rewritten")}}); err != nil {
			t.Fatal(err)
		}
	}
	// While the old primary is gone and the stream renegotiates, the
	// replica still serves its last verified state.
	if v, err := r.Engine().Get("t", "c", []byte("pk0009")); err != nil || string(v) != "v0009" {
		t.Fatalf("replica stopped serving during resync window: %q, %v", v, err)
	}
	mu.Lock()
	cur = p2
	mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if r.Digest() == p2.m.Engine().Digest() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged on the rewritten history: %+v", r.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := r.Status()
	if st.Poisoned {
		t.Fatalf("honest lost-tail divergence poisoned the replica: %+v", st)
	}
	if st.SnapshotLoads != 1 {
		t.Fatalf("resync took %d snapshot transfers, want 1 (%+v)", st.SnapshotLoads, st)
	}
	if v, err := r.Engine().Get("t", "c", []byte("new03")); err != nil || string(v) != "rewritten" {
		t.Fatalf("rewritten history not adopted: %q, %v", v, err)
	}
}

// countFrames returns how many complete WAL frames data holds.
func countFrames(data []byte) (int, error) {
	n := 0
	for off := 0; off < len(data); {
		if off+8 > len(data) {
			return 0, fmt.Errorf("torn header at %d", off)
		}
		l := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 8 + l
		if off > len(data) {
			return 0, fmt.Errorf("torn payload at %d", off)
		}
		n++
	}
	return n, nil
}

// bytesForFrames returns the byte length of the first n frames.
func bytesForFrames(data []byte, n int) (int, error) {
	off := 0
	for i := 0; i < n; i++ {
		if off+8 > len(data) {
			return 0, fmt.Errorf("torn header at %d", off)
		}
		l := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 8 + l
		if off > len(data) {
			return 0, fmt.Errorf("torn payload at %d", off)
		}
	}
	return off, nil
}

// TestReplicaSyncAlwaysShipsOnlyDurable: under SyncAlways a follower
// never holds a block the primary could lose — shipping waits for the
// fsync. (Indirect check: everything acked by Apply is shipped, and the
// follower converges to exactly the synced height.)
func TestReplicaSyncAlwaysShipsOnlyDurable(t *testing.T) {
	p := startPrimary(t, t.TempDir(), durable.Options{Sync: wal.SyncAlways, CheckpointInterval: -1})
	defer p.stop()
	r := repl.New(func() (*wire.Client, error) { return wire.Connect(p.ln) }, repl.Options{ReconnectDelay: 5 * time.Millisecond})
	defer r.Close()
	for i := 0; i < 10; i++ {
		p.apply(t, i)
	}
	waitHeight(t, r, 10)
	if ws := p.m.WALStats(); ws.DurableHeight < r.Height() {
		t.Fatalf("follower height %d ahead of durable height %d", r.Height(), ws.DurableHeight)
	}
}
