package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"spitz/internal/cellstore"
)

// failingSink fails every append after allowing the first n.
type failingSink struct {
	allow int
	seen  []CommitRecord
}

var errSinkBoom = errors.New("disk on fire")

func (s *failingSink) Append(rec CommitRecord) (func() error, error) {
	if len(s.seen) >= s.allow {
		return nil, errSinkBoom
	}
	s.seen = append(s.seen, rec)
	return func() error { return nil }, nil
}

// gatedSink accepts every append and holds each block's durability wait
// until the test releases that height, with the outcome the test chooses.
type gatedSink struct {
	appended chan uint64 // heights, in Append order
	mu       sync.Mutex
	gates    map[uint64]chan error
}

func newGatedSink() *gatedSink {
	// Buffered beyond any test's block count, so Append — called under
	// the engine lock — never blocks on the test reading it.
	return &gatedSink{appended: make(chan uint64, 64), gates: make(map[uint64]chan error)}
}

func (s *gatedSink) gate(height uint64) chan error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gates[height]
	if !ok {
		g = make(chan error, 1) // the engine resolves a block's wait once
		s.gates[height] = g
	}
	return g
}

func (s *gatedSink) Append(rec CommitRecord) (func() error, error) {
	g := s.gate(rec.Height)
	s.appended <- rec.Height
	return func() error { return <-g }, nil
}

func (s *gatedSink) release(height uint64, err error) { s.gate(height) <- err }

// testStall bounds how long a test waits for something that must happen;
// it only ever turns a hang into a failure.
const testStall = 10 * time.Second

func (s *gatedSink) expectAppend(t *testing.T, height uint64) {
	t.Helper()
	select {
	case got := <-s.appended:
		if got != height {
			t.Fatalf("sink was appended block %d, want %d", got, height)
		}
	case <-time.After(testStall):
		t.Fatalf("block %d never reached the sink: the apply stage is stuck behind a durability wait", height)
	}
}

func (s *gatedSink) expectNoAppend(t *testing.T) {
	t.Helper()
	select {
	case got := <-s.appended:
		t.Fatalf("sink was appended an unexpected block %d", got)
	default:
	}
}

// expectPipelined walks blocks 0..n-1 through the sink the way the
// two-stage pipeline must deliver them: block h+1 arrives while block h's
// wait is still held, block h+2 only once block h has been released, and
// nobody returns before its own block is.
func (s *gatedSink) expectPipelined(t *testing.T, errs chan error, n uint64) {
	t.Helper()
	s.expectAppend(t, 0)
	for h := uint64(0); h < n; h++ {
		if h+1 < n {
			s.expectAppend(t, h+1)
		}
		// The leader of block h+2 is parked on block h's wait (or has not
		// got that far): it cannot have appended, whichever it is.
		s.expectNoAppend(t)
		if h == 0 {
			expectPending(t, errs)
		}
		s.release(h, nil)
	}
}

// goApply commits one cell on its own goroutine, as a client would.
func goApply(e *Engine, pk byte) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := e.Apply("s", []Put{{Table: "t", Column: "c", PK: []byte{pk}, Value: []byte{1}}})
		done <- err
	}()
	return done
}

// goAll runs every wait on its own goroutine, as concurrent committers do.
func goAll(waits []func() error) chan error {
	errs := make(chan error, len(waits))
	for _, wait := range waits {
		wait := wait
		go func() { errs <- wait() }()
	}
	return errs
}

func recvErr(t *testing.T, errs chan error) error {
	t.Helper()
	select {
	case err := <-errs:
		return err
	case <-time.After(testStall):
		t.Fatal("commit stalled")
		return nil
	}
}

// expectPending asserts that no committer has returned. Their waits are
// blocked on gates the test has not released, so this cannot race.
func expectPending(t *testing.T, errs chan error) {
	t.Helper()
	select {
	case err := <-errs:
		t.Fatalf("a committer returned (%v) before its durability wait was released", err)
	default:
	}
}

func TestCommitSinkReceivesBlocksInOrder(t *testing.T) {
	e := New(Options{})
	sink := &failingSink{allow: 100}
	e.SetCommitSink(sink)
	for i := 0; i < 3; i++ {
		if _, err := e.Apply("s", []Put{{Table: "t", Column: "c", PK: []byte{byte(i)}, Value: []byte{1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.seen) != 3 {
		t.Fatalf("sink saw %d blocks, want 3", len(sink.seen))
	}
	for i, rec := range sink.seen {
		if rec.Height != uint64(i) {
			t.Fatalf("sink record %d has height %d", i, rec.Height)
		}
		h, err := e.Ledger().Header(rec.Height)
		if err != nil {
			t.Fatal(err)
		}
		if h.Hash() != rec.BlockHash {
			t.Fatalf("sink record %d hash mismatch", i)
		}
	}
}

// TestSinkFailurePoisonsEngine: once an append fails, the failed block is
// in memory but not in the log; any further commit would leave a gap the
// recovery cannot bridge, so the engine must refuse writes.
func TestSinkFailurePoisonsEngine(t *testing.T) {
	e := New(Options{})
	e.SetCommitSink(&failingSink{allow: 1})
	if _, err := e.Apply("ok", []Put{{Table: "t", Column: "c", PK: []byte{0}, Value: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	_, err := e.Apply("boom", []Put{{Table: "t", Column: "c", PK: []byte{1}, Value: []byte{1}}})
	if err == nil || !errors.Is(err, errSinkBoom) {
		t.Fatalf("append failure not surfaced: %v", err)
	}
	// Every subsequent commit is refused, including the transactional path.
	_, err = e.Apply("after", []Put{{Table: "t", Column: "c", PK: []byte{2}, Value: []byte{1}}})
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("engine accepted a commit after durability failure: %v", err)
	}
	_, ver, _, err := e.Read("t", "c", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	reads := map[string]uint64{string(cellstore.CellPrefix("t", "c", []byte{0})): ver}
	if _, err := e.Commit("TXN", reads, []Put{{Table: "t", Column: "c", PK: []byte{3}, Value: []byte{1}}}); err == nil {
		t.Fatal("transaction committed after durability failure")
	}
	// Reads still work.
	if _, err := e.Get("t", "c", []byte{0}); err != nil {
		t.Fatalf("read refused on poisoned engine: %v", err)
	}
}

// TestFailedDurabilityWaitPoisonsEngine: fail-stop must not depend on the
// sink refusing the next append (a WAL does, through its sticky error;
// this sink accepts everything). Block 0's wait fails after block 1 was
// appended behind it: neither block is acknowledged — recovery would stop
// at the gap — and the engine is read-only from that moment, so block 2
// never reaches the sink.
func TestFailedDurabilityWaitPoisonsEngine(t *testing.T) {
	e := New(Options{})
	sink := newGatedSink()
	e.SetCommitSink(sink)
	a := goApply(e, 0)
	sink.expectAppend(t, 0)
	b := goApply(e, 1)
	sink.expectAppend(t, 1)

	sink.release(0, errSinkBoom)
	if err := recvErr(t, a); !errors.Is(err, errSinkBoom) {
		t.Fatalf("block 0's committer got %v, want the wait's error", err)
	}
	sink.release(1, nil)
	if err := recvErr(t, b); !errors.Is(err, errSinkBoom) {
		t.Fatalf("block 1 was acknowledged (%v) above a block that is not durable", err)
	}
	err := recvErr(t, goApply(e, 2))
	if err == nil || !strings.Contains(err.Error(), "read-only") || !errors.Is(err, errSinkBoom) {
		t.Fatalf("engine accepted a commit after a failed durability wait: %v", err)
	}
	sink.expectNoAppend(t)
	if _, err := e.Get("t", "c", []byte{0}); err != nil {
		t.Fatalf("read refused on poisoned engine: %v", err)
	}
}

// TestReplayBlockRejectsWrongHash: replay must verify, not trust.
func TestReplayBlockRejectsWrongHash(t *testing.T) {
	src := New(Options{})
	sink := &failingSink{allow: 10}
	src.SetCommitSink(sink)
	if _, err := src.Apply("s", []Put{{Table: "t", Column: "c", PK: []byte{0}, Value: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	rec := sink.seen[0]
	rec.Txns = append([]TxnCommit(nil), rec.Txns...)
	tampered := make([]cellstore.Cell, len(rec.Txns[0].Cells))
	copy(tampered, rec.Txns[0].Cells)
	tampered[0].Value = []byte{0xee}
	rec.Txns[0].Cells = tampered
	dst := New(Options{})
	if _, err := dst.ReplayBlock(rec); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("tampered replay accepted: %v", err)
	}
	// The untampered record replays and reproduces the digest.
	dst2 := New(Options{})
	if _, err := dst2.ReplayBlock(sink.seen[0]); err != nil {
		t.Fatal(err)
	}
	if dst2.Digest() != src.Digest() {
		t.Fatal("replayed digest differs")
	}
}
