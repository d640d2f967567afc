package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"spitz/internal/cellstore"
)

// queue enqueues one single-cell commit of t/c/pk without leading it, as
// the gate does under e.mu, and returns its version and the wait that
// drives it to completion.
func queue(t *testing.T, e *Engine, pk, value string) (uint64, func() error) {
	t.Helper()
	e.mu.Lock()
	req, err := e.enqueueLocked("", []cellstore.Cell{{Table: "t", Column: "c", PK: []byte(pk), Value: []byte(value)}})
	e.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return req.version, func() error {
		_, err := e.waitCommit(req)
		return err
	}
}

// TestPipelineMergesQueuedCommits: requests enqueued before any leader
// runs must be folded into one ledger block with one transaction summary
// each. queue enqueues without leading, so this is fully deterministic.
func TestPipelineMergesQueuedCommits(t *testing.T) {
	e := New(Options{})
	sink := &failingSink{allow: 100}
	e.SetCommitSink(sink)

	const n = 5
	waits := make([]func() error, n)
	versions := make([]uint64, n)
	for i := 0; i < n; i++ {
		versions[i], waits[i] = queue(t, e, fmt.Sprintf("pk%d", i), fmt.Sprintf("v%d", i))
	}
	for i, wait := range waits {
		if err := wait(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}

	if h := e.Ledger().Height(); h != 1 {
		t.Fatalf("height = %d, want 1 (all txns in one block)", h)
	}
	body, err := e.Ledger().Body(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != n {
		t.Fatalf("block carries %d txn summaries, want %d", len(body), n)
	}
	for i := 1; i < n; i++ {
		if versions[i] <= versions[i-1] {
			t.Fatalf("versions not increasing: %v", versions)
		}
	}
	head, _ := e.Ledger().Head()
	if head.Version != versions[n-1] {
		t.Fatalf("block version %d, want last txn version %d", head.Version, versions[n-1])
	}
	// One CommitRecord covers the whole batch.
	if len(sink.seen) != 1 {
		t.Fatalf("sink saw %d records, want 1", len(sink.seen))
	}
	if len(sink.seen[0].Txns) != n {
		t.Fatalf("record carries %d txns, want %d", len(sink.seen[0].Txns), n)
	}
	for i := 0; i < n; i++ {
		v, err := e.Get("t", "c", []byte(fmt.Sprintf("pk%d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("pk%d = %q, %v", i, v, err)
		}
	}
	st := e.BatchStats()
	if st.Blocks != 1 || st.Txns != n || st.MaxTxns != n {
		t.Fatalf("batch stats = %+v", st)
	}
	if st.MeanTxns() != n {
		t.Fatalf("mean txns/block = %v, want %d", st.MeanTxns(), n)
	}
}

// TestPendingWritesVisibleToValidationReads: a commit the pipeline has
// accepted but not yet folded into a block must be observed by Read and
// by the gate — validation depends on it.
func TestPendingWritesVisibleToValidationReads(t *testing.T) {
	e := New(Options{})
	ref := string(mustRef(t, "t", "c", "k"))

	v, wait := queue(t, e, "k", "queued")
	// The write is queued, not committed: the ledger is still empty, but
	// a read must see it, and a commit that read the cell absent must not
	// pass the gate.
	if h := e.Ledger().Height(); h != 0 {
		t.Fatalf("block committed early (height %d)", h)
	}
	val, ver, found, err := e.Read("t", "c", []byte("k"))
	if err != nil || !found || string(val) != "queued" || ver != v {
		t.Fatalf("pending read = %q v%d found=%v err=%v, want queued v%d", val, ver, found, err, v)
	}
	if _, err := e.Commit("", map[string]uint64{ref: 0}, nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("a read of the cell as absent passed the gate over its queued write: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	// After the batch commits, the same read resolves through the ledger.
	val, ver, found, err = e.Read("t", "c", []byte("k"))
	if err != nil || !found || string(val) != "queued" || ver != v {
		t.Fatalf("post-commit read = %q v%d found=%v err=%v", val, ver, found, err)
	}
	if _, err := e.Commit("", map[string]uint64{ref: v}, nil); err != nil {
		t.Fatalf("a current read failed the gate: %v", err)
	}
}

// TestConcurrentTxnConflictStillDetected: two transactions that both
// read-modify-write the same key must not both commit, even when their
// commits race through the pipeline. Run many rounds to give the race
// detector and the validation path real interleavings.
func TestConcurrentTxnConflictStillDetected(t *testing.T) {
	e := New(Options{})
	if _, err := e.Apply("seed", []Put{{Table: "t", Column: "n", PK: []byte("k"), Value: []byte("0")}}); err != nil {
		t.Fatal(err)
	}
	const rounds, workers = 20, 4
	for r := 0; r < rounds; r++ {
		// Every worker stages its read-modify-write against the same
		// snapshot before any of them commits, so exactly one can win.
		var staged, done sync.WaitGroup
		committed := make([]bool, workers)
		staged.Add(workers)
		done.Add(workers)
		for w := 0; w < workers; w++ {
			w := w
			go func() {
				defer done.Done()
				_, ver, _, err := e.Read("t", "n", []byte("k"))
				staged.Done()
				if err != nil {
					t.Error(err)
					return
				}
				staged.Wait() // barrier: all reads precede all commits
				_, err = e.Commit("", map[string]uint64{string(mustRef(t, "t", "n", "k")): ver},
					[]Put{{Table: "t", Column: "n", PK: []byte("k"), Value: []byte(fmt.Sprintf("r%dw%d", r, w))}})
				switch {
				case err == nil:
					committed[w] = true
				case errors.Is(err, ErrConflict):
				default:
					t.Errorf("unexpected commit error: %v", err)
				}
			}()
		}
		done.Wait()
		won := 0
		for _, ok := range committed {
			if ok {
				won++
			}
		}
		if won != 1 {
			t.Fatalf("round %d: %d of %d conflicting txns committed, want exactly 1", r, won, workers)
		}
	}
}

// stuckClock is a timestamp source that repeats its version until the
// test moves it on.
type stuckClock struct{ v atomic.Uint64 }

func (c *stuckClock) Next() uint64 { return c.v.Load() }

// TestStuckClockCommitRejected: a timestamp source that repeats a version
// must not commit twice at it. The enqueue refuses the repeat, through
// Apply and through a transaction's commit alike, without cutting a block
// or poisoning the engine.
func TestStuckClockCommitRejected(t *testing.T) {
	clock := &stuckClock{}
	clock.v.Store(5)
	e := New(Options{Timestamps: clock})
	put := func(pk string) error {
		_, err := e.Apply("put", []Put{{Table: "t", Column: "c", PK: []byte(pk), Value: []byte(pk)}})
		return err
	}
	if err := put("k1"); err != nil {
		t.Fatal(err)
	}
	if err := put("k2"); err == nil {
		t.Fatal("Apply at a repeated version accepted")
	}
	reads := map[string]uint64{string(mustRef(t, "t", "c", "k1")): 5}
	if _, err := e.Commit("", reads, []Put{{Table: "t", Column: "c", PK: []byte("k2"), Value: []byte("k2")}}); err == nil {
		t.Fatal("transaction commit at a repeated version accepted")
	}
	if h := e.Ledger().Height(); h != 1 {
		t.Fatalf("height = %d after refused commits, want 1", h)
	}
	// The engine is still writable: the refused requests never entered a
	// batch.
	clock.v.Store(6)
	if err := put("k3"); err != nil {
		t.Fatalf("engine poisoned by a refused commit: %v", err)
	}
	if v, err := e.Get("t", "c", []byte("k3")); err != nil || string(v) != "k3" {
		t.Fatalf("k3 = %q, %v", v, err)
	}
	if _, err := e.Get("t", "c", []byte("k2")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused write of k2 visible: %v", err)
	}
}

// enqueueAsync queues n single-cell commits without leading any of them
// and returns their waits, in enqueue order.
func enqueueAsync(t *testing.T, e *Engine, n int) []func() error {
	t.Helper()
	waits := make([]func() error, n)
	for i := range waits {
		_, waits[i] = queue(t, e, fmt.Sprintf("pk%d", i), "v")
	}
	return waits
}

// TestBatchSizeCap: more queued commits than MaxBatchTxns split into
// several blocks, in order — with no sink, and with a sink that holds
// every durability wait: two blocks reach it with nothing durable (only a
// leader that hands over before it waits gets that far), the third once
// the first is.
func TestBatchSizeCap(t *testing.T) {
	for _, gated := range []bool{false, true} {
		t.Run(fmt.Sprintf("gated=%v", gated), func(t *testing.T) {
			e := New(Options{MaxBatchTxns: 3})
			var sink *gatedSink
			if gated {
				sink = newGatedSink()
				e.SetCommitSink(sink)
			}
			const n = 8
			errs := goAll(enqueueAsync(t, e, n))
			if gated {
				sink.expectPipelined(t, errs, 3) // 3 + 3 + 2
			}
			for i := 0; i < n; i++ {
				if err := recvErr(t, errs); err != nil {
					t.Fatal(err)
				}
			}
			if h := e.Ledger().Height(); h != 3 {
				t.Fatalf("height = %d, want 3 blocks for 8 txns with cap 3", h)
			}
			st := e.BatchStats()
			if st.Blocks != 3 || st.Txns != n || st.MaxTxns != 3 {
				t.Fatalf("batch stats = %+v", st)
			}
		})
	}
}

func mustRef(t *testing.T, table, column, pk string) []byte {
	t.Helper()
	return cellstore.CellPrefix(table, column, []byte(pk))
}

// TestPendingKeepsAllQueuedVersions: a cell queued twice keeps its newer
// version visible while the older one's block commits — the index holds
// the newest queued version, and only that version's own batch clears it
// (a clear by the older batch would let the gate and Read fall through to
// a head that does not have the newer write yet).
func TestPendingKeepsAllQueuedVersions(t *testing.T) {
	e := New(Options{MaxBatchTxns: 1})
	v1, wait1 := queue(t, e, "k", "first")
	v2, wait2 := queue(t, e, "k", "second")
	if val, ver, _, err := e.Read("t", "c", []byte("k")); err != nil || string(val) != "second" || ver != v2 {
		t.Fatalf("read with both queued = %q v%d, %v; want second v%d", val, ver, err, v2)
	}
	if err := wait1(); err != nil { // commits v1's block alone, hands over to v2
		t.Fatal(err)
	}
	if h := e.Ledger().Height(); h != 1 {
		t.Fatalf("height = %d after the first block, want 1", h)
	}
	if val, ver, _, err := e.Read("t", "c", []byte("k")); err != nil || string(val) != "second" || ver != v2 {
		t.Fatalf("read after v%d's block = %q v%d, %v; want second v%d", v1, val, ver, err, v2)
	}
	if err := wait2(); err != nil {
		t.Fatal(err)
	}
	// Committed: the history holds both versions.
	hist, err := e.History("t", "c", []byte("k"))
	if err != nil || len(hist) != 2 {
		t.Fatalf("history = %d versions, %v", len(hist), err)
	}
}

// TestLeadershipHandoff: with a batch cap of 1 and several queued
// commits, the first leader commits only its own block and must hand
// leadership to the next queued request's waiter rather than draining
// the whole queue (leader starvation) or stalling it (lost leadership).
// Behind a sink that holds every wait, leadership must keep travelling
// down the queue with committers parked on blocks that are not durable
// yet: each request leads exactly once, so the sink sees heights 0..n-1,
// each once and in order.
func TestLeadershipHandoff(t *testing.T) {
	for _, gated := range []bool{false, true} {
		t.Run(fmt.Sprintf("gated=%v", gated), func(t *testing.T) {
			e := New(Options{MaxBatchTxns: 1})
			var sink *gatedSink
			if gated {
				sink = newGatedSink()
				e.SetCommitSink(sink)
			}
			const n = 4
			errs := goAll(enqueueAsync(t, e, n))
			if gated {
				sink.expectPipelined(t, errs, n)
			}
			for i := 0; i < n; i++ {
				if err := recvErr(t, errs); err != nil {
					t.Fatal(err)
				}
			}
			if h := e.Ledger().Height(); h != n {
				t.Fatalf("height = %d, want %d single-txn blocks", h, n)
			}
			if gated {
				sink.expectNoAppend(t)
			}
		})
	}
}

// TestPipelineOverlapsApplyWithDurabilityWait: block N+1 is folded,
// applied and appended to the sink while block N's durability wait is
// still pending, and neither committer returns before its own wait is
// released. No clock decides anything: the sink's waits block on channels
// the test owns.
func TestPipelineOverlapsApplyWithDurabilityWait(t *testing.T) {
	e := New(Options{})
	sink := newGatedSink()
	e.SetCommitSink(sink)
	a := goApply(e, 0)
	sink.expectAppend(t, 0)
	b := goApply(e, 1) // a's committer is inside its wait; b must lead block 1 itself
	sink.expectAppend(t, 1)
	expectPending(t, a)
	expectPending(t, b)
	// Visible before durable, as ever: the blocks are in the ledger.
	if h := e.Ledger().Height(); h != 2 {
		t.Fatalf("height = %d with both waits pending, want 2", h)
	}
	sink.release(0, nil)
	if err := recvErr(t, a); err != nil {
		t.Fatal(err)
	}
	expectPending(t, b) // block 0 being durable acknowledges nobody in block 1
	sink.release(1, nil)
	if err := recvErr(t, b); err != nil {
		t.Fatal(err)
	}
	sink.expectNoAppend(t)
}
