// Package txn is the concurrency-control ablation's scheduler
// (internal/bench.AblationCC): the schemes Section 5.2 weighs for
// multi-versioned cells — MVCC with timestamp ordering (T/O) and MVCC with
// OCC (backward validation) — plus the batched validation of Section
// 5.2's "verifying the transactions in batch to reduce the verification
// cost" (Ding et al., reference [20]) with transaction reordering to
// reduce abort rates.
//
// No engine runs it: an engine admits every commit at its own gate
// (internal/core), OCC validation under the lock that draws the commit's
// version. The manager is storage agnostic — it validates and orders
// transactions, then commits their write sets through a Store, which
// allocates each commit's version — and the ablation and the unit tests
// run it over MemStore, an in-memory versioned map, where ledger I/O
// cannot mask the scheduler's behaviour.
package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Write is one staged mutation.
type Write struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// Store is the versioned storage a Manager commits into.
type Store interface {
	// ReadLatest returns the value visible at snapshot asOf together with
	// the commit version that wrote it. found is false when no version
	// exists at or before asOf.
	ReadLatest(key []byte, asOf uint64) (value []byte, version uint64, found bool, err error)
	// Commit applies a non-empty write set at a commit version the store
	// allocates, above every version it allocated before, and records
	// statement, the audited statement text (Spitz blocks carry "the query
	// statements" — Section 5), beside it. The writes are visible to
	// ReadLatest when Commit returns, so later validations cannot miss
	// them; wait blocks until they are durable. Callers commit under their
	// own lock and call wait, exactly once, after releasing it, so
	// concurrent transactions can share one storage commit. A wait error
	// means the commit did not become durable.
	Commit(statement string, writes []Write) (version uint64, wait func() error, err error)
}

// TimestampSource allocates strictly increasing timestamps. tso.Oracle
// satisfies it directly; hlc clocks adapt trivially.
type TimestampSource interface {
	Next() uint64
}

// Mode selects the concurrency control scheme.
type Mode int

// Concurrency control modes.
const (
	// ModeOCC validates a transaction's read set at commit: if any key it
	// read has since been overwritten, it aborts (backward validation).
	ModeOCC Mode = iota
	// ModeTO orders transactions by start timestamp: a writer aborts if a
	// transaction with a later snapshot already read one of its write
	// keys, or if a conflicting write committed after its snapshot.
	ModeTO
)

// ErrConflict is returned by Commit when validation fails; the caller may
// retry with a fresh transaction.
var ErrConflict = errors.New("txn: conflict, transaction aborted")

// ErrDone is returned when using a transaction after Commit or Abort.
var ErrDone = errors.New("txn: transaction already finished")

// Stats counts outcomes for the ablation benchmarks.
type Stats struct {
	Commits int64
	Aborts  int64
}

// Manager coordinates transactions over a Store. Safe for concurrent use.
type Manager struct {
	mu    sync.Mutex
	store Store
	ts    TimestampSource
	mode  Mode

	maxRead map[string]uint64 // key -> largest snapshot that read it (TO)
	stats   Stats
}

// NewManager returns a manager in the given mode.
func NewManager(store Store, ts TimestampSource, mode Mode) *Manager {
	return &Manager{
		store:   store,
		ts:      ts,
		mode:    mode,
		maxRead: make(map[string]uint64),
	}
}

// Stats returns a snapshot of commit/abort counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Txn is a transaction: reads see the snapshot at its start timestamp plus
// its own writes; writes are buffered until Commit.
type Txn struct {
	mgr      *Manager
	start    uint64
	reads    map[string]uint64 // key -> version observed (0 = absent)
	writes   []Write
	writeIdx map[string]int
	done     bool
}

// Begin starts a transaction at a fresh snapshot.
func (m *Manager) Begin() *Txn {
	return &Txn{
		mgr:      m,
		start:    m.ts.Next(),
		reads:    make(map[string]uint64),
		writeIdx: make(map[string]int),
	}
}

// Start returns the transaction's snapshot timestamp.
func (t *Txn) Start() uint64 { return t.start }

// Get reads a key: own staged writes first, then the snapshot.
func (t *Txn) Get(key []byte) ([]byte, bool, error) {
	if t.done {
		return nil, false, ErrDone
	}
	if i, ok := t.writeIdx[string(key)]; ok {
		w := t.writes[i]
		if w.Delete {
			return nil, false, nil
		}
		return w.Value, true, nil
	}
	val, ver, found, err := t.mgr.store.ReadLatest(key, t.start)
	if err != nil {
		return nil, false, err
	}
	t.reads[string(key)] = ver // ver is 0 when !found: "observed absent"
	if t.mgr.mode == ModeTO {
		t.mgr.mu.Lock()
		if t.start > t.mgr.maxRead[string(key)] {
			t.mgr.maxRead[string(key)] = t.start
		}
		t.mgr.mu.Unlock()
	}
	if !found {
		return nil, false, nil
	}
	return val, true, nil
}

// Put stages a write.
func (t *Txn) Put(key, value []byte) error {
	return t.stage(Write{Key: append([]byte(nil), key...), Value: value})
}

// Delete stages a deletion (a tombstone in the immutable store).
func (t *Txn) Delete(key []byte) error {
	return t.stage(Write{Key: append([]byte(nil), key...), Delete: true})
}

func (t *Txn) stage(w Write) error {
	if t.done {
		return ErrDone
	}
	if i, ok := t.writeIdx[string(w.Key)]; ok {
		t.writes[i] = w
		return nil
	}
	t.writeIdx[string(w.Key)] = len(t.writes)
	t.writes = append(t.writes, w)
	return nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.mgr.mu.Lock()
	t.mgr.stats.Aborts++
	t.mgr.mu.Unlock()
}

// Commit validates and applies the transaction, returning its commit
// version. On ErrConflict the transaction is aborted and may be retried.
// Validation and the store's Commit, which orders the transaction, happen
// under the manager lock; waiting for the commit to be durable happens
// outside it, so concurrent commits can share the store's group-commit
// machinery.
func (t *Txn) Commit() (uint64, error) {
	if t.done {
		return 0, ErrDone
	}
	t.done = true
	m := t.mgr
	m.mu.Lock()
	if err := m.validateLocked(t); err != nil {
		m.stats.Aborts++
		m.mu.Unlock()
		return 0, err
	}
	v, wait, err := m.applyLocked(t)
	m.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if wait != nil {
		if err := wait(); err != nil {
			return 0, err
		}
	}
	return v, nil
}

// validateLocked runs the mode's conflict check. Versions are validated
// against the store itself rather than a private map, so writes that reach
// the store outside this manager (e.g. bulk ingest) are still detected.
func (m *Manager) validateLocked(t *Txn) error {
	switch m.mode {
	case ModeOCC:
		for key, seen := range t.reads {
			_, cur, _, err := m.store.ReadLatest([]byte(key), ^uint64(0))
			if err != nil {
				return err
			}
			if cur != seen {
				return fmt.Errorf("%w: read of %q invalidated (saw v%d, now v%d)",
					ErrConflict, key, seen, cur)
			}
		}
	case ModeTO:
		for i := range t.writes {
			key := string(t.writes[i].Key)
			if m.maxRead[key] > t.start {
				return fmt.Errorf("%w: key %q read at a later snapshot", ErrConflict, key)
			}
			_, cur, _, err := m.store.ReadLatest(t.writes[i].Key, ^uint64(0))
			if err != nil {
				return err
			}
			if cur > t.start {
				return fmt.Errorf("%w: key %q written after snapshot", ErrConflict, key)
			}
		}
	}
	return nil
}

// applyLocked commits the write set and returns the store's commit
// version, or, for a read-only transaction, a fresh timestamp. The
// returned wait (to be invoked outside the manager lock) blocks until the
// commit is durable; a wait failure means the commit was not acknowledged
// even though it is counted here — by then the store has fail-stopped and
// no later commit can succeed either.
func (m *Manager) applyLocked(t *Txn) (uint64, func() error, error) {
	if len(t.writes) == 0 {
		m.stats.Commits++
		return m.ts.Next(), nil, nil
	}
	commit, wait, err := m.store.Commit("", t.writes)
	if err != nil {
		m.stats.Aborts++
		return 0, nil, err
	}
	m.stats.Commits++
	return commit, wait, nil
}

// CommitBatch validates a group of transactions together, reordering them
// to reduce aborts (Section 5.2 / reference [20]): a transaction that read
// key k is ordered before a batch member that writes k, so its read stays
// valid. Transactions caught in dependency cycles abort. The result slice
// gives each transaction's commit version or error, positionally.
func (m *Manager) CommitBatch(txns []*Txn) []BatchResult {
	results := make([]BatchResult, len(txns))
	m.mu.Lock()

	// Phase 1: validate against already-committed state.
	ok := make([]bool, len(txns))
	for i, t := range txns {
		if t.done {
			results[i].Err = ErrDone
			continue
		}
		t.done = true
		if err := m.validateLocked(t); err != nil {
			results[i].Err = err
			m.stats.Aborts++
			continue
		}
		ok[i] = true
	}

	// Phase 2: build the intra-batch dependency graph. Edge i -> j means i
	// must commit before j (j writes a key i read).
	writers := make(map[string][]int)
	for j, t := range txns {
		if !ok[j] {
			continue
		}
		for i := range t.writes {
			writers[string(t.writes[i].Key)] = append(writers[string(t.writes[i].Key)], j)
		}
	}
	succ := make([][]int, len(txns))
	indeg := make([]int, len(txns))
	for i, t := range txns {
		if !ok[i] {
			continue
		}
		for key := range t.reads {
			for _, j := range writers[key] {
				if j != i {
					succ[i] = append(succ[i], j)
					indeg[j]++
				}
			}
		}
	}

	// Phase 3: topological order. When a cycle blocks progress, abort one
	// victim (the member blocking the most others) and continue — minimal
	// victims, like the reordering schemes of reference [20], rather than
	// aborting every cycle member.
	remaining := 0
	done := make([]bool, len(txns))
	for i := range txns {
		if ok[i] {
			remaining++
		} else {
			done[i] = true
		}
	}
	order := make([]int, 0, remaining)
	queue := make([]int, 0, remaining)
	for i := range txns {
		if ok[i] && indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	sort.Ints(queue) // determinism
	release := func(i int) {
		for _, j := range succ[i] {
			if done[j] {
				continue
			}
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	for remaining > 0 {
		if len(queue) == 0 {
			// Cycle: pick the blocked member with the highest in-degree as
			// the victim.
			victim, best := -1, -1
			for i := range txns {
				if ok[i] && !done[i] && indeg[i] > best {
					victim, best = i, indeg[i]
				}
			}
			results[victim].Err = fmt.Errorf("%w: dependency cycle in batch", ErrConflict)
			m.stats.Aborts++
			ok[victim] = false
			done[victim] = true
			remaining--
			release(victim)
			continue
		}
		i := queue[0]
		queue = queue[1:]
		if done[i] {
			continue
		}
		done[i] = true
		remaining--
		order = append(order, i)
		release(i)
	}

	// Phase 4: apply in dependency order. Within the batch, writes by an
	// earlier member must not invalidate a later member's reads — the
	// ordering guarantees reads happen "before" conflicting writes in the
	// equivalent serial schedule, so no further validation is needed.
	// The store only orders each commit here (in dependency order); the
	// durability waits run after the manager lock is released so the
	// whole batch can share one storage commit.
	waits := make([]func() error, len(txns))
	for _, i := range order {
		v, wait, err := m.applyLocked(txns[i])
		if err != nil {
			results[i].Err = err
			continue
		}
		results[i].Version = v
		waits[i] = wait
	}
	m.mu.Unlock()
	// Invoke the waits in enqueue (dependency) order, not index order:
	// the store's group-commit leadership belongs to the first enqueued
	// transaction, and a later-enqueued wait invoked first would block on
	// a commit only the leader's wait can drive.
	for _, i := range order {
		if waits[i] == nil {
			continue
		}
		if err := waits[i](); err != nil {
			results[i] = BatchResult{Err: err}
		}
	}
	return results
}

// BatchResult is the outcome of one transaction in CommitBatch.
type BatchResult struct {
	Version uint64
	Err     error
}
