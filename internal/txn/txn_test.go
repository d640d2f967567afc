package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"spitz/internal/txn/hlc"
	"spitz/internal/txn/tso"
)

func newMgr(mode Mode) (*Manager, *MemStore) {
	ts := tso.New(0)
	store := NewMemStore(ts)
	return NewManager(store, ts, mode), store
}

func TestReadYourWrites(t *testing.T) {
	m, _ := newMgr(ModeOCC)
	tx := m.Begin()
	if err := tx.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tx.Get([]byte("k"))
	if err != nil || !ok || string(got) != "v" {
		t.Fatal("own write not visible")
	}
	if err := tx.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tx.Get([]byte("k")); ok {
		t.Fatal("own delete not visible")
	}
}

func TestCommitThenRead(t *testing.T) {
	m, _ := newMgr(ModeOCC)
	tx := m.Begin()
	tx.Put([]byte("a"), []byte("1"))
	v, err := tx.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if v == 0 {
		t.Fatal("commit version zero")
	}
	tx2 := m.Begin()
	got, ok, err := tx2.Get([]byte("a"))
	if err != nil || !ok || string(got) != "1" {
		t.Fatal("committed write not visible to later txn")
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m, _ := newMgr(ModeOCC)
	t1 := m.Begin()
	t1.Put([]byte("k"), []byte("v1"))
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	reader := m.Begin() // snapshot after v1
	writer := m.Begin()
	writer.Put([]byte("k"), []byte("v2"))
	if _, err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := reader.Get([]byte("k"))
	if !ok || string(got) != "v1" {
		t.Fatalf("snapshot read saw %q, want v1", got)
	}
}

func TestOCCReadValidationAborts(t *testing.T) {
	m, _ := newMgr(ModeOCC)
	seed := m.Begin()
	seed.Put([]byte("k"), []byte("v0"))
	seed.Commit()

	t1 := m.Begin()
	t1.Get([]byte("k")) // reads v0

	t2 := m.Begin()
	t2.Put([]byte("k"), []byte("v2"))
	if _, err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	t1.Put([]byte("other"), []byte("x"))
	if _, err := t1.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale read committed: %v", err)
	}
	st := m.Stats()
	if st.Aborts != 1 || st.Commits != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOCCBlindWritesDoNotConflict(t *testing.T) {
	m, _ := newMgr(ModeOCC)
	t1 := m.Begin()
	t2 := m.Begin()
	t1.Put([]byte("k"), []byte("a"))
	t2.Put([]byte("k"), []byte("b"))
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// OCC without read validation on k: blind write succeeds (last write
	// wins at a later version; still serializable as t1 then t2).
	if _, err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestOCCAbsentReadValidated(t *testing.T) {
	// A transaction that observed "absent" must abort if someone creates
	// the key before it commits (phantom prevention on point reads).
	m, _ := newMgr(ModeOCC)
	t1 := m.Begin()
	if _, ok, _ := t1.Get([]byte("new")); ok {
		t.Fatal("unexpected presence")
	}
	t2 := m.Begin()
	t2.Put([]byte("new"), []byte("x"))
	t2.Commit()
	t1.Put([]byte("out"), []byte("y"))
	if _, err := t1.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatal("absent-read invalidation missed")
	}
}

func TestTOWriteAfterLaterReadAborts(t *testing.T) {
	m, _ := newMgr(ModeTO)
	writer := m.Begin() // earlier snapshot
	reader := m.Begin() // later snapshot
	if _, _, err := reader.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	writer.Put([]byte("k"), []byte("v"))
	if _, err := writer.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("T/O write under later read committed: %v", err)
	}
	// The reader itself commits fine.
	if _, err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTOWriteWriteConflict(t *testing.T) {
	m, _ := newMgr(ModeTO)
	t1 := m.Begin()
	t2 := m.Begin()
	t2.Put([]byte("k"), []byte("b"))
	if _, err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	t1.Put([]byte("k"), []byte("a"))
	if _, err := t1.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatal("T/O ww conflict not detected")
	}
}

func TestUseAfterFinish(t *testing.T) {
	m, _ := newMgr(ModeOCC)
	tx := m.Begin()
	tx.Commit()
	if _, err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Fatal("double commit allowed")
	}
	if _, _, err := tx.Get([]byte("k")); !errors.Is(err, ErrDone) {
		t.Fatal("get after commit allowed")
	}
	if err := tx.Put([]byte("k"), nil); !errors.Is(err, ErrDone) {
		t.Fatal("put after commit allowed")
	}
	tx.Abort() // harmless
}

func TestAbortDiscards(t *testing.T) {
	m, _ := newMgr(ModeOCC)
	tx := m.Begin()
	tx.Put([]byte("k"), []byte("v"))
	tx.Abort()
	t2 := m.Begin()
	if _, ok, _ := t2.Get([]byte("k")); ok {
		t.Fatal("aborted write visible")
	}
	if st := m.Stats(); st.Aborts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVersionsAccumulate(t *testing.T) {
	m, store := newMgr(ModeOCC)
	for i := 0; i < 5; i++ {
		tx := m.Begin()
		tx.Put([]byte("k"), []byte(fmt.Sprintf("v%d", i)))
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := store.VersionCount([]byte("k")); n != 5 {
		t.Fatalf("stored %d versions, want 5 (immutability)", n)
	}
}

func TestCommitBatchReorderingAvoidsAborts(t *testing.T) {
	// reader reads k (pre-batch version); writer writes k. Committed in
	// arrival order writer-then-reader, the reader would abort under OCC.
	// Batch validation reorders reader before writer, so both commit.
	m, _ := newMgr(ModeOCC)
	seed := m.Begin()
	seed.Put([]byte("k"), []byte("v0"))
	seed.Commit()

	writer := m.Begin()
	writer.Put([]byte("k"), []byte("v1"))
	reader := m.Begin()
	reader.Get([]byte("k"))
	reader.Put([]byte("r"), []byte("out"))

	results := m.CommitBatch([]*Txn{writer, reader})
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("batch results: %+v", results)
	}
	// The reader must be serialized before the writer.
	if results[1].Version >= results[0].Version {
		t.Fatalf("reader (v%d) not ordered before writer (v%d)", results[1].Version, results[0].Version)
	}
}

func TestCommitBatchCycleAborts(t *testing.T) {
	// t1 reads a and writes b; t2 reads b and writes a: a dependency cycle
	// with no valid serial order inside the batch.
	m, _ := newMgr(ModeOCC)
	seed := m.Begin()
	seed.Put([]byte("a"), []byte("0"))
	seed.Put([]byte("b"), []byte("0"))
	seed.Commit()

	t1 := m.Begin()
	t1.Get([]byte("a"))
	t1.Put([]byte("b"), []byte("1"))
	t2 := m.Begin()
	t2.Get([]byte("b"))
	t2.Put([]byte("a"), []byte("2"))

	results := m.CommitBatch([]*Txn{t1, t2})
	aborted := 0
	for _, r := range results {
		if r.Err != nil {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("cycle committed both members")
	}
}

func TestCommitBatchValidatesAgainstCommittedState(t *testing.T) {
	m, _ := newMgr(ModeOCC)
	seed := m.Begin()
	seed.Put([]byte("k"), []byte("v0"))
	seed.Commit()

	stale := m.Begin()
	stale.Get([]byte("k"))

	conflicting := m.Begin()
	conflicting.Put([]byte("k"), []byte("v1"))
	conflicting.Commit()

	fresh := m.Begin()
	fresh.Put([]byte("x"), []byte("y"))

	results := m.CommitBatch([]*Txn{stale, fresh})
	if !errors.Is(results[0].Err, ErrConflict) {
		t.Fatal("stale member not aborted")
	}
	if results[1].Err != nil {
		t.Fatalf("fresh member aborted: %v", results[1].Err)
	}
}

func TestHLCSource(t *testing.T) {
	ts := ClockSource{Clock: hlc.New()}
	m := NewManager(NewMemStore(ts), ts, ModeOCC)
	t1 := m.Begin()
	t1.Put([]byte("k"), []byte("v"))
	v1, err := t1.Commit()
	if err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	t2.Put([]byte("k"), []byte("w"))
	v2, err := t2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatal("HLC versions not increasing")
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	m, _ := newMgr(ModeOCC)
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tx := m.Begin()
				key := []byte(fmt.Sprintf("k%d", i%10))
				tx.Get(key)
				tx.Put(key, []byte(fmt.Sprintf("g%d-%d", g, i)))
				if _, err := tx.Commit(); err == nil {
					mu.Lock()
					committed++
					mu.Unlock()
				} else if !errors.Is(err, ErrConflict) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if int(st.Commits) != committed {
		t.Fatalf("stats commits %d != observed %d", st.Commits, committed)
	}
	if st.Commits+st.Aborts != 800 {
		t.Fatalf("commits+aborts = %d, want 800", st.Commits+st.Aborts)
	}
	if st.Commits == 0 {
		t.Fatal("everything aborted")
	}
}
