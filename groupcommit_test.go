package spitz_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"spitz"
	"spitz/internal/obs"
)

// ackedWrite is one acknowledged commit: the key/value the writer was
// told is durable and the block height that carried it.
type ackedWrite struct {
	key, value string
	height     uint64
}

// runCommitStress drives many goroutines mixing Apply, interactive
// transaction commits, and verified reads against db, and returns every
// acknowledged write. Concurrent verified readers advance a pinned
// verifier digest with consistency proofs, so any history rewrite or
// non-extending digest fails the test.
func runCommitStress(t *testing.T, db *spitz.DB, writers, perWriter int) []ackedWrite {
	t.Helper()
	var (
		mu    sync.Mutex
		acked []ackedWrite
		wg    sync.WaitGroup
	)
	stopRead := make(chan struct{})
	var readers sync.WaitGroup

	// Verified readers: each pins a digest and requires every refresh to
	// extend it (consistency proof) and every point proof to verify.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			ver := spitz.NewVerifier()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				d, cons, err := db.ConsistencyUpdate(ver.Digest())
				if err != nil {
					t.Errorf("consistency proof: %v", err)
					return
				}
				if err := ver.Advance(d, cons); err != nil {
					t.Errorf("digest did not extend: %v", err)
					return
				}
				res, err := db.GetVerified("t", "c", []byte("w0-0"))
				if err != nil {
					t.Errorf("verified read: %v", err)
					return
				}
				if res.Digest.Height == 0 {
					continue
				}
				if err := res.Proof.Verify(res.Digest); err != nil {
					t.Errorf("proof verification: %v", err)
					return
				}
			}
		}()
	}

	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				val := fmt.Sprintf("val-%d-%d", w, i)
				if i%3 == 0 {
					// Interactive transaction (retried on conflict).
					for {
						tx := db.Begin()
						if _, _, err := tx.Get("t", "c", []byte(key)); err != nil {
							t.Error(err)
							return
						}
						if err := tx.Put("t", "c", []byte(key), []byte(val)); err != nil {
							t.Error(err)
							return
						}
						_, err := tx.Commit()
						if errors.Is(err, spitz.ErrConflict) {
							continue
						}
						if err != nil {
							t.Errorf("txn commit: %v", err)
							return
						}
						break
					}
					mu.Lock()
					acked = append(acked, ackedWrite{key: key, value: val, height: db.Height()})
					mu.Unlock()
					continue
				}
				h, err := db.Apply("stress "+key, []spitz.Put{
					{Table: "t", Column: "c", PK: []byte(key), Value: []byte(val)},
					{Table: "t", Column: "extra", PK: []byte(key), Value: []byte(val)},
				})
				if err != nil {
					t.Errorf("apply: %v", err)
					return
				}
				mu.Lock()
				acked = append(acked, ackedWrite{key: key, value: val, height: h.Height})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stopRead)
	readers.Wait()
	return acked
}

func checkAcked(t *testing.T, db *spitz.DB, acked []ackedWrite) {
	t.Helper()
	for _, a := range acked {
		v, err := db.Get("t", "c", []byte(a.key))
		if err != nil || string(v) != a.value {
			t.Fatalf("acknowledged write %s = %q, %v (want %q)", a.key, v, err, a.value)
		}
	}
}

// TestConcurrentCommitStress mixes Apply, transactions and verified
// reads under the race detector: every acknowledged commit must be
// readable afterwards and digests must only ever extend.
func TestConcurrentCommitStress(t *testing.T) {
	db := spitz.Open(spitz.Options{})
	acked := runCommitStress(t, db, 8, 25)
	checkAcked(t, db, acked)
	st := db.Stats()
	if st.Batch.Txns != uint64(len(acked)) {
		t.Fatalf("pipeline committed %d txns, %d were acknowledged", st.Batch.Txns, len(acked))
	}
	if st.Batch.Blocks == 0 || st.Batch.Blocks != db.Height() {
		t.Fatalf("batch stats blocks=%d, height=%d", st.Batch.Blocks, db.Height())
	}
	t.Logf("stress: %d txns in %d blocks (max %d/block, mean %.2f)",
		st.Batch.Txns, st.Batch.Blocks, st.Batch.MaxTxns, st.Batch.MeanTxns())
}

// TestConcurrentCommitStressDurable runs the same mix against a durable
// database, stops it uncleanly, and requires recovery to the exact
// pre-crash digest with every acknowledged commit (including those that
// shared multi-transaction blocks) readable.
func TestConcurrentCommitStressDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := spitz.OpenDir(dir, spitz.Options{
		Sync:               spitz.SyncAlways,
		CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsyncs := obs.Default.Counter("spitz_wal_fsyncs_total")
	fsyncs0 := fsyncs.Value()
	acked := runCommitStress(t, db, 8, 15)
	checkAcked(t, db, acked)
	st := db.Stats()
	digest := db.Digest()
	// The pipeline appends the next block while the last one's fsync is in
	// flight; the WAL's sync leader covers whatever piled up behind it, so
	// overlap never costs more than one fsync per block.
	if n := fsyncs.Value() - fsyncs0; n == 0 || n > st.Batch.Blocks {
		t.Fatalf("%d fsyncs for %d blocks, want between 1 and one per block", n, st.Batch.Blocks)
	}
	// Unclean stop: drop the handle without Close. SyncAlways means every
	// acknowledged commit is already on disk.

	// Then a clean stop with no checkpoint ever taken: the log alone
	// carries the state across the second reopen too.
	for _, how := range []string{"crash", "close without checkpoint"} {
		db2, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
		if err != nil {
			t.Fatalf("recovery after %s: %v", how, err)
		}
		if got := db2.Digest(); got != digest {
			t.Fatalf("digest after %s = %+v, want %+v", how, got, digest)
		}
		checkAcked(t, db2, acked)
		if db2.Height() != st.Batch.Blocks {
			t.Fatalf("after %s: recovered %d blocks, pipeline committed %d", how, db2.Height(), st.Batch.Blocks)
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	buckets := st.Batch.SizeBuckets()
	var hist []string
	for i, n := range st.Batch.SizeHist {
		if n > 0 {
			hist = append(hist, fmt.Sprintf("%s:%d", buckets[i], n))
		}
	}
	t.Logf("durable stress: %d txns in %d blocks (max %d/block, mean %.2f, dist %v), recovered to identical digest",
		st.Batch.Txns, st.Batch.Blocks, st.Batch.MaxTxns, st.Batch.MeanTxns(), hist)
}

// TestGetRowSingleSnapshot: GetRow must read all columns from one
// snapshot — a writer flipping two columns in lockstep must never be
// observed half-updated.
func TestGetRowSingleSnapshot(t *testing.T) {
	db := spitz.Open(spitz.Options{})
	pk := []byte("row")
	write := func(gen int) {
		if _, err := db.Apply("flip", []spitz.Put{
			{Table: "t", Column: "a", PK: pk, Value: []byte(fmt.Sprintf("g%d", gen))},
			{Table: "t", Column: "b", PK: pk, Value: []byte(fmt.Sprintf("g%d", gen))},
		}); err != nil {
			t.Error(err)
		}
	}
	write(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
				write(gen)
			}
		}
	}()
	for i := 0; i < 300; i++ {
		row, err := db.GetRow("t", pk, []string{"a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		if string(row["a"]) != string(row["b"]) {
			t.Fatalf("torn row read: a=%q b=%q", row["a"], row["b"])
		}
	}
	close(stop)
	wg.Wait()
}
