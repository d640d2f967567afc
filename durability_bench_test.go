package spitz_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spitz"
	"spitz/internal/obs"
)

var benchSeq atomic.Uint64

func benchCommit(db *spitz.DB) error {
	i := benchSeq.Add(1)
	_, err := db.Apply("bench", []spitz.Put{{
		Table: "t", Column: "c",
		PK:    []byte(fmt.Sprintf("pk%08d", i)),
		Value: []byte("value-00000000"),
	}})
	return err
}

// benchOpeners returns a constructor per durability configuration: the
// in-memory engine as baseline against OpenDir under each WAL sync
// policy.
func benchOpeners() map[string]func(b *testing.B) *spitz.DB {
	open := map[string]func(b *testing.B) *spitz.DB{
		"memory": func(b *testing.B) *spitz.DB { return spitz.Open(spitz.Options{}) },
	}
	for _, p := range []spitz.SyncPolicy{spitz.SyncNever, spitz.SyncInterval, spitz.SyncAlways} {
		p := p
		open[p.String()] = func(b *testing.B) *spitz.DB {
			db, err := spitz.OpenDir(b.TempDir(), spitz.Options{
				Sync:               p,
				SyncEvery:          10 * time.Millisecond,
				CheckpointInterval: -1, // isolate WAL cost from checkpoint cost
			})
			if err != nil {
				b.Fatal(err)
			}
			return db
		}
	}
	return open
}

// BenchmarkDurableCommit measures the cost of commit durability.
// SyncAlways pays an fsync per ledger block, SyncInterval a write syscall
// plus a timer fsync, SyncNever just the write syscall. The parallel
// variants exercise the group-commit pipeline: concurrent commits fold
// into shared multi-transaction blocks (one POS-tree apply, one WAL
// frame, one fsync per block), so throughput scales far beyond the
// serial numbers — the txns/block metric shows how hard the batcher is
// working.
func BenchmarkDurableCommit(b *testing.B) {
	open := benchOpeners()
	for _, name := range []string{"memory", "never", "interval", "always"} {
		b.Run(name, func(b *testing.B) {
			db := open[name](b)
			defer db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := benchCommit(db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/parallel", func(b *testing.B) {
			db := open[name](b)
			defer db.Close()
			b.SetParallelism(4)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := benchCommit(db); err != nil {
						b.Fatal(err)
					}
				}
			})
			reportBatchStats(b, db)
		})
	}
}

// BenchmarkApplyParallel is the group-commit headline number: many
// goroutines committing single-cell transactions concurrently, in memory
// and under SyncAlways durability. Compare against the serial
// BenchmarkDurableCommit variants to see the batching win; txns/block
// reports the observed batch size and fsyncs/commit how many device syncs
// a block cost (below 1 when the WAL's sync leader covers several blocks
// appended while the previous fsync was in flight). With -cpu 1 the three
// sizes are 1, 4 and 16 committers.
func BenchmarkApplyParallel(b *testing.B) {
	open := benchOpeners()
	fsyncs := obs.Default.Counter("spitz_wal_fsyncs_total")
	for _, name := range []string{"memory", "always"} {
		for _, par := range []int{1, 4, 16} {
			goroutines := par * runtime.GOMAXPROCS(0) // what SetParallelism actually runs
			b.Run(fmt.Sprintf("%s/goroutines=%d", name, goroutines), func(b *testing.B) {
				db := open[name](b)
				defer db.Close()
				b.SetParallelism(par)
				fsyncs0 := fsyncs.Value()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if err := benchCommit(db); err != nil {
							b.Fatal(err)
						}
					}
				})
				reportBatchStats(b, db)
				if st := db.Stats().Shards[0].Batch; name == "always" && st.Blocks > 0 {
					b.ReportMetric(float64(fsyncs.Value()-fsyncs0)/float64(st.Blocks), "fsyncs/commit")
				}
			})
		}
	}
}

func reportBatchStats(b *testing.B, db *spitz.DB) {
	b.Helper()
	st := db.Stats().Shards[0].Batch
	if st.Blocks > 0 {
		b.ReportMetric(st.MeanTxns(), "txns/block")
	}
}
