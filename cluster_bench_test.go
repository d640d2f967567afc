package spitz_test

import (
	"fmt"
	"runtime"
	"testing"

	"spitz"
)

func benchClusterCommit(db *spitz.ClusterDB) error {
	i := benchSeq.Add(1)
	_, err := db.Apply("bench", []spitz.Put{{
		Table: "t", Column: "c",
		PK:    []byte(fmt.Sprintf("pk%08d", i)),
		Value: []byte("value-00000000"),
	}})
	return err
}

// BenchmarkClusterApplyParallel is the sharding headline number: many
// goroutines committing single-cell writes against a cluster, in memory
// and with per-shard SyncAlways durability. Offered load scales with
// the cluster (16 committers per shard — weak scaling): each shard runs
// its own group-commit pipeline and its own WAL, so per-shard batching
// stays deep while ledger CPU and fsyncs overlap across shards. Compare
// shards=1 against BenchmarkApplyParallel (the unsharded engine) for
// the cluster plumbing overhead; EXPERIMENTS.md discusses where
// sharding wins and where single-engine group commit still does.
func BenchmarkClusterApplyParallel(b *testing.B) {
	for _, durable := range []string{"memory", "always"} {
		for _, shards := range []int{1, 2, 4} {
			par := 16 * shards
			goroutines := par * runtime.GOMAXPROCS(0)
			name := fmt.Sprintf("%s/shards=%d/goroutines=%d", durable, shards, goroutines)
			b.Run(name, func(b *testing.B) {
				opts := spitz.ClusterOptions{Shards: shards}
				dir := ""
				if durable == "always" {
					dir = b.TempDir()
					opts.Sync = spitz.SyncAlways
					opts.CheckpointInterval = -1 // isolate WAL cost
				}
				db, err := spitz.OpenCluster(dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				b.SetParallelism(par)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if err := benchClusterCommit(db); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.StopTimer()
				st := db.Stats()
				var blocks, txns uint64
				for _, s := range st.Shards {
					blocks += s.Batch.Blocks
					txns += s.Batch.Txns
				}
				if blocks > 0 {
					b.ReportMetric(float64(txns)/float64(blocks), "txns/block")
				}
			})
		}
	}
}
