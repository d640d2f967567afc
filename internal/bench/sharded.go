package bench

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"spitz"
)

// Sharded measures aggregate commit throughput of the sharded cluster
// (Section 5.2) against the single-engine baseline: for each shard
// count (1 = a one-shard cluster, the closest apples-to-apples
// baseline), `workers` goroutines *per shard* (weak scaling — offered
// load grows with the cluster, keeping per-shard group commit equally
// deep) commit single-cell writes to uniformly spread keys until at
// least `ops` commits land, in memory and — when baseDir is non-empty —
// with per-shard SyncAlways durability. Each shard runs its own
// group-commit pipeline and write-ahead log, so per-shard batching
// stays deep while ledger CPU and fsyncs overlap across shards; the
// throughput curve across shard counts is the scaling claim this
// experiment documents.
func Sharded(baseDir string, shardCounts []int, workers, ops int) (Result, error) {
	res := Result{
		Title:  "Sharded cluster: aggregate commit throughput",
		XLabel: "shards",
		YLabel: fmt.Sprintf("commits/s, %d concurrent committers per shard, single-cell writes", workers),
	}
	mem := Series{Name: "memory"}
	dur := Series{Name: "durable SyncAlways"}
	for _, n := range shardCounts {
		tput, err := shardedRun("", spitz.ClusterOptions{Shards: n}, workers*n, ops*n)
		if err != nil {
			return Result{}, err
		}
		mem.Points = append(mem.Points, Point{X: n, Y: tput})
		if baseDir == "" {
			continue
		}
		tput, err = shardedRun(filepath.Join(baseDir, fmt.Sprintf("cluster-%d", n)), spitz.ClusterOptions{
			Shards:  n,
			Options: spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1},
		}, workers*n, ops*n)
		if err != nil {
			return Result{}, err
		}
		dur.Points = append(dur.Points, Point{X: n, Y: tput})
	}
	res.Series = append(res.Series, mem)
	if baseDir != "" {
		res.Series = append(res.Series, dur)
	}
	return res, nil
}

func shardedRun(dir string, opts spitz.ClusterOptions, workers, ops int) (float64, error) {
	c, err := spitz.OpenCluster(dir, opts)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if workers < 1 {
		workers = 1
	}
	per := ops / workers
	if per < 1 {
		per = 1
	}
	commit := func(worker, i int) error {
		pk := []byte(fmt.Sprintf("pk%03d-%06d", worker, i))
		_, err := c.Apply("bench", []spitz.Put{{Table: "t", Column: "c", PK: pk,
			Value: []byte("value-00000000")}})
		return err
	}
	// Short warmup primes each shard's pipeline and WAL.
	for i := 0; i < workers; i++ {
		if err := commit(i, -1); err != nil {
			return 0, err
		}
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := commit(w, i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(workers*per) / elapsed.Seconds(), nil
}
