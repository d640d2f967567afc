package durable

import (
	"fmt"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/core"
	"spitz/internal/wal"
)

// buildBenchDB populates a database with nKeys cells of valSize bytes,
// batch puts per block, then checkpoints and closes it. The directory is
// then ready for reopen benchmarks.
func buildBenchDB(b *testing.B, dir string, opts Options, nKeys, valSize, batch int) {
	b.Helper()
	m, err := Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, valSize)
	for i := 0; i < nKeys; i += batch {
		puts := make([]core.Put, 0, batch)
		for j := i; j < i+batch && j < nKeys; j++ {
			puts = append(puts, core.Put{Table: "t", Column: "c",
				PK: []byte(fmt.Sprintf("key-%08d", j)), Value: val})
		}
		if _, err := m.Engine().Apply("load", puts); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkColdRestart measures restart-to-first-verified-read: open a
// checkpointed database and serve one proof-carrying read. The node store
// opens by root hash: O(height) header reads plus the one O(log n) proof
// path it actually serves, whatever the database's size. With the inverted
// index on, the open also rebuilds that index from every head cell — the
// one scan an open still does. node-reads/op counts the node-store misses
// of one open and read: the scan is every node of the head tree.
func BenchmarkColdRestart(b *testing.B) {
	const nKeys, valSize, batch = 20000, 256, 200
	for _, inverted := range []bool{false, true} {
		b.Run(fmt.Sprintf("MaintainInverted=%v", inverted), func(b *testing.B) {
			opts := noAutoCkpt(Options{Sync: wal.SyncAlways, NodeCacheMB: 16, MaintainInverted: inverted})
			dir := b.TempDir()
			buildBenchDB(b, dir, opts, nKeys, valSize, batch)
			var reads int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := Open(dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Engine().GetVerified("t", "c", []byte("key-00004242"))
				if err != nil || !res.Found {
					b.Fatalf("first verified read: found=%v err=%v", res.Found, err)
				}
				b.StopTimer()
				reads += m.NodeStore().CacheStats().Misses
				m.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(reads)/float64(b.N), "node-reads/op")
		})
	}
}

// BenchmarkDiskWorkingSet reads uniformly across a keyspace whose
// resident bytes exceed the node-cache budget by >10x, so most proof
// paths fault in from segment files; the same store with a cache larger
// than the working set serves the workload from RAM as the ceiling.
// Every read is verified — an audit failure fails the benchmark. hit%
// reports the node cache's observed hit rate.
func BenchmarkDiskWorkingSet(b *testing.B) {
	// ~12k keys x 1KiB values plus tree nodes ≈ 14MiB working set
	// against the 1MiB minimum cache budget.
	const nKeys, valSize, batch = 12000, 1024, 200
	for _, cacheMB := range []int{1, 64} {
		b.Run(fmt.Sprintf("disk-cache=%dMiB", cacheMB), func(b *testing.B) {
			dir := b.TempDir()
			opts := noAutoCkpt(Options{Sync: wal.SyncAlways, NodeCacheMB: cacheMB})
			buildBenchDB(b, dir, opts, nKeys, valSize, batch)
			m, err := Open(dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			read := func(k uint64) {
				res, err := m.Engine().GetVerified("t", "c", []byte(fmt.Sprintf("key-%08d", k)))
				if err != nil || !res.Found {
					b.Fatalf("verified read %d: found=%v err=%v", k, res.Found, err)
				}
			}
			for k := uint64(0); k < nKeys; k++ {
				read(k) // warm: the larger cache then holds the working set
			}
			before := m.NodeStore().CacheStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read((uint64(i)*1103515245 + 12345) % nKeys)
			}
			after := m.NodeStore().CacheStats()
			hits := cas.DiskCacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
			b.ReportMetric(100*hits.HitRate(), "hit%")
		})
	}
}
