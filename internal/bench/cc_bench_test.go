package bench

import (
	"fmt"
	"testing"

	"spitz/internal/bench/workload"
	"spitz/internal/txn"
	"spitz/internal/txn/tso"
)

// ---------------------------------------------------------------------------
// Ablation: concurrency control throughput under moderate contention

func BenchmarkAblationCC(b *testing.B) {
	run := func(b *testing.B, mode txn.Mode) {
		ts := tso.New(0)
		store := txn.NewMemStore(ts)
		mgr := txn.NewManager(store, ts, mode)
		seed := mgr.Begin()
		for i := 0; i < 1000; i++ {
			seed.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("0"))
		}
		if _, err := seed.Commit(); err != nil {
			b.Fatal(err)
		}
		hot := workload.Zipf(1000, 1<<16, 1.2, 7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := mgr.Begin()
			t.Get([]byte(fmt.Sprintf("k%04d", hot[(2*i)%len(hot)])))
			t.Put([]byte(fmt.Sprintf("k%04d", hot[(2*i+1)%len(hot)])), []byte("x"))
			t.Commit() // conflicts count as completed attempts
		}
	}
	b.Run("OCC", func(b *testing.B) { run(b, txn.ModeOCC) })
	b.Run("TO", func(b *testing.B) { run(b, txn.ModeTO) })
}
