// Benchmarks: one testing.B benchmark per table/figure of the paper's
// evaluation, plus the design-choice ablations. These run at a fixed
// moderate database size so `go test -bench=.` completes quickly; the full
// 10k-1.28M sweeps that regenerate the figures run via cmd/spitz-bench.
// EXPERIMENTS.md records paper-vs-measured for both.
package spitz_test

import (
	"math/rand"
	"sync"
	"testing"

	"spitz"
	"spitz/internal/bench/baseline"
	"spitz/internal/bench/chunk"
	"spitz/internal/bench/kvs"
	"spitz/internal/bench/mbt"
	"spitz/internal/bench/mpt"
	"spitz/internal/bench/nonintrusive"
	"spitz/internal/bench/workload"
	"spitz/internal/cas"
	"spitz/internal/postree"
	"spitz/internal/proof"
	"spitz/internal/txn/hlc"
	"spitz/internal/txn/tso"
)

const benchSize = 50_000

// fixtures are built once and shared across benchmarks.
var (
	fixOnce    sync.Once
	fixRecords []workload.KeyValue
	fixReads   [][]byte
	fixKVS     *kvs.Store
	fixSpitz   *spitz.DB
	fixSpitzV  *proof.Verifier
	fixBase    *baseline.DB
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		fixRecords = workload.Records(benchSize, 42)
		fixReads = workload.ReadSequence(fixRecords, 1<<16, 43)

		fixKVS = kvs.New(nil)
		for _, batch := range workload.Batches(fixRecords, 1000) {
			kvb := make([]kvs.KV, len(batch))
			for i, kv := range batch {
				kvb[i] = kvs.KV{Key: kv.Key, Value: kv.Value}
			}
			if err := fixKVS.Apply(kvb); err != nil {
				panic(err)
			}
		}

		fixSpitz = spitz.Open(spitz.Options{})
		for _, batch := range workload.Batches(fixRecords, 1000) {
			if _, err := fixSpitz.Apply("bench load", puts(batch)); err != nil {
				panic(err)
			}
		}
		fixSpitzV = proof.NewVerifier()
		if err := fixSpitzV.Advance(fixSpitz.Digest(), spitz.ConsistencyProof{}); err != nil {
			panic(err)
		}

		fixBase = baseline.New(nil)
		for _, batch := range workload.Batches(fixRecords, 1000) {
			kvb := make([]baseline.KV, len(batch))
			for i, kv := range batch {
				kvb[i] = baseline.KV{Key: kv.Key, Value: kv.Value}
			}
			if err := fixBase.Write(kvb); err != nil {
				panic(err)
			}
		}
		fixBase.Seal()
	})
}

func puts(batch []workload.KeyValue) []spitz.Put {
	out := make([]spitz.Put, len(batch))
	for i, kv := range batch {
		out[i] = spitz.Put{Table: "bench", Column: "v", PK: kv.Key, Value: kv.Value}
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 1: storage deduplication

func BenchmarkFig1StorageDedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		store := cas.NewMemory()
		blobs := chunk.NewBlobStore(store)
		pages := workload.WikiPages(10, 16*1024, 1)
		rng := rand.New(rand.NewSource(2))
		bodies := make([][]byte, len(pages))
		for j, p := range pages {
			bodies[j] = p.Body
			blobs.PutBlob(p.Body)
		}
		for v := 0; v < 60; v++ {
			j := rng.Intn(len(pages))
			bodies[j] = workload.EditPage(bodies[j], rng)
			blobs.PutBlob(bodies[j])
		}
		if i == 0 {
			st := store.Stats()
			b.ReportMetric(float64(st.PhysicalBytes)/1024, "dedupKB")
			b.ReportMetric(float64(st.LogicalBytes)/1024, "rawKB")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 6(a): point reads

func BenchmarkFig6aRead(b *testing.B) {
	fixtures(b)
	b.Run("ImmutableKVS", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, _ := fixKVS.Get(fixReads[i%len(fixReads)]); !ok {
				b.Fatal("missing key")
			}
		}
	})
	b.Run("Spitz", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fixSpitz.Get("bench", "v", fixReads[i%len(fixReads)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SpitzVerify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := fixSpitz.GetVerified("bench", "v", fixReads[i%len(fixReads)])
			if err != nil || !res.Found {
				b.Fatal("verified read failed")
			}
			if err := fixSpitzV.VerifyNow(res.Proof); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, _ := fixBase.Get(fixReads[i%len(fixReads)]); !ok {
				b.Fatal("missing key")
			}
		}
	})
	b.Run("BaselineVerify", func(b *testing.B) {
		b.ReportAllocs()
		d := fixBase.Digest()
		for i := 0; i < b.N; i++ {
			rec, ok, p, err := fixBase.VerifiedGet(fixReads[i%len(fixReads)])
			if err != nil || !ok {
				b.Fatal("verified read failed")
			}
			if err := p.Verify(d, rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Figure 6(b): writes (fresh systems so fixtures stay read-only)

func BenchmarkFig6bWrite(b *testing.B) {
	records := workload.Records(benchSize, 42)
	b.Run("ImmutableKVS", func(b *testing.B) {
		s := kvs.New(nil)
		loadKVS(b, s, records)
		updates := workload.UpdateSequence(records, 1<<16, 44)
		b.ResetTimer()
		for done := 0; done < b.N; {
			batch := nextBatch(updates, done, b.N)
			kvb := make([]kvs.KV, len(batch))
			for i, kv := range batch {
				kvb[i] = kvs.KV{Key: kv.Key, Value: kv.Value}
			}
			if err := s.Apply(kvb); err != nil {
				b.Fatal(err)
			}
			done += len(batch)
		}
	})
	b.Run("Spitz", func(b *testing.B) {
		db := spitz.Open(spitz.Options{})
		for _, batch := range workload.Batches(records, 1000) {
			db.Apply("load", puts(batch))
		}
		updates := workload.UpdateSequence(records, 1<<16, 44)
		b.ResetTimer()
		for done := 0; done < b.N; {
			batch := nextBatch(updates, done, b.N)
			if _, err := db.Apply("bench", puts(batch)); err != nil {
				b.Fatal(err)
			}
			done += len(batch)
		}
	})
	b.Run("Baseline", func(b *testing.B) {
		db := baseline.New(nil)
		for _, batch := range workload.Batches(records, 1000) {
			kvb := make([]baseline.KV, len(batch))
			for i, kv := range batch {
				kvb[i] = baseline.KV{Key: kv.Key, Value: kv.Value}
			}
			db.Write(kvb)
		}
		updates := workload.UpdateSequence(records, 1<<16, 44)
		b.ResetTimer()
		for done := 0; done < b.N; {
			batch := nextBatch(updates, done, b.N)
			kvb := make([]baseline.KV, len(batch))
			for i, kv := range batch {
				kvb[i] = baseline.KV{Key: kv.Key, Value: kv.Value}
			}
			if err := db.Write(kvb); err != nil {
				b.Fatal(err)
			}
			done += len(batch)
		}
	})
}

func loadKVS(b *testing.B, s *kvs.Store, records []workload.KeyValue) {
	b.Helper()
	for _, batch := range workload.Batches(records, 1000) {
		kvb := make([]kvs.KV, len(batch))
		for i, kv := range batch {
			kvb[i] = kvs.KV{Key: kv.Key, Value: kv.Value}
		}
		if err := s.Apply(kvb); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 7: range queries at 0.1% selectivity

func BenchmarkFig7Range(b *testing.B) {
	fixtures(b)
	keys := make([][]byte, len(fixRecords))
	for i, r := range fixRecords {
		keys[i] = r.Key
	}
	sortKeys(keys)
	ranges := workload.Ranges(keys, 0.001, 4096, 45)

	b.Run("Spitz", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := ranges[i%len(ranges)]
			cells, err := fixSpitz.RangePK("bench", "v", r.Lo, r.Hi)
			if err != nil || len(cells) != r.Count {
				b.Fatalf("range returned %d, want %d", len(cells), r.Count)
			}
		}
	})
	b.Run("SpitzVerify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := ranges[i%len(ranges)]
			res, err := fixSpitz.RangePKVerified("bench", "v", r.Lo, r.Hi)
			if err != nil {
				b.Fatal(err)
			}
			if err := fixSpitzV.VerifyNow(res.Proof); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := ranges[i%len(ranges)]
			n := 0
			fixBase.Scan(r.Lo, r.Hi, func(_, _ []byte) bool { n++; return true })
			if n != r.Count {
				b.Fatalf("scan returned %d, want %d", n, r.Count)
			}
		}
	})
	b.Run("BaselineVerify", func(b *testing.B) {
		b.ReportAllocs()
		d := fixBase.Digest()
		for i := 0; i < b.N; i++ {
			r := ranges[i%len(ranges)]
			recs, proofs, err := fixBase.VerifiedScan(r.Lo, r.Hi)
			if err != nil {
				b.Fatal(err)
			}
			for j := range recs {
				if err := proofs[j].Verify(d, recs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func sortKeys(keys [][]byte) {
	// Insertion of sort.Slice here would import sort; keep it simple.
	quickSortKeys(keys, 0, len(keys)-1)
}

func quickSortKeys(k [][]byte, lo, hi int) {
	for lo < hi {
		p := partitionKeys(k, lo, hi)
		if p-lo < hi-p {
			quickSortKeys(k, lo, p-1)
			lo = p + 1
		} else {
			quickSortKeys(k, p+1, hi)
			hi = p - 1
		}
	}
}

func partitionKeys(k [][]byte, lo, hi int) int {
	pivot := k[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if string(k[j]) < string(pivot) {
			k[i], k[j] = k[j], k[i]
			i++
		}
	}
	k[i], k[hi] = k[hi], k[i]
	return i
}

// ---------------------------------------------------------------------------
// Figure 8: non-intrusive composition vs embedded Spitz

func BenchmarkFig8NonIntrusive(b *testing.B) {
	records := workload.Records(10_000, 46)
	reads := workload.ReadSequence(records, 1<<14, 47)
	sys, err := nonintrusive.Deploy()
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	for _, batch := range workload.Batches(records, 1000) {
		kvb := make([]nonintrusive.KV, len(batch))
		for i, kv := range batch {
			kvb[i] = nonintrusive.KV{PK: kv.Key, Value: kv.Value}
		}
		if err := sys.Write(kvb); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("Read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, found, err := sys.Read(reads[i%len(reads)]); err != nil || !found {
				b.Fatal("read failed")
			}
		}
	})
	b.Run("ReadVerified", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, found, err := sys.ReadVerified(reads[i%len(reads)]); err != nil || !found {
				b.Fatalf("verified read failed: %v", err)
			}
		}
	})
	b.Run("Write", func(b *testing.B) {
		updates := workload.UpdateSequence(records, 1<<14, 48)
		for done := 0; done < b.N; {
			batch := nextBatch(updates, done, b.N)
			kvb := make([]nonintrusive.KV, len(batch))
			for i, kv := range batch {
				kvb[i] = nonintrusive.KV{PK: kv.Key, Value: kv.Value}
			}
			if err := sys.Write(kvb); err != nil {
				b.Fatal(err)
			}
			done += len(batch)
		}
	})
}

// ---------------------------------------------------------------------------
// Ablation: SIRI family (point get + prove/verify per structure)

func BenchmarkAblationSIRI(b *testing.B) {
	records := workload.Records(20_000, 49)
	reads := workload.ReadSequence(records, 1<<14, 50)

	b.Run("POSTree", func(b *testing.B) {
		tr := postree.Empty(cas.NewMemory())
		var err error
		for _, r := range records {
			if tr, err = tr.Put(r.Key, r.Value); err != nil {
				b.Fatal(err)
			}
		}
		root := tr.Root()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := tr.ProveGet(reads[i%len(reads)])
			if err != nil || p.Verify(root) != nil {
				b.Fatal("prove/verify failed")
			}
		}
	})
	b.Run("MPT", func(b *testing.B) {
		tr := mpt.Empty(cas.NewMemory())
		var err error
		for _, r := range records {
			if tr, err = tr.Put(r.Key, r.Value); err != nil {
				b.Fatal(err)
			}
		}
		root := tr.Root()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := tr.ProveGet(reads[i%len(reads)])
			if err != nil || p.Verify(root) != nil {
				b.Fatal("prove/verify failed")
			}
		}
	})
	b.Run("MBT", func(b *testing.B) {
		tr := mbt.New(cas.NewMemory(), 4096)
		var err error
		for _, r := range records {
			if tr, err = tr.Put(r.Key, r.Value); err != nil {
				b.Fatal(err)
			}
		}
		root := tr.Root()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := tr.ProveGet(reads[i%len(reads)])
			if err != nil || p.Verify(root) != nil {
				b.Fatal("prove/verify failed")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Ablation: online vs deferred verification

func BenchmarkAblationDeferred(b *testing.B) {
	fixtures(b)
	b.Run("Online", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := fixSpitz.GetVerified("bench", "v", fixReads[i%len(fixReads)])
			if err != nil {
				b.Fatal(err)
			}
			if err := fixSpitzV.VerifyNow(res.Proof); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DeferredBatch100", func(b *testing.B) {
		b.ReportAllocs()
		v := proof.NewVerifier()
		if err := v.Advance(fixSpitz.Digest(), spitz.ConsistencyProof{}); err != nil {
			b.Fatal(err)
		}
		var pending []spitz.Proof
		flush := func() {
			for _, p := range pending {
				if err := v.VerifyNow(p); err != nil {
					b.Fatal(err)
				}
			}
			pending = pending[:0]
		}
		for i := 0; i < b.N; i++ {
			res, err := fixSpitz.GetVerified("bench", "v", fixReads[i%len(fixReads)])
			if err != nil {
				b.Fatal(err)
			}
			if pending = append(pending, res.Proof); len(pending) >= 100 {
				flush()
			}
		}
		flush()
	})
}

// ---------------------------------------------------------------------------
// Ablation: timestamp allocation

func BenchmarkAblationTimestamps(b *testing.B) {
	b.Run("OracleShared", func(b *testing.B) {
		o := tso.New(0)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				o.Next()
			}
		})
	})
	b.Run("HLCPerNode", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			c := hlc.New()
			for pb.Next() {
				c.Now()
			}
		})
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// nextBatch slices up to 1000 updates starting at done's position in the
// pool, wrapping at the pool boundary and never exceeding the remaining
// benchmark iterations.
func nextBatch(updates []workload.KeyValue, done, n int) []workload.KeyValue {
	start := done % len(updates)
	size := min(1000, n-done)
	if start+size > len(updates) {
		size = len(updates) - start
	}
	return updates[start : start+size]
}
