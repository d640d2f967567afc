package bench

import (
	"io"
	"testing"
)

// The harness tests run tiny sweeps: they assert the experiments execute
// end to end and that the paper's qualitative shapes hold even at reduced
// scale. Full-scale sweeps run via cmd/spitz-bench.

func smallConfig() Config {
	return Config{Sizes: []int{4000, 16000}, Ops: 6000, Batch: 500, Seed: 7}
}

// shapeRuns is how many times a throughput shape test repeats its sweep.
const shapeRuns = 3

// bestOf repeats a throughput sweep and keeps, for every series and x,
// the best (highest) measurement. The shape tests compare throughputs
// measured inside `go test ./...`, beside every other package's tests on
// the same cores: a single wall-clock sample is at the mercy of that
// noise, while the best of three is what the code can do — the quantity
// the paper's shapes are about.
func bestOf(t *testing.T, run func() ([]Result, error)) []Result {
	t.Helper()
	var best []Result
	for i := 0; i < shapeRuns; i++ {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if best == nil {
			best = res
			continue
		}
		for r := range res {
			for s, series := range res[r].Series {
				for p, pt := range series.Points {
					if b := &best[r].Series[s].Points[p]; pt.Y > b.Y {
						b.Y = pt.Y
					}
				}
			}
		}
	}
	return best
}

func one(run func() (Result, error)) func() ([]Result, error) {
	return func() ([]Result, error) {
		res, err := run()
		return []Result{res}, err
	}
}

func TestFig1Shape(t *testing.T) {
	res, err := Fig1(30)
	if err != nil {
		t.Fatal(err)
	}
	dedup, ok1 := res.Get("Storage-ForkBase")
	raw, ok2 := res.Get("Storage")
	if !ok1 || !ok2 {
		t.Fatal("missing series")
	}
	d30, _ := dedup.At(30)
	r30, _ := raw.At(30)
	if d30 >= r30 {
		t.Fatalf("dedup (%f KB) not below raw (%f KB)", d30, r30)
	}
	// The paper's shape: dedup storage grows far slower than raw.
	d10, _ := dedup.At(10)
	r10, _ := raw.At(10)
	if (d30 - d10) > (r30-r10)/2 {
		t.Fatalf("dedup growth %.0f KB vs raw growth %.0f KB — savings too small", d30-d10, r30-r10)
	}
	res.Print(io.Discard)
}

func TestFig6ReadShape(t *testing.T) {
	res := bestOf(t, one(func() (Result, error) { return Fig6Read(smallConfig()) }))[0]
	kvs, _ := res.Get("Immutable KVS")
	spitz, _ := res.Get("Spitz")
	spitzV, _ := res.Get("Spitz-verify")
	base, _ := res.Get("Baseline")
	baseV, _ := res.Get("Baseline-verify")
	for _, size := range []int{4000, 16000} {
		k, _ := kvs.At(size)
		s, _ := spitz.At(size)
		sv, _ := spitzV.At(size)
		b, _ := base.At(size)
		bv, _ := baseV.At(size)
		if k <= 0 || s <= 0 || sv <= 0 || b <= 0 || bv <= 0 {
			t.Fatalf("zero throughput at %d: %v %v %v %v %v", size, k, s, sv, b, bv)
		}
		// Paper shapes: verification costs Spitz far less than the
		// baseline; Spitz-verify beats Baseline-verify decisively.
		if sv >= s {
			t.Errorf("size %d: Spitz-verify (%.0f) not below Spitz (%.0f)", size, sv, s)
		}
		if bv >= b/4 {
			t.Errorf("size %d: Baseline-verify (%.0f) not far below Baseline (%.0f)", size, bv, b)
		}
		if sv <= 2*bv {
			t.Errorf("size %d: Spitz-verify (%.0f) not well above Baseline-verify (%.0f)", size, sv, bv)
		}
	}
	res.Print(io.Discard)
}

func TestFig6WriteShape(t *testing.T) {
	res := bestOf(t, one(func() (Result, error) { return Fig6Write(smallConfig()) }))[0]
	kvs, _ := res.Get("Immutable KVS")
	spitz, _ := res.Get("Spitz")
	base, _ := res.Get("Baseline")
	for _, size := range []int{4000, 16000} {
		k, _ := kvs.At(size)
		s, _ := spitz.At(size)
		b, _ := base.At(size)
		if k <= 0 || s <= 0 || b <= 0 {
			t.Fatal("zero write throughput")
		}
		// Spitz comparable to KVS; baseline below Spitz (multiple views).
		// The margin is generous: shape, not precision, is asserted.
		if s < k/6 {
			t.Errorf("size %d: Spitz writes (%.0f) far below KVS (%.0f)", size, s, k)
		}
		if b > s*1.15 {
			t.Errorf("size %d: Baseline writes (%.0f) above Spitz (%.0f)", size, b, s)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := smallConfig()
	cfg.Ops = 400
	res := bestOf(t, one(func() (Result, error) { return Fig7(cfg) }))[0]
	spitzV, _ := res.Get("Spitz-verify")
	baseV, _ := res.Get("Baseline-verify")
	for _, size := range []int{4000, 16000} {
		sv, _ := spitzV.At(size)
		bv, _ := baseV.At(size)
		if sv <= bv {
			t.Errorf("size %d: verified range Spitz (%.0f q/s) not above baseline (%.0f q/s)", size, sv, bv)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	cfg := Config{Sizes: []int{8000}, Ops: 4000, Batch: 500, Seed: 9}
	both := bestOf(t, func() ([]Result, error) {
		readRes, writeRes, err := Fig8(cfg)
		return []Result{readRes, writeRes}, err
	})
	readRes, writeRes := both[0], both[1]
	sv, _ := readRes.Get("Spitz-verify")
	nv, _ := readRes.Get("Non-intrusive-verify")
	s, _ := sv.At(8000)
	n, _ := nv.At(8000)
	if s <= n {
		t.Errorf("verified reads: Spitz (%.0f) not above non-intrusive (%.0f)", s, n)
	}
	sw, _ := writeRes.Get("Spitz")
	nw, _ := writeRes.Get("Non-intrusive")
	s, _ = sw.At(8000)
	n, _ = nw.At(8000)
	if s <= n*1.1 {
		t.Errorf("writes: Spitz (%.0f) not above non-intrusive (%.0f)", s, n)
	}
}

func TestAblationSIRI(t *testing.T) {
	res, err := AblationSIRI(5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 4 {
			t.Fatalf("%s has %d metrics", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("%s metric %d is zero", s.Name, p.X)
			}
		}
	}
}

func TestAblationDeferred(t *testing.T) {
	res, err := AblationDeferred(5000, []int{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series[0]
	online, _ := s.At(1)
	deferred, _ := s.At(100)
	if online <= 0 || deferred <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestAblationTimestamps(t *testing.T) {
	res, err := AblationTimestamps([]int{1, 4}, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatal("missing series")
	}
}

func TestAblationCC(t *testing.T) {
	res, err := AblationCC(1000, []float64{1.01, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	occ, _ := res.Get("MVCC-OCC")
	lo, _ := occ.At(101)
	hi, _ := occ.At(200)
	if hi < lo {
		t.Errorf("OCC aborts did not grow with contention: %.1f -> %.1f", lo, hi)
	}
	batched, _ := res.Get("Batched OCC (reordering)")
	bhi, _ := batched.At(200)
	if bhi > hi {
		t.Errorf("batched OCC (%.1f) aborts more than plain OCC (%.1f) under contention", bhi, hi)
	}
}

func TestResultPrinting(t *testing.T) {
	res := Result{Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "a", Points: []Point{{X: 1, Y: 1500}, {X: 2, Y: 12.3}}},
			{Name: "b", Points: []Point{{X: 1, Y: 0.5}}}}}
	var buf sink
	res.Print(&buf)
	if buf.n == 0 {
		t.Fatal("nothing printed")
	}
	if _, ok := res.Get("missing"); ok {
		t.Fatal("Get found a missing series")
	}
	s, _ := res.Get("a")
	if _, ok := s.At(99); ok {
		t.Fatal("At found a missing point")
	}
}

type sink struct{ n int }

func (s *sink) Write(p []byte) (int, error) { s.n += len(p); return len(p), nil }
