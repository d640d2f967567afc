package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestPercentileAndSliceMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.99, 10}, {0.1, 1}, {0.11, 2}, {1, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// One slice holds an outlier (a GC pause); the median of the per-slice
	// p50s ignores it, and empty slices are skipped.
	slices := [][]float64{{10, 11, 12}, {9, 10, 11}, {500, 600, 700}, {}, {11, 12, 13}, {10, 10, 10}}
	if got := sliceMedian(slices, pct(0.5)); got != 11 {
		t.Errorf("sliceMedian = %v, want 11", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
	if got := spread([]float64{1, 2, 4}); got != 1.5 {
		t.Errorf("spread = %v, want 1.5", got)
	}
}

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	// Three ladders of one op type. In each, root has sequential children a
	// and b; in the first, a has two parallel legs sharing a name (5 and
	// 8), which cover only 8. Self time is a difference of medians over
	// the three, not a per-ladder subtraction: root 100/200/300 -> 200,
	// a 30/10/20 -> 20, b 20/20/80 -> 20.
	var spans []span
	id := uint64(0)
	add := func(parent uint64, op, name string, us int64) uint64 {
		id++
		spans = append(spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(id) * 1e6, End: int64(id)*1e6 + us*1000})
		return id
	}
	for i, d := range [][3]int64{{100, 30, 20}, {200, 10, 20}, {300, 20, 80}} {
		op := "get/" + string(rune('0'+i))
		root := add(0, op, "root", d[0])
		a := add(root, op, "a", d[1])
		add(root, op, "b", d[2])
		if i == 0 {
			add(a, op, "leg[shard]", 5)
			add(a, op, "leg[shard]", 8)
		}
	}
	add(0, "apply/9", "root", 7)
	times := selfTimes(spans)
	for name, self := range map[string]float64{"root": 160, "a": 12, "b": 20, "leg[shard]": 6.5} {
		if got := times["get"][name].Self; got != self {
			t.Errorf("self(%s) = %v, want %v", name, got, self)
		}
	}
	if got := times["get"]["leg[shard]"].Dur; len(got) != 2 || got[0] != 5 || got[1] != 8 {
		t.Errorf("leaf durations = %v, want [5 8]", got)
	}
	if got := times["apply"]["root"]; len(got.Dur) != 1 || got.Dur[0] != 7 || got.Self != 7 {
		t.Errorf("apply root = %+v, want one span of 7 with self 7", got)
	}
	rows := budget(spans, times, "get")
	if len(rows) != 4 || rows[0].Name != "root" || rows[1].Name != "a" || rows[0].N != 3 || rows[0].DurUS != 200 {
		t.Errorf("budget = %+v", rows)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := newTracer()
	id, err := tr.timed(0, "get/0", "root", func() error { return nil })
	if err != nil || id != 1 {
		t.Fatalf("timed = %d, %v", id, err)
	}
	tr.add(id, "get/0", "child", tr.t0, tr.t0)
	path := t.TempDir() + "/x.trace.jsonl"
	if err := writeTrace(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(path)
	if err != nil || len(got) != 2 || got[1].Parent != 1 || got[1].Name != "child" {
		t.Fatalf("readTrace = %+v, %v", got, err)
	}
}

// opStreamHash runs a workload's generators without any server and hashes
// what they produce.
func opStreamHash(sp *spec, seed uint64) [32]byte {
	m := newModel(sp.rows, spareRows, sp.valSize, sp.numeric)
	h := sha256.New()
	for client := 0; client < 2; client++ {
		g := newGenerator(sp, m, seed, client, 2, func(pk []byte) int { return int(pk[15]) % shards })
		for i := 0; i < 2000; i++ {
			o := g.next()
			var b [8]byte
			h.Write([]byte{byte(o.kind), byte(o.nrows), byte(o.query)})
			for j := 0; j < o.nrows; j++ {
				binary.BigEndian.PutUint32(b[:], uint32(o.rows[j]))
				binary.BigEndian.PutUint32(b[4:], o.seqs[j])
				h.Write(b[:])
			}
			h.Write([]byte(o.stmt))
			if o.kind.isWrite() {
				for _, p := range g.puts(&o) {
					h.Write(p.Value)
				}
			}
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, sp := range workloads {
		a, b, c := opStreamHash(sp, 7), opStreamHash(sp, 7), opStreamHash(sp, 8)
		if a != b {
			t.Errorf("%s: same seed gave different op streams", sp.Name)
		}
		if a == c {
			t.Errorf("%s: different seeds gave the same op stream", sp.Name)
		}
	}
}

func TestGeneratorMixAndOwnership(t *testing.T) {
	sp := findWorkload("sharded-mixed")
	m := newModel(sp.rows, spareRows, sp.valSize, false)
	g := newGenerator(sp, m, 1, 1, 2, func(pk []byte) int { return int(pk[15]) % shards })
	var n [nKinds]int
	for i := 0; i < 20000; i++ {
		o := g.next()
		n[o.kind]++
		if o.kind.isWrite() {
			for j := 0; j < o.nrows; j++ {
				if o.rows[j]%2 != 1 {
					t.Fatalf("client 1 wrote row %d, which client 0 owns", o.rows[j])
				}
			}
		}
		if o.kind == opApply2PC && int(pkOf(o.rows[0])[15])%shards == int(pkOf(o.rows[1])[15])%shards {
			t.Fatalf("2PC op on one shard: rows %v", o.rows[:2])
		}
	}
	for k, w := range sp.mix {
		if got := float64(n[k]) / 200; math.Abs(got-float64(w)) > 2 {
			t.Errorf("%s share = %.1f%%, want %d%%", kindNames[k], got, w)
		}
	}
}

func TestModelOracle(t *testing.T) {
	for _, numeric := range []bool{false, true} {
		m := newModel(10, 0, 100, numeric)
		seq := m.nextWrite(4)
		v := m.value(4, seq)
		if got, ok := m.seqOf(4, v); !ok || got != seq {
			t.Errorf("numeric=%v: seqOf = %d, %v", numeric, got, ok)
		}
		if !m.check(4, v, 0) {
			t.Errorf("numeric=%v: in-flight value rejected", numeric)
		}
		if m.check(5, v, 0) {
			t.Errorf("numeric=%v: another row's value accepted", numeric)
		}
		m.ack(4, seq)
		if m.check(4, m.value(4, 0), m.acked[4].Load()) {
			t.Errorf("numeric=%v: value older than the acknowledged one accepted", numeric)
		}
		if m.check(4, m.value(4, seq+1), 0) {
			t.Errorf("numeric=%v: value never issued accepted", numeric)
		}
		if !numeric {
			v[50] ^= 1
			if m.check(4, v, 0) {
				t.Error("corrupted value accepted")
			}
		}
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	z, r := newZipf(1000, 0.99), newRNG(1)
	hot := 0
	for i := 0; i < 10000; i++ {
		k := z.rank(r.float())
		if k < 0 || k >= 1000 {
			t.Fatalf("rank %d out of range", k)
		}
		if k < 10 {
			hot++
		}
	}
	if hot < 3000 { // the 1% hottest ranks draw ~39% of a Zipf(0.99) over 1000
		t.Errorf("top-10 ranks drew %d of 10000", hot)
	}
}

func TestCompareVerdict(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "tput", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99}
	for _, c := range []struct {
		d    metricDef
		b    []float64
		want string
	}{
		{lower, []float64{100, 102, 98}, "same"},
		{lower, []float64{120, 121, 119}, "worse"},
		{lower, []float64{80, 81, 79}, "better"},
		{higher, []float64{80, 81, 79}, "worse"},
		{higher, []float64{120, 121, 119}, "better"},
		{lower, []float64{60, 100, 140}, "unresolved"},
		{metricDef{Name: "layer", Better: "lower"}, []float64{200, 200, 200}, "-"},
	} {
		if _, got := verdict(c.d, base, c.b); got != c.want {
			t.Errorf("%s %v vs %v: %s, want %s", c.d.Better, base, c.b, got, c.want)
		}
	}
}

// update rewrites ../BENCHMARK.json from the harness's tables:
// `go test -run TestManifestMatchesHarness -update`.
var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestMatchesHarness(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is malformed", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200 (%d)", w.Name, len(w.Why))
		}
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", []byte(manifestJSON()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var have, want any
	if err := json.Unmarshal(data, &have); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(manifestJSON()), &want); err != nil {
		t.Fatal(err)
	}
	hb, _ := json.Marshal(have)
	wb, _ := json.Marshal(want)
	if string(hb) != string(wb) {
		t.Errorf("BENCHMARK.json is out of step with the harness; regenerate it with `go test -run TestManifestMatchesHarness -update`")
	}
}

// TestSmoke drives every workload for 500 ops (250 per client) on a
// shrunken data set with the oracle, the verification checks, the tamper
// probe, the reopen check and the traced pass all on, so no workload and
// no ladder can rot. Nothing here depends on wall-clock time.
func TestSmoke(t *testing.T) {
	for _, sp := range workloads {
		for _, trace := range []bool{false, true} {
			small := *sp
			small.rows, small.warmOps = 6000, 20
			res, err := runWorkload(runConfig{sp: &small, seed: 5, seconds: 3600, clients: 2, trace: trace,
				outDir: t.TempDir(), smokeOps: 250})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 500 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %s", sp.Name, trace, res.Correct, res.Attempted, res.Failed, res.Error)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d defined", sp.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if s, ok := res.Metrics[d.Name]; !ok || s.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", sp.Name, trace, d.Name, s.Unit)
				}
			}
		}
	}
}

// TestTracedCountsRepeat checks the claim the exact-count metrics rest on:
// two traced passes with one seed give identical counts.
func TestTracedCountsRepeat(t *testing.T) {
	sp := *findWorkload("point-read-mem")
	sp.rows, sp.warmOps = 6000, 20
	var runs [2]map[string]sample
	for i := range runs {
		res, err := runWorkload(runConfig{sp: &sp, seed: 9, seconds: 3600, clients: 2, trace: true, outDir: t.TempDir(), smokeOps: 200})
		if err != nil || !res.Correct {
			t.Fatalf("run %d: %v %+v", i, err, res)
		}
		runs[i] = res.Metrics
	}
	for _, d := range perLayer {
		if d.Source == "C" && runs[0][d.Name].Value != runs[1][d.Name].Value {
			t.Errorf("%s: %v then %v", d.Name, runs[0][d.Name].Value, runs[1][d.Name].Value)
		}
	}
}
