package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// runConfig is one invocation's shape.
type runConfig struct {
	sp      *spec
	seed    uint64
	seconds int
	clients int
	trace   bool
	outDir  string
	// smokeOps, when non-zero, ends the window after that many ops per
	// client, shortens the traced pass to match and sets up once (tests).
	smokeOps int
}

// result is everything one run reports; it is written whole to the result
// file that `compare` reads, and its driver-facing part is the last line
// of standard output.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Env       envRecord         `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Error     string            `json:"error,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
	// SetupRuns are the individual set-up times behind setup_s, SliceOps
	// the per-slice throughputs behind ops_per_s: what to look at first
	// when two runs disagree.
	SetupRuns []float64 `json:"setup_runs_s,omitempty"`
	SliceOps  []float64 `json:"slice_ops_per_s,omitempty"`
}

// maxFailedOpRatio is how many non-fatal failures (errors, refusals, 2PC or
// OCC aborts) a run tolerates; an oracle mismatch or ErrTampered is fatal at
// the first occurrence.
const maxFailedOpRatio = 0.0005

// setupsPerRun is how many times an untraced run sets the topology up;
// setup_s is the median.
const setupsPerRun = 3

// runWorkload executes one run: set-up, timed window, (traced pass,) and
// the end-of-run checks that make the numbers trustworthy.
func runWorkload(cfg runConfig) (*result, error) {
	e, err := newEnv()
	if err != nil {
		return nil, err
	}
	defer e.cleanup()
	res := &result{Workload: cfg.sp.Name, Trace: cfg.trace,
		Env: e.record(cfg.seed, cfg.seconds, slices, cfg.clients)}

	setups := setupsPerRun
	if cfg.trace || cfg.smokeOps > 0 {
		setups = 1
	}
	var s *session
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("discard set-up %d: %w", i, err)
			}
			debug.FreeOSMemory() // the discarded topology must not count against the next one
		}
		t0 := time.Now()
		if s, err = setup(cfg.sp, e, cfg.seed, cfg.clients); err != nil {
			return nil, err
		}
		res.SetupRuns = append(res.SetupRuns, time.Since(t0).Seconds())
	}
	defer func() { s.close() }()

	e2e, layers := newMetricSet(endToEnd), newMetricSet(perLayer)
	e2e.set("setup_s", median(res.SetupRuns), len(res.SetupRuns))
	layers.set("env.fsync_us", res.Env.FsyncUS, 15)

	// Open the window on a settled heap: set-up garbage is collected and
	// returned to the OS now, not at a random point of the first slices, so
	// rss_loaded_mb reads the loaded topology rather than preload leftovers.
	debug.FreeOSMemory()
	dataBefore := dirBytes(s.t.dir)
	regBefore := readRegistry()
	replicaBefore := s.t.replicaConn.writes.Load()
	w := s.runWindow(time.Duration(cfg.seconds)*time.Second, cfg.trace, cfg.smokeOps)
	regAfter := readRegistry()
	res.Attempted, res.Failed = w.attempted, w.failed
	if w.fatal != nil {
		return finish(res, e2e, layers, cfg, w.fatal)
	}
	// The workloads are chosen so that no op fails; errors, refusals and
	// aborts above the ISSUE's failed_op_ratio bound make the run incorrect
	// rather than a number to compare.
	if r := float64(w.failed) / float64(max(w.attempted, 1)); r > maxFailedOpRatio {
		return finish(res, e2e, layers, cfg, fmt.Errorf("%d of %d ops failed: ratio %.5f is above %.4f", w.failed, w.attempted, r, maxFailedOpRatio))
	}
	w.endToEndMetrics(cfg.sp, e2e)
	res.SliceOps = w.sliceOps
	w.clientMetrics(layers)
	exportedMetrics(layers, regBefore, regAfter, w, s, s.t.replicaConn.writes.Load()-replicaBefore)
	w.pollMetrics(s, layers)
	if s.t.dir != "" && s.t.replica == nil && w.userBytes > 0 {
		layers.set("durable.disk_bytes_per_user_byte", float64(dirBytes(s.t.dir)-dataBefore)/float64(w.userBytes), int(w.userBytes))
	}

	if cfg.trace {
		if err := tracedRun(cfg, s, e, w, layers); err != nil {
			return finish(res, e2e, layers, cfg, err)
		}
	}

	// A run only counts if verification really happened.
	if err := s.verifyReads(w.reads); err != nil {
		return finish(res, e2e, layers, cfg, err)
	}
	if err := tamperProbe(); err != nil {
		return finish(res, e2e, layers, cfg, err)
	}
	if s.t.dir != "" && s.t.replica == nil {
		if err := s.reopenCheck(layers); err != nil {
			return finish(res, e2e, layers, cfg, err)
		}
	}
	return finish(res, e2e, layers, cfg, nil)
}

// finish seals a result: a run with any oracle, verification, tamper-probe
// or durability failure is reported as incorrect.
func finish(res *result, e2e, layers *metricSet, cfg runConfig, failure error) (*result, error) {
	res.Correct = failure == nil
	if failure != nil {
		res.Error = failure.Error()
		if res.Failed == 0 {
			res.Failed = 1
		}
	}
	res.Metrics = e2e.all()
	if cfg.trace {
		res.Metrics = layers.all()
	}
	return res, nil
}

// tracedRun is the traced pass and everything computed from its trace
// file: the ladder (T) metrics, the exact counts (C) and the budget tables.
func tracedRun(cfg runConfig, s *session, e *env, w *windowResult, ms *metricSet) error {
	l, err := newLadders(s, e, cfg.seed)
	if err != nil {
		return fmt.Errorf("build ladders: %w", err)
	}
	defer l.close()
	n := cfg.sp.tracedOps
	if cfg.smokeOps > 0 {
		n = cfg.smokeOps
	}
	if err := l.tracedPass(n, cfg.seed); err != nil {
		return err
	}
	rounds := 20
	if cfg.smokeOps > 0 {
		rounds = 2
	}
	if err := l.auditLadder(rounds); err != nil {
		return fmt.Errorf("audit ladder: %w", err)
	}
	if err := l.casLadder(10 * rounds); err != nil {
		return fmt.Errorf("cas ladder: %w", err)
	}
	if err := l.invertedLadder(50 * rounds); err != nil {
		return fmt.Errorf("inverted ladder: %w", err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, cfg.sp.Name+".trace.jsonl")
	if err := writeTrace(path, l.tr.spans); err != nil {
		return err
	}
	// From here on only the file is used: the per-layer numbers are
	// reproducible from the artefact the run leaves behind.
	spans, err := readTrace(path)
	if err != nil {
		return err
	}
	times := selfTimes(spans)
	traceMetrics(spans, times, cfg.sp, w, l.plain, ms)
	for _, kind := range opTypes(spans) {
		if kind != "loop" {
			printBudget(kind, budget(spans, times, kind))
		}
	}
	return l.countMetrics(ms)
}

// traceMetrics maps ladder spans to the T metrics.
func traceMetrics(spans []span, times map[string]map[string]*layerTimes, sp *spec, w *windowResult, plain []float64, ms *metricSet) {
	dur := func(kind, name string) ([]float64, bool) {
		if lt := times[kind][name]; lt != nil {
			return lt.Dur, true
		}
		return nil, false
	}
	setDur := func(metric, kind, name string, scale float64) {
		if v, ok := dur(kind, name); ok {
			ms.set(metric, median(v)*scale, len(v))
		}
	}
	setSelf := func(metric, kind, name string) {
		if lt := times[kind][name]; lt != nil {
			ms.set(metric, lt.Self, len(lt.Dur))
		}
	}
	main := kindNames[sp.headline]
	setDur("client.verify_us", "get", "client.verify", 1)
	setSelf("client.self_us", "get", "client.GetVerified")
	setDur("wire.codec_us", main, "wire.codec", 1)
	setDur("wire.rtt_floor_us", main, "wire.rtt_floor", 1)
	setSelf("wire.transport_self_us", main, "wire.Client.Do")
	setSelf("server.dispatch_self_us", main, "server.dispatch")
	setSelf("core.getverified_self_us", "get", "core.GetVerified")
	setSelf("core.get_self_us", "getraw", "core.Get")
	setSelf("core.apply_self_us", "apply", "core.Apply")
	setSelf("twopc.overhead_us", "apply2pc", "cluster.Apply(2pc)")
	setDur("ledger.prove_get_us", "get", "ledger.ProveGetHead", 1)
	setSelf("ledger.prove_self_us", "get", "ledger.ProveGetHead")
	setDur("ledger.proof_codec_us", "get", "ledger.proof_codec", 1)
	setDur("ledger.prove_batch_us", "audit", "ledger.ProveBatch", 1)
	setDur("client.audit_flush_us", "audit", "client.Auditor.Flush", 1)
	setDur("postree.prove_get_us", "get", "postree.ProveGet", 1)
	setDur("postree.verify_us", "get", "postree.verify", 1)
	setDur("postree.get_us", "getraw", "postree.Get", 1)
	if _, ok := dur("getraw", "postree.Get"); !ok {
		setDur("postree.get_us", "get", "postree.Get", 1) // the deferred read path ends in the bare get
	}
	if cells := sp.updates + b2i(sp.insert); cells > 0 {
		setDur("postree.apply_us_per_cell", "apply", "cellstore.Apply", 1/float64(cells))
	}
	setDur("postree.prove_scan_us", "range", "cellstore.ProveRangePK", 1)
	setDur("cas.get_hit_us", "cas", "cas.Get(hit)", 1)
	setDur("cas.get_miss_us", "cas", "cas.Get(miss)", 1)
	setDur("cas.flush_us", "cas", "cas.Flush", 1)
	setDur("wal.append_us", "apply", "wal.Append", 1)
	setDur("durable.checkpoint_s", "checkpoint", "durable.Checkpoint", 1e-6)
	setDur("query.parse_plan_us", "query", "query.parse_plan", 1)
	setDur("query.exec_us", "queryeager", "query.ExecVerifiedSelect", 1)
	setDur("query.result_from_proof_us", "queryeager", "query.ResultFromProof", 1)
	if inv, ok := dur("inverted", "core.Apply(inverted)"); ok {
		if pl, ok := dur("inverted", "core.Apply(plain)"); ok {
			ms.set("inverted.apply_overhead_ratio", ratio(median(inv), median(pl)), len(inv))
		}
	}
	if traced, ok := dur("loop", "client."+main); ok && len(plain) > 0 {
		ms.set("harness.trace_overhead_ratio", ratio(median(traced), median(plain)), len(traced))
	}
	// How much of the headline op's two-client window latency the one-client
	// ladder contains. Self times are differences of medians down the
	// ladder, so they add up to the root span's median: the gap is what the
	// second client adds, not a layer the ladder missed.
	if rows := budget(spans, times, main); len(rows) > 0 {
		p50 := sliceMedian(w.perSlice(func(r opRec) bool { return r.kind == sp.headline }), pct(0.50))
		if one := rows[0].DurUS; p50 > 0 && one > 0 {
			ms.set("harness.budget_gap_ratio", (p50-one)/p50, rows[0].N)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// report prints every metric by name with its unit and sample count, then
// the driver-facing JSON object as the last line.
func (r *result) report(defs []metricDef) {
	fmt.Printf("\n%s  seed=%d clients=%d window=%ds trace=%v  %s %s nproc=%d fs=%s fsync=%.0fus cpu_ref=%.0fus\n", r.Workload, r.Env.Seed,
		r.Env.Clients, r.Env.WindowS, r.Trace, r.Env.Commit, r.Env.GoVersion, r.Env.NumCPU, r.Env.DataFS, r.Env.FsyncUS, r.Env.CPURefUS)
	for _, d := range defs {
		s := r.Metrics[d.Name]
		src := ""
		if d.Source != "" {
			src = " [" + d.Source + "]"
		}
		fmt.Printf("  %-40s %14.4f %-6s n=%d%s\n", d.Name, s.Value, s.Unit, s.N, src)
	}
	if r.Error != "" {
		fmt.Printf("  FAILED: %s\n", r.Error)
	}
	type wireSample struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]wireSample `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, make(map[string]wireSample, len(r.Metrics))}
	for k, v := range r.Metrics {
		line.Metrics[k] = wireSample{v.Value, v.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
}

// save writes the full result for `compare`.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s.seed%d.trace%d.json", r.Workload, r.Env.Seed, b2i(r.Trace))
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
