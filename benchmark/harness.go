package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spitz"
	"spitz/internal/core"
	"spitz/internal/obs"
	"spitz/internal/wire"
)

// slices is how many equal parts the timed window is cut into; every
// timing metric is the median of the per-slice values.
const slices = 10

// session is one set-up topology with its connected clients and their op
// generators.
type session struct {
	t       *topology
	clients []benchClient
	gens    []*generator
}

// setup opens the workload's topology, preloads it, connects the clients
// and warms up: everything a run pays before the first timed op.
func setup(sp *spec, e *env, seed uint64, clients int) (*session, error) {
	t, err := sp.open(sp, e)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", sp.Name, err)
	}
	s := &session{t: t}
	var shardOf func([]byte) int
	if t.cluster != nil {
		shardOf = t.cluster.ShardFor
	}
	for i := 0; i < clients; i++ {
		c, err := t.newClient()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("connect client %d: %w", i, err)
		}
		s.clients = append(s.clients, c)
		g := newGenerator(sp, t.model, seed, i, clients, shardOf)
		g.stale = t.replica != nil
		s.gens = append(s.gens, g)
	}
	// Warm-up is a fixed number of ops, not a fixed time, so a slower
	// system shows a longer set-up.
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := range s.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < sp.warmOps && errs[i] == nil; n++ {
				o := s.gens[i].next()
				errs[i] = s.gens[i].exec(s.clients[i], &o)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// close disconnects the clients, stops the topology and deletes its data.
func (s *session) close() error {
	var first error
	for _, c := range s.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.clients = nil
	if err := s.t.close(); err != nil && first == nil {
		first = err
	}
	if s.t.dir != "" {
		os.RemoveAll(s.t.dir)
	}
	return first
}

// opRec is one completed op of the window.
type opRec struct {
	end  int64 // ns since window start
	lat  int64 // ns
	kind opKind
	fail bool
}

// boundary is what the sampler reads at each slice boundary.
type boundary struct {
	cpu   float64 // process CPU seconds
	bytes int64   // client connection bytes, both directions
	rss   float64 // MiB
}

// pollSample is one 5 ms observation of background state (trace runs).
type pollSample struct {
	at         int64 // ns since window start
	height     uint64
	manifest   uint64 // durable-write-disk: height the MANIFEST names
	replicaLag uint64
	pending    int
}

type windowResult struct {
	dur       time.Duration
	recs      [][]opRec
	bounds    []boundary
	polls     []pollSample
	attempted int64
	failed    int64
	userBytes int64     // pk+value bytes of acknowledged writes
	fatal     error     // first oracle mismatch or ErrTampered
	reads     int64     // GetVerified + multi-row reads issued
	sliceOps  []float64 // ops/s of each slice, for the result file
}

// runWindow drives the closed loop for dur: one goroutine per client, each
// issuing its next op only after the previous one returned. A non-zero
// maxOps ends each client after that many ops instead (the tests' smoke
// runs, which must not depend on wall-clock time).
func (s *session) runWindow(dur time.Duration, poll bool, maxOps int) *windowResult {
	w := &windowResult{dur: dur, recs: make([][]opRec, len(s.clients))}
	var fatal atomic.Pointer[error]
	var attempted, failed, userBytes, reads atomic.Int64
	start := time.Now()
	stop := make(chan struct{})
	var bg sync.WaitGroup

	bg.Add(1)
	go func() { // slice-boundary sampler
		defer bg.Done()
		for i := 0; i <= slices; i++ {
			t := time.NewTimer(time.Until(start.Add(dur * time.Duration(i) / slices)))
			select {
			case <-t.C:
			case <-stop: // the clients finished early: read the rest now
				t.Stop()
			}
			w.bounds = append(w.bounds, boundary{cpu: cpuSeconds(),
				bytes: s.t.all.rx.Load() + s.t.all.tx.Load(), rss: rssMiB()})
		}
	}()
	if poll {
		bg.Add(1)
		go func() {
			defer bg.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					w.polls = append(w.polls, s.poll(time.Since(start)))
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, c := s.gens[i], s.clients[i]
			recs := make([]opRec, 0, 1<<16)
			for n := 0; fatal.Load() == nil && (maxOps == 0 || n < maxOps); n++ {
				if time.Since(start) >= dur {
					break
				}
				o := g.next()
				t0 := time.Now()
				err := g.exec(c, &o)
				t1 := time.Now()
				attempted.Add(1)
				if !o.kind.isWrite() {
					reads.Add(1)
				}
				if err != nil {
					failed.Add(1)
					if errors.Is(err, errMismatch) || errors.Is(err, spitz.ErrTampered) {
						fatal.CompareAndSwap(nil, &err)
					}
				} else if o.kind.isWrite() {
					userBytes.Add(int64(o.bytes))
				}
				recs = append(recs, opRec{end: t1.Sub(start).Nanoseconds(), lat: t1.Sub(t0).Nanoseconds(),
					kind: o.kind, fail: err != nil})
			}
			w.recs[i] = recs
		}(i)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	w.attempted, w.failed, w.userBytes, w.reads = attempted.Load(), failed.Load(), userBytes.Load(), reads.Load()
	if p := fatal.Load(); p != nil {
		w.fatal = *p
	}
	return w
}

// poll reads background state from outside the program: ledger heights,
// the MANIFEST the checkpointer last wrote, and audit backlog.
func (s *session) poll(at time.Duration) pollSample {
	p := pollSample{at: at.Nanoseconds()}
	t := s.t
	if t.db != nil {
		p.height = t.db.Height()
	}
	if t.dir != "" && t.replica == nil {
		p.manifest = manifestHeight(t.dir)
	}
	if t.replica != nil {
		if rh := t.replica.Height(0); rh < p.height {
			p.replicaLag = p.height - rh
		}
		for _, c := range s.clients {
			if rc, ok := c.(replicatedClient); ok {
				p.pending += rc.aud.Pending()
			}
		}
	}
	return p
}

// manifestHeight parses the block height a data directory's MANIFEST
// names (0 when there is none yet).
func manifestHeight(dir string) uint64 {
	data, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "height "); ok {
			h, _ := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			return h
		}
	}
	return 0
}

// perSlice buckets the latencies (µs) of the window's completed ops that
// match keep into the slice their completion falls in.
func (w *windowResult) perSlice(keep func(opRec) bool) [][]float64 {
	out := make([][]float64, slices)
	for _, recs := range w.recs {
		for _, r := range recs {
			if r.fail || r.end >= w.dur.Nanoseconds() || !keep(r) {
				continue
			}
			i := int(r.end * slices / w.dur.Nanoseconds())
			out[i] = append(out[i], float64(r.lat)/1e3)
		}
	}
	return out
}

func pool(sl [][]float64) []float64 {
	var all []float64
	for _, s := range sl {
		all = append(all, s...)
	}
	sort.Float64s(all)
	return all
}

func count(sl [][]float64) int {
	n := 0
	for _, s := range sl {
		n += len(s)
	}
	return n
}

func pct(p float64) func([]float64) float64 {
	return func(sorted []float64) float64 { return percentile(sorted, p) }
}

// endToEndMetrics fills the user-visible metrics from the window.
func (w *windowResult) endToEndMetrics(sp *spec, ms *metricSet) {
	all := w.perSlice(func(opRec) bool { return true })
	sliceS := w.dur.Seconds() / slices
	var ops, cpu, bytes []float64
	for i := 0; i < slices && i+1 < len(w.bounds); i++ {
		n := float64(len(all[i]))
		ops = append(ops, n/sliceS)
		if n > 0 {
			cpu = append(cpu, (w.bounds[i+1].cpu-w.bounds[i].cpu)*1e6/n)
			bytes = append(bytes, float64(w.bounds[i+1].bytes-w.bounds[i].bytes)/n)
		}
	}
	w.sliceOps = ops
	n := count(all)
	ms.set("ops_per_s", median(ops), n)
	main := w.perSlice(func(r opRec) bool { return r.kind == sp.headline })
	ms.set("main_op_p50_us", sliceMedian(main, pct(0.50)), count(main))
	second := w.perSlice(func(r opRec) bool { return r.kind == sp.second })
	ms.set("second_op_p50_us", sliceMedian(second, pct(0.50)), count(second))
	ms.set("all_ops_p95_us", sliceMedian(all, pct(0.95)), n)
	ms.set("cpu_us_per_op", median(cpu), n)
	ms.set("wire_bytes_per_op", median(bytes), n)
	if len(w.bounds) > 0 {
		ms.set("rss_loaded_mb", w.bounds[0].rss, 1)
	}
}

// clientMetrics fills the per-op-type splits (client.*) from the window.
func (w *windowResult) clientMetrics(ms *metricSet) {
	group := func(prefix string, keep func(opKind) bool, tail bool) {
		sl := w.perSlice(func(r opRec) bool { return keep(r.kind) })
		n := count(sl)
		if n == 0 {
			return
		}
		ms.set(prefix+"_p50_us", sliceMedian(sl, pct(0.50)), n)
		ms.set(prefix+"_p99_us", sliceMedian(sl, pct(0.99)), n)
		if tail {
			ms.set(prefix+"_p999_us", percentile(pool(sl), 0.999), n)
		}
	}
	if all := pool(w.perSlice(func(opRec) bool { return true })); len(all) > 0 {
		ms.set("client.all_p99_us", percentile(all, 0.99), len(all))
	}
	group("client.read", opKind.isRead, true)
	group("client.write", opKind.isWrite, true)
	group("client.query", opKind.isMulti, false)
	for k := opKind(0); k < nKinds; k++ {
		sl := w.perSlice(func(r opRec) bool { return r.kind == k })
		if n := count(sl); n > 0 {
			ms.set("client."+kindNames[k]+"_us", sliceMedian(sl, pct(0.50)), n)
		}
	}
	if w.attempted > 0 {
		ms.set("client.failed_op_ratio", float64(w.failed)/float64(w.attempted), int(w.attempted))
	}
}

// registry is a flattened snapshot of the program's metrics registry.
type registry map[string]float64

func readRegistry() registry {
	r := registry{}
	for _, m := range obs.Default.Flat() {
		r[m.Name] = m.Value
	}
	return r
}

// delta returns how much a series grew between two snapshots; prefix
// matching sums a labelled family.
func (after registry) delta(before registry, name string) float64 {
	if strings.HasSuffix(name, "*") {
		var d float64
		for k, v := range after {
			if strings.HasPrefix(k, name[:len(name)-1]) {
				d += v - before[k]
			}
		}
		return d
	}
	return after[name] - before[name]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// exportedMetrics fills the S metrics: deltas over the window of numbers
// the program itself exports.
func exportedMetrics(ms *metricSet, before, after registry, w *windowResult, s *session, replicaWrites int64) {
	d := func(name string) float64 { return after.delta(before, name) }
	histMean := func(base string) (float64, int) {
		n := d(base + "_count")
		return ratio(d(base+"_sum"), n) / 1e3, int(n)
	}
	ops := float64(w.attempted - w.failed)
	secs := w.dur.Seconds()

	if w.reads > 0 {
		ms.set("client.digest_syncs_per_kop", d(`spitz_wire_ops_total{op="consistency"}`)*1000/float64(w.reads), int(w.reads))
	}
	if b := d("spitz_audit_batches_total"); b > 0 {
		ms.set("client.audit_batch_reads", d("spitz_audit_audited_total")/b, int(b))
	}
	ms.set("wire.frames_per_op", ratio(d("spitz_wire_frames_written_total"), ops), int(ops))
	if blocks := d("spitz_commit_blocks_total"); blocks > 0 {
		ms.set("core.batch_txns_mean", d("spitz_commit_txns_total")/blocks, int(blocks))
		ms.set("core.blocks_per_kop", blocks*1000/ops, int(blocks))
		v, n := histMean("spitz_commit_queue_wait_ns")
		ms.set("core.queue_wait_us", v, n)
		v, n = histMean("spitz_commit_ledger_ns")
		ms.set("ledger.commit_us", v, n)
	}
	if c := d("spitz_twopc_commits_total"); c > 0 {
		aborts := d("spitz_twopc_aborts_total*")
		ms.set("twopc.prepares_per_commit", d("spitz_twopc_prepares_total")/c, int(c))
		ms.set("twopc.abort_ratio", aborts/(c+aborts), int(c+aborts))
	}
	if s.t.db != nil {
		tx := s.t.db.Stats().Txns
		ms.set("txn.abort_ratio", ratio(float64(tx.Aborts), float64(tx.Commits+tx.Aborts)), int(tx.Commits+tx.Aborts))
	}
	if lookups := d("spitz_proofcache_hits_total") + d("spitz_proofcache_misses_total"); lookups > 0 {
		ms.set("ledger.proofcache_hit_ratio", d("spitz_proofcache_hits_total")/lookups, int(lookups))
	}
	ms.set("ledger.proofcache_invalidations_per_s", d("spitz_proofcache_invalidations_total")/secs, int(d("spitz_proofcache_invalidations_total")))
	if lookups := d("spitz_nodecache_hits_total") + d("spitz_nodecache_misses_total"); lookups > 0 {
		ms.set("postree.nodecache_hit_ratio", d("spitz_nodecache_hits_total")/lookups, int(lookups))
	}
	if lookups := d("spitz_nodestore_cache_hits_total") + d("spitz_nodestore_cache_misses_total"); lookups > 0 {
		ms.set("cas.cache_hit_ratio", d("spitz_nodestore_cache_hits_total")/lookups, int(lookups))
		ms.set("cas.evictions_per_kop", d("spitz_nodestore_cache_evictions_total")*1000/ops, int(d("spitz_nodestore_cache_evictions_total")))
	}
	if w.userBytes > 0 {
		if b := d("spitz_nodestore_written_bytes_total*"); b > 0 {
			ms.set("cas.flushed_bytes_per_user_byte", b/float64(w.userBytes), int(w.userBytes))
		}
		if b := d("spitz_wal_append_bytes_total"); b > 0 {
			ms.set("wal.bytes_per_user_byte", b/float64(w.userBytes), int(w.userBytes))
		}
	}
	if appends := d("spitz_wal_appends_total"); appends > 0 {
		ms.set("wal.fsyncs_per_commit", d("spitz_wal_fsyncs_total")/appends, int(appends))
		if v, n := histMean("spitz_wal_fsync_ns"); n > 0 {
			ms.set("wal.fsync_us", v, n)
		}
	}
	if blocks := d("spitz_replica_blocks_applied_total"); blocks > 0 {
		v, n := histMean("spitz_replica_apply_ns")
		ms.set("repl.apply_us_per_block", v, n)
		ms.set("repl.bytes_per_block", d("spitz_replica_bytes_applied_total")/blocks, int(blocks))
	}
	if s.t.replica != nil && w.reads > 0 {
		ms.set("repl.replica_served_ratio", float64(replicaWrites)/float64(w.reads), int(w.reads))
	}
}

// pollMetrics fills what the 5 ms poller saw: checkpoints, replica lag,
// audit backlog.
func (w *windowResult) pollMetrics(s *session, ms *metricSet) {
	if len(w.polls) == 0 {
		return
	}
	if s.t.replica != nil {
		lags := make([]float64, len(w.polls))
		pending := 0
		for i, p := range w.polls {
			lags[i] = float64(p.replicaLag)
			if p.pending > pending {
				pending = p.pending
			}
		}
		sort.Float64s(lags)
		ms.set("repl.lag_blocks_p50", percentile(lags, 0.50), len(lags))
		ms.set("repl.lag_blocks_p99", percentile(lags, 0.99), len(lags))
		ms.set("client.audit_pending_max", float64(pending), len(w.polls))
		return
	}
	if s.t.dir == "" {
		return
	}
	// A checkpoint is in progress from the poll that first sees the block
	// trigger reached until the poll that sees the MANIFEST advance.
	type interval struct{ from, to int64 }
	var ckpts []interval
	done := 0
	open := int64(-1)
	last := w.polls[0].manifest
	for _, p := range w.polls {
		if p.manifest != last {
			last = p.manifest
			done++
			if open >= 0 {
				ckpts = append(ckpts, interval{open, p.at})
				open = -1
			}
		}
		if open < 0 && p.height-p.manifest >= checkpointEveryBlocks {
			open = p.at
		}
	}
	ms.set("durable.checkpoints_per_run", float64(done), len(w.polls))
	var during []float64
	for _, recs := range w.recs {
		for _, r := range recs {
			for _, c := range ckpts {
				if !r.fail && r.end > c.from && r.end-r.lat < c.to {
					during = append(during, float64(r.lat)/1e3)
					break
				}
			}
		}
	}
	if len(during) > 0 {
		sort.Float64s(during)
		ms.set("durable.checkpoint_write_p99_us", percentile(during, 0.99), len(during))
	}
}

// verifyReads asserts that no client skipped verification: every read of
// the run was verified or audited and nothing is left pending.
func (s *session) verifyReads(minReads int64) error {
	var done int64
	for i, c := range s.clients {
		if err := c.finish(); err != nil {
			return fmt.Errorf("client %d audit: %w", i, err)
		}
		d, pending := c.verified()
		if pending != 0 {
			return fmt.Errorf("client %d left %d reads unverified", i, pending)
		}
		done += d
	}
	if done < minReads {
		return fmt.Errorf("clients verified %d reads, issued at least %d", done, minReads)
	}
	return nil
}

// tamperProbe serves a small engine behind a handler that flips one proof
// byte and checks the client refuses the read: a build that got faster by
// not verifying must not produce numbers.
func tamperProbe() error {
	eng := core.New(core.Options{})
	var puts []core.Put
	for i := 0; i < 256; i++ {
		puts = append(puts, core.Put{Table: "probe", Column: "v", PK: pkOf(i), Value: []byte("honest value")})
	}
	if _, err := eng.Apply("probe", puts); err != nil {
		return err
	}
	ln, err := listenTCP()
	if err != nil {
		return err
	}
	srv := wire.NewHandlerServer(wire.MutateHandler(wire.EngineHandler(eng), func(req wire.Request, resp *wire.Response) {
		if resp.Proof != nil && resp.Proof.Point != nil && len(resp.Proof.Point.Nodes) > 0 {
			leaf := resp.Proof.Point.Nodes[len(resp.Proof.Point.Nodes)-1]
			leaf[len(leaf)/2] ^= 0x01
		}
	}))
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	defer func() { ln.Close(); srv.Close(); <-done }()
	wc, err := dialer(ln.Addr().String())()
	if err != nil {
		return err
	}
	cl := spitz.NewClient(wc)
	defer cl.Close()
	_, _, err = cl.GetVerified("probe", "v", pkOf(7))
	if !errors.Is(err, spitz.ErrTampered) {
		return fmt.Errorf("tamper probe: a flipped proof byte was accepted (err = %v)", err)
	}
	return nil
}

// reopenCheck is durable-write-disk's durability test: close the database
// without a checkpoint, reopen it from its directory, and require the same
// digest and every acknowledged write.
func (s *session) reopenCheck(ms *metricSet) error {
	t := s.t
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
	before := t.db.Digest()
	ckpt := manifestHeight(t.dir)
	if err := t.close(); err != nil { // listener, then DB.Close: no Checkpoint
		return fmt.Errorf("close: %w", err)
	}
	t0 := time.Now()
	db, err := spitz.OpenDir(t.dir, t.dbOpts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	ms.set("durable.recover_s", time.Since(t0).Seconds(), 1)
	ms.set("durable.recover_blocks_replayed", float64(before.Height-ckpt), 1)
	if after := db.Digest(); after != before {
		return fmt.Errorf("reopen: digest %d/%s, want %d/%s", after.Height, after.Root.Short(), before.Height, before.Root.Short())
	}
	m, checked := t.model, 0
	for idx := range m.acked {
		seq := m.acked[idx].Load()
		if seq == 0 {
			continue
		}
		v, err := db.Get(t.sp.table, t.sp.column, pkOf(idx))
		if err != nil {
			return fmt.Errorf("reopen: acknowledged row %d unreadable: %w", idx, err)
		}
		// A write acknowledged to the model may have been followed by one
		// still in flight when the window closed; both are durable states.
		if got, ok := m.seqOf(idx, v); !ok || got < seq || got > m.issued[idx].Load() {
			return fmt.Errorf("reopen: row %d holds sequence %d (genuine=%v), acknowledged %d", idx, got, ok, seq)
		}
		checked++
	}
	if checked == 0 {
		return errors.New("reopen: no acknowledged writes to check")
	}
	return nil
}
