package main

import "encoding/json"

// metricDef names one reported metric. BENCHMARK.json lists exactly these
// (a test keeps the two in step); `source` says how a per-layer number is
// obtained: T = median self time from the traced pass's ladder, C = exact
// count from a harness-side wrapper, S = before/after delta of a number
// the program exports, W = harness measurement over the timed window.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen
	Source string  // per-layer only
	Doc    string
}

// endToEnd are the numbers a user of the system sees. Every one is defined
// and non-zero on every workload; op-type splits that exist only on some
// workloads are per-layer (client.*).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "open topology + preload + warm-up; median of 3 set-ups per run"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "correct, completed ops per second over both clients; median of 10 slices"},
	{Name: "main_op_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "p50 latency of the workload's headline op as the caller sees it; median of 10 slices"},
	{Name: "second_op_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "p50 latency of the single-row Apply beside the reads on the two mixed workloads; the headline op again where the mix has one op type; median of 10 slices"},
	{Name: "all_ops_p95_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "p95 latency over every op of the mix; median of 10 slices"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "process user+sys CPU (getrusage) per completed op; median of 10 slices"},
	{Name: "wire_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.10,
		Doc: "request+response bytes per op on the clients' TCP connections; median of 10 slices"},
	{Name: "rss_loaded_mb", Unit: "MiB", Better: "lower", Bound: 0.25,
		Doc: "resident set when the window opens: topology loaded and warmed up, freed memory returned to the OS"},
}

var perLayer = []metricDef{
	// client
	{Name: "client.all_p99_us", Unit: "us", Better: "lower", Source: "W", Doc: "p99 over every op of the mix, pooled over the window"},
	{Name: "client.read_p50_us", Unit: "us", Better: "lower", Source: "W", Doc: "GetVerified p50 (includes verify, or receipt hand-off in audit mode)"},
	{Name: "client.read_p99_us", Unit: "us", Better: "lower", Source: "W"},
	{Name: "client.read_p999_us", Unit: "us", Better: "lower", Source: "W"},
	{Name: "client.write_p50_us", Unit: "us", Better: "lower", Source: "W", Doc: "Apply call -> acknowledged under the workload's flush policy"},
	{Name: "client.write_p99_us", Unit: "us", Better: "lower", Source: "W"},
	{Name: "client.write_p999_us", Unit: "us", Better: "lower", Source: "W"},
	{Name: "client.query_p50_us", Unit: "us", Better: "lower", Source: "W", Doc: "verified multi-row ops: RangePKVerified and Query SELECTs"},
	{Name: "client.query_p99_us", Unit: "us", Better: "lower", Source: "W"},
	{Name: "client.get_us", Unit: "us", Better: "lower", Source: "W", Doc: "per-op-type p50 over the window"},
	{Name: "client.range_us", Unit: "us", Better: "lower", Source: "W"},
	{Name: "client.query_us", Unit: "us", Better: "lower", Source: "W"},
	{Name: "client.apply_us", Unit: "us", Better: "lower", Source: "W"},
	{Name: "client.apply2pc_us", Unit: "us", Better: "lower", Source: "W"},
	{Name: "client.failed_op_ratio", Unit: "ratio", Better: "lower", Source: "W", Doc: "(errors + refusals + aborts + model mismatches) / attempted"},
	{Name: "client.verify_us", Unit: "us", Better: "lower", Source: "T", Doc: "Verifier.VerifyNow on the proof a read returned"},
	{Name: "client.self_us", Unit: "us", Better: "lower", Source: "T", Doc: "GetVerified - Do - verify"},
	{Name: "client.digest_syncs_per_kop", Unit: "count", Better: "lower", Source: "S", Doc: "consistency round trips per 1000 reads"},
	{Name: "client.audit_batch_reads", Unit: "count", Better: "higher", Source: "S", Doc: "receipts audited per ProveBatch round trip"},
	{Name: "client.audit_flush_us", Unit: "us", Better: "lower", Source: "T", Doc: "Auditor.Flush of 128 pending receipts"},
	{Name: "client.audit_pending_max", Unit: "count", Better: "lower", Source: "W", Doc: "largest Auditor.Pending sampled every 5 ms"},
	// wire
	{Name: "wire.codec_us", Unit: "us", Better: "lower", Source: "T", Doc: "AppendRequest+DecodeRequest+AppendResponse+DecodeResponse"},
	{Name: "wire.rtt_floor_us", Unit: "us", Better: "lower", Source: "T", Doc: "raw TCP echo of the same frame sizes; the floor, not optimisable"},
	{Name: "wire.transport_self_us", Unit: "us", Better: "lower", Source: "T", Doc: "Do - dispatch - codec - floor"},
	{Name: "wire.req_bytes_per_op", Unit: "B", Better: "lower", Source: "C", Doc: "encoded request payload, mean over the ladder's Do calls"},
	{Name: "wire.resp_bytes_per_op", Unit: "B", Better: "lower", Source: "C"},
	{Name: "wire.proof_bytes_per_read", Unit: "B", Better: "lower", Source: "C", Doc: "encoded ledger.Proof per verified point read"},
	{Name: "wire.frames_per_op", Unit: "count", Better: "lower", Source: "S", Doc: "frames written process-wide (clients, servers, replication) per op"},
	// server
	{Name: "server.dispatch_self_us", Unit: "us", Better: "lower", Source: "T", Doc: "wire.Dispatch - engine call"},
	{Name: "server.fanout_shards_per_query", Unit: "count", Better: "lower", Source: "C"},
	{Name: "server.fanout_slowest_over_median", Unit: "ratio", Better: "lower", Source: "T", Doc: "per-shard range dispatch: slowest / median"},
	// core
	{Name: "core.apply_self_us", Unit: "us", Better: "lower", Source: "T", Doc: "Engine.Apply - Ledger.Commit - WAL append"},
	{Name: "core.get_self_us", Unit: "us", Better: "lower", Source: "T", Doc: "Engine.Get - cellstore.GetHead"},
	{Name: "core.getverified_self_us", Unit: "us", Better: "lower", Source: "T", Doc: "Engine.GetVerified - Ledger.ProveGetHead"},
	{Name: "core.batch_txns_mean", Unit: "count", Better: "higher", Source: "S", Doc: "transactions per ledger block"},
	{Name: "core.blocks_per_kop", Unit: "count", Better: "lower", Source: "S"},
	{Name: "core.queue_wait_us", Unit: "us", Better: "lower", Source: "S", Doc: "mean spitz_commit_queue_wait_ns"},
	// txn / twopc
	{Name: "twopc.overhead_us", Unit: "us", Better: "lower", Source: "T", Doc: "cross-shard ClusterDB.Apply - 2 x single-shard"},
	{Name: "twopc.prepares_per_commit", Unit: "count", Better: "lower", Source: "S"},
	{Name: "twopc.abort_ratio", Unit: "ratio", Better: "lower", Source: "S"},
	{Name: "txn.abort_ratio", Unit: "ratio", Better: "lower", Source: "S"},
	// ledger
	{Name: "ledger.prove_get_us", Unit: "us", Better: "lower", Source: "T", Doc: "Ledger.ProveGetHead"},
	{Name: "ledger.prove_self_us", Unit: "us", Better: "lower", Source: "T", Doc: "Ledger.ProveGetHead - cellstore.ProveGetHead"},
	{Name: "ledger.commit_us", Unit: "us", Better: "lower", Source: "S", Doc: "mean spitz_commit_ledger_ns per block on the served instance"},
	{Name: "ledger.proofcache_hit_ratio", Unit: "ratio", Better: "higher", Source: "S"},
	{Name: "ledger.proofcache_invalidations_per_s", Unit: "1/s", Better: "lower", Source: "S"},
	{Name: "ledger.proof_codec_us", Unit: "us", Better: "lower", Source: "T", Doc: "AppendProof + ReadProof"},
	{Name: "ledger.prove_batch_us", Unit: "us", Better: "lower", Source: "T", Doc: "Engine.ProveBatch of 128 point reads"},
	// postree
	{Name: "postree.get_us", Unit: "us", Better: "lower", Source: "T"},
	{Name: "postree.prove_get_us", Unit: "us", Better: "lower", Source: "T"},
	{Name: "postree.verify_us", Unit: "us", Better: "lower", Source: "T", Doc: "PointProof.Verify"},
	{Name: "postree.apply_us_per_cell", Unit: "us", Better: "lower", Source: "T", Doc: "cellstore.Store.Apply / cells"},
	{Name: "postree.prove_scan_us", Unit: "us", Better: "lower", Source: "T", Doc: "cellstore.ProveRangePK over the workload's 50-pk range"},
	{Name: "postree.nodes_read_per_get", Unit: "count", Better: "lower", Source: "C"},
	{Name: "postree.nodes_written_per_put", Unit: "count", Better: "lower", Source: "C"},
	{Name: "postree.proof_nodes_per_get", Unit: "count", Better: "lower", Source: "C"},
	{Name: "postree.hash_bytes_per_put", Unit: "B", Better: "lower", Source: "C", Doc: "bytes hashed into the node store per cell written"},
	{Name: "postree.nodecache_hit_ratio", Unit: "ratio", Better: "higher", Source: "S", Doc: "decoded-node cache hits / lookups"},
	// cas
	{Name: "cas.get_hit_us", Unit: "us", Better: "lower", Source: "T", Doc: "Disk.Get of a resident body"},
	{Name: "cas.get_miss_us", Unit: "us", Better: "lower", Source: "T", Doc: "Disk.Get of an evicted body (segment read + re-hash)"},
	{Name: "cas.cache_hit_ratio", Unit: "ratio", Better: "higher", Source: "S"},
	{Name: "cas.evictions_per_kop", Unit: "count", Better: "lower", Source: "S"},
	{Name: "cas.flush_us", Unit: "us", Better: "lower", Source: "T", Doc: "Disk.Flush of one ladder commit's dirty nodes"},
	{Name: "cas.flushed_bytes_per_user_byte", Unit: "ratio", Better: "lower", Source: "S"},
	{Name: "cas.segment_bytes_per_live_byte", Unit: "ratio", Better: "lower", Source: "S", Doc: "nodes/ directory size / Tree.LiveBytes on the scratch instance"},
	// wal
	{Name: "wal.append_us", Unit: "us", Better: "lower", Source: "T", Doc: "Log.Append under SyncAlways at the workload's record size"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower", Source: "S", Doc: "mean spitz_wal_fsync_ns"},
	{Name: "wal.fsyncs_per_commit", Unit: "ratio", Better: "lower", Source: "S"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower", Source: "S"},
	// durable
	{Name: "durable.checkpoint_s", Unit: "s", Better: "lower", Source: "T", Doc: "explicit DB.Checkpoint in the traced pass"},
	{Name: "durable.checkpoints_per_run", Unit: "count", Better: "higher", Source: "W", Doc: "MANIFEST advances inside the window"},
	{Name: "durable.checkpoint_write_p99_us", Unit: "us", Better: "lower", Source: "W", Doc: "p99 of writes overlapping a checkpoint"},
	{Name: "durable.recover_s", Unit: "s", Better: "lower", Source: "W", Doc: "reopen after close-without-checkpoint"},
	{Name: "durable.recover_blocks_replayed", Unit: "count", Better: "lower", Source: "W"},
	{Name: "durable.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower", Source: "W", Doc: "data-dir growth over the window / pk+value bytes acknowledged"},
	// repl
	{Name: "repl.lag_blocks_p50", Unit: "count", Better: "lower", Source: "W", Doc: "primary height - replica height sampled every 5 ms"},
	{Name: "repl.lag_blocks_p99", Unit: "count", Better: "lower", Source: "W"},
	{Name: "repl.apply_us_per_block", Unit: "us", Better: "lower", Source: "S"},
	{Name: "repl.bytes_per_block", Unit: "B", Better: "lower", Source: "S"},
	{Name: "repl.replica_served_ratio", Unit: "ratio", Better: "higher", Source: "C", Doc: "requests on replica connections / reads issued"},
	// query
	{Name: "query.parse_plan_us", Unit: "us", Better: "lower", Source: "T", Doc: "Parse + PlanOf"},
	{Name: "query.exec_us", Unit: "us", Better: "lower", Source: "T", Doc: "ExecVerifiedSelect (eager, with proof)"},
	{Name: "query.result_from_proof_us", Unit: "us", Better: "lower", Source: "T"},
	{Name: "query.cells_examined_per_row", Unit: "count", Better: "lower", Source: "C"},
	{Name: "query.proof_bytes_per_row", Unit: "B", Better: "lower", Source: "C"},
	// inverted
	{Name: "inverted.apply_overhead_ratio", Unit: "ratio", Better: "lower", Source: "T", Doc: "scratch Engine.Apply with / without MaintainInverted"},
	// env / harness
	{Name: "env.fsync_us", Unit: "us", Better: "lower", Source: "W", Doc: "raw 4 KiB write+fsync in the data dir: the device floor"},
	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "lower", Source: "W", Doc: "one-client op p50 with span recording / without"},
	{Name: "harness.budget_gap_ratio", Unit: "ratio", Better: "lower", Source: "T", Doc: "(window p50 of the headline op - sum of ladder self times) / window p50"},
}

// sample is one reported value with the number of observations behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects values by name against a definition table.
type metricSet struct {
	defs []metricDef
	vals map[string]sample
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]sample, len(defs))}
}

// set records a value; an unknown name is a harness bug.
func (m *metricSet) set(name string, v float64, n int) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = sample{Value: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the definition table")
}

// all returns every defined metric in table order; ones the workload does
// not exercise report 0 with no samples.
func (m *metricSet) all() map[string]sample {
	out := make(map[string]sample, len(m.defs))
	for _, d := range m.defs {
		s, ok := m.vals[d.Name]
		if !ok {
			s = sample{Unit: d.Unit}
		}
		out[d.Name] = s
	}
	return out
}

// runSeconds is the window length BENCHMARK.json asks the driver to pass.
const runSeconds = 15

// manifestJSON renders the BENCHMARK.json this harness implements; a test
// keeps the checked-in file identical to it.
func manifestJSON() string {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []e2eEntry      `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2eEntry{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerEntry{d.Name, d.Unit, d.Better})
	}
	b, _ := json.MarshalIndent(m, "", "  ")
	return string(b)
}
