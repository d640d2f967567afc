// Command spitz-bench regenerates the figures of the paper's evaluation
// (Section 6.2) plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	spitz-bench [flags] all|fig1|fig6a|fig6b|fig7|fig8|siri|deferred|timestamps|cc|sharded|replica|replica-smoke|verify-audit|admin-smoke|disk-smoke|query-smoke
//
// Flags scale the sweep; the default -max-size runs the paper's full 10k
// to 1.28M doubling series, which takes a while. Use -max-size 160000 for
// a quick pass. Results print as aligned tables, one column per series —
// compare shapes with the paper per EXPERIMENTS.md.
//
// The sharded experiment measures the Section 5.2 deployment: aggregate
// commit throughput of 1/2/4/8-shard clusters (memory and per-shard
// SyncAlways durability in a temp directory) under -shard-workers
// concurrent committers, against the 1-shard baseline.
//
// The replica experiment measures log-shipping read scale-out: verified
// point-read throughput through 1 × R spitz.Connect clients
// against a served primary with 0 (baseline), 1 and 2 attached read
// replicas. replica-smoke runs the availability workload (primary + two
// followers under write load, one follower killed and replaced, verified
// reads passing throughout) and exits non-zero on any failure; CI runs
// it. verify-audit runs the deferred-verification smoke: an AuditMode
// client against a live server under write churn, every receipt
// batch-verified, then a tamper probe whose corrupted batch proof must
// trip ErrTampered. admin-smoke runs the observability smoke: a durable
// 4-shard cluster with a served replica and a mixed workload, its ops
// endpoint (spitz-server -admin-addr style) scraped live — every
// layer's /metrics series asserted nonzero, /tracez checked for
// stitched cross-node traces (an anchored replica read and a
// cross-shard 2PC write, each under one trace ID), /slowz for a tripped
// threshold, and the health rules driven through an injected
// replication stall (degraded, then recovered) and a tamper probe
// (critical, sticky). disk-smoke runs the disk-native node store workload: sharded
// and replicated deployments on -store disk with the minimum 1 MiB
// node-cache budget, exercising checkpoint + clean reopen and a kill
// without close, every read proof-verified and both reopens required to
// recover the exact pre-shutdown cluster root. query-smoke runs the
// verified-query workload: a served 4-shard cluster driven entirely
// through Client.Query statements — mutations 2PC through the
// coordinator, then range/predicate scans, COUNT/SUM aggregates and
// inverted-index lookups under concurrent write churn, fanned out with
// every surfaced row proven — then
// a tamper probe whose corrupted query proofs must trip ErrTampered.
// replica, replica-smoke, verify-audit, admin-smoke, disk-smoke and
// query-smoke are excluded from "all" — they start servers and
// replicas, which dominates short runs.
//
// -json FILE additionally writes the run's results (plus host and
// config metadata) as machine-readable JSON.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"spitz/internal/bench"
	"spitz/internal/bench/workload"
)

func main() {
	maxSize := flag.Int("max-size", 1_280_000, "largest database size in the sweep")
	ops := flag.Int("ops", 20_000, "measured operations per size")
	batch := flag.Int("batch", 1000, "write batch (group commit) size")
	seed := flag.Int64("seed", 42, "workload seed")
	shardWorkers := flag.Int("shard-workers", 16, "concurrent committers in the sharded experiment")
	shardOps := flag.Int("shard-ops", 8000, "measured commits per configuration in the sharded experiment")
	replicaReaders := flag.Int("replica-readers", 16, "concurrent readers in the replica experiment")
	replicaOps := flag.Int("replica-ops", 20000, "measured verified reads per configuration in the replica experiment")
	replicaKeys := flag.Int("replica-keys", 1000, "loaded keys in the replica experiment")
	jsonOut := flag.String("json", "", "also write results (plus host and run config) as JSON to this file")
	thresholds := flag.String("thresholds", "ci/bench-thresholds.json", "acceptance thresholds for the readpath-smoke experiment")
	flag.Parse()

	var sizes []int
	for _, s := range workload.PaperSizes {
		if s <= *maxSize {
			sizes = append(sizes, s)
		}
	}
	if len(sizes) == 0 {
		sizes = []int{*maxSize}
	}
	cfg := bench.Config{Sizes: sizes, Ops: *ops, Batch: *batch, Seed: *seed}

	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	run := func(name string) bool { return which == "all" || which == name }
	ran := false
	var results []bench.Result
	collect := func(rs ...bench.Result) {
		for _, r := range rs {
			r.Print(os.Stdout)
		}
		results = append(results, rs...)
	}

	if run("fig1") {
		ran = true
		res, err := bench.Fig1(60)
		check(err)
		collect(res)
	}
	if run("fig6a") {
		ran = true
		res, err := bench.Fig6Read(cfg)
		check(err)
		collect(res)
	}
	if run("fig6b") {
		ran = true
		res, err := bench.Fig6Write(cfg)
		check(err)
		collect(res)
	}
	if run("fig7") {
		ran = true
		res, err := bench.Fig7(cfg)
		check(err)
		collect(res)
	}
	if run("fig8") {
		ran = true
		readRes, writeRes, err := bench.Fig8(cfg)
		check(err)
		collect(readRes, writeRes)
	}
	if run("siri") {
		ran = true
		n := 100_000
		if n > *maxSize {
			n = *maxSize
		}
		res, err := bench.AblationSIRI(n)
		check(err)
		collect(res)
	}
	if run("deferred") {
		ran = true
		res, err := bench.AblationDeferred(100_000, nil)
		check(err)
		collect(res)
	}
	if run("timestamps") {
		ran = true
		res, err := bench.AblationTimestamps(nil, 0)
		check(err)
		collect(res)
	}
	if run("cc") {
		ran = true
		res, err := bench.AblationCC(0, nil)
		check(err)
		collect(res)
	}
	if run("sharded") {
		ran = true
		dir, err := os.MkdirTemp("", "spitz-sharded-")
		check(err)
		defer os.RemoveAll(dir)
		res, err := bench.Sharded(dir, []int{1, 2, 4, 8}, *shardWorkers, *shardOps)
		check(err)
		collect(res)
	}
	if which == "replica" {
		ran = true
		dir, err := os.MkdirTemp("", "spitz-replica-")
		check(err)
		defer os.RemoveAll(dir)
		res, err := bench.Replica(dir, []int{0, 1, 2}, *replicaReaders, *replicaOps, *replicaKeys)
		check(err)
		collect(res)
	}
	if which == "replica-smoke" {
		ran = true
		dir, err := os.MkdirTemp("", "spitz-replica-smoke-")
		check(err)
		defer os.RemoveAll(dir)
		check(bench.ReplicaSmoke(dir))
		fmt.Println("replica smoke: primary + 2 followers, follower kill/replace, verified reads passed throughout")
	}
	if which == "verify-audit" {
		ran = true
		check(bench.VerifyAuditSmoke())
		fmt.Println("verify-audit smoke: AuditMode reads batch-verified under write churn; tamper probe tripped ErrTampered")
	}
	if which == "readpath-smoke" {
		ran = true
		check(bench.ReadPathSmoke(*thresholds))
		fmt.Println("readpath smoke: unverified, eager and deferred wire reads within checked-in latency, allocation and proof-size thresholds")
	}
	if which == "admin-smoke" {
		ran = true
		dir, err := os.MkdirTemp("", "spitz-admin-smoke-")
		check(err)
		defer os.RemoveAll(dir)
		check(bench.AdminSmoke(dir))
		fmt.Println("admin smoke: /metrics served nonzero series from every layer; /tracez stitched cross-node traces (client+replica+primary read, client+2PC write); /slowz captured a tripped threshold; a replication stall degraded /healthz and recovered; the tamper probe pinned /healthz critical with spitz_alerts_firing raised")
	}
	if which == "query-smoke" {
		ran = true
		check(bench.QuerySmoke())
		fmt.Println("query smoke: verified SQL over a served 4-shard cluster under write churn — range/predicate scans, COUNT/SUM aggregates and index lookups all proof-checked client-side; tamper probes on range and point proofs tripped ErrTampered")
	}
	if which == "disk-smoke" {
		ran = true
		dir, err := os.MkdirTemp("", "spitz-disk-smoke-")
		check(err)
		defer os.RemoveAll(dir)
		check(bench.DiskSmoke(dir))
		fmt.Println("disk smoke: sharded + replicated workloads on -store disk (1MiB node cache); checkpoint, clean reopen and kill/reopen all kept digest continuity with every read proof-verified")
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		os.Exit(2)
	}
	if *jsonOut != "" {
		check(bench.WriteJSON(*jsonOut, which, cfg, results))
		fmt.Printf("results written to %s\n", *jsonOut)
	}
}

func check(err error) {
	if err != nil {
		log.Fatalf("spitz-bench: %v", err)
	}
}
