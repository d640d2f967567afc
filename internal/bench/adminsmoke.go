package bench

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"spitz"
	"spitz/internal/obs"
	"spitz/internal/scrape"
	"spitz/internal/wire"
)

// AdminSmoke is the observability workload CI runs: a durable 4-shard
// cluster served over the wire protocol with the ops endpoint (health
// rules included) attached, a read replica mirroring and serving it,
// and a mixed workload (cross-shard 2PC writes, eager verified reads,
// AuditMode reads batch-verified, replica reads anchored to the
// primary). It then holds the live endpoint to the
// acceptance bar:
//
//   - /metrics reports plausible nonzero series from every layer;
//   - /tracez stitches one trace ID spanning client, replica and
//     primary nodes for an anchored verified range read, and another
//     spanning client and per-shard 2PC legs for a cross-shard write;
//   - /slowz captures an over-threshold request;
//   - an injected replication stall flips /healthz to degraded and
//     back once the stalled follower detaches;
//   - a tamper probe (served proofs mutated in flight) trips the audit
//     and pins /healthz at critical — the sticky rule runs last.
func AdminSmoke(dir string) error {
	// Sample every request so the trace assertions cannot flake, and
	// keep the smoke's sampling from leaking into later experiments.
	obs.DefaultTracer.SetSampleEvery(1)
	defer obs.DefaultTracer.SetSampleEvery(128)

	const shards = 4
	db, err := spitz.OpenCluster(dir, spitz.ClusterOptions{Shards: shards, Options: spitz.Options{
		Sync:               spitz.SyncAlways,
		CheckpointInterval: -1, // retain the whole log so the replica bootstraps from it
	}})
	if err != nil {
		return err
	}
	defer db.Close()
	ln, _ := wire.Listen()
	defer ln.Close()
	go db.Serve(ln)

	// The ops endpoint, exactly as spitz-server -admin-addr wires it:
	// scrape-time instance gauges plus the standard health rules. The
	// lag rule is tightened (4 blocks, no debounce to speak of) so the
	// injected stall below trips it quickly; the fsync rule is defused —
	// CI disks stall unpredictably and its firing path is unit-tested.
	wire.PublishStats(obs.Default, db.ServerStats)
	rules := obs.NewRules(obs.Default, obs.StandardRules(obs.StandardRuleOptions{
		FollowerLagBlocks: 4,
		FollowerLagFor:    time.Millisecond,
		WalFsyncP99:       time.Hour,
	}), 25*time.Millisecond)
	rules.Start()
	defer rules.Close()
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer aln.Close()
	go obs.ServeAdmin(aln, obs.AdminOptions{
		Health: func() any { return db.ServerStats() },
		Rules:  rules,
	})
	base := "http://" + aln.Addr().String()

	// Write load across all shards.
	dial := func() (*wire.Client, error) { return wire.Connect(ln) }
	sc, err := spitz.Connect(spitz.Topology{Primary: dial})
	if err != nil {
		return err
	}
	defer sc.Close()
	const keys = 200
	for i := 0; i < keys; i++ {
		if _, err := sc.Apply("admin-smoke", []spitz.Put{{Table: "t", Column: "c",
			PK: benchKey(i), Value: []byte(fmt.Sprintf("value-%08d", i))}}); err != nil {
			return fmt.Errorf("admin smoke write %d: %w", i, err)
		}
	}

	// Eager verified reads, repeated against an unchanged digest.
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			if _, found, err := sc.GetVerified("t", "c", benchKey(i)); err != nil {
				return fmt.Errorf("verified read %d: %w", i, err)
			} else if !found {
				return fmt.Errorf("verified read %d: key missing", i)
			}
		}
	}

	// AuditMode reads: optimistic accept, one batch-proof RTT per digest.
	ac, err := spitz.Connect(spitz.Topology{Primary: dial})
	if err != nil {
		return err
	}
	defer ac.Close()
	aud, err := ac.StartAudit(spitz.AuditMode{MaxPending: 64, MaxDelay: time.Hour})
	if err != nil {
		return err
	}
	for i := 0; i < 100; i++ {
		if _, _, err := ac.GetVerified("t", "c", benchKey(i)); err != nil {
			return fmt.Errorf("audited read %d: %w", i, err)
		}
	}
	if err := aud.Flush(); err != nil {
		return fmt.Errorf("audit flush: %w", err)
	}

	// A replica mirroring every shard, served over its own listener so
	// clients can read from it.
	rep, err := spitz.NewReplica(dial, spitz.ReplicaOptions{ReconnectDelay: 10 * time.Millisecond})
	if err != nil {
		return err
	}
	defer rep.Close()
	waitReplica := func() error {
		st := db.ServerStats()
		for i := 0; i < rep.Shards(); i++ {
			if err := rep.WaitForHeight(i, st.Shards[i].Height, 30*time.Second); err != nil {
				return fmt.Errorf("replica catch-up shard %d: %w", i, err)
			}
		}
		return nil
	}
	if err := waitReplica(); err != nil {
		return err
	}
	rln, _ := wire.Listen()
	defer rln.Close()
	go rep.Serve(rln)

	// The cross-node trace: an N × 1 client reads from the replica while
	// trust advances only against the primary. Connecting pins per-shard
	// trust at the primary's digest; the writes after the first read force
	// the next one to prove the served digest a prefix of the pinned one —
	// the primary-side prefix-proof leg the stitched assertion wants.
	rsc, err := spitz.Connect(spitz.Topology{Primary: dial,
		Replicas: []func() (*wire.Client, error){func() (*wire.Client, error) { return wire.Connect(rln) }}})
	if err != nil {
		return fmt.Errorf("replica-read client: %w", err)
	}
	defer rsc.Close()
	if _, err := rsc.RangePKVerified("t", "c", benchKey(0), benchKey(keys-1)); err != nil {
		return fmt.Errorf("anchored pin read: %w", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := sc.Apply("admin-smoke-growth", []spitz.Put{{Table: "t", Column: "c",
			PK: benchKey(keys + i), Value: []byte("growth")}}); err != nil {
			return fmt.Errorf("growth write %d: %w", i, err)
		}
	}
	if err := waitReplica(); err != nil {
		return err
	}
	// One cross-shard write through the replicated client (2PC legs under
	// the client's trace ID, whatever the topology), then the anchored
	// fan-out read — both fetched from /tracez before later
	// traffic can rotate them out of the ring.
	var batch []spitz.Put
	for i := 0; len(batch) < shards && i < 64*shards; i++ {
		pk := benchKey(1000 + i)
		if sc.ShardFor(pk) == len(batch)%shards {
			batch = append(batch, spitz.Put{Table: "t", Column: "c", PK: pk, Value: []byte("2pc")})
		}
	}
	if len(batch) < 2 {
		return fmt.Errorf("admin smoke: found no cross-shard batch")
	}
	if _, err := rsc.Apply("admin-smoke-2pc", batch); err != nil {
		return fmt.Errorf("2pc write: %w", err)
	}
	if _, err := rsc.RangePKVerified("t", "c", benchKey(0), benchKey(keys-1)); err != nil {
		return fmt.Errorf("anchored range read: %w", err)
	}
	if err := checkStitched(base+"/tracez", shards); err != nil {
		return err
	}

	// /slowz: drop one op's threshold to the floor, trip it with a real
	// request, and restore the default so later phases stay quiet.
	obs.DefaultSlowLog.SetOpThreshold(string(wire.OpGetVerified), time.Nanosecond)
	if _, _, err := sc.GetVerified("t", "c", benchKey(0)); err != nil {
		return fmt.Errorf("slow-op read: %w", err)
	}
	obs.DefaultSlowLog.SetOpThreshold(string(wire.OpGetVerified), 100*time.Millisecond)
	var slowz struct {
		Slow  []obs.SlowOp `json:"slow"`
		Total uint64       `json:"total"`
	}
	if err := scrape.JSON(base+"/slowz", &slowz); err != nil {
		return err
	}
	if slowz.Total == 0 || len(slowz.Slow) == 0 {
		return fmt.Errorf("admin smoke: /slowz empty after a tripped threshold")
	}

	// A last round of eager verified reads: the trace ring holds only the
	// newest finished traces, and the stitched-trace traffic above would
	// otherwise have rotated the staged get-verified traces out.
	for i := 0; i < 10; i++ {
		if _, _, err := sc.GetVerified("t", "c", benchKey(i)); err != nil {
			return fmt.Errorf("final verified read %d: %w", i, err)
		}
	}

	// Scrape the live endpoint and hold it to the acceptance bar.
	vals, err := scrape.Metrics(base + "/metrics")
	if err != nil {
		return err
	}
	nonzero := []string{
		// wire
		`spitz_wire_ops_total{op="get-verified"}`,
		`spitz_wire_ops_total{op="put"}`,
		`spitz_wire_written_bytes_total`,
		// transport: the framing negotiated, frames flowing
		`spitz_wire_negotiations_total{proto="binary"}`,
		`spitz_wire_frames_read_total`,
		`spitz_wire_frames_written_total`,
		// commit pipeline, including the cross-shard write above
		`spitz_commit_blocks_total`,
		`spitz_commit_txns_total`,
		`spitz_twopc_commits_total`,
		// WAL
		`spitz_wal_appends_total`,
		`spitz_wal_fsyncs_total`,
		// node cache, and what node encoding hashed
		`spitz_nodecache_hits_total`,
		`spitz_nodecache_bytes`,
		`spitz_postree_hashed_bytes_total`,
		// replication, both sides
		`spitz_repl_frames_sent_total`,
		`spitz_replica_blocks_applied_total`,
		// auditor
		`spitz_audit_receipts_total`,
		`spitz_audit_audited_total`,
		`spitz_audit_batches_total`,
		// slow-op capture
		`spitz_slow_ops_total`,
	}
	// Instance gauges published at scrape time, one per shard.
	for i := 0; i < shards; i++ {
		nonzero = append(nonzero, fmt.Sprintf(`spitz_shard_height{shard="%d"}`, i))
	}
	for _, name := range nonzero {
		if v, ok := vals[name]; !ok {
			return fmt.Errorf("admin smoke: /metrics missing series %s", name)
		} else if v <= 0 {
			return fmt.Errorf("admin smoke: /metrics series %s = %g, want > 0", name, v)
		}
	}
	// Follower-lag gauges must exist per attached follower (zero lag is
	// the healthy value, so only presence is asserted). spitz_alerts_firing
	// is exported (value 0 — nothing is wrong yet).
	for _, prefix := range []string{"spitz_follower_lag_blocks", "spitz_audit_pending",
		"spitz_wire_frames_inflight", "spitz_wire_pipeline_depth", "spitz_alerts_firing",
		"spitz_nodecache_retired_bytes"} {
		if !hasSeries(vals, prefix) {
			return fmt.Errorf("admin smoke: /metrics missing %s*", prefix)
		}
	}

	// /tracez must hold a verified read broken into stages.
	if err := checkTracez(base + "/tracez"); err != nil {
		return err
	}

	// /healthz must settle at ok (the replica's initial catch-up may
	// have tripped the tightened lag rule transiently).
	if err := waitHealth(base, "ok", 10*time.Second); err != nil {
		return err
	}

	// Fault 1: a stalled follower. Subscribe to shard 0's block stream
	// from its current height with callbacks that never acknowledge,
	// then commit shard-0 blocks past the lag threshold. The rules
	// engine must degrade /healthz, and recover it once the stalled
	// follower detaches.
	h0 := db.ServerStats().Shards[0].Height
	stalled, err := wire.Connect(ln)
	if err != nil {
		return err
	}
	release := make(chan struct{})
	stallDone := make(chan struct{})
	stall := func(uint64, []byte) (uint64, error) {
		<-release
		return 0, errors.New("stalled follower released")
	}
	go func() {
		defer close(stallDone)
		_ = stalled.StreamBlocks(1, h0, // wire shard id 1 = first shard
			func(snap []byte, h uint64) (uint64, error) { return stall(h, snap) },
			stall)
	}()
	written := 0
	for i := 0; written < 8 && i < 64*8; i++ {
		pk := benchKey(2000 + i)
		if sc.ShardFor(pk) != 0 {
			continue
		}
		if _, err := sc.Apply("admin-smoke-stall", []spitz.Put{{Table: "t", Column: "c",
			PK: pk, Value: []byte("stall")}}); err != nil {
			return fmt.Errorf("stall write: %w", err)
		}
		written++
	}
	if err := waitHealth(base, obs.HealthDegraded, 15*time.Second); err != nil {
		return fmt.Errorf("replication stall did not degrade health: %w", err)
	}
	if err := checkAlert(base, "replication-lag", true); err != nil {
		return err
	}
	close(release)
	stalled.Close()
	<-stallDone
	if err := waitHealth(base, "ok", 15*time.Second); err != nil {
		return fmt.Errorf("health did not recover after the stall detached: %w", err)
	}

	// Fault 2 — last, because the rule is sticky: shard 0's engine served
	// through a handler that flips one byte of every batch proof. The
	// audit must trip, and the critical tampering rule must pin /healthz
	// at critical and raise spitz_alerts_firing.
	tamperLn, _ := wire.Listen()
	tampered := wire.NewHandlerServer(wire.MutateHandler(wire.EngineHandler(db.Engine(0)), flipFirstNode(wire.OpProveBatch)))
	go tampered.Serve(tamperLn)
	defer tampered.Close()
	twc, err := wire.Connect(tamperLn)
	if err != nil {
		return err
	}
	tc := spitz.NewClient(twc)
	taud, err := tc.StartAudit(spitz.AuditMode{MaxPending: 8, MaxDelay: time.Hour})
	if err != nil {
		return err
	}
	audited := 0
	for i := 0; audited < 4 && i < 64*4; i++ {
		pk := benchKey(i)
		if db.ShardFor(pk) != 0 { // the probe serves shard 0's engine only
			continue
		}
		if _, _, err := tc.GetVerified("t", "c", pk); err != nil {
			return fmt.Errorf("probe read: %w", err)
		}
		audited++
	}
	if err := taud.Flush(); err == nil {
		return fmt.Errorf("admin smoke: tampered batch proof passed the audit")
	}
	twc.Close()
	if err := waitHealth(base, obs.HealthCritical, 15*time.Second); err != nil {
		return fmt.Errorf("tampering evidence did not turn health critical: %w", err)
	}
	if err := checkAlert(base, "audit-tampering", true); err != nil {
		return err
	}
	vals, err = scrape.Metrics(base + "/metrics")
	if err != nil {
		return err
	}
	if vals["spitz_alerts_firing"] < 1 {
		return fmt.Errorf("admin smoke: spitz_alerts_firing = %g with the tamper rule firing",
			vals["spitz_alerts_firing"])
	}
	if vals[`spitz_alert_firing{rule="audit-tampering"}`] != 1 {
		return fmt.Errorf("admin smoke: per-rule firing gauge missing")
	}
	return nil
}

// waitHealth polls /healthz until it reports the wanted status — the
// rules engine evaluates on its own clock, so transitions land within
// an interval, not instantly.
func waitHealth(base, want string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		var health struct {
			Status string `json:"status"`
		}
		if err := scrape.JSON(base+"/healthz", &health); err != nil {
			return err
		}
		last = health.Status
		if last == want {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("admin smoke: /healthz stayed %q, want %q", last, want)
}

// checkAlert asserts one named rule's firing state on /alertz.
func checkAlert(base, rule string, firing bool) error {
	var alerts struct {
		Health string          `json:"health"`
		Rules  []obs.RuleState `json:"rules"`
	}
	if err := scrape.JSON(base+"/alertz", &alerts); err != nil {
		return err
	}
	for _, r := range alerts.Rules {
		if r.Name != rule {
			continue
		}
		if r.Firing() != firing {
			return fmt.Errorf("admin smoke: /alertz rule %s state %q, want firing=%v", rule, r.State, firing)
		}
		return nil
	}
	return fmt.Errorf("admin smoke: /alertz lacks rule %s", rule)
}

func hasSeries(vals map[string]float64, prefix string) bool {
	for name := range vals {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// checkTracez asserts a sampled get-verified request resolved into wire
// and ledger/proof stage timings. The stages live on different spans of
// the same trace — wire framing on the serving span, proof assembly on
// the shard-dispatch child — so the check aggregates by trace ID.
func checkTracez(url string) error {
	var tz struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}
	if err := scrape.JSON(url, &tz); err != nil {
		return err
	}
	type cover struct{ served, hasWire, hasProof bool }
	byTrace := map[uint64]*cover{}
	for _, tr := range tz.Traces {
		c := byTrace[tr.TraceID]
		if c == nil {
			c = &cover{}
			byTrace[tr.TraceID] = c
		}
		if tr.Op == string(wire.OpGetVerified) {
			c.served = true
		}
		for _, st := range tr.Stages {
			if strings.HasPrefix(st.Name, "wire.") {
				c.hasWire = true
			}
			if strings.HasPrefix(st.Name, "proof.") || strings.HasPrefix(st.Name, "ledger.") {
				c.hasProof = true
			}
		}
	}
	for _, c := range byTrace {
		if c.served && c.hasWire && c.hasProof {
			return nil
		}
	}
	return fmt.Errorf("admin smoke: /tracez holds no get-verified trace with wire + ledger/proof stages (%d traces)", len(tz.Traces))
}

// checkStitched asserts the two cross-node stitched timelines the smoke
// staged: an anchored verified range read whose single trace ID spans
// the client root, one replica-node server span per shard and a
// primary-node prefix-proof leg; and a cross-shard write whose trace ID
// covers the client root and the coordinator's per-shard 2PC legs.
func checkStitched(url string, shards int) error {
	var tz struct {
		Stitched []obs.StitchedTrace `json:"stitched"`
	}
	if err := scrape.JSON(url, &tz); err != nil {
		return err
	}
	var readOK, writeOK bool
	for _, st := range tz.Stitched {
		if len(st.Spans) == 0 || st.Spans[0].Depth != 0 {
			continue
		}
		switch st.Spans[0].Op {
		case "client.range-verified":
			replicaSpans := 0
			var prefixLeg, primarySpan bool
			for _, sp := range st.Spans {
				if sp.Node == "replica" {
					replicaSpans++
				}
				if sp.Op == "client.prefix-proof" {
					prefixLeg = true
				}
				if sp.Node == "primary" {
					primarySpan = true
				}
			}
			if st.Spans[0].Node == "client" && replicaSpans >= shards && prefixLeg && primarySpan {
				readOK = true
			}
		case "client.apply":
			twopcShards := map[string]bool{}
			for _, sp := range st.Spans {
				if sp.Op == "twopc.prepare" || sp.Op == "twopc.commit" {
					twopcShards[sp.Node] = true
				}
			}
			if st.Spans[0].Node == "client" && len(twopcShards) >= 2 {
				writeOK = true
			}
		}
	}
	if !readOK {
		return fmt.Errorf("admin smoke: no stitched trace spans client + %d replica reads + primary prefix proof (%d stitched)",
			shards, len(tz.Stitched))
	}
	if !writeOK {
		return fmt.Errorf("admin smoke: no stitched trace spans client + cross-shard 2PC legs (%d stitched)", len(tz.Stitched))
	}
	return nil
}
