package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"spitz"
	"spitz/internal/proof"
	"spitz/internal/wire"
)

// ReadPathThresholds is the checked-in acceptance bar for the wire read
// path (ci/bench-thresholds.json). Latency ceilings are deliberately
// loose — CI hosts vary several-fold — while allocation ceilings are
// tight: allocations per op are deterministic for a fixed code path, so
// a codec regression (say, sliding back to reflection-based encoding)
// trips them even on a fast machine. The eager mode is gated on
// deterministic quantities only: allocations and the proof bytes a warm
// client receives per read, which a change that re-ships index nodes the
// client already holds would inflate. The proof bytes of the other two
// proof shapes are gated the same way: per 50-row verified range read,
// and per deferred read at its audit flush.
type ReadPathThresholds struct {
	UnverifiedNsMax       float64 `json:"unverified_ns_max"`
	DeferredNsMax         float64 `json:"deferred_ns_max"`
	UnverifiedAllocsMax   float64 `json:"unverified_allocs_max"`
	DeferredAllocsMax     float64 `json:"deferred_allocs_max"`
	EagerAllocsMax        float64 `json:"eager_allocs_max"`
	EagerProofBytesMax    float64 `json:"eager_proof_bytes_max"`
	EagerChurnBytesMax    float64 `json:"eager_churn_proof_bytes_max"`
	UnchangedChurnMax     float64 `json:"eager_unchanged_churn_proof_bytes_max"`
	RangeProofBytesMax    float64 `json:"range_proof_bytes_max"`
	DeferredProofBytesMax float64 `json:"deferred_proof_bytes_max"`
}

// ReadPathSmoke measures the production read modes over the wire —
// unverified gets (the floor), eager verified point and range reads on a
// warm client, and AuditMode verified reads (deferred batch auditing) —
// and fails if any exceeds the checked-in thresholds. CI runs it as the
// bench-regression gate: a transport or codec change that slows the hot path or adds
// per-op allocations fails the build rather than landing silently.
func ReadPathSmoke(thresholdsPath string) error {
	raw, err := os.ReadFile(thresholdsPath)
	if err != nil {
		return fmt.Errorf("readpath smoke: %w", err)
	}
	var th ReadPathThresholds
	if err := json.Unmarshal(raw, &th); err != nil {
		return fmt.Errorf("readpath smoke: %s: %w", thresholdsPath, err)
	}

	db := spitz.Open(spitz.Options{})
	defer db.Close()
	ln, _ := wire.Listen()
	defer ln.Close()
	go db.Serve(ln)

	wc, err := wire.Connect(ln)
	if err != nil {
		return err
	}
	cl := spitz.NewClient(wc)
	defer cl.Close()

	const keys = 1000
	puts := make([]spitz.Put, 0, 100)
	for i := 0; i < keys; i += 100 {
		puts = puts[:0]
		for j := i; j < i+100; j++ {
			puts = append(puts, spitz.Put{Table: "t", Column: "c",
				PK: benchKey(j), Value: []byte(fmt.Sprintf("value-%08d", j))})
		}
		if _, err := cl.Apply("readpath-load", puts); err != nil {
			return fmt.Errorf("readpath smoke load: %w", err)
		}
	}

	const warmup, ops = 500, 4000

	// Unverified floor: the bare OpGet round trip, the one AuditMode's
	// optimistic reads send.
	get := func(i int) error {
		_, err := wc.Do(wire.Request{Op: wire.OpGet, Table: "t", Column: "c", PK: benchKey(i % keys)})
		return err
	}
	for i := 0; i < warmup; i++ {
		if err := get(i); err != nil {
			return err
		}
	}
	unvNs, unvAllocs, err := timedOps(ops, get)
	if err != nil {
		return err
	}

	// Eager verified reads on a warm client: every proof checked on
	// arrival, index nodes the verifier already holds left out of it.
	for i := 0; i < warmup+keys; i++ {
		if _, _, err := cl.GetVerified("t", "c", benchKey(i%keys)); err != nil {
			return err
		}
	}
	warm := cl.Verifier().ProofStats()
	eagerNs, eagerAllocs, err := timedOps(ops, func(i int) error {
		_, _, err := cl.GetVerified("t", "c", benchKey(i%keys))
		return err
	})
	if err != nil {
		return err
	}
	eager := cl.Verifier().ProofStats()
	eagerProofBytes := float64(eager.ProofBytes-warm.ProofBytes) / ops
	eagerShipped := float64(eager.NodesShipped-warm.NodesShipped) / ops
	eagerElided := float64(eager.NodesElided-warm.NodesElided) / ops

	// Eager verified range reads of 50 rows on the same warm client: two
	// pruned edge leaves, whatever lies between them whole, no index node.
	const rangeRows, rangeOps = 50, 400
	rangeRead := func(i int) error {
		lo := i * 37 % (keys - rangeRows)
		cells, err := cl.RangePKVerified("t", "c", benchKey(lo), benchKey(lo+rangeRows))
		if err == nil && len(cells) != rangeRows {
			err = fmt.Errorf("readpath smoke: range read returned %d rows, want %d", len(cells), rangeRows)
		}
		return err
	}
	for i := 0; i < rangeOps/4; i++ {
		if err := rangeRead(i); err != nil {
			return err
		}
	}
	rangeWarm := cl.Verifier().ProofStats()
	for i := 0; i < rangeOps; i++ {
		if err := rangeRead(i); err != nil {
			return err
		}
	}
	ranged := cl.Verifier().ProofStats()
	rangeProofBytes := float64(ranged.ProofBytes-rangeWarm.ProofBytes) / rangeOps
	rangeShipped := float64(ranged.NodesShipped-rangeWarm.NodesShipped) / rangeOps
	rangeElided := float64(ranged.NodesElided-rangeWarm.NodesElided) / rangeOps

	// Deferred verified reads: optimistic accept + batch audit, flush
	// inside the timed region so the proof RTTs are paid for.
	aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 512, MaxDelay: time.Hour})
	if err != nil {
		return err
	}
	for i := 0; i < warmup; i++ {
		if _, _, err := cl.GetVerified("t", "c", benchKey(i%keys)); err != nil {
			return err
		}
	}
	if err := aud.Flush(); err != nil {
		return err
	}
	defNs, defAllocs, err := timedOps(ops, func(i int) error {
		_, _, err := cl.GetVerified("t", "c", benchKey(i%keys))
		if err == nil && i == ops-1 {
			err = aud.Flush()
		}
		return err
	})
	if err != nil {
		return err
	}

	// What an audit flush costs per read when the receipts are spread over
	// the table, as a real horizon's are — the timed loop above walks the
	// keys in order, so its 512-receipt flushes cover whole leaves: 16
	// reads 61 keys apart per flush, each proven by one group of its own
	// leaf, no index node.
	const auditReads, auditFlushes = 16, 64
	defWarm := cl.Verifier().ProofStats()
	for f := 0; f < auditFlushes; f++ {
		for i := 0; i < auditReads; i++ {
			if _, _, err := cl.GetVerified("t", "c", benchKey((f*7+i*61)%keys)); err != nil {
				return err
			}
		}
		if err := aud.Flush(); err != nil {
			return err
		}
	}
	deferred := cl.Verifier().ProofStats()
	defProofBytes := float64(deferred.ProofBytes-defWarm.ProofBytes) / (auditReads * auditFlushes)
	defShipped := float64(deferred.NodesShipped-defWarm.NodesShipped) / (auditReads * auditFlushes)
	defElided := float64(deferred.NodesElided-defWarm.NodesElided) / (auditReads * auditFlushes)

	// Eager point reads again, with one commit landing before each — last,
	// and on a warm client of its own, because the commits reshape the tree
	// under the figures above. Each commit writes the key read after it:
	// the read is proven at the new head, and every index node on its path,
	// which this client holds one version old, travels as a patch against
	// it — an entry or two — instead of whole. Between the two, a key the
	// commit did not touch is read: its answer has not changed since the
	// client's trusted digest, so it is proven there, as a warm read is.
	wc2, err := wire.Connect(ln)
	if err != nil {
		return err
	}
	churnCl := spitz.NewClient(wc2)
	defer churnCl.Close()
	for i := 0; i < keys; i++ {
		if _, _, err := churnCl.GetVerified("t", "c", benchKey(i)); err != nil {
			return err
		}
	}
	const churnOps = 1000
	var churned, unchanged proof.ProofStats // summed over the reads of each kind
	read := func(pk []byte, sum *proof.ProofStats) error {
		before := churnCl.Verifier().ProofStats()
		if _, _, err := churnCl.GetVerified("t", "c", pk); err != nil {
			return err
		}
		after := churnCl.Verifier().ProofStats()
		sum.ProofBytes += after.ProofBytes - before.ProofBytes
		sum.NodesShipped += after.NodesShipped - before.NodesShipped
		sum.NodesPatched += after.NodesPatched - before.NodesPatched
		return nil
	}
	for i := 0; i < churnOps; i++ {
		j := i * 13 % keys
		if _, err := churnCl.Apply("readpath-churn", []spitz.Put{{Table: "t", Column: "c",
			PK: benchKey(j), Value: []byte(fmt.Sprintf("value-%08d", j))}}); err != nil {
			return err
		}
		if err := read(benchKey((i*7+1)%keys), &unchanged); err != nil { // never j: 6i = 1 (mod 1000) has no solution
			return err
		}
		if err := read(benchKey(j), &churned); err != nil {
			return err
		}
	}
	per := func(n int64) float64 { return float64(n) / churnOps }

	fmt.Printf("readpath smoke (%s):\n", wire.ProtoBinary)
	fmt.Printf("  unverified: %8.0f ns/op  %5.1f allocs/op  (max %.0f ns, %.0f allocs)\n",
		unvNs, unvAllocs, th.UnverifiedNsMax, th.UnverifiedAllocsMax)
	fmt.Printf("  eager:      %8.0f ns/op  %5.1f allocs/op  %6.0f proof B/op, %.2f nodes shipped + %.2f elided  (max %.0f allocs, %.0f proof B)\n",
		eagerNs, eagerAllocs, eagerProofBytes, eagerShipped, eagerElided, th.EagerAllocsMax, th.EagerProofBytesMax)
	fmt.Printf("  range:      %41.0f proof B/op, %.2f nodes shipped + %.2f elided  (max %.0f proof B)\n",
		rangeProofBytes, rangeShipped, rangeElided, th.RangeProofBytesMax)
	fmt.Printf("  deferred:   %8.0f ns/op  %5.1f allocs/op  %6.0f proof B/read, %.2f nodes shipped + %.2f elided at a 16-read audit flush  (max %.0f ns, %.0f allocs, %.0f proof B)\n",
		defNs, defAllocs, defProofBytes, defShipped, defElided, th.DeferredNsMax, th.DeferredAllocsMax, th.DeferredProofBytesMax)

	fmt.Printf("  churn:      %41.0f proof B/op, %.2f nodes shipped, %.2f of them patched, each eager read of the key the commit before it wrote  (max %.0f proof B)\n",
		per(churned.ProofBytes), per(churned.NodesShipped), per(churned.NodesPatched), th.EagerChurnBytesMax)
	fmt.Printf("  unchanged:  %41.0f proof B/op, %.2f nodes shipped, %.2f of them patched, an untouched key read under the same churn  (max %.0f proof B)\n",
		per(unchanged.ProofBytes), per(unchanged.NodesShipped), per(unchanged.NodesPatched), th.UnchangedChurnMax)

	var fails []string
	if unvNs > th.UnverifiedNsMax {
		fails = append(fails, fmt.Sprintf("unverified %0.f ns/op > %.0f", unvNs, th.UnverifiedNsMax))
	}
	if defNs > th.DeferredNsMax {
		fails = append(fails, fmt.Sprintf("deferred %0.f ns/op > %.0f", defNs, th.DeferredNsMax))
	}
	if unvAllocs > th.UnverifiedAllocsMax {
		fails = append(fails, fmt.Sprintf("unverified %.1f allocs/op > %.0f", unvAllocs, th.UnverifiedAllocsMax))
	}
	if eagerAllocs > th.EagerAllocsMax {
		fails = append(fails, fmt.Sprintf("eager %.1f allocs/op > %.0f", eagerAllocs, th.EagerAllocsMax))
	}
	if eagerProofBytes > th.EagerProofBytesMax {
		fails = append(fails, fmt.Sprintf("eager %.0f proof bytes/op > %.0f", eagerProofBytes, th.EagerProofBytesMax))
	}
	if per(churned.ProofBytes) > th.EagerChurnBytesMax {
		fails = append(fails, fmt.Sprintf("eager under churn %.0f proof bytes/op > %.0f", per(churned.ProofBytes), th.EagerChurnBytesMax))
	}
	if per(unchanged.ProofBytes) > th.UnchangedChurnMax {
		fails = append(fails, fmt.Sprintf("eager unchanged under churn %.0f proof bytes/op > %.0f", per(unchanged.ProofBytes), th.UnchangedChurnMax))
	}
	if defAllocs > th.DeferredAllocsMax {
		fails = append(fails, fmt.Sprintf("deferred %.1f allocs/op > %.0f", defAllocs, th.DeferredAllocsMax))
	}
	if rangeProofBytes > th.RangeProofBytesMax {
		fails = append(fails, fmt.Sprintf("range %.0f proof bytes/op > %.0f", rangeProofBytes, th.RangeProofBytesMax))
	}
	if defProofBytes > th.DeferredProofBytesMax {
		fails = append(fails, fmt.Sprintf("deferred %.0f proof bytes/op > %.0f", defProofBytes, th.DeferredProofBytesMax))
	}
	if len(fails) > 0 {
		return fmt.Errorf("readpath smoke: regression past thresholds: %v", fails)
	}
	return nil
}

// timedOps runs fn n times and reports mean wall time and process-wide
// allocations per op. The allocation figure matches what go test's
// -benchmem reports for the same loop: every goroutine the op touches
// (client and in-process server alike) counts.
func timedOps(n int, fn func(i int) error) (nsPerOp, allocsPerOp float64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n), nil
}
