package wire

import (
	"strings"
	"testing"
	"time"

	"spitz/internal/core"
	"spitz/internal/obs"
)

// TestPerOpCountersMatchTraffic issues a known mix of operations and
// asserts the wire server's per-op counters moved by exactly that much.
// The server counts into a registry of the test's own: the process-wide
// one also takes the last op of whatever server an earlier test left
// winding down (an op is counted after its response is on the wire), so a
// delta read off it is exact only when nothing else in the process serves.
func TestPerOpCountersMatchTraffic(t *testing.T) {
	reg := obs.New()
	srv := NewHandlerServer(EngineHandler(core.New(core.Options{})))
	srv.ops = newOpMetrics(reg)
	ln, _ := Listen()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := Connect(ln)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	counterValue := func(name string) float64 {
		for _, m := range reg.Flat() {
			if m.Name == name {
				return m.Value
			}
		}
		return 0
	}

	putName := `spitz_wire_ops_total{op="put"}`
	getName := `spitz_wire_ops_total{op="get"}`
	getvName := `spitz_wire_ops_total{op="get-verified"}`
	digestName := `spitz_wire_ops_total{op="digest"}`
	errName := `spitz_wire_op_errors_total{op="get-verified"}`
	latCount := `spitz_wire_op_latency_ns_count{op="get"}`

	const puts, gets, getvs, digests = 3, 7, 5, 2
	for i := 0; i < puts; i++ {
		if _, err := cl.Do(Request{Op: OpPut, Statement: "seed", Puts: putBatch(10)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < gets; i++ {
		if _, err := cl.Do(Request{Op: OpGet, Table: "t", Column: "c", PK: []byte("pk0001")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < getvs; i++ {
		if _, err := cl.Do(Request{Op: OpGetVerified, Table: "t", Column: "c", PK: []byte("pk0001")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < digests; i++ {
		if _, err := cl.Do(Request{Op: OpDigest}); err != nil {
			t.Fatal(err)
		}
	}

	// The server counts an op after its response is on the wire, so the
	// last op of each kind may not be recorded yet: wait for the count.
	moved := func(name string, want float64) float64 {
		got := counterValue(name)
		for deadline := time.Now().Add(2 * time.Second); got != want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			got = counterValue(name)
		}
		return got
	}
	for name, want := range map[string]float64{
		putName: puts, getName: gets, getvName: getvs, digestName: digests, errName: 0,
	} {
		if got := moved(name, want); got != want {
			t.Errorf("%s moved by %g, want %g", name, got, want)
		}
	}

	// Latency histograms observed one sample per op.
	if got := moved(latCount, gets); got != gets {
		t.Errorf("%s moved by %g, want %d", latCount, got, gets)
	}
}

// TestStatsCarriesRegistry asserts the OpStats payload folds the full
// registry snapshot in, so spitz-cli stats sees the same series as
// /metrics.
func TestStatsCarriesRegistry(t *testing.T) {
	cl, _ := startServer(t)
	if _, err := cl.Do(Request{Op: OpPut, Statement: "seed", Puts: putBatch(5)}); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(Request{Op: OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil {
		t.Fatal("OpStats returned no stats")
	}
	found := false
	for _, m := range resp.Stats.Metrics {
		if strings.HasPrefix(m.Name, `spitz_wire_ops_total{op="put"}`) && m.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("Stats.Metrics lacks a nonzero put counter (%d series)", len(resp.Stats.Metrics))
	}
}
