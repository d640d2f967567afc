package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// evalSeq drives one rule through a sequence of (time, snapshot) steps
// and returns the state after each step.
func evalSeq(t *testing.T, rule Rule, steps []Snapshot, dt time.Duration) []RuleState {
	t.Helper()
	r := NewRules(New(), []Rule{rule}, time.Hour)
	out := make([]RuleState, len(steps))
	now := time.Unix(1000, 0)
	for i, snap := range steps {
		r.EvaluateAt(now, snap)
		out[i] = r.States()[0]
		now = now.Add(dt)
	}
	return out
}

func TestRuleThresholdLevel(t *testing.T) {
	rule := Rule{Name: "lvl", Severity: SeverityWarn, Series: "m", Threshold: 10}
	states := evalSeq(t, rule, []Snapshot{
		{"m": 5},  // below: ok
		{"m": 11}, // breach, For 0: fires immediately
		{"m": 3},  // recovered: back to ok
	}, time.Second)
	for i, want := range []string{"ok", "firing", "ok"} {
		if states[i].State != want {
			t.Errorf("step %d: state %q, want %q", i, states[i].State, want)
		}
	}
	if states[1].Value != 11 {
		t.Errorf("firing value = %g, want 11", states[1].Value)
	}
}

func TestRuleBelow(t *testing.T) {
	rule := Rule{Name: "ratio", Severity: SeverityWarn, Series: "m", Threshold: 0.5, Below: true}
	states := evalSeq(t, rule, []Snapshot{
		{"m": 0.9}, // above the floor: ok
		{"m": 0.2}, // below: fires
	}, time.Second)
	if states[0].State != "ok" || states[1].State != "firing" {
		t.Errorf("below rule states = %q, %q", states[0].State, states[1].State)
	}
}

func TestRuleDelta(t *testing.T) {
	rule := Rule{Name: "resyncs", Severity: SeverityWarn, Series: "m", Delta: true}
	states := evalSeq(t, rule, []Snapshot{
		{"m": 100}, // first sight: delta 0, ok (a large counter is not an event)
		{"m": 100}, // unchanged: ok
		{"m": 101}, // rose by 1 this interval: fires
		{"m": 101}, // stopped rising: clears
	}, time.Second)
	for i, want := range []string{"ok", "ok", "firing", "ok"} {
		if states[i].State != want {
			t.Errorf("step %d: state %q (value %g), want %q", i, states[i].State, states[i].Value, want)
		}
	}
}

func TestRuleForDebounce(t *testing.T) {
	rule := Rule{Name: "lag", Severity: SeverityWarn, Series: "m", Threshold: 10, For: 5 * time.Second}
	states := evalSeq(t, rule, []Snapshot{
		{"m": 50}, // breach: pending, not yet firing
		{"m": 50}, // +2s: still pending
		{"m": 50}, // +4s: still pending
		{"m": 50}, // +6s >= For: fires
		{"m": 1},  // recovered: ok
	}, 2*time.Second)
	for i, want := range []string{"pending", "pending", "pending", "firing", "ok"} {
		if states[i].State != want {
			t.Errorf("step %d: state %q, want %q", i, states[i].State, want)
		}
	}
}

// TestRuleFlapping asserts the debounce clock resets when the condition
// clears mid-pending: a flapping series never reaches firing.
func TestRuleFlapping(t *testing.T) {
	rule := Rule{Name: "flap", Severity: SeverityWarn, Series: "m", Threshold: 10, For: 5 * time.Second}
	states := evalSeq(t, rule, []Snapshot{
		{"m": 50}, // breach: pending
		{"m": 0},  // clears: ok (pending age discarded)
		{"m": 50}, // breach again: pending, Since restarts
		{"m": 0},
		{"m": 50},
	}, 4*time.Second)
	for i, want := range []string{"pending", "ok", "pending", "ok", "pending"} {
		if states[i].State != want {
			t.Errorf("step %d: state %q, want %q", i, states[i].State, want)
		}
	}
}

func TestRuleSticky(t *testing.T) {
	rule := Rule{Name: "tamper", Severity: SeverityCritical, Series: "m", Sticky: true}
	states := evalSeq(t, rule, []Snapshot{
		{"m": 0}, // nothing failed yet
		{"m": 1}, // one audit failure: fires
		{"m": 1}, // unchanged: stays fired
		{"m": 0}, // even a reset counter does not unprove tampering
		{},       // no data at all: still fired
	}, time.Second)
	for i, want := range []string{"ok", "firing", "firing", "firing", "firing"} {
		if states[i].State != want {
			t.Errorf("step %d: state %q, want %q", i, states[i].State, want)
		}
	}
}

func TestRuleNoData(t *testing.T) {
	rule := Rule{Name: "lag", Severity: SeverityWarn, Series: "m", Threshold: 10}
	states := evalSeq(t, rule, []Snapshot{
		{"other": 99}, // series absent
	}, time.Second)
	if states[0].State != "ok" || states[0].Message != "no data" {
		t.Errorf("no-data state = %+v", states[0])
	}
}

func TestRulePrefixMax(t *testing.T) {
	rule := Rule{Name: "lag", Severity: SeverityWarn, Series: "lag_blocks", Prefix: true, Threshold: 10}
	states := evalSeq(t, rule, []Snapshot{
		{`lag_blocks{shard="0"}`: 3, `lag_blocks{shard="1"}`: 42}, // max across shards breaches
	}, time.Second)
	if states[0].State != "firing" || states[0].Value != 42 {
		t.Errorf("prefix rule state = %+v, want firing at 42", states[0])
	}
}

func TestHealthPrecedence(t *testing.T) {
	r := NewRules(New(), []Rule{
		{Name: "warny", Severity: SeverityWarn, Series: "w", Threshold: 0},
		{Name: "crity", Severity: SeverityCritical, Series: "c", Threshold: 0},
	}, time.Hour)
	now := time.Unix(1000, 0)

	r.EvaluateAt(now, Snapshot{"w": 0, "c": 0})
	if h := r.Health(); h != HealthOK {
		t.Errorf("health = %q, want ok", h)
	}
	r.EvaluateAt(now, Snapshot{"w": 1, "c": 0})
	if h := r.Health(); h != HealthDegraded {
		t.Errorf("health = %q, want degraded", h)
	}
	r.EvaluateAt(now, Snapshot{"w": 1, "c": 1})
	if h := r.Health(); h != HealthCritical {
		t.Errorf("health = %q, want critical", h)
	}
	if n := r.FiringCount(); n != 2 {
		t.Errorf("firing count = %d, want 2", n)
	}
}

// TestRulesEmitter asserts alert state reaches /metrics: the registry
// the rules were built over exports spitz_alerts_firing and per-rule
// spitz_alert_firing series.
func TestRulesEmitter(t *testing.T) {
	reg := New()
	bad := reg.Counter("boom_total")
	r := NewRules(reg, []Rule{{Name: "boom", Severity: SeverityWarn, Series: "boom_total"}}, time.Hour)
	bad.Inc()
	r.Evaluate()

	vals := map[string]float64{}
	for _, m := range reg.Flat() {
		vals[m.Name] = m.Value
	}
	if vals["spitz_alerts_firing"] != 1 {
		t.Errorf("spitz_alerts_firing = %g, want 1", vals["spitz_alerts_firing"])
	}
	if vals[`spitz_alert_firing{rule="boom"}`] != 1 {
		t.Errorf(`spitz_alert_firing{rule="boom"} = %g, want 1`, vals[`spitz_alert_firing{rule="boom"}`])
	}
}

// TestRulesConcurrentEvaluate races evaluation against registry writes
// and state reads; run under -race this is the data-race check for the
// rules engine. Nothing here waits on the clock: the evaluations are
// driven from this goroutine, at injected instants, over snapshots taken
// from the registry while four writers mutate it; that the audit counter
// grew between two of them is this goroutine's own doing, so the delta
// rule must have fired by the end however the writers were scheduled.
func TestRulesConcurrentEvaluate(t *testing.T) {
	reg := New()
	ctr := reg.Counter("spitz_audit_failures_total")
	hist := reg.Histogram("lat_ns")
	r := NewRules(reg, StandardRules(StandardRuleOptions{}), time.Hour)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	spin := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f(i)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		g := g
		spin(func(i int) {
			ctr.Inc()
			hist.Observe(uint64(i))
			reg.Gauge(fmt.Sprintf("g_%d", g)).Set(int64(i))
		})
	}
	spin(func(int) {
		r.States()
		r.Health()
	})
	now := time.Unix(1000, 0)
	for i := 0; i < 200; i++ {
		ctr.Inc()
		snap := make(Snapshot)
		for _, m := range reg.Flat() {
			snap[m.Name] = m.Value
		}
		r.EvaluateAt(now.Add(time.Duration(i)*time.Second), snap)
	}
	close(stop)
	wg.Wait()
	if h := r.Health(); h != HealthCritical {
		t.Errorf("health = %q after audit failures, want critical", h)
	}
}

// TestRulesStartClose: the periodic loop starts once, evaluates beside a
// reader, and Close — called twice — returns with the loop gone. What an
// evaluation does is TestRulesConcurrentEvaluate's business; nothing here
// depends on how many ticks the loop got.
func TestRulesStartClose(t *testing.T) {
	r := NewRules(New(), StandardRules(StandardRuleOptions{}), time.Millisecond)
	r.Start()
	r.Start()
	r.States()
	r.Close()
	r.Close()
	select {
	case <-r.done:
	default:
		t.Fatal("evaluation loop still running after Close")
	}
}

func TestStandardRulesTamperCritical(t *testing.T) {
	r := NewRules(New(), StandardRules(StandardRuleOptions{}), time.Hour)
	now := time.Unix(1000, 0)
	r.EvaluateAt(now, Snapshot{"spitz_audit_failures_total": 0})
	if h := r.Health(); h != HealthOK {
		t.Fatalf("health = %q before tampering", h)
	}
	// One failed audit fires the critical rule on the very next
	// evaluation, and a later quiet snapshot cannot clear it.
	r.EvaluateAt(now.Add(time.Second), Snapshot{"spitz_audit_failures_total": 1})
	if h := r.Health(); h != HealthCritical {
		t.Fatalf("health = %q after tampering, want critical", h)
	}
	r.EvaluateAt(now.Add(2*time.Second), Snapshot{"spitz_audit_failures_total": 1})
	if h := r.Health(); h != HealthCritical {
		t.Fatalf("tamper evidence cleared: health = %q", h)
	}
}
