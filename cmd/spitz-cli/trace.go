package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"spitz/internal/scrape"
)

// The admin endpoint's JSON payloads (/tracez, /alertz, /slowz), decoded
// with just the fields the renderers need.

type stageJSON struct {
	Name     string        `json:"name"`
	Offset   time.Duration `json:"offset_ns"`
	Duration time.Duration `json:"duration_ns"`
}

type spanJSON struct {
	TraceID  uint64        `json:"trace_id"`
	SpanID   uint64        `json:"span_id"`
	ParentID uint64        `json:"parent_id"`
	Node     string        `json:"node"`
	Op       string        `json:"op"`
	Start    time.Time     `json:"start"`
	Total    time.Duration `json:"total_ns"`
	Stages   []stageJSON   `json:"stages"`
	Depth    int           `json:"depth"`
}

type stitchedJSON struct {
	TraceID uint64        `json:"trace_id"`
	Start   time.Time     `json:"start"`
	Total   time.Duration `json:"total_ns"`
	Spans   []spanJSON    `json:"spans"`
	Dropped int           `json:"dropped"`
}

type tracezJSON struct {
	Stitched []stitchedJSON `json:"stitched"`
}

type ruleJSON struct {
	Name      string    `json:"name"`
	Severity  string    `json:"severity"`
	State     string    `json:"state"`
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
	Since     time.Time `json:"since"`
	Message   string    `json:"message"`
}

type alertzJSON struct {
	Health string     `json:"health"`
	Rules  []ruleJSON `json:"rules"`
}

type slowJSON struct {
	Op      string        `json:"op"`
	Start   time.Time     `json:"start"`
	Latency time.Duration `json:"latency_ns"`
	Shard   int           `json:"shard"`
	KeyHash uint64        `json:"key_hash"`
	Bytes   int           `json:"bytes"`
	Err     bool          `json:"err"`
}

type slowzJSON struct {
	Slow  []slowJSON `json:"slow"`
	Total uint64     `json:"total"`
}

// traceCmd implements `spitz-cli trace`: fetch /tracez from the admin
// endpoint and render each stitched trace as a cross-node timeline —
// one line per span, indented by parent depth, with the recording node
// in its own column. With -follow it polls and prints traces it has not
// shown yet, newest last, like a tail.
func traceCmd(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	admin := fs.String("admin", "127.0.0.1:7688", "server ops (admin) HTTP address")
	follow := fs.Bool("follow", false, "poll for new traces and print them as they appear")
	every := fs.Duration("every", time.Second, "poll interval under -follow")
	limit := fs.Int("n", 10, "max traces to show per fetch (0 = all)")
	stages := fs.Bool("stages", false, "also print per-stage timings inside each span")
	fs.Parse(args)

	url := "http://" + *admin + "/tracez"
	seen := map[uint64]bool{}
	for {
		var dump tracezJSON
		check(scrape.JSON(url, &dump))
		// The endpoint returns newest-first; print oldest-first so a
		// follow reads chronologically.
		ts := dump.Stitched
		if *limit > 0 && len(ts) > *limit {
			ts = ts[:*limit]
		}
		for i := len(ts) - 1; i >= 0; i-- {
			t := ts[i]
			if seen[t.TraceID] {
				continue
			}
			seen[t.TraceID] = true
			printTrace(t, *stages)
		}
		if !*follow {
			return
		}
		time.Sleep(*every)
	}
}

func printTrace(t stitchedJSON, stages bool) {
	fmt.Printf("trace %016x  %s  %d span(s)", t.TraceID, fmtDur(t.Total), len(t.Spans))
	if t.Dropped > 0 {
		fmt.Printf("  [%d span(s) dropped: forged or duplicate IDs]", t.Dropped)
	}
	fmt.Println()
	// Column widths: indented op, then node, then offset/duration.
	opW, nodeW := 0, 0
	for _, s := range t.Spans {
		if w := 2*s.Depth + len(s.Op); w > opW {
			opW = w
		}
		if len(s.Node) > nodeW {
			nodeW = len(s.Node)
		}
	}
	for _, s := range t.Spans {
		indent := strings.Repeat("  ", s.Depth)
		fmt.Printf("  %-*s  %-*s  +%-9s %s\n",
			opW, indent+s.Op, nodeW, s.Node, fmtDur(s.Start.Sub(t.Start)), fmtDur(s.Total))
		if stages {
			for _, st := range s.Stages {
				fmt.Printf("  %-*s  %-*s  +%-9s %s\n",
					opW, indent+"  · "+st.Name, nodeW, "", fmtDur(s.Start.Sub(t.Start)+st.Offset), fmtDur(st.Duration))
			}
		}
	}
	fmt.Println()
}

// alertsCmd implements `spitz-cli alerts`: fetch /alertz and render the
// health rules as an aligned table, firing rules first.
func alertsCmd(args []string) {
	fs := flag.NewFlagSet("alerts", flag.ExitOnError)
	admin := fs.String("admin", "127.0.0.1:7688", "server ops (admin) HTTP address")
	fs.Parse(args)

	var dump alertzJSON
	check(scrape.JSON("http://"+*admin+"/alertz", &dump))
	fmt.Printf("health: %s\n", dump.Health)
	if len(dump.Rules) == 0 {
		fmt.Println("(no health rules configured)")
		return
	}
	nameW := 0
	for _, r := range dump.Rules {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	order := map[string]int{"firing": 0, "pending": 1, "ok": 2}
	rules := append([]ruleJSON(nil), dump.Rules...)
	for i := 1; i < len(rules); i++ { // insertion sort: firing first, stable
		for j := i; j > 0 && order[rules[j].State] < order[rules[j-1].State]; j-- {
			rules[j], rules[j-1] = rules[j-1], rules[j]
		}
	}
	for _, r := range rules {
		line := fmt.Sprintf("%-7s  %-*s  %-8s  value=%g threshold=%g",
			strings.ToUpper(r.State), nameW, r.Name, r.Severity, r.Value, r.Threshold)
		if r.State != "ok" && !r.Since.IsZero() {
			line += fmt.Sprintf("  since=%s", time.Since(r.Since).Round(time.Second))
		}
		if r.Message != "" {
			line += "  " + r.Message
		}
		fmt.Println(line)
	}
	if dump.Health != "ok" {
		os.Exit(1) // scriptable: non-ok health is a non-zero exit
	}
}

// slowCmd implements `spitz-cli slow`: fetch /slowz and list the
// captured over-threshold requests, newest first.
func slowCmd(args []string) {
	fs := flag.NewFlagSet("slow", flag.ExitOnError)
	admin := fs.String("admin", "127.0.0.1:7688", "server ops (admin) HTTP address")
	fs.Parse(args)

	var dump slowzJSON
	check(scrape.JSON("http://"+*admin+"/slowz", &dump))
	fmt.Printf("%d slow op(s) total, %d retained\n", dump.Total, len(dump.Slow))
	for _, s := range dump.Slow {
		line := fmt.Sprintf("%s  %-12s %s", s.Start.Format("15:04:05.000"), s.Op, fmtDur(s.Latency))
		if s.Shard > 0 {
			line += fmt.Sprintf("  shard=%d", s.Shard-1)
		}
		if s.KeyHash != 0 {
			line += fmt.Sprintf("  key=%016x", s.KeyHash)
		}
		if s.Bytes > 0 {
			line += fmt.Sprintf("  %dB", s.Bytes)
		}
		if s.Err {
			line += "  ERR"
		}
		fmt.Println(line)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/1e3)
	}
}
