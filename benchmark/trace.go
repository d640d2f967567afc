package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public entry point. Spans of one
// ladder share Op ("<kind>/<n>"); Parent links express containment in the
// call path, not in wall time: each level of a ladder is a separate
// re-execution, timed on its own.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(parent uint64, op, name string, start, end time.Time) uint64 {
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs f as a child span of parent.
func (t *tracer) timed(parent uint64, op, name string, f func() error) (uint64, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", op, name, err)
	}
	return t.add(parent, op, name, start, end), nil
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTrace(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// layerTimes is what the trace holds about one span name within one op type.
type layerTimes struct {
	Dur  []float64 // µs, one per span
	Self float64   // µs: median(Dur) minus the median of what each child name covers
}

// selfTimes computes, per op type and span name, the span durations and the
// layer's self time. The levels of one ladder are separate executions on
// different inputs, so subtracting a child from its own parent span would
// subtract the timing of an unrelated op; self time is therefore a
// difference of medians over the sample: the median duration of the layer
// minus, for each child name, the median of what that child covers. Children
// that share a name under one parent span are the parallel legs of one
// fan-out and cover only the longest of them.
func selfTimes(spans []span) map[string]map[string]*layerTimes {
	children := make(map[uint64][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := make(map[string]map[string]*layerTimes)
	covers := make(map[*layerTimes]map[string][]float64) // layer -> child name -> cover per parent span
	for i := range spans {
		s := &spans[i]
		kind := opType(s.Op)
		if out[kind] == nil {
			out[kind] = make(map[string]*layerTimes)
		}
		lt := out[kind][s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[kind][s.Name] = lt
			covers[lt] = make(map[string][]float64)
		}
		lt.Dur = append(lt.Dur, float64(s.End-s.Start)/1e3)
		longest := make(map[string]float64)
		for _, c := range children[s.ID] {
			if d := float64(c.End-c.Start) / 1e3; d > longest[c.Name] {
				longest[c.Name] = d
			}
		}
		for name, d := range longest {
			covers[lt][name] = append(covers[lt][name], d)
		}
	}
	for lt, byName := range covers {
		lt.Self = median(lt.Dur)
		for _, c := range byName {
			lt.Self -= median(c)
		}
	}
	return out
}

// opType strips the instance number from a span's op ("get/17" -> "get").
func opType(op string) string {
	if i := strings.IndexByte(op, '/'); i >= 0 {
		return op[:i]
	}
	return op
}

// budgetRow is one line of an op type's layer budget.
type budgetRow struct {
	Name   string
	N      int
	DurUS  float64
	SelfUS float64
}

// budget orders an op type's layers along the ladder (parents before
// children, by first appearance in the trace) with median duration and
// self time.
func budget(spans []span, times map[string]map[string]*layerTimes, kind string) []budgetRow {
	var order []string
	seen := make(map[string]bool)
	for i := range spans {
		if opType(spans[i].Op) == kind && !seen[spans[i].Name] {
			seen[spans[i].Name] = true
			order = append(order, spans[i].Name)
		}
	}
	rows := make([]budgetRow, 0, len(order))
	for _, name := range order {
		lt := times[kind][name]
		rows = append(rows, budgetRow{Name: name, N: len(lt.Dur), DurUS: median(lt.Dur), SelfUS: lt.Self})
	}
	return rows
}

// printBudget prints one op type's budget table: layer, samples, median
// span, self time, self time as a share of the root, and which line is the
// transport floor.
func printBudget(kind string, rows []budgetRow) {
	if len(rows) == 0 {
		return
	}
	root := rows[0].DurUS
	fmt.Printf("\nbudget %-10s %-34s %7s %10s %10s %7s\n", kind, "layer", "n", "span_us", "self_us", "share")
	for _, r := range rows {
		note := ""
		if r.Name == "wire.rtt_floor" {
			note = "  (floor)"
		}
		fmt.Printf("       %-10s %-34s %7d %10.2f %10.2f %6.1f%%%s\n", "", r.Name, r.N, r.DurUS, r.SelfUS, 100*ratio(r.SelfUS, root), note)
	}
}

// opTypes lists the op types present in a trace, sorted.
func opTypes(spans []span) []string {
	seen := make(map[string]bool)
	for i := range spans {
		seen[opType(spans[i].Op)] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
