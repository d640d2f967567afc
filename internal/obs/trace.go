package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTracer samples 1 in 128 wire requests and keeps the last 64
// finished traces for /tracez. Smoke tests and debugging sessions crank
// the rate up with SetSampleEvery.
var DefaultTracer = NewTracer(128, 64)

// idSalt makes trace and span IDs process-unique: IDs are a bijective
// mix of a per-process random salt and a monotonic counter, so two
// processes participating in the same distributed trace cannot mint the
// same span ID (collision odds ~2^-64 per pair), and IDs stay unique
// within a process by construction.
var idSalt = func() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Fall back to a fixed salt; IDs remain unique in-process.
		return 0x5b1f_c0de_9d42_a7e3
	}
	return binary.LittleEndian.Uint64(b[:])
}()

var idCounter atomic.Uint64

// newID mints a process-unique, never-zero 64-bit span/trace ID.
// Multiplying the counter by an odd constant is a bijection on uint64,
// so in-process IDs never collide; the salt decorrelates processes.
func newID() uint64 {
	id := (idCounter.Add(1) * 0x9E3779B97F4A7C15) ^ idSalt
	if id == 0 {
		id = (idCounter.Add(1) * 0x9E3779B97F4A7C15) ^ idSalt
	}
	return id
}

// Tracer allocates request IDs at the wire server and samples a fixed
// fraction of requests for stage-level tracing. The unsampled path pays
// exactly one atomic add per request; only sampled requests touch the
// clock and allocate.
type Tracer struct {
	every atomic.Uint64 // sample 1 in every (0 disables)
	seq   atomic.Uint64 // request counter, drives sampling
	ids   atomic.Uint64 // legacy per-tracer request ID allocator

	mu   sync.Mutex
	ring []TraceSnapshot // finished traces, oldest overwritten first
	next int
	n    int
}

// NewTracer returns a tracer sampling 1 in every requests and retaining
// the last keep finished traces.
func NewTracer(every uint64, keep int) *Tracer {
	t := &Tracer{ring: make([]TraceSnapshot, keep)}
	t.every.Store(every)
	return t
}

// SetSampleEvery changes the sampling rate: 1 in every requests traced,
// 0 disables tracing entirely.
func (t *Tracer) SetSampleEvery(every uint64) { t.every.Store(every) }

// Sample allocates a request ID and, for the sampled fraction, returns a
// live Trace; otherwise nil. A nil *Trace is valid everywhere — every
// recording method no-ops on it — so call sites thread the result
// unconditionally. A sampled trace is a root span: it carries a fresh
// process-unique trace ID whose context propagates over the wire.
func (t *Tracer) Sample(op string) *Trace { return t.Root(op, "") }

// Root is Sample with a node label: the sampling decision lives with
// whoever opens the trace (normally the client — servers continue remote
// contexts instead of re-deciding), and node names the process role in
// the stitched timeline ("client", "shard-1", "replica").
func (t *Tracer) Root(op, node string) *Trace {
	every := t.every.Load()
	if every == 0 {
		return nil
	}
	if t.seq.Add(1)%every != 0 {
		return nil
	}
	return &Trace{
		tracer:  t,
		id:      t.ids.Add(1),
		traceID: newID(),
		spanID:  newID(),
		op:      op,
		node:    node,
		start:   time.Now(),
		stages:  make([]StageSpan, 0, 8),
	}
}

// Continue opens a live span inside a trace started elsewhere — the
// server-side half of wire trace propagation. No sampling decision is
// made here: the client sampled when it opened the root, so a request
// arriving with trace context is always recorded (unless tracing is
// disabled outright with SetSampleEvery(0)).
func (t *Tracer) Continue(op, node string, traceID, parentSpan uint64) *Trace {
	if traceID == 0 || t.every.Load() == 0 {
		return nil
	}
	return &Trace{
		tracer:   t,
		id:       t.ids.Add(1),
		traceID:  traceID,
		spanID:   newID(),
		parentID: parentSpan,
		op:       op,
		node:     node,
		start:    time.Now(),
		stages:   make([]StageSpan, 0, 8),
	}
}

// StageSpan is one timed stage inside a trace. Offsets are relative to
// the trace start, so /tracez renders a timeline; spans may nest (a
// wire.handle span covers the ledger and proof spans inside it).
type StageSpan struct {
	Name     string        `json:"name"`
	Offset   time.Duration `json:"offset_ns"`
	Duration time.Duration `json:"duration_ns"`
}

// TraceSnapshot is one finished span as served on /tracez. Spans from
// different processes that share a TraceID are stitched into one
// timeline by Stitch; ParentID links a span to the span that fanned out
// to it (0 for the root).
type TraceSnapshot struct {
	ID       uint64        `json:"id"`
	TraceID  uint64        `json:"trace_id"`
	SpanID   uint64        `json:"span_id"`
	ParentID uint64        `json:"parent_id,omitempty"`
	Node     string        `json:"node,omitempty"`
	Op       string        `json:"op"`
	Start    time.Time     `json:"start"`
	Total    time.Duration `json:"total_ns"`
	Stages   []StageSpan   `json:"stages"`
}

// Trace records stage durations for one sampled request. It lives on a
// single request-handling goroutine; methods are not safe for concurrent
// use but are safe (and free) on a nil receiver. Child spans are
// independent Trace values, so fan-out legs on separate goroutines each
// record into their own span.
type Trace struct {
	tracer   *Tracer
	id       uint64
	traceID  uint64
	spanID   uint64
	parentID uint64
	op       string
	node     string
	start    time.Time
	stages   []StageSpan
}

// Sampled reports whether tr is live.
func (tr *Trace) Sampled() bool { return tr != nil }

// Now is the start of a stage: the clock on a live trace, the zero time
// on a nil one. The common-path idiom is
//
//	t0 := tr.Now()
//	... stage work ...
//	tr.Stage("ledger.proof", t0)
//
// so unsampled requests never read the clock for stage timing.
func (tr *Trace) Now() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// Context returns the identifiers a request must carry for a remote
// process to continue this trace. ok is false on a nil (unsampled)
// trace, in which case nothing is put on the wire.
func (tr *Trace) Context() (traceID, spanID uint64, ok bool) {
	if tr == nil {
		return 0, 0, false
	}
	return tr.traceID, tr.spanID, true
}

// Child opens a sub-span for one fan-out leg (a 2PC participant, one
// shard of a scatter, a proof-sync RTT). The child shares tr's trace ID
// with tr as parent, inherits the node label, and must be Finished
// independently — it is a separate Trace value, safe to hand to another
// goroutine.
func (tr *Trace) Child(op string) *Trace {
	if tr == nil {
		return nil
	}
	return tr.ChildAt(op, tr.node)
}

// ChildAt is Child with an explicit node label, for legs that logically
// execute as a different role (a coordinator opening per-shard spans).
func (tr *Trace) ChildAt(op, node string) *Trace {
	if tr == nil {
		return nil
	}
	return &Trace{
		tracer:   tr.tracer,
		id:       tr.tracer.ids.Add(1),
		traceID:  tr.traceID,
		spanID:   newID(),
		parentID: tr.spanID,
		op:       op,
		node:     node,
		start:    time.Now(),
		stages:   make([]StageSpan, 0, 4),
	}
}

// Stage records a span that started at start and ends now.
func (tr *Trace) Stage(name string, start time.Time) {
	if tr == nil {
		return
	}
	now := time.Now()
	tr.stages = append(tr.stages, StageSpan{
		Name:     name,
		Offset:   start.Sub(tr.start),
		Duration: now.Sub(start),
	})
}

// Finish closes the trace and publishes it to the tracer's ring.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	snap := TraceSnapshot{
		ID:       tr.id,
		TraceID:  tr.traceID,
		SpanID:   tr.spanID,
		ParentID: tr.parentID,
		Node:     tr.node,
		Op:       tr.op,
		Start:    tr.start,
		Total:    time.Since(tr.start),
		Stages:   tr.stages,
	}
	t := tr.tracer
	t.mu.Lock()
	t.ring[t.next] = snap
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Recent returns the retained finished traces, newest first.
func (t *Tracer) Recent() []TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceSnapshot, 0, t.n)
	for i := 0; i < t.n; i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}

// StitchedSpan is one span placed in a stitched cross-node timeline:
// Depth is its distance from the trace root (0 for roots and orphans
// whose parent span was not captured).
type StitchedSpan struct {
	TraceSnapshot
	Depth int `json:"depth"`
}

// StitchedTrace is every captured span sharing one trace ID, ordered
// parent-first (depth-first, siblings by start time) so a renderer can
// indent children under the span that fanned out to them. Dropped
// counts spans rejected as forged: zero or duplicate span IDs, and
// parent cycles.
type StitchedTrace struct {
	TraceID uint64         `json:"trace_id"`
	Start   time.Time      `json:"start"`
	Total   time.Duration  `json:"total_ns"`
	Spans   []StitchedSpan `json:"spans"`
	Dropped int            `json:"dropped,omitempty"`
}

// Stitch groups spans by trace ID into cross-node timelines. Spans with
// a zero trace ID (pre-propagation traces) are ignored; within a trace,
// spans with a zero span ID, a span ID already seen (a forged or
// duplicated span), or a self/cyclic parent chain are dropped and
// counted. Traces are returned newest first.
func Stitch(spans []TraceSnapshot) []StitchedTrace {
	byTrace := make(map[uint64][]TraceSnapshot)
	dropped := make(map[uint64]int)
	for _, s := range spans {
		if s.TraceID == 0 {
			continue
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	out := make([]StitchedTrace, 0, len(byTrace))
	for id, group := range byTrace {
		seen := make(map[uint64]TraceSnapshot, len(group))
		for _, s := range group {
			if s.SpanID == 0 || s.SpanID == s.ParentID {
				dropped[id]++
				continue
			}
			if _, dup := seen[s.SpanID]; dup {
				dropped[id]++
				continue
			}
			seen[s.SpanID] = s
		}
		// Reject spans whose parent chain cycles without reaching a root
		// or an uncaptured parent.
		ok := make(map[uint64]bool, len(seen))
		for spanID := range seen {
			if !chainTerminates(spanID, seen, ok) {
				dropped[id]++
				delete(seen, spanID)
			}
		}
		if len(seen) == 0 {
			if dropped[id] > 0 {
				out = append(out, StitchedTrace{TraceID: id, Dropped: dropped[id]})
			}
			continue
		}
		st := stitchOne(id, seen)
		st.Dropped = dropped[id]
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// chainTerminates reports whether spanID's parent chain reaches a root
// (parent 0) or an uncaptured parent, caching results in ok. A chain
// that revisits itself is a cycle: every span on the walked path is
// poisoned, since none of them can reach a root.
func chainTerminates(spanID uint64, seen map[uint64]TraceSnapshot, ok map[uint64]bool) bool {
	var path []uint64
	onPath := make(map[uint64]bool)
	cur, result := spanID, true
	for {
		if done, cached := ok[cur]; cached {
			result = done
			break
		}
		if onPath[cur] {
			result = false
			break
		}
		s, present := seen[cur]
		if !present {
			break // uncaptured parent: treat as terminating
		}
		onPath[cur] = true
		path = append(path, cur)
		if s.ParentID == 0 {
			break // reached a root
		}
		cur = s.ParentID
	}
	for _, p := range path {
		ok[p] = result
	}
	return result
}

// stitchOne orders one trace's surviving spans parent-first.
func stitchOne(traceID uint64, seen map[uint64]TraceSnapshot) StitchedTrace {
	children := make(map[uint64][]TraceSnapshot)
	var roots []TraceSnapshot
	for _, s := range seen {
		if _, hasParent := seen[s.ParentID]; s.ParentID != 0 && hasParent {
			children[s.ParentID] = append(children[s.ParentID], s)
		} else {
			roots = append(roots, s)
		}
	}
	byStart := func(ss []TraceSnapshot) {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].Start.Equal(ss[j].Start) {
				return ss[i].SpanID < ss[j].SpanID
			}
			return ss[i].Start.Before(ss[j].Start)
		})
	}
	byStart(roots)
	st := StitchedTrace{TraceID: traceID}
	var walk func(s TraceSnapshot, depth int)
	walk = func(s TraceSnapshot, depth int) {
		st.Spans = append(st.Spans, StitchedSpan{TraceSnapshot: s, Depth: depth})
		kids := children[s.SpanID]
		byStart(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	st.Start = st.Spans[0].Start
	for _, s := range st.Spans {
		if end := s.Start.Add(s.Total); end.After(st.Start.Add(st.Total)) {
			st.Total = end.Sub(st.Start)
		}
	}
	return st
}
