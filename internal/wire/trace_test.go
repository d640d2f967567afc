package wire

import (
	"testing"
	"time"

	"spitz/internal/obs"
)

// sampleAll cranks the process tracer to 1-in-1 for the test and
// restores the production rate afterwards.
func sampleAll(t *testing.T) {
	t.Helper()
	obs.DefaultTracer.SetSampleEvery(1)
	t.Cleanup(func() { obs.DefaultTracer.SetSampleEvery(128) })
}

// findSpan returns the newest span with the given op that started at or
// after since, if any. A server finishes its span after the response is
// on the wire, so the client can get here first: wait for the span
// rather than mistake an earlier test's for it.
func findSpan(op string, since time.Time) (obs.TraceSnapshot, bool) {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		for _, s := range obs.DefaultTracer.Recent() {
			if s.Op == op && !s.Start.Before(since) {
				return s, true
			}
		}
		if time.Now().After(deadline) {
			return obs.TraceSnapshot{}, false
		}
	}
}

// TestTraceContextOverWire asserts the framing carries the client's
// trace context: the server-side span continues the client's trace ID
// with the client span as parent, instead of minting a fresh
// server-local trace — which is what a request without context gets.
func TestTraceContextOverWire(t *testing.T) {
	sampleAll(t)
	cl, _ := startServer(t)
	if _, err := cl.Do(Request{Op: OpPut, Statement: "seed", Puts: putBatch(4)}); err != nil {
		t.Fatal(err)
	}

	since := time.Now()
	root := obs.DefaultTracer.Root("client.test-read", "client")
	traceID, spanID, ok := root.Context()
	if !ok {
		t.Fatal("root has no context at 1-in-1 sampling")
	}
	req := Request{Op: OpGet, Table: "t", Column: "c", PK: []byte("pk0001")}
	req.SetTrace(root)
	if _, err := cl.Do(req); err != nil {
		t.Fatal(err)
	}
	root.Finish()

	srvSpan, found := findSpan("get", since)
	if !found {
		t.Fatal("server recorded no span for the traced get")
	}
	if srvSpan.TraceID != traceID {
		t.Errorf("server span trace ID %x, want the client's %x", srvSpan.TraceID, traceID)
	}
	if srvSpan.ParentID != spanID {
		t.Errorf("server span parent %x, want the client root span %x", srvSpan.ParentID, spanID)
	}
	if srvSpan.Node != "server" {
		t.Errorf("server span node = %q, want the default \"server\"", srvSpan.Node)
	}

	// A request that carries no context is sampled server-locally: its
	// span is a fresh root, not a child of anything the client did.
	since = time.Now()
	if _, err := cl.Do(Request{Op: OpGet, Table: "t", Column: "c", PK: []byte("pk0002")}); err != nil {
		t.Fatal(err)
	}
	local, found := findSpan("get", since)
	if !found {
		t.Fatal("server recorded no span for the untraced get")
	}
	if local.TraceID == traceID || local.ParentID != 0 {
		t.Errorf("untraced get's span is trace %x parent %x, want a fresh root", local.TraceID, local.ParentID)
	}
}

// TestSetTraceSurvivesReencode is the regression test for the silent
// trace drop at in-process hops: SetTrace captures the wire-form
// context, so a request attached to a trace in one process and
// re-encoded toward another server still carries it.
func TestSetTraceSurvivesReencode(t *testing.T) {
	sampleAll(t)
	root := obs.DefaultTracer.Root("hop", "router")
	wantTrace, wantSpan, _ := root.Context()

	req := Request{Op: OpGet, Table: "t", Column: "c", PK: []byte("k")}
	req.SetTrace(root)
	if gotT, gotS := req.TraceContext(); gotT != wantTrace || gotS != wantSpan {
		t.Fatalf("TraceContext = %x/%x, want %x/%x", gotT, gotS, wantTrace, wantSpan)
	}

	// Round-trip through the binary codec — the re-encode a proxying hop
	// performs — and check the context survived.
	enc := AppendRequest(nil, &req)
	dec, err := DecodeRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	gotT, gotS := dec.TraceContext()
	if gotT != wantTrace || gotS != wantSpan {
		t.Errorf("re-encoded context = %x/%x, want %x/%x", gotT, gotS, wantTrace, wantSpan)
	}

	// An untraced request encodes no context at all — and decodes to none.
	plain := Request{Op: OpGet, Table: "t", Column: "c", PK: []byte("k")}
	encPlain := AppendRequest(nil, &plain)
	decPlain, err := DecodeRequest(encPlain)
	if err != nil {
		t.Fatal(err)
	}
	if gotT, gotS := decPlain.TraceContext(); gotT != 0 || gotS != 0 {
		t.Errorf("untraced request decoded context %x/%x", gotT, gotS)
	}
	if len(encPlain) >= len(enc) {
		t.Errorf("untraced encoding (%dB) not smaller than traced (%dB)", len(encPlain), len(enc))
	}
	root.Finish()
}
