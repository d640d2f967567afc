package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"spitz/internal/core"
	"spitz/internal/ledger"
	"spitz/internal/obs"
	"spitz/internal/query"
)

// knownOps lists every request type for per-op metric preallocation.
var knownOps = []Op{OpPut, OpGet, OpGetVerified, OpRange, OpRangeVer,
	OpHistory, OpDigest, OpConsistency, OpProveBatch, OpSnapshot,
	OpRestore, OpShardMap, OpClusterDigest, OpStats, OpQuery}

// opSeries are the serve metrics of one op.
type opSeries struct {
	count, errs *obs.Counter
	latency     *obs.Histogram
}

// opMetrics are the per-op serve metrics of one registry, preallocated so
// the request loop does one read-only map lookup plus atomic adds — no
// locks on the hot path.
type opMetrics struct {
	byOp  map[Op]opSeries
	other opSeries // what an op outside knownOps is counted under
}

func newOpMetrics(reg *obs.Registry) *opMetrics {
	series := func(op string) opSeries {
		label := `{op="` + op + `"}`
		return opSeries{
			count:   reg.Counter("spitz_wire_ops_total" + label),
			errs:    reg.Counter("spitz_wire_op_errors_total" + label),
			latency: reg.Histogram("spitz_wire_op_latency_ns" + label),
		}
	}
	m := &opMetrics{byOp: make(map[Op]opSeries, len(knownOps)), other: series("other")}
	for _, op := range knownOps {
		m.byOp[op] = series(string(op))
	}
	return m
}

// Every server of the process counts into the process-wide registry.
var (
	defaultOpMetrics = newOpMetrics(obs.Default)

	mConnsTotal   = obs.Default.Counter("spitz_wire_conns_total")
	mConnsOpen    = obs.Default.Gauge("spitz_wire_conns_open")
	mBytesRead    = obs.Default.Counter("spitz_wire_read_bytes_total")
	mBytesWritten = obs.Default.Counter("spitz_wire_written_bytes_total")
)

// Server serves a Handler over a listener.
type Server struct {
	// Repl, when non-nil, serves replication streams (OpReplStream): it
	// returns the replication source for a wire shard id (Router.Repl).
	// Set before Serve.
	Repl func(shard int) (ReplStreamer, error)

	// Node labels this server's spans in stitched distributed traces
	// ("primary", "replica"). Empty means "server". Set before Serve.
	Node string

	ops     *opMetrics // where requests are counted: defaultOpMetrics outside tests
	handler Handler

	mu     sync.Mutex
	closed bool
	ln     net.Listener
	stopc  chan struct{}         // closed when the server stops (aborts streams)
	conns  map[net.Conn]struct{} // live connections, closed on shutdown
}

// NewHandlerServer returns a server whose requests are executed by h (a
// Router, or a test's wrapper of one).
func NewHandlerServer(h Handler) *Server {
	return &Server{ops: defaultOpMetrics, handler: h, stopc: make(chan struct{}), conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until the listener is closed; on return the
// server is fully stopped — live connections (including replication
// streams) are closed, so a stopped server never keeps serving stale
// state in the background. Each connection multiplexes many in-flight
// requests.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	defer s.shutdown()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

// shutdown aborts in-flight streams and closes every live connection.
func (s *Server) shutdown() {
	s.mu.Lock()
	s.closed = true
	select {
	case <-s.stopc:
	default:
		close(s.stopc)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// countingConn feeds connection I/O into the wire byte counters.
type countingConn struct {
	net.Conn
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		mBytesRead.Add(uint64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		mBytesWritten.Add(uint64(n))
	}
	return n, err
}

// handle serves one connection: answer the hello, then demultiplex
// tagged request frames. Replication streams share the connection with
// queries — block frames go out under the stream's tag and OpReplAck
// frames route back to the feed by the same tag.
func (s *Server) handle(conn net.Conn) {
	mConnsTotal.Inc()
	mConnsOpen.Add(1)
	defer func() {
		mConnsOpen.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	cc := countingConn{conn}
	br := bufio.NewReaderSize(cc, 1<<16)
	var hello [6]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		if err != io.EOF { // a peer that left before sending a byte negotiated nothing
			mNegotiateFailed.Inc()
		}
		return
	}
	version, err := parseHello(hello[:])
	if err != nil {
		// Not a hello: nothing this peer sent is decoded as a frame.
		mNegotiateFailed.Inc()
		return
	}
	reply := helloBytes(protoVersion)
	if _, err := cc.Write(reply[:]); err != nil {
		return
	}
	if version != protoVersion {
		// The reply tells the peer which framing this build speaks; it
		// does not speak it, so the connection ends here.
		mNegotiateFailed.Inc()
		return
	}
	mNegotiatedBinary.Inc()
	fw := &frameWriter{w: cc}

	var (
		wg        sync.WaitGroup
		streamsMu sync.Mutex
		streams   = map[uint32]ReplFeed{}
		connDone  = make(chan struct{})
	)
	defer func() {
		close(connDone)
		wg.Wait()
	}()

	buf := getBuf()
	defer putBuf(buf)
	for {
		tag, payload, err := readFrame(br, buf)
		if err != nil {
			return // closed, or a frame header failed its CRC
		}
		req, err := DecodeRequest(payload)
		if err != nil {
			// The stream itself is still framed correctly, but the
			// payload is not trustworthy; report and drop the conn.
			fw.writeFrame(tag, AppendResponse(nil, &Response{Err: "wire: corrupt request payload"}))
			return
		}
		switch req.Op {
		case OpReplAck:
			// One-way progress report for the stream with this tag.
			streamsMu.Lock()
			feed := streams[tag]
			streamsMu.Unlock()
			if feed != nil {
				feed.Ack(req.Height)
			}
		case OpReplStream:
			wg.Add(1)
			go func(req Request, tag uint32) {
				defer wg.Done()
				feed, errMsg := s.attachRepl(conn, req)
				if feed == nil {
					fw.writeFrame(tag, AppendResponse(nil, &Response{Err: errMsg}))
					return
				}
				streamsMu.Lock()
				streams[tag] = feed
				streamsMu.Unlock()
				s.pumpRepl(fw, tag, feed, connDone)
				streamsMu.Lock()
				delete(streams, tag)
				streamsMu.Unlock()
			}(req, tag)
		default:
			mFramesInflight.Add(1)
			if br.Buffered() == 0 {
				// Nothing else is waiting: execute inline and save the
				// goroutine hand-off — the common serial-client case.
				err := s.answer(fw, tag, req)
				mFramesInflight.Add(-1)
				if err != nil {
					return
				}
			} else {
				// The client is pipelining; let requests overlap.
				wg.Add(1)
				go func(req Request, tag uint32) {
					defer wg.Done()
					defer mFramesInflight.Add(-1)
					s.answer(fw, tag, req)
				}(req, tag)
			}
		}
	}
}

// nodeName returns the span label for this server's side of a trace.
func (s *Server) nodeName() string {
	if s.Node != "" {
		return s.Node
	}
	return "server"
}

// execute runs one request through the server's handler chain and
// returns the response with the trace and start time still open, so the
// caller can attribute the encode cost before finishing.
func (s *Server) execute(req Request) (Response, *obs.Trace, time.Time) {
	start := time.Now()
	var tr *obs.Trace
	if req.traceID != 0 {
		// The client sampled this request and sent its trace context:
		// continue the distributed trace rather than re-rolling the
		// sampler, so every leg of a sampled fan-out is captured.
		tr = obs.DefaultTracer.Continue(string(req.Op), s.nodeName(), req.traceID, req.parentSpan)
	} else {
		tr = obs.DefaultTracer.Root(string(req.Op), s.nodeName())
	}
	req.SetTrace(tr)
	resp := s.handler.Handle(req)
	if resp.Stats != nil {
		resp.Stats.Protocol = ProtoBinary
	}
	tr.Stage("wire.handle", start)
	return resp, tr, start
}

// answer executes one request and writes its tagged response.
func (s *Server) answer(fw *frameWriter, tag uint32, req Request) error {
	resp, tr, start := s.execute(req)
	encStart := tr.Now()
	out := getBuf()
	out.b = AppendResponse(out.b[:0], &resp)
	respBytes := len(out.b)
	err := fw.writeFrame(tag, out.b)
	putBuf(out)
	tr.Stage("wire.encode", encStart)
	tr.Finish()
	s.ops.record(&req, start, resp.Err != "", respBytes)
	return err
}

// record updates the per-op serve metrics for one completed request
// and, independently of the trace sampler, captures over-threshold
// requests to the slow-op ring so tail events survive 1-in-N sampling.
// respBytes is the encoded response size.
func (m *opMetrics) record(req *Request, start time.Time, failed bool, respBytes int) {
	series, ok := m.byOp[req.Op]
	if !ok {
		series = m.other
	}
	series.count.Inc()
	if failed {
		series.errs.Inc()
	}
	elapsed := time.Since(start)
	series.latency.Observe(uint64(elapsed))
	if obs.DefaultSlowLog.Slow(string(req.Op), elapsed) {
		obs.DefaultSlowLog.Record(obs.SlowOp{
			Op:      string(req.Op),
			Start:   start,
			Latency: elapsed,
			Shard:   req.Shard,
			KeyHash: keyHash(req.PK),
			Bytes:   respBytes,
			Err:     failed,
		})
	}
}

// keyHash is FNV-1a over the request's primary key — enough to group
// slow ops by key without putting raw keys on an ops endpoint.
func keyHash(pk []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range pk {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Dispatch executes one request against an engine: what a Router runs on
// the shard it routed a request to.
func Dispatch(eng *core.Engine, req Request) Response {
	return fit(eng, req, dispatch(eng, req))
}

// fit is the one place a response is cut down to what its client lacks:
// a proof loses the question it answers (its point keys and range bounds),
// which the client walks itself (Verifier.Check), so a proof built for
// another question fails there; it loses the index nodes req.Have names,
// or takes a patch against the version it names, and range proofs their
// rows, which the client reads off the verified leaves. An eager read
// naming the trusted height (req.Height) gets what changed since: the
// consistency proof from it if the head moved, else no block binding if
// the client holds that head's header (req.HeadHeld) — a proof without
// its binding verifies only at the trusted digest its client named — and
// no digest beside its proof, which the client reads off the proof's
// inclusion path (proof.Proof.Bound). A point or range read whose answer
// did not change since comes from dispatch proven at that digest
// (Engine.Verified), so it is cut as one at the head. dispatch's proof
// struct is this call's own; node lists and sub-proofs inside may be
// shared, and ledger.Cut replaces rather than edits those.
func fit(eng *core.Engine, req Request, resp Response) Response {
	p := resp.Proof
	if p == nil {
		return resp
	}
	*p = ledger.Cut(*p, eng.Ledger().Held(req.Have))
	if req.Height == 0 || req.Op == OpProveBatch {
		return resp
	}
	switch d := resp.Digest; {
	case d.Height > req.Height:
		cons, err := eng.ConsistencyProof(req.Height, d.Height)
		if err != nil {
			return Response{Err: err.Error()}
		}
		resp.Consistency = &cons
	case d.Height == req.Height && req.HeadHeld && p.Header.Height+1 == d.Height:
		// A SELECT's proof can be bound to a later digest than its block.
		*p = ledger.Unbind(*p)
	}
	if p.Unbound || p.Inclusion.TreeSize == int(resp.Digest.Height) {
		resp.Digest = ledger.Digest{}
	}
	return resp
}

func dispatch(eng *core.Engine, req Request) Response {
	switch req.Op {
	case OpPut:
		h, err := eng.Apply(req.Statement, req.Puts)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Height: h.Height, Version: h.Version}
	case OpGet:
		// Value and digest are captured atomically so an AuditMode client
		// can enqueue a receipt whose digest truly covers the value it
		// read; plain clients simply ignore the digest.
		cell, ok, d, err := eng.GetAttested(req.Table, req.Column, req.PK)
		if err != nil {
			return Response{Err: err.Error()}
		}
		if !ok || cell.Tombstone {
			return Response{Digest: d}
		}
		return Response{Found: true, Value: cell.Value, Digest: d}
	case OpGetVerified, OpRangeVer, OpHistory:
		q := ledger.BatchQuery{Table: req.Table, Column: req.Column, PK: req.PK, PKHi: req.PKHi, Range: req.Op == OpRangeVer}
		var trusted uint64 // the height to answer at when the answer has not changed since
		if req.HeadHeld {
			trusted = req.Height
		}
		res, err := eng.Verified(q, trusted, req.trace)
		if err != nil {
			return Response{Err: err.Error()}
		}
		if res.Digest.Height == 0 {
			// An empty ledger has no history to prove an answer against;
			// its answer is the empty one, which a client decides from the
			// digest alone.
			return Response{}
		}
		// The rows travel once, inside the proof's leaves; clients decode
		// them from there only, so Cells is not sent (and only the proof,
		// not the whole result, outlives the call).
		p := res.Proof
		resp := Response{Found: res.Found, Proof: &p, Digest: res.Digest}
		if req.Op == OpHistory && len(res.Cells) == 1 {
			// The versions the proven head replaced, newest first.
			if resp.Chain, err = eng.Ledger().Chain(p.Point.Values[0]); err != nil {
				return Response{Err: err.Error()}
			}
		}
		return resp
	case OpRange:
		cells, d, err := eng.RangePKAttested(req.Table, req.Column, req.PK, req.PKHi)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Found: len(cells) > 0, Cells: cells, Digest: d}
	case OpDigest:
		return Response{Digest: eng.Digest()}
	case OpConsistency:
		d := eng.Digest() // first: a commit before the proofs cannot split them
		cons, err := eng.ConsistencyProof(req.OldDigest.Height, d.Height)
		if err != nil {
			return Response{Err: err.Error()}
		}
		resp := Response{Consistency: &cons, Digest: d}
		if req.OldDigest2 != nil {
			cons2, err := eng.ConsistencyProof(req.OldDigest2.Height, d.Height)
			if err != nil {
				return Response{Err: err.Error()}
			}
			resp.Consistency2 = &cons2
		}
		return resp
	case OpProveBatch:
		if req.OldDigest2 == nil {
			return Response{Err: "wire: prove-batch requires the receipt digest (OldDigest2)"}
		}
		res, err := eng.ProveBatch(req.OldDigest, *req.OldDigest2, req.Audits)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Digest: res.Digest, Consistency: &res.ConsTrusted,
			Consistency2: &res.ConsAt, Proof: &res.Proof}
	case OpSnapshot:
		var buf bytes.Buffer
		d, err := eng.Ledger().WriteSnapshot(&buf) // the digest the stream restores to
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Found: true, Value: buf.Bytes(), Digest: d}
	case OpRestore:
		return Response{Err: "wire: restore requires a server, not a bare engine"}
	case OpQuery:
		stmt, err := query.Parse(req.Statement)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return dispatchQuery(eng, req, stmt)
	default:
		return Response{Err: fmt.Sprintf("wire: unknown op %q", req.Op)}
	}
}
