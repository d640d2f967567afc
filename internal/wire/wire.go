// Package wire implements the client/server protocol for Spitz services.
//
// Two framings share the protocol's Request/Response vocabulary. The
// current one (binary/v2, negotiated at connect time — see frame.go) is
// a length-prefixed compact binary encoding with tagged frames, so many
// requests can be in flight on one connection and large payloads can
// ship compressed. The original gob framing remains fully served:
// a server recognizes a legacy client by its first byte and speaks gob
// for that connection, and a client falls back to gob when the server
// does not answer the version handshake. The same protocol serves the
// standalone Spitz server (cmd/spitz-server) and the two services of
// the non-intrusive deployment (Figure 3), whose measured overhead in
// Figure 8 is precisely the cost of crossing this boundary twice per
// operation instead of zero or one times.
package wire

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/obs"
)

// Op identifies a request type.
type Op string

// Supported operations.
const (
	OpPut         Op = "put"          // batched cell writes
	OpGet         Op = "get"          // unverified point read
	OpGetVerified Op = "get-verified" // point read + proof
	OpRange       Op = "range"        // unverified pk range scan
	OpRangeVer    Op = "range-verified"
	OpLookupEq    Op = "lookup-eq" // inverted-index equality lookup
	OpHistory     Op = "history"
	OpDigest      Op = "digest"
	OpConsistency Op = "consistency"
	OpProveBatch  Op = "prove-batch" // aggregated proof for a batch of audit receipts
	OpSnapshot    Op = "snapshot"    // stream a full engine snapshot to the client
	OpRestore     Op = "restore"     // replace the served state from a snapshot
	OpQuery       Op = "query"       // execute a statement; SELECTs carry proofs

	// Sharded deployments (a Cluster served behind one listener).
	OpShardMap      Op = "shard-map"      // discover the shard count and routing scheme
	OpClusterDigest Op = "cluster-digest" // per-shard digest vector + combined root

	// Observability and replication.
	OpStats      Op = "stats"       // WAL span, follower lag, batching counters
	OpReplStream Op = "repl-stream" // subscribe to the committed-block stream
	OpReplAck    Op = "repl-ack"    // follower -> primary progress report (stream only)
)

// knownOps lists every request type for per-op metric preallocation.
var knownOps = []Op{OpPut, OpGet, OpGetVerified, OpRange, OpRangeVer,
	OpLookupEq, OpHistory, OpDigest, OpConsistency, OpProveBatch,
	OpSnapshot, OpRestore, OpShardMap, OpClusterDigest, OpStats, OpQuery}

// Per-op server metrics, preallocated so the request loop does one
// read-only map lookup plus atomic adds — no locks on the hot path.
var (
	mOpCount   = make(map[Op]*obs.Counter, len(knownOps))
	mOpErrs    = make(map[Op]*obs.Counter, len(knownOps))
	mOpLatency = make(map[Op]*obs.Histogram, len(knownOps))

	mOpCountOther   = obs.Default.Counter(`spitz_wire_ops_total{op="other"}`)
	mOpErrsOther    = obs.Default.Counter(`spitz_wire_op_errors_total{op="other"}`)
	mOpLatencyOther = obs.Default.Histogram(`spitz_wire_op_latency_ns{op="other"}`)

	mConnsTotal   = obs.Default.Counter("spitz_wire_conns_total")
	mConnsOpen    = obs.Default.Gauge("spitz_wire_conns_open")
	mBytesRead    = obs.Default.Counter("spitz_wire_read_bytes_total")
	mBytesWritten = obs.Default.Counter("spitz_wire_written_bytes_total")
)

func init() {
	for _, op := range knownOps {
		label := `{op="` + string(op) + `"}`
		mOpCount[op] = obs.Default.Counter("spitz_wire_ops_total" + label)
		mOpErrs[op] = obs.Default.Counter("spitz_wire_op_errors_total" + label)
		mOpLatency[op] = obs.Default.Histogram("spitz_wire_op_latency_ns" + label)
	}
}

// Put is one write in a request.
type Put struct {
	Table     string
	Column    string
	PK        []byte
	Value     []byte
	Tombstone bool
}

// Request is the client -> server message.
type Request struct {
	Op        Op
	Table     string
	Column    string
	PK        []byte
	PKHi      []byte
	Value     []byte // OpLookupEq: the value to look up
	Puts      []Put
	Statement string
	OldDigest ledger.Digest
	// OldDigest2, when non-nil on OpConsistency, requests a second
	// consistency proof captured atomically with the first — used by
	// clients to verify a proof whose digest their trust already moved
	// past (Response.Consistency2). On OpProveBatch it is required: the
	// digest the audited reads were accepted at (the batch is proven at
	// its head block, and Consistency2 shows it prefixes the ledger).
	OldDigest2 *ledger.Digest
	// Audits is the OpProveBatch receipt batch: the point and range reads
	// to prove at OldDigest2's head block.
	Audits   []ledger.BatchQuery
	Snapshot []byte // OpRestore: the snapshot stream to load

	// Deferred asks an OpQuery SELECT to skip the eager proof round: the
	// response carries attested cells and the execution digest, and the
	// client (AuditMode) enqueues receipts it proves later in one
	// OpProveBatch flush.
	Deferred bool

	// Shard targets one shard of a sharded deployment: 0 routes by
	// primary key (or addresses the whole cluster), i > 0 addresses shard
	// i-1 directly. Single-engine servers ignore it, so shard-aware
	// clients interoperate with both.
	Shard int

	// Height carries the ledger height of replication requests: the
	// height to stream from (OpReplStream) or the follower's height after
	// applying a block (OpReplAck).
	Height uint64

	// Have, on the proof-carrying reads (OpGetVerified, OpRangeVer,
	// OpProveBatch, OpQuery), is the set of digests of the verified index
	// nodes the client already holds where the read will walk (at most
	// postree.MaxHave). The server leaves a node's body out of the proof iff it
	// is an index node whose digest is in the set; absent, the proof is
	// complete. It is a hint only: the client verifies by walking from
	// its trusted root and takes a node that was left out solely from its
	// own verified nodes.
	Have []hashutil.Digest

	// trace is the live span for this request (nil for the unsampled
	// majority). It rides the Request value through Handler
	// implementations into Dispatch, which threads it down the
	// engine/ledger proof stages. The pointer itself never crosses the
	// wire; traceID/parentSpan below are its wire form.
	trace *obs.Trace

	// traceID/parentSpan carry the distributed trace context. SetTrace
	// fills them from the attached span, the binary codec serializes
	// them (a presence-bitmap field — zero bytes when absent), and the
	// serving side's execute continues the trace as a child span. The
	// legacy gob framing does not carry them (gob encodes only exported
	// fields), so gob hops degrade to server-local sampling.
	traceID    uint64
	parentSpan uint64
}

// SetTrace attaches a live span to a request. The span pointer rides
// in-process hops (a cluster routing to its shard engines passes the
// same Request value); for wire hops the span's trace ID and span ID
// are captured alongside so the binary codec propagates the context and
// the remote server continues the trace.
func (r *Request) SetTrace(tr *obs.Trace) {
	r.trace = tr
	r.traceID, r.parentSpan, _ = tr.Context()
}

// TraceContext returns the distributed trace context this request
// carries (zero values when untraced).
func (r *Request) TraceContext() (traceID, parentSpan uint64) {
	return r.traceID, r.parentSpan
}

// Trace returns the live span attached to this request (nil for the
// unsampled majority). Handlers that fan out use it to open child
// spans for each leg.
func (r *Request) Trace() *obs.Trace { return r.trace }

// Response is the server -> client message.
type Response struct {
	Err          string
	Found        bool
	Value        []byte
	Cells        []cellstore.Cell
	Proof        *ledger.Proof
	BatchProof   *ledger.BatchProof // OpProveBatch: the aggregated proof
	Digest       ledger.Digest
	Consistency  *mtree.ConsistencyProof
	Consistency2 *mtree.ConsistencyProof // OpConsistency/OpProveBatch with OldDigest2
	Header       ledger.BlockHeader

	// Sharded deployments.
	ShardCount int                   // OpShardMap: number of shards behind this listener
	Shard      int                   // 1-based shard that served a routed request (0 = unsharded)
	Cluster    *ledger.ClusterDigest // OpClusterDigest

	// Replication stream messages (OpReplStream). Found distinguishes a
	// snapshot hand-off (Value = snapshot stream, Height = its block
	// count) from a block frame (Value = WAL frame, Height = the block's
	// index).
	Height uint64

	// Stats is the OpStats payload.
	Stats *Stats

	// RowsAffected reports how many rows an OpQuery mutation touched.
	RowsAffected int
}

// ---------------------------------------------------------------------------
// Observability (OpStats)

// Stats is the server-side observability payload: one entry per shard
// (single-engine servers report one), plus per-shard replica status when
// the serving node is itself a replica, plus the process's flattened
// metrics registry — every counter, gauge and histogram quantile the
// admin endpoint would serve on /metrics.
type Stats struct {
	// Protocol names the framing the serving connection negotiated
	// (ProtoBinary or ProtoGob), so operators can see which protocol a
	// fleet speaks during a rolling upgrade.
	Protocol string

	Shards []ShardStats
	// Metrics is the flattened obs registry snapshot (counters, gauges,
	// histogram _count/_sum/quantiles), sorted by series name.
	Metrics []Metric
}

// Metric is one flattened registry series in the OpStats payload.
type Metric struct {
	Name  string
	Value float64
}

// RegistryMetrics flattens the process metrics registry into the wire
// representation. Servers attach it to every OpStats response so
// clients (spitz-cli stats) see the full picture without scraping the
// admin endpoint.
func RegistryMetrics() []Metric {
	flat := obs.Default.Flat()
	out := make([]Metric, len(flat))
	for i, m := range flat {
		out[i] = Metric{Name: m.Name, Value: m.Value}
	}
	return out
}

// PublishStats registers scrape-time gauges derived from a deployment's
// typed stats payload: per-shard ledger heights, WAL retention span, and
// per-follower replication lag. Call it once when wiring the admin
// endpoint; fn is invoked on every /metrics scrape.
func PublishStats(r *obs.Registry, fn func() Stats) {
	r.RegisterEmitter(func(emit func(name string, value float64)) {
		st := fn()
		for i, sh := range st.Shards {
			l := fmt.Sprintf(`{shard="%d"}`, i)
			emit("spitz_shard_height"+l, float64(sh.Height))
			emit("spitz_shard_blocks"+l, float64(sh.Blocks))
			emit("spitz_shard_txns"+l, float64(sh.Txns))
			if sh.WAL != nil {
				emit("spitz_wal_durable_height"+l, float64(sh.WAL.DurableHeight))
				emit("spitz_wal_logged_height"+l, float64(sh.WAL.LoggedHeight))
				emit("spitz_wal_oldest_retained_height"+l, float64(sh.WAL.OldestRetainedHeight))
				emit("spitz_wal_segments"+l, float64(sh.WAL.Segments))
				emit("spitz_wal_retained_bytes"+l, float64(sh.WAL.RetainedBytes))
			}
			for _, f := range sh.Followers {
				fl := fmt.Sprintf(`{shard="%d",remote=%q}`, i, f.Remote)
				emit("spitz_follower_lag_blocks"+fl, float64(f.LagBlocks))
				emit("spitz_follower_lag_bytes"+fl, float64(f.LagBytes))
				emit("spitz_follower_sent_height"+fl, float64(f.SentHeight))
				emit("spitz_follower_acked_height"+fl, float64(f.AckedHeight))
				emit("spitz_follower_sent_bytes"+fl, float64(f.SentBytes))
			}
			if sh.Replica != nil {
				emit("spitz_replica_height"+l, float64(sh.Replica.Height))
				connected := 0.0
				if sh.Replica.Connected {
					connected = 1
				}
				emit("spitz_replica_connected"+l, connected)
				emit("spitz_replica_applied_blocks"+l, float64(sh.Replica.AppliedBlocks))
				emit("spitz_replica_applied_bytes"+l, float64(sh.Replica.AppliedBytes))
				emit("spitz_replica_snapshot_loads"+l, float64(sh.Replica.SnapshotLoads))
			}
		}
	})
}

// ShardStats describes one shard of the serving deployment.
type ShardStats struct {
	Height uint64 // committed ledger blocks
	Blocks uint64 // ledger blocks cut by the group-commit pipeline
	Txns   uint64 // transactions folded into those blocks

	// WAL is nil for in-memory shards.
	WAL *WALStats
	// Followers lists the replication followers currently attached.
	Followers []FollowerStats
	// Replica is set when this shard is a read replica mirroring a
	// primary.
	Replica *ReplicaStats
}

// WALStats mirrors durable.WALStats over the wire.
type WALStats struct {
	DurableHeight        uint64
	LoggedHeight         uint64
	OldestRetainedHeight uint64
	Segments             int
	RetainedBytes        int64
}

// FollowerStats describes one attached replication follower.
type FollowerStats struct {
	Remote      string // follower's transport address
	StartHeight uint64 // height the stream began at
	SentHeight  uint64 // blocks shipped to the follower
	AckedHeight uint64 // blocks the follower confirmed applying
	SentBytes   uint64 // snapshot + frame bytes shipped
	LagBlocks   uint64 // primary height minus acked height
	LagBytes    uint64 // shipped-but-unacknowledged bytes
}

// ReplicaStats describes a replica shard's view of its primary.
type ReplicaStats struct {
	Height        uint64
	Connected     bool
	LastError     string
	AppliedBlocks uint64
	AppliedBytes  uint64
	SnapshotLoads uint64
}

// ---------------------------------------------------------------------------
// Replication streaming (OpReplStream)

// ReplStreamer is a replication source: it attaches followers to a
// shard's committed-block stream. internal/repl implements it; servers
// expose it through Server.Repl.
type ReplStreamer interface {
	// Attach subscribes a follower whose ledger is fromHeight blocks
	// tall. The feed starts with a snapshot hand-off when the follower is
	// behind the retained log (or impossibly ahead of it), then yields
	// block frames in height order.
	Attach(remote string, fromHeight uint64) (ReplFeed, error)
}

// ReplFeed is one attached follower's view of the stream.
type ReplFeed interface {
	// Next blocks until the next event, stop closes (ErrStopped-like
	// error), or the feed fails.
	Next(stop <-chan struct{}) (ReplEvent, error)
	// Ack records that the follower's ledger is now height blocks tall.
	Ack(height uint64)
	// Close detaches the follower, releasing its log retention hold.
	Close()
}

// ReplEvent is one stream message: a snapshot hand-off or a block frame.
type ReplEvent struct {
	IsSnapshot bool
	Height     uint64 // snapshot: block count; frame: the block's index
	Snapshot   []byte
	Frame      []byte
}

// Handler executes one protocol request. core.Engine-backed servers use
// Dispatch; sharded deployments implement Handler to route requests
// across shards behind one listener.
type Handler interface {
	Handle(req Request) Response
}

// HandlerFunc adapts a function to Handler (as http.HandlerFunc does).
type HandlerFunc func(Request) Response

// Handle implements Handler.
func (f HandlerFunc) Handle(req Request) Response { return f(req) }

// EngineHandler returns a Handler dispatching to one engine — the
// building block for wrapping a served engine (e.g. with a fault
// injector in tamper-detection tests).
func EngineHandler(eng *core.Engine) Handler {
	return HandlerFunc(func(req Request) Response { return Dispatch(eng, req) })
}

// Server serves a core.Engine — or any Handler — over a listener.
type Server struct {
	// Restore, when non-nil, enables OpRestore: it loads a snapshot
	// stream into a fresh engine which then replaces the served one. nil
	// (the default) rejects restore requests.
	Restore func(snapshot []byte) (*core.Engine, error)

	// Repl, when non-nil, serves replication streams (OpReplStream): it
	// returns the replication source for a wire shard id (0 or 1 both
	// address a single-engine server; i > 0 addresses shard i-1 of a
	// cluster). Set before Serve.
	Repl func(shard int) (ReplStreamer, error)

	// Stats, when non-nil, answers OpStats with deployment-wide counters
	// (WAL span, attached followers); without it OpStats falls back to
	// the handler or the engine's basic counters. Set before Serve.
	Stats func() Stats

	// Node labels this server's spans in stitched distributed traces
	// ("shard-0", "replica"). Empty means "server". Set before Serve.
	Node string

	// LegacyGobOnly disables binary-framing negotiation, making the
	// server behave like a pre-v2 release: every connection is treated
	// as a gob stream, so a binary hello fails to decode and the
	// connection drops (which is exactly what drives client fallback).
	// Used by mixed-version tests and the spitz-server -legacy-gob flag.
	LegacyGobOnly bool

	mu      sync.Mutex
	engine  *core.Engine
	handler Handler // when set, requests go here instead of Dispatch(engine, ·)
	closed  bool
	ln      net.Listener
	stopc   chan struct{}         // closed when the server stops (aborts streams)
	conns   map[net.Conn]struct{} // live connections, closed on shutdown
}

// NewServer returns a server over eng.
func NewServer(eng *core.Engine) *Server {
	return &Server{engine: eng, stopc: make(chan struct{}), conns: make(map[net.Conn]struct{})}
}

// NewHandlerServer returns a server whose requests are executed by h
// (e.g. a sharded cluster served behind one listener).
func NewHandlerServer(h Handler) *Server {
	return &Server{handler: h, stopc: make(chan struct{}), conns: make(map[net.Conn]struct{})}
}

// Engine returns the currently served engine (it changes on OpRestore).
func (s *Server) Engine() *core.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine
}

// SetEngine atomically swaps the served engine. In-flight requests finish
// against the previous one.
func (s *Server) SetEngine(eng *core.Engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine = eng
}

// Serve accepts connections until the listener is closed; on return the
// server is fully stopped — live connections (including replication
// streams) are closed, so a stopped server never keeps serving stale
// state in the background. Binary-framing connections multiplex many
// in-flight requests; legacy gob connections handle requests
// sequentially (those clients multiplex by opening more connections).
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
	// Sniff the framing: a binary client opens with the 0x00 magic
	// byte, which can never begin a gob stream (gob's leading uvarint is
	// a message length, and zero-length messages are invalid), so one
	// peeked byte reliably separates the two protocols.
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == helloMagic0 && !s.LegacyGobOnly {
		s.handleBinary(conn, cc, br)
		return
	}
	mNegotiatedGob.Inc()
	s.handleGob(conn, cc, br)
}

// handleGob serves one legacy gob connection: sequential requests, a
// dedicated connection per replication stream.
func (s *Server) handleGob(conn net.Conn, cc countingConn, br *bufio.Reader) {
	dec := gob.NewDecoder(br)
	enc := gob.NewEncoder(cc)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return // connection closed or corrupt stream
		}
		if req.Op == OpReplStream {
			// The connection is dedicated to the stream from here on.
			s.streamRepl(conn, enc, dec, req)
			return
		}
		resp, tr, start := s.execute(req, ProtoGob)
		var encStart time.Time
		if tr.Sampled() {
			encStart = time.Now()
		}
		err := enc.Encode(resp)
		tr.Stage("wire.encode", encStart)
		tr.Finish()
		recordOp(&req, start, resp.Err != "", 0)
		if err != nil {
			return
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
// returns the response with the trace and start time still open, so
// each framing can attribute its own encode cost before finishing.
func (s *Server) execute(req Request, proto string) (Response, *obs.Trace, time.Time) {
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
	var resp Response
	s.mu.Lock()
	h := s.handler
	s.mu.Unlock()
	switch {
	case req.Op == OpStats && s.Stats != nil:
		st := s.Stats()
		st.Metrics = RegistryMetrics()
		resp = Response{Stats: &st}
	case req.Op == OpRestore && h == nil:
		resp = s.restore(req)
	case h != nil:
		resp = h.Handle(req)
	default:
		resp = Dispatch(s.Engine(), req)
	}
	if resp.Stats != nil {
		resp.Stats.Protocol = proto
	}
	tr.Stage("wire.handle", start)
	return resp, tr, start
}

// handleBinary serves one binary-framing connection: answer the hello,
// then demultiplex tagged request frames. Replication streams share the
// connection with queries — block frames go out under the stream's tag
// and OpReplAck frames route back to the feed by the same tag.
func (s *Server) handleBinary(conn net.Conn, cc countingConn, br *bufio.Reader) {
	var hello [6]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return
	}
	_, flags, err := parseHello(hello[:])
	if err != nil {
		mNegotiateFailed.Inc()
		return
	}
	flags &= flagCompress // intersect with the flags this build supports
	reply := helloBytes(protoVersion, flags)
	if _, err := cc.Write(reply[:]); err != nil {
		return
	}
	mNegotiatedBinary.Inc()
	fw := &frameWriter{w: cc, compressOK: flags&flagCompress != 0}

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
				err := s.answerBinary(fw, tag, req)
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
					s.answerBinary(fw, tag, req)
				}(req, tag)
			}
		}
	}
}

// answerBinary executes one request and writes its tagged response.
func (s *Server) answerBinary(fw *frameWriter, tag uint32, req Request) error {
	resp, tr, start := s.execute(req, ProtoBinary)
	var encStart time.Time
	if tr.Sampled() {
		encStart = time.Now()
	}
	out := getBuf()
	out.b = AppendResponse(out.b[:0], &resp)
	respBytes := len(out.b)
	err := fw.writeFrame(tag, out.b)
	putBuf(out)
	tr.Stage("wire.encode", encStart)
	tr.Finish()
	recordOp(&req, start, resp.Err != "", respBytes)
	return err
}

// attachRepl resolves a stream request to an attached feed, or an error
// message for the client.
func (s *Server) attachRepl(conn net.Conn, req Request) (ReplFeed, string) {
	if s.Repl == nil {
		return nil, "wire: this server does not serve replication streams"
	}
	str, err := s.Repl(req.Shard)
	if err != nil {
		return nil, err.Error()
	}
	remote := "?"
	if addr := conn.RemoteAddr(); addr != nil {
		remote = addr.String()
	}
	feed, err := str.Attach(remote, req.Height)
	if err != nil {
		return nil, err.Error()
	}
	return feed, ""
}

// pumpRepl drives one attached feed onto the connection as tagged
// response frames until the follower disconnects, the server stops, or
// the feed fails.
func (s *Server) pumpRepl(fw *frameWriter, tag uint32, feed ReplFeed, connDone <-chan struct{}) {
	defer feed.Close()
	stop := make(chan struct{})
	streamDone := make(chan struct{})
	defer close(streamDone)
	go func() {
		defer close(stop)
		select {
		case <-connDone:
		case <-s.stopc:
		case <-streamDone:
		}
	}()
	for {
		ev, err := feed.Next(stop)
		if err != nil {
			fw.writeFrame(tag, AppendResponse(nil, &Response{Err: err.Error()}))
			return
		}
		resp := Response{Height: ev.Height}
		if ev.IsSnapshot {
			resp.Found = true
			resp.Value = ev.Snapshot
		} else {
			resp.Value = ev.Frame
		}
		out := getBuf()
		out.b = AppendResponse(out.b[:0], &resp)
		err = fw.writeFrame(tag, out.b)
		putBuf(out)
		if err != nil {
			return
		}
	}
}

// recordOp updates the per-op serve metrics for one completed request
// and, independently of the trace sampler, captures over-threshold
// requests to the slow-op ring so tail events survive 1-in-N sampling.
// respBytes is the encoded response size (0 on the gob framing, which
// never sees its encoded length).
func recordOp(req *Request, start time.Time, failed bool, respBytes int) {
	count, errs, lat := mOpCountOther, mOpErrsOther, mOpLatencyOther
	if c, ok := mOpCount[req.Op]; ok {
		count, errs, lat = c, mOpErrs[req.Op], mOpLatency[req.Op]
	}
	count.Inc()
	if failed {
		errs.Inc()
	}
	elapsed := time.Since(start)
	lat.Observe(uint64(elapsed))
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

// streamRepl serves one replication stream: block frames flow out,
// follower acks flow back in on the same connection. It returns when the
// follower disconnects, the server stops, or the feed fails.
func (s *Server) streamRepl(conn net.Conn, enc *gob.Encoder, dec *gob.Decoder, req Request) {
	if s.Repl == nil {
		enc.Encode(Response{Err: "wire: this server does not serve replication streams"})
		return
	}
	str, err := s.Repl(req.Shard)
	if err != nil {
		enc.Encode(Response{Err: err.Error()})
		return
	}
	remote := "?"
	if addr := conn.RemoteAddr(); addr != nil {
		remote = addr.String()
	}
	feed, err := str.Attach(remote, req.Height)
	if err != nil {
		enc.Encode(Response{Err: err.Error()})
		return
	}
	defer feed.Close()

	// The ack reader doubles as connection-failure detection: when the
	// follower goes away its decode fails and the stream stops.
	connDone := make(chan struct{})
	go func() {
		defer close(connDone)
		for {
			var ack Request
			if err := dec.Decode(&ack); err != nil {
				return
			}
			if ack.Op == OpReplAck {
				feed.Ack(ack.Height)
			}
		}
	}()
	stop := make(chan struct{})
	streamDone := make(chan struct{})
	defer close(streamDone)
	go func() {
		defer close(stop)
		select {
		case <-connDone:
		case <-s.stopc:
		case <-streamDone:
		}
	}()

	for {
		ev, err := feed.Next(stop)
		if err != nil {
			enc.Encode(Response{Err: err.Error()})
			return
		}
		resp := Response{Height: ev.Height}
		if ev.IsSnapshot {
			resp.Found = true
			resp.Value = ev.Snapshot
		} else {
			resp.Value = ev.Frame
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// restore handles OpRestore: load the snapshot into a fresh engine and
// swap it in. In-flight requests finish against the old engine.
func (s *Server) restore(req Request) Response {
	if s.Restore == nil {
		return Response{Err: "wire: this server does not accept restores"}
	}
	eng, err := s.Restore(req.Snapshot)
	if err != nil {
		return Response{Err: fmt.Sprintf("wire: restore: %v", err)}
	}
	s.mu.Lock()
	s.engine = eng
	s.mu.Unlock()
	return Response{Digest: eng.Digest()}
}

// Dispatch executes one request against an engine. It is shared by the
// network server and by in-process processor nodes (internal/server).
//
// It is also the one place a proof is cut down to what its client lacks:
// it travels without the index nodes named in req.Have and without the
// rows of range proofs, which the client reads off the verified leaves.
// The proof structs dispatch returns are this call's own; the node lists
// and sub-proofs inside them may be shared with the engine's proof cache
// and other callers, and Elide replaces rather than edits those.
func Dispatch(eng *core.Engine, req Request) Response {
	resp := dispatch(eng, req)
	if resp.Proof != nil {
		*resp.Proof = resp.Proof.Elide(req.Have)
	}
	if resp.BatchProof != nil {
		*resp.BatchProof = resp.BatchProof.Elide(req.Have)
	}
	return resp
}

func dispatch(eng *core.Engine, req Request) Response {
	switch req.Op {
	case OpPut:
		puts := make([]core.Put, len(req.Puts))
		for i, p := range req.Puts {
			puts[i] = core.Put{Table: p.Table, Column: p.Column, PK: p.PK,
				Value: p.Value, Tombstone: p.Tombstone}
		}
		h, err := eng.Apply(req.Statement, puts)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Header: h, Digest: eng.Digest()}
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
	case OpGetVerified:
		res, err := eng.GetVerifiedTraced(req.Table, req.Column, req.PK, req.trace)
		if err != nil {
			return Response{Err: err.Error()}
		}
		// The row travels once, inside the proof (Point.Value and the
		// leaf body); clients decode it from there only, so Cells is not
		// sent (and only the proof, not the whole result, outlives the call).
		proof := res.Proof
		return Response{Found: res.Found, Proof: &proof, Digest: res.Digest}
	case OpRange:
		cells, d, err := eng.RangePKAttested(req.Table, req.Column, req.PK, req.PKHi)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Found: len(cells) > 0, Cells: cells, Digest: d}
	case OpRangeVer:
		res, err := eng.RangePKVerified(req.Table, req.Column, req.PK, req.PKHi)
		if err != nil {
			return Response{Err: err.Error()}
		}
		// As for OpGetVerified: the rows travel once, inside the leaves.
		return Response{Found: res.Found, Proof: &res.Proof, Digest: res.Digest}
	case OpLookupEq:
		cells, err := eng.LookupEqual(req.Table, req.Column, req.Value)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Found: len(cells) > 0, Cells: cells}
	case OpHistory:
		cells, err := eng.History(req.Table, req.Column, req.PK)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Found: len(cells) > 0, Cells: cells}
	case OpDigest:
		return Response{Digest: eng.Digest()}
	case OpShardMap:
		// A bare engine is a one-shard deployment; shard-aware clients
		// route everything to shard 0.
		return Response{ShardCount: 1}
	case OpClusterDigest:
		d := ledger.NewClusterDigest([]ledger.Digest{eng.Digest()})
		return Response{Cluster: &d}
	case OpStats:
		st := EngineStats(eng)
		st.Metrics = RegistryMetrics()
		return Response{Stats: &st}
	case OpConsistency:
		// Digest and proof must be captured atomically: sampled separately
		// they can straddle a concurrently committed block, and the client
		// would see a spurious verification failure.
		if req.OldDigest2 != nil {
			d, cons, cons2, err := eng.ConsistencyUpdatePair(req.OldDigest, *req.OldDigest2)
			if err != nil {
				return Response{Err: err.Error()}
			}
			return Response{Consistency: &cons, Consistency2: &cons2, Digest: d}
		}
		d, cons, err := eng.ConsistencyUpdate(req.OldDigest)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Consistency: &cons, Digest: d}
	case OpProveBatch:
		if req.OldDigest2 == nil {
			return Response{Err: "wire: prove-batch requires the receipt digest (OldDigest2)"}
		}
		res, err := eng.ProveBatch(req.OldDigest, *req.OldDigest2, req.Audits)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Digest: res.Digest, Consistency: &res.ConsTrusted,
			Consistency2: &res.ConsAt, BatchProof: &res.Proof}
	case OpSnapshot:
		var buf bytes.Buffer
		if err := eng.WriteSnapshot(&buf); err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Found: true, Value: buf.Bytes(), Digest: eng.Digest()}
	case OpRestore:
		return Response{Err: "wire: restore requires a server, not a bare engine"}
	case OpQuery:
		return dispatchQuery(eng, req)
	default:
		return Response{Err: fmt.Sprintf("wire: unknown op %q", req.Op)}
	}
}

// EngineStats summarizes one bare engine for OpStats; servers with a
// wider view (durability, followers) install a Stats hook instead.
func EngineStats(eng *core.Engine) Stats {
	b := eng.BatchStats()
	return Stats{Shards: []ShardStats{{
		Height: eng.Ledger().Height(),
		Blocks: b.Blocks,
		Txns:   b.Txns,
	}}}
}

// ClientOptions configures a Client's protocol negotiation.
type ClientOptions struct {
	// Compress offers transparent flate compression of large payloads
	// during negotiation. Off by default: on a fast local link the CPU
	// cost of compressing a multi-KB proof exceeds the wire savings, so
	// compression is for deployments where bytes are the bottleneck.
	Compress bool

	// ForceGob skips negotiation and speaks the legacy gob framing —
	// what a pre-v2 client does. Used by mixed-version tests.
	ForceGob bool
}

// Client is a protocol client over one connection. Safe for concurrent
// use: on the binary framing concurrent requests are multiplexed as
// in-flight tagged frames; on the legacy gob framing they serialize.
type Client struct {
	conn net.Conn
	opts ClientOptions

	mu      sync.Mutex
	started bool
	hserr   error
	proto   string

	// Legacy gob framing (requests serialize on mu).
	enc *gob.Encoder
	dec *gob.Decoder

	// Binary framing. Inbound frames are demultiplexed by reader
	// election rather than a dedicated goroutine: whichever waiter holds
	// the baton token reads frames off the connection, delivering other
	// tags' responses to their waiters, until its own arrives. A serial
	// client therefore reads its response on its own goroutine — no
	// context-switch per op — while pipelined callers still multiplex.
	fw      *frameWriter
	br      *bufio.Reader
	nextTag uint32
	pending map[uint32]*pendWaiter
	readErr error
	baton   chan struct{} // cap 1: token present iff no reader is active
}

// pendWaiter is one in-flight request (or attached stream) awaiting
// tagged response frames. The channel is closed when the connection
// fails; stream waiters keep their registration across many responses.
type pendWaiter struct {
	ch     chan Response
	stream bool
}

// Dial connects to a server address on the given network, negotiating
// the binary framing and falling back to gob (by redialing) when the
// server predates it.
func Dial(network, addr string) (*Client, error) {
	return DialOptions(network, addr, ClientOptions{})
}

// DialOptions is Dial with explicit protocol options.
func DialOptions(network, addr string, opts ClientOptions) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial: %w", err)
	}
	c := NewClientOptions(conn, opts)
	if opts.ForceGob {
		return c, nil
	}
	if err := c.Handshake(); err != nil {
		// A legacy server gob-decoded our hello, failed, and dropped the
		// connection. Redial and speak its protocol.
		conn.Close()
		conn, err2 := net.Dial(network, addr)
		if err2 != nil {
			return nil, err
		}
		return NewClientOptions(conn, ClientOptions{ForceGob: true}), nil
	}
	return c, nil
}

// NewClient wraps an established connection. The protocol handshake
// runs lazily on first use (call Handshake to force it); wrapping a
// connection to a legacy server yields transport errors rather than
// fallback — only Dial/Connect own enough of the connection's lifecycle
// to redial.
func NewClient(conn net.Conn) *Client {
	return NewClientOptions(conn, ClientOptions{})
}

// NewClientOptions is NewClient with explicit protocol options.
func NewClientOptions(conn net.Conn, opts ClientOptions) *Client {
	return &Client{conn: conn, opts: opts}
}

// NewGobClient wraps a connection with the legacy gob framing, exactly
// as a pre-v2 client would — no handshake bytes ever touch the wire.
func NewGobClient(conn net.Conn) *Client {
	return NewClientOptions(conn, ClientOptions{ForceGob: true})
}

// Handshake performs protocol negotiation if it has not run yet. It is
// idempotent; every request path calls it first.
func (c *Client) Handshake() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handshakeLocked()
}

func (c *Client) handshakeLocked() error {
	if c.started {
		return c.hserr
	}
	c.started = true
	if c.opts.ForceGob {
		c.proto = ProtoGob
		c.enc = gob.NewEncoder(c.conn)
		c.dec = gob.NewDecoder(c.conn)
		mNegotiatedGob.Inc()
		return nil
	}
	var flags byte
	if c.opts.Compress {
		flags |= flagCompress
	}
	hello := helloBytes(protoVersion, flags)
	if _, err := c.conn.Write(hello[:]); err != nil {
		c.hserr = fmt.Errorf("%w: handshake: %v", ErrTransport, err)
		return c.hserr
	}
	br := bufio.NewReaderSize(c.conn, 1<<16)
	var reply [6]byte
	if _, err := io.ReadFull(br, reply[:]); err != nil {
		mNegotiateFailed.Inc()
		c.hserr = fmt.Errorf("%w: handshake: %v", ErrTransport, err)
		return c.hserr
	}
	_, rflags, err := parseHello(reply[:])
	if err != nil {
		mNegotiateFailed.Inc()
		c.hserr = fmt.Errorf("%w: %v", ErrTransport, err)
		return c.hserr
	}
	c.proto = ProtoBinary
	c.br = br
	c.fw = &frameWriter{w: c.conn, compressOK: flags&rflags&flagCompress != 0}
	c.pending = make(map[uint32]*pendWaiter)
	c.nextTag = 1
	c.baton = make(chan struct{}, 1)
	c.baton <- struct{}{}
	mNegotiatedBinary.Inc()
	return nil
}

// Proto reports the negotiated protocol (ProtoBinary or ProtoGob),
// forcing the handshake if it has not run; "" means negotiation failed.
func (c *Client) Proto() string {
	c.Handshake()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.proto
}

// await blocks until the response for tag arrives — either delivered by
// another waiter acting as reader, or by this goroutine winning the
// baton and reading the connection itself.
func (c *Client) await(tag uint32, w *pendWaiter) (Response, error) {
	for {
		select {
		case resp, ok := <-w.ch:
			if !ok {
				return Response{}, c.transportErr()
			}
			return resp, nil
		case <-c.baton:
			// A previous reader may have delivered our response just
			// before handing over the baton; prefer it over reading.
			select {
			case resp, ok := <-w.ch:
				c.releaseBaton()
				if !ok {
					return Response{}, c.transportErr()
				}
				return resp, nil
			default:
			}
			resp, err := c.readUntil(tag, w)
			if err != nil {
				return Response{}, err // connection failed; baton retired
			}
			c.releaseBaton()
			return resp, nil
		}
	}
}

// readUntil reads and routes frames as the connection's reader until a
// frame for own arrives. Only the baton holder may call it.
func (c *Client) readUntil(own uint32, ownW *pendWaiter) (Response, error) {
	buf := getBuf()
	defer putBuf(buf)
	for {
		tag, payload, err := readFrame(c.br, buf)
		if err != nil {
			return Response{}, c.failConn(fmt.Errorf("%w: receive: %v", ErrTransport, err))
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			return Response{}, c.failConn(fmt.Errorf("%w: corrupt response payload", ErrTransport))
		}
		if tag == own {
			if !ownW.stream {
				c.mu.Lock()
				delete(c.pending, own)
				c.mu.Unlock()
			}
			return resp, nil
		}
		c.mu.Lock()
		w := c.pending[tag]
		if w != nil && !w.stream {
			delete(c.pending, tag)
		}
		c.mu.Unlock()
		if w != nil {
			// Frames for unknown tags are dropped — they belong to
			// requests or streams whose waiter already gave up.
			w.ch <- resp
		}
	}
}

// failConn records a connection-level failure and wakes every waiter.
// The baton is retired with the connection: registering new requests
// fails on readErr, so no waiter can block on it afterwards.
func (c *Client) failConn(err error) error {
	c.conn.Close()
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, w := range pending {
		close(w.ch)
	}
	return err
}

// releaseBaton returns the reader token after a successful read.
func (c *Client) releaseBaton() {
	select {
	case c.baton <- struct{}{}:
	default:
	}
}

// register allocates a tag for a new in-flight request or stream.
func (c *Client) register(stream bool, buffered int) (uint32, *pendWaiter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return 0, nil, c.readErr
	}
	tag := c.nextTag
	c.nextTag++
	w := &pendWaiter{ch: make(chan Response, buffered), stream: stream}
	c.pending[tag] = w
	return tag, w, nil
}

// unregister drops a tag's waiter (request failed to send, or a stream
// ended). Reports false when failConn already claimed the waiter — the
// caller must not receive from a channel it no longer owns.
func (c *Client) unregister(tag uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil {
		return false
	}
	_, ok := c.pending[tag]
	delete(c.pending, tag)
	return ok
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ErrTransport marks connection-level failures (as opposed to errors the
// server reported). Clients with fallback targets — a replicated client
// failing over between replicas — retry on it and surface anything else.
var ErrTransport = errors.New("wire: transport failed")

// Do performs one request/response round trip. On the binary framing
// many Dos may be in flight on the connection at once.
func (c *Client) Do(req Request) (Response, error) {
	if err := c.Handshake(); err != nil {
		return Response{}, err
	}
	if c.proto == ProtoGob {
		return c.doGob(req)
	}
	tag, w, err := c.register(false, 1)
	if err != nil {
		return Response{}, err
	}
	mPipelineDepth.Add(1)
	defer mPipelineDepth.Add(-1)
	buf := getBuf()
	buf.b = AppendRequest(buf.b[:0], &req)
	err = c.fw.writeFrame(tag, buf.b)
	putBuf(buf)
	if err != nil {
		if c.unregister(tag) {
			return Response{}, fmt.Errorf("%w: send: %v", ErrTransport, err)
		}
		return Response{}, c.transportErr()
	}
	resp, err := c.await(tag, w)
	if err != nil {
		return Response{}, err
	}
	if resp.Err != "" {
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// transportErr returns the recorded connection failure.
func (c *Client) transportErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return ErrTransport
}

func (c *Client) doGob(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("%w: send: %v", ErrTransport, err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("%w: receive: %v", ErrTransport, err)
	}
	if resp.Err != "" {
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// StreamBlocks subscribes to a shard's committed-block stream from the
// given height and drives the callbacks until the stream ends. Both
// callbacks return the follower's resulting ledger height, which is
// acknowledged back to the primary (its follower lag accounting).
// On the binary framing the stream is just another tag, so the
// connection stays usable for queries; on gob it is dedicated to the
// stream for the duration.
func (c *Client) StreamBlocks(shard int, from uint64,
	onSnapshot func(snapshot []byte, height uint64) (uint64, error),
	onBlock func(height uint64, frame []byte) (uint64, error)) error {
	if err := c.Handshake(); err != nil {
		return err
	}
	if c.proto == ProtoGob {
		return c.streamBlocksGob(shard, from, onSnapshot, onBlock)
	}
	tag, w, err := c.register(true, 16)
	if err != nil {
		return err
	}
	defer func() {
		c.unregister(tag)
		// The demux goroutine may be blocked delivering to this stream's
		// now-abandoned channel; draining frees it. At most one blocked
		// delivery can exist — the tag is out of the map, so the next
		// frame for it is dropped instead of delivered.
		for {
			select {
			case _, ok := <-w.ch:
				if !ok {
					return
				}
			default:
				return
			}
		}
	}()
	req := Request{Op: OpReplStream, Shard: shard, Height: from}
	buf := getBuf()
	buf.b = AppendRequest(buf.b[:0], &req)
	err = c.fw.writeFrame(tag, buf.b)
	putBuf(buf)
	if err != nil {
		if !c.unregister(tag) {
			return c.transportErr()
		}
		return fmt.Errorf("%w: send: %v", ErrTransport, err)
	}
	for {
		resp, err := c.await(tag, w)
		if err != nil {
			return err
		}
		if resp.Err != "" {
			return errors.New(resp.Err)
		}
		var height uint64
		if resp.Found {
			height, err = onSnapshot(resp.Value, resp.Height)
		} else {
			height, err = onBlock(resp.Height, resp.Value)
		}
		if err != nil {
			return err
		}
		ack := Request{Op: OpReplAck, Height: height}
		buf := getBuf()
		buf.b = AppendRequest(buf.b[:0], &ack)
		err = c.fw.writeFrame(tag, buf.b)
		putBuf(buf)
		if err != nil {
			return fmt.Errorf("%w: ack: %v", ErrTransport, err)
		}
	}
}

func (c *Client) streamBlocksGob(shard int, from uint64,
	onSnapshot func(snapshot []byte, height uint64) (uint64, error),
	onBlock func(height uint64, frame []byte) (uint64, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(Request{Op: OpReplStream, Shard: shard, Height: from}); err != nil {
		return fmt.Errorf("%w: send: %v", ErrTransport, err)
	}
	for {
		var resp Response
		if err := c.dec.Decode(&resp); err != nil {
			return fmt.Errorf("%w: receive: %v", ErrTransport, err)
		}
		if resp.Err != "" {
			return errors.New(resp.Err)
		}
		var height uint64
		var err error
		if resp.Found {
			height, err = onSnapshot(resp.Value, resp.Height)
		} else {
			height, err = onBlock(resp.Height, resp.Value)
		}
		if err != nil {
			return err
		}
		if err := c.enc.Encode(Request{Op: OpReplAck, Height: height}); err != nil {
			return fmt.Errorf("%w: ack: %v", ErrTransport, err)
		}
	}
}
