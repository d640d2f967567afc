// Package wire implements the client/server protocol for Spitz services.
//
// There is one framing (binary/v3, agreed at connect time — see
// frame.go): a length-prefixed compact binary encoding with tagged
// frames, so many requests can be in flight on one connection, and one
// message form, the trimmed one. A peer that does not open with the
// hello, announces another framing version or lacks the trimmed form, is
// dropped.
package wire

import (
	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/obs"
	"spitz/internal/proof"
)

// Op identifies a request type.
type Op string

// Supported operations.
const (
	OpPut         Op = "put"          // batched cell writes
	OpGet         Op = "get"          // point read + the digest it was read at (AuditMode proves it later)
	OpGetVerified Op = "get-verified" // point read + proof
	OpRange       Op = "range"        // pk range scan + the digest it was read at (AuditMode proves it later)
	OpRangeVer    Op = "range-verified"
	OpHistory     Op = "history" // a cell's head proven as OpGetVerified proves it, and the chain of versions it replaced
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

// Put is one write in a request: the engine's own write type.
type Put = core.Put

// Request is the client -> server message.
type Request struct {
	Op        Op
	Table     string
	Column    string
	PK        []byte
	PKHi      []byte
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

	// Shard targets one shard of a deployment: i > 0 addresses shard
	// i-1, and 0 addresses a one-shard deployment's shard; a wider one
	// answers 0 only for what describes it whole and for writes (see
	// Router).
	Shard int

	// Height carries a ledger height: on the eager proof-carrying reads
	// (OpGetVerified, OpRangeVer, a SELECT's OpQuery) the client's trusted
	// height — the response then carries the consistency proof from it if
	// the head moved, or no block binding if it did not and HeadHeld says
	// the client holds its head block's header (ledger.Proof.Unbound). With
	// HeadHeld, an OpGetVerified or OpRangeVer whose entries are
	// byte-identical at that height and the head is proven at that height,
	// as if the head had not moved (ledger.Ledger.ProveCurrent). On
	// OpReplStream the height to stream from, on OpReplAck the follower's.
	Height   uint64
	HeadHeld bool

	// Have, on the proof-carrying reads (OpGetVerified, OpRangeVer,
	// OpProveBatch, OpQuery), is the set of digests of the verified index
	// nodes the client already holds where the read will walk (at most
	// proof.MaxHave). The server leaves a node's body out of the proof iff it
	// is an index node whose fingerprint — its digest's first
	// postree.FingerprintSize bytes, all of it that travels — is in the
	// set; absent, the proof is complete. It is a hint
	// only: the client verifies by walking from its trusted root and takes
	// a node that was left out solely from its own verified nodes.
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
	// serving side's execute continues the trace as a child span.
	traceID    uint64
	parentSpan uint64
}

// SetTrace attaches a live span to a request. The span pointer rides
// in-process hops (a Router handing it to a shard engine passes the
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
	Proof        *ledger.Proof // OpGetVerified, OpRangeVer: the one-query layout (ledger.AppendProof)
	BatchProof   *ledger.Proof // OpProveBatch, a SELECT's OpQuery: the batch layout (ledger.AppendBatchProof)
	Digest       ledger.Digest
	Consistency  *mtree.ConsistencyProof // also on an eager read: Request.Height → Digest
	Consistency2 *mtree.ConsistencyProof // OpConsistency/OpProveBatch with OldDigest2
	Header       ledger.BlockHeader

	// Sharded deployments.
	ShardCount int                  // OpShardMap: number of shards behind this listener
	Cluster    *proof.ClusterDigest // OpClusterDigest

	// Replication stream messages (OpReplStream). Found distinguishes a
	// snapshot hand-off (Value = snapshot stream, Height = its block
	// count) from a block frame (Value = WAL frame, Height = the block's
	// index).
	Height uint64

	// Stats is the OpStats payload.
	Stats *Stats

	// RowsAffected reports how many rows an OpQuery mutation touched.
	RowsAffected int

	// Chain, on OpHistory, is the versions the proven head replaced,
	// newest first, as stored: each hashes to the link of the one before
	// it (proof.Chain).
	Chain [][]byte
}

// Handler executes one protocol request. Every served deployment is a
// Router; tests wrap one (MutateHandler) or stand in for it (HandlerFunc).
type Handler interface {
	Handle(req Request) Response
}

// HandlerFunc adapts a function to Handler (as http.HandlerFunc does).
type HandlerFunc func(Request) Response

// Handle implements Handler.
func (f HandlerFunc) Handle(req Request) Response { return f(req) }
