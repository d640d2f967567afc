package spitz

import (
	"errors"
	"fmt"
	"sync"

	"spitz/internal/obs"
	"spitz/internal/proof"
	"spitz/internal/query"
	"spitz/internal/wire"
)

// shardLink is what one request runs on: a connection, the verifier and
// digest-sync mutex of the shard it addresses, and — when the connection
// is a replica — the primary that trust advances against. Client.link
// builds it; the verified-read, audit and query flows are its methods, so
// they are written once for every topology.
type shardLink struct {
	c     *wire.Client
	v     *Verifier
	mu    *sync.Mutex // serializes the digest advance and the check that follows it
	shard int         // wire shard id: 0 unsharded, i+1 for shard i
	index int         // client-side shard index (audit receipts carry it)

	// syncC, when non-nil, serves the consistency-proof traffic instead
	// of c: the digest authority the verifier trusts (the primary of a
	// replicated deployment).
	syncC *wire.Client
	// maxLag, when non-zero, bounds how many blocks behind the trusted
	// digest a served result may be before errStale is returned.
	maxLag uint64

	// tr, when non-nil, is the parent span this link's requests record
	// under (a scatter or an audit flush owns the root span);
	// when nil, verified-read flows mint their own client root.
	tr *obs.Trace
}

// span opens the span one verified-read flow records under: a child of
// the link's parent when one is set, a sampled client root otherwise.
// The caller finishes it; nil (unsampled) is safe everywhere.
func (l shardLink) span(op string) *obs.Trace {
	if l.tr != nil {
		return l.tr.Child(op)
	}
	return obs.DefaultTracer.Root(op, "client")
}

// The two verdicts on a replica-served read that the read router
// (Client, read) acts on instead of returning.
var (
	// errPrimarySync marks a failure of the digest-authority round trip
	// (the shard's primary): the replica that served the data is not at
	// fault, so failover must not blame it.
	errPrimarySync = errors.New("spitz: digest authority unreachable")
	// errStale marks a replica-served result that is verifiably honest
	// but further behind the trusted digest than Topology.MaxLag allows,
	// or a replica with no history yet: the read is retried on the primary.
	errStale = errors.New("spitz: result verifiably stale beyond the configured bound")
)

// checkLag enforces the link's staleness bound: d is the digest the
// result was served at, cur the trusted digest it was proven a prefix
// of.
func (l shardLink) checkLag(d, cur Digest) error {
	if l.maxLag > 0 && cur.Height > d.Height && cur.Height-d.Height > l.maxLag {
		return fmt.Errorf("%w: result is %d blocks behind the trusted digest (max %d)",
			errStale, cur.Height-d.Height, l.maxLag)
	}
	return nil
}

// ---------------------------------------------------------------------------
// One verified read, two flows

// verifiedRead is one verified read as both read flows run it — a point
// read, a pk range scan or a SELECT: the request that asks it and the
// proof obligations its answer must discharge. What the caller makes of
// the answer (a value, rows, a query result) is its own business; how the
// answer is proven is decided here once.
type verifiedRead struct {
	aud      *Auditor     // non-nil: AuditMode, so the optimistic flow
	req      wire.Request // as the eager flow sends it
	attested wire.Op      // the op the optimistic flow sends instead: the same question, no proof
	spans    [2]string    // the eager and the optimistic flow's span

	one     [1]proof.BatchQuery // a point or range read's one obligation
	plan    *query.Plan         // a SELECT's plan: its obligations follow from the cells served
	history bool                // a cell's history: the point read of its head, and its chain
}

func pointRead(aud *Auditor, table, column string, pk []byte) verifiedRead {
	return verifiedRead{aud: aud, attested: wire.OpGet,
		req:   wire.Request{Op: wire.OpGetVerified, Table: table, Column: column, PK: pk},
		spans: [2]string{"client.get-verified", "client.get-optimistic"},
		one:   [1]proof.BatchQuery{{Table: table, Column: column, PK: pk}}}
}

func rangeRead(aud *Auditor, table, column string, pkLo, pkHi []byte) verifiedRead {
	return verifiedRead{aud: aud, attested: wire.OpRange,
		req:   wire.Request{Op: wire.OpRangeVer, Table: table, Column: column, PK: pkLo, PKHi: pkHi},
		spans: [2]string{"client.range-verified", "client.range-optimistic"},
		one:   [1]proof.BatchQuery{{Table: table, Column: column, PK: pkLo, PKHi: pkHi, Range: true}}}
}

// historyRead is a cell's history: its head proven as a point read's is,
// and the versions the head replaced (Verifier.CheckHistory). It has no
// optimistic flow: AuditMode does not defer it.
func historyRead(table, column string, pk []byte) verifiedRead {
	return verifiedRead{history: true,
		req:   wire.Request{Op: wire.OpHistory, Table: table, Column: column, PK: pk},
		spans: [2]string{"client.history-verified"},
		one:   [1]proof.BatchQuery{{Table: table, Column: column, PK: pk}}}
}

// selectRead is a SELECT: the statement executes server-side against one
// ledger snapshot. The plan was derived client-side from the statement
// the client itself sent, so which ranges and keys must be proven is not
// the server's to choose; the cells it returns only seed the obligations
// of lookup plans and `SELECT *`.
func selectRead(aud *Auditor, statement string, pl *query.Plan) verifiedRead {
	return verifiedRead{aud: aud, attested: wire.OpQuery,
		req:   wire.Request{Op: wire.OpQuery, Statement: statement},
		spans: [2]string{"client.query-verified", "client.query-optimistic"},
		plan:  pl}
}

// queries returns the read's proof obligations, given the cells the
// server returned (nil before the response: what can be hinted).
func (r *verifiedRead) queries(cells []Cell) []proof.BatchQuery {
	if r.plan != nil {
		return r.plan.Queries(cells)
	}
	return r.one[:]
}

// run runs the read on one link and returns the live cells that answer
// it: proven before they are returned, or — in AuditMode — accepted now
// and proven at the auditor's next flush. It is the one place the two
// modes part.
func (r *verifiedRead) run(l shardLink) ([]Cell, error) {
	if r.aud != nil {
		return l.optimistic(r)
	}
	return l.verified(r)
}

// received is what both flows check of a response first. A replica with
// no history yet is stale, not lying: the read fails over to the primary.
// And an empty ledger (height 0) is an answer — the empty one — only when
// it claims nothing and the client trusts no non-empty ledger: otherwise
// any key or range could be made to look absent with nothing ever proven
// or audited. empty reports that the answer is that empty one.
func (l shardLink) received(resp wire.Response) (empty bool, err error) {
	if resp.Digest.Height > 0 {
		return false, nil
	}
	if l.syncC != nil {
		return true, fmt.Errorf("%w: replica has no history yet (still bootstrapping)", errStale)
	}
	if resp.Found || len(resp.Cells) > 0 || len(resp.Chain) > 0 {
		return true, fmt.Errorf("%w: rows claimed against an empty ledger", ErrTampered)
	}
	if cur := l.v.Digest(); cur.Height > 0 {
		return true, fmt.Errorf("%w: server claims an empty ledger but trusted height is %d",
			ErrTampered, cur.Height)
	}
	return true, nil
}

// verified is the eager flow. The request names what the verifier holds
// — index nodes on the read's way and, on a direct link, the trusted
// height and whether it holds its head block's header — so the response
// carries only the rest; the pin keeps what it named for the check. A
// point or range read's proof is the proof of its one query, so every
// answer is bound, verified and read by check. A response may go without
// a proof only when the plan derives no obligation from it — a lookup with
// no candidate rows, a `SELECT *` that surfaced no column — or it is the
// empty ledger's (received).
func (l shardLink) verified(r *verifiedRead) ([]Cell, error) {
	tr := l.span(r.spans[0])
	defer tr.Finish()
	pin := l.v.PinFor(r.queries(nil))
	req := r.req
	req.Shard, req.Have = l.shard, pin.Have()
	if l.syncC == nil { // a replica's consistency proof could not advance trust anyway
		req.Height, req.HeadHeld = pin.Trusted.Height, pin.Held
	}
	req.SetTrace(tr)
	resp, err := l.c.Do(req)
	if err != nil {
		return nil, err
	}
	// A response to a request that named its trusted height leaves out
	// the digest its proof is at: the trusted one, for a proof without its
	// binding, or the one the binding's inclusion path commits to.
	p := resp.Proof
	switch {
	case resp.Digest != (Digest{}) || p == nil || req.Height == 0:
	case p.Unbound:
		resp.Digest = pin.Trusted
	default:
		if resp.Digest, err = p.Bound(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTampered, err)
		}
	}
	if empty, err := l.received(resp); empty || err != nil {
		return nil, err
	}
	queries := r.queries(resp.Cells)
	if p == nil && len(queries) == 0 {
		return nil, nil
	}
	var live [][]Cell
	if err := l.syncAndVerifyWith(tr, pin.Trusted, resp, func() (err error) {
		if r.history {
			live = make([][]Cell, 1)
			live[0], err = l.v.CheckHistory(p, resp.Digest, r.one[0], resp.Chain, pin)
			return err
		}
		live, err = l.v.CheckClaims(p, resp.Digest, queries, len(queries), pin, resp.Cells)
		return err
	}); err != nil {
		return nil, err
	}
	if len(live) == 1 {
		return live[0], nil
	}
	var cells []Cell
	for _, cs := range live {
		cells = append(cells, cs...)
	}
	return cells, nil
}

// optimistic is AuditMode's flow: the server does no proof work
// (wire.OpGet, wire.OpRange, or a SELECT marked Deferred), the answer is
// accepted at once, and one receipt per proof obligation — the same
// obligations the eager flow proves, so a row omitted from a pk range
// still fails its audit — is enqueued for the auditor's next flush.
func (l shardLink) optimistic(r *verifiedRead) ([]Cell, error) {
	if err := r.aud.poisoned(); err != nil {
		return nil, err
	}
	tr := l.span(r.spans[1])
	defer tr.Finish()
	req := r.req
	req.Op, req.Deferred, req.Shard = r.attested, r.plan != nil, l.shard
	req.SetTrace(tr)
	resp, err := l.c.Do(req)
	if err != nil {
		return nil, err
	}
	if empty, err := l.received(resp); empty || err != nil {
		return nil, err
	}
	// The staleness bound, from local state only (the trusted digest): the
	// fast path makes no round trip.
	if err := l.checkLag(resp.Digest, l.v.Digest()); err != nil {
		return nil, err
	}
	cells := resp.Cells
	if req.Op == wire.OpGet && resp.Found {
		cells = []Cell{{Table: req.Table, Column: req.Column, PK: req.PK, Value: resp.Value}}
	}
	queries := r.queries(cells)
	l.v.NoteDeferred(len(queries))
	// A point obligation reads the last cell with its key: indexed once,
	// not looked for by a scan of every cell per obligation.
	var last map[string]int
	if len(queries) > 1 {
		last = make(map[string]int, len(cells))
		for i, c := range cells {
			last[string(proof.CellPrefix(c.Table, c.Column, c.PK))] = i
		}
	}
	committed := 0
	for _, q := range queries {
		of := cells
		if last != nil && !q.Range {
			of = nil
			if i, ok := last[string(proof.CellPrefix(q.Table, q.Column, q.PK))]; ok {
				of = cells[i : i+1]
			}
		}
		rc, n := queryReceipt(l.index, resp.Digest, q, of)
		if !r.aud.add(rc) {
			return nil, errAuditClosed
		}
		committed += n
	}
	// Every cell of the answer must be one a receipt commits to: any
	// other would reach the caller and never be audited.
	if committed != len(cells) {
		return nil, fmt.Errorf("%w: %d cells of the answer are in no receipt", ErrTampered, len(cells)-committed)
	}
	return cells, nil
}

// ---------------------------------------------------------------------------
// Advancing trust

// How trust advances: on a read's own response, or on a round trip to the
// digest authority (a prefix-proof leg, an audit flush).
var (
	mTrustViaResponse = obs.Default.Counter(`spitz_client_trust_advances_total{via="response"}`)
	mTrustViaLeg      = obs.Default.Counter(`spitz_client_trust_advances_total{via="leg"}`)
)

// The verifiers' proof traffic and node caches, summed over every verifier
// in the process (proof.Count).
func init() {
	shipped := obs.Default.Counter("spitz_client_proof_nodes_shipped_total")
	patched := obs.Default.Counter("spitz_client_proof_nodes_patched_total")
	elided := obs.Default.Counter("spitz_client_proof_nodes_elided_total")
	bytes := obs.Default.Counter("spitz_client_proof_bytes_total")
	unbound := obs.Default.Counter("spitz_client_bindings_elided_total") // proofs without their block binding
	entries := obs.Default.Gauge("spitz_client_nodecache_entries")
	cacheBytes := obs.Default.Gauge("spitz_client_nodecache_bytes")
	proof.Count = func(d proof.ProofStats) {
		shipped.Add(uint64(d.NodesShipped))
		patched.Add(uint64(d.NodesPatched))
		elided.Add(uint64(d.NodesElided))
		bytes.Add(uint64(d.ProofBytes))
		unbound.Add(uint64(d.BindingsElided))
		entries.Add(int64(d.CacheEntries))
		cacheBytes.Add(int64(d.CacheBytes))
	}
}

// syncAndVerifyWith is the digest advance every eager read shares, around
// its verify: on success the answer has verified against d, the digest
// resp was served at, and d is the trusted digest or a proven prefix of
// it. Trust moves only after that, under the link's mutex, so concurrent
// reads cannot interleave advances into a false tamper report.
//
// named is the trusted digest the request named. While trust is still
// named and d is past it, the response carries the consistency proof from
// named to d; trust in the empty ledger takes d on first use. Otherwise —
// a replica served the read, trust moved past d, or an older server sent
// no proof — the prefix-proof leg asks the digest authority for both
// proofs in one round trip (adopt).
func (l shardLink) syncAndVerifyWith(tr *obs.Trace, named Digest, resp wire.Response, verify func() error) error {
	d := resp.Digest
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.v.Digest()
	switch {
	case cur == d:
		return verify()
	case l.syncC != nil: // a replica cannot advance trust: it could present a fork
	case cur.Height == 0:
		return l.v.AdvanceWith(d, nil, verify)
	case named == cur && d.Height > cur.Height && resp.Consistency != nil:
		if err := l.v.AdvanceWith(d, resp.Consistency, verify); err != nil {
			return err
		}
		mTrustViaResponse.Inc()
		return nil
	}
	// Its span is a child of the read's root, so a replica-served read
	// shows both legs under one trace ID.
	cresp, err := l.ask(tr.Child("client.prefix-proof"),
		wire.Request{Op: wire.OpConsistency, OldDigest: cur, OldDigest2: &d, Shard: l.shard})
	if err != nil {
		return err
	}
	return l.adopt(cresp, d, verify)
}

// ask sends req to the digest authority, traced under leg. Its failing
// behind a replica is errPrimarySync (the replica is not at fault); its
// refusing to prove what was served is ErrTampered.
func (l shardLink) ask(leg *obs.Trace, req wire.Request) (wire.Response, error) {
	c := l.c
	if l.syncC != nil {
		c = l.syncC
	}
	req.SetTrace(leg)
	resp, err := c.Do(req)
	leg.Finish()
	switch {
	case err == nil:
		return resp, nil
	case !errors.Is(err, wire.ErrTransport):
		return resp, fmt.Errorf("%w: %v", ErrTampered, err)
	case l.syncC != nil:
		return resp, fmt.Errorf("%w: %v", errPrimarySync, err)
	}
	return resp, err
}

// adopt is the one place trust follows a digest authority's round trip:
// resp carries its digest, a proof from the trusted digest to it and one
// from d — the digest a result was served at, or an audit's receipts were
// read at. d must be that digest or a prefix of it; then verify checks
// the answer against d, and only then does trust advance. For a replica's
// result this is the replication trust argument: a tampering replica is
// caught here, a lagging one served as verifiably stale data, and trust
// taken on first use is the authority's, never the replica's. Callers
// hold l.mu.
func (l shardLink) adopt(resp wire.Response, d Digest, verify func() error) error {
	if err := proof.CheckPrefix(d, resp.Digest, resp.Consistency2); err != nil {
		return err
	}
	if err := l.checkLag(d, resp.Digest); err != nil {
		return err
	}
	cur := l.v.Digest()
	if err := l.v.AdvanceWith(resp.Digest, resp.Consistency, verify); err != nil {
		return err
	}
	if resp.Digest != cur {
		mTrustViaLeg.Inc()
	}
	return nil
}
