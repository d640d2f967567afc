package spitz

import (
	"errors"
	"fmt"
	"sync"

	"spitz/internal/ledger"
	"spitz/internal/obs"
	"spitz/internal/postree"
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

// syncConn returns the connection trust advances against.
func (l shardLink) syncConn() *wire.Client {
	if l.syncC != nil {
		return l.syncC
	}
	return l.c
}

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

	one  [1]ledger.BatchQuery // a point or range read's one obligation
	plan *query.Plan          // a SELECT's plan: its obligations follow from the cells served
}

func pointRead(aud *Auditor, table, column string, pk []byte) verifiedRead {
	return verifiedRead{aud: aud, attested: wire.OpGet,
		req:   wire.Request{Op: wire.OpGetVerified, Table: table, Column: column, PK: pk},
		spans: [2]string{"client.get-verified", "client.get-optimistic"},
		one:   [1]ledger.BatchQuery{{Table: table, Column: column, PK: pk}}}
}

func rangeRead(aud *Auditor, table, column string, pkLo, pkHi []byte) verifiedRead {
	return verifiedRead{aud: aud, attested: wire.OpRange,
		req:   wire.Request{Op: wire.OpRangeVer, Table: table, Column: column, PK: pkLo, PKHi: pkHi},
		spans: [2]string{"client.range-verified", "client.range-optimistic"},
		one:   [1]ledger.BatchQuery{{Table: table, Column: column, PK: pkLo, PKHi: pkHi, Range: true}}}
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
func (r *verifiedRead) queries(cells []Cell) []ledger.BatchQuery {
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
	if resp.Found || len(resp.Cells) > 0 {
		return true, fmt.Errorf("%w: rows claimed against an empty ledger", ErrTampered)
	}
	if cur := l.v.Digest(); cur.Height > 0 {
		return true, fmt.Errorf("%w: server claims an empty ledger but trusted height is %d",
			ErrTampered, cur.Height)
	}
	return true, nil
}

// verified is the eager flow. The request names the index nodes this
// verifier holds on the read's way, so the proof ships only the rest; the
// path pins those nodes, so the response is verified against them even
// if the cache evicts in between. A point or range read's proof is viewed
// as the batch of its one query (ledger.Proof.Batch), so every answer is
// bound, verified and read by check. A response may go without a proof
// only when the plan derives no obligation from it — a lookup with no
// candidate rows, a `SELECT *` that surfaced no column — or it is the
// empty ledger's (received).
func (l shardLink) verified(r *verifiedRead) ([]Cell, error) {
	tr := l.span(r.spans[0])
	defer tr.Finish()
	path := l.v.PathFor(r.queries(nil))
	req := r.req
	req.Shard, req.Have = l.shard, path.Have()
	req.SetTrace(tr)
	resp, err := l.c.Do(req)
	if err != nil {
		return nil, err
	}
	if empty, err := l.received(resp); empty || err != nil {
		return nil, err
	}
	queries := r.queries(resp.Cells)
	bp := resp.BatchProof
	if resp.Proof != nil {
		view, err := resp.Proof.Batch()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTampered, err)
		}
		bp = &view
	}
	if bp == nil && len(queries) == 0 {
		return nil, nil
	}
	var live [][]Cell
	if err := l.syncAndVerifyWith(tr, resp.Digest, func() (err error) {
		live, err = l.check(bp, resp.Digest, queries, len(queries), path)
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
	committed := 0
	for _, q := range queries {
		rc, n := queryReceipt(l.index, resp.Digest, q, cells)
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

// check binds, verifies and reads one proof — every proof a read rests
// on, eager or audited, passes through here. The proof must answer
// exactly the queries: checked before verification, so an answer to
// another question — another key's value, a narrower range that silently
// omits rows — never reaches the verifier's counters or its node cache.
// It is verified against d, which the caller has made the trusted digest
// or a proven prefix of it, and the answers are read off it: each
// query's proven live cells.
func (l shardLink) check(bp *ledger.BatchProof, d Digest, queries []ledger.BatchQuery, reads int, path *postree.Path) ([][]Cell, error) {
	if bp == nil {
		return nil, fmt.Errorf("%w: server omitted proof", ErrTampered)
	}
	if !bp.Answers(queries) {
		return nil, fmt.Errorf("%w: proof answers different queries than the read's", ErrTampered)
	}
	if err := l.v.VerifyBatch(*bp, d, reads, path); err != nil {
		return nil, err
	}
	live, err := bp.Live(queries)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	return live, nil
}

// ---------------------------------------------------------------------------
// Advancing trust

// syncAndVerifyWith is the digest advance every proof-carrying read
// shares, followed by verify: on return from the advance the trusted
// digest is d, or d has been proven a prefix of it. The whole flow runs
// under the link's mutex so concurrent verified reads cannot interleave
// digest refreshes and report tampering the honest server never
// committed.
//
// When the trusted digest has already moved past d (a concurrent read
// synced a newer state), the proof cannot verify against the trusted
// digest — but it is still an honest statement about an older ledger
// state. One atomic server call returns two consistency proofs: trusted
// digest → current (advancing trust) and d → current (showing d is a
// genuine prefix of the same history); with both verified, the proof is
// checked against d itself. This converges in one round trip under any
// write churn, where refetch-until-current would livelock.
func (l shardLink) syncAndVerifyWith(tr *obs.Trace, d Digest, verify func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.v.Digest()
	if cur == d {
		return verify()
	}
	if cur.Height == 0 && cur.Root.IsZero() {
		if l.syncC == nil {
			if err := l.v.Advance(d, ConsistencyProof{}); err != nil {
				return err
			}
			return verify()
		}
		// Trust bootstraps from the digest authority, never from the
		// replica being read: pin the primary's digest (trust on first
		// use, exactly as a direct client would) and fall through to
		// prove d is a prefix of it.
		dreq := wire.Request{Op: wire.OpDigest, Shard: l.shard}
		pin := tr.Child("client.trust-pin")
		dreq.SetTrace(pin)
		dresp, err := l.syncC.Do(dreq)
		pin.Finish()
		if err != nil {
			return fmt.Errorf("%w: %v", errPrimarySync, err)
		}
		if err := l.v.Advance(dresp.Digest, ConsistencyProof{}); err != nil {
			return err
		}
		if cur = l.v.Digest(); cur == d {
			return verify()
		}
	}
	// The prefix-proof leg: against the digest authority (the primary of
	// a replicated deployment) when the link carries one, the serving
	// connection otherwise. Its span is a child of the read's root, so a
	// replica-served read shows both legs under one trace ID.
	creq := wire.Request{Op: wire.OpConsistency, OldDigest: cur, OldDigest2: &d,
		Shard: l.shard}
	leg := tr.Child("client.prefix-proof")
	creq.SetTrace(leg)
	resp, err := l.syncConn().Do(creq)
	leg.Finish()
	if err != nil {
		if l.syncC != nil {
			if errors.Is(err, wire.ErrTransport) {
				return fmt.Errorf("%w: %v", errPrimarySync, err)
			}
			// The digest authority itself refused to produce a prefix
			// proof over the replica's digest (e.g. the replica claims a
			// taller ledger than the primary has): the replica's chain is
			// not part of the primary's history.
			return fmt.Errorf("%w: %v", ErrTampered, err)
		}
		return err
	}
	if err := l.adopt(resp, d); err != nil {
		return err
	}
	return verify()
}

// adopt is the one place trust follows a server's consistency proofs:
// resp carries the server's digest, a proof from the trusted digest to it
// and one from d — the digest a result was served at, or the receipts of
// an audit were read at — to it. Trust advances to the server's digest,
// and d must be it or a prefix of it. For a replica-served result this is
// exactly the replication trust argument: the proof came from the
// replica's digest d, and the digest authority has just proven d a
// prefix of the trusted history, so a tampering replica is caught here
// and a lagging one is served as verifiably stale data. Callers hold
// l.mu.
func (l shardLink) adopt(resp wire.Response, d Digest) error {
	if resp.Consistency == nil || resp.Consistency2 == nil {
		return fmt.Errorf("%w: server omitted consistency proof", ErrTampered)
	}
	if err := l.v.Advance(resp.Digest, *resp.Consistency); err != nil {
		return err
	}
	if resp.Digest == d {
		return nil
	}
	if err := proof.CheckPrefix(d, resp.Digest, resp.Consistency2); err != nil {
		return err
	}
	return l.checkLag(d, resp.Digest)
}
