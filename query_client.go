package spitz

import (
	"bytes"
	"fmt"
	"sort"

	"spitz/internal/ledger"
	"spitz/internal/obs"
	"spitz/internal/query"
	"spitz/internal/wire"
)

// Query parses and executes one statement against the deployment.
//
// SELECT runs verified: the serving shard executes the statement against
// a single ledger snapshot and returns the scan cells together with one
// aggregated batch proof. The client re-derives the plan's canonical
// proof obligations from the statement it sent — one range proof per
// covered column for pk-interval scans (the row set is proven COMPLETE),
// one point proof per (pk, column) pair for point and index lookups —
// and rebuilds the result exclusively from proven values, so the server
// can neither alter a row nor, for range plans, omit one. Aggregates
// (COUNT/SUM) are re-folded locally from the proven cells. Under
// AuditMode the result is accepted optimistically and the obligations
// are audited in batch (see AuditMode).
//
// Routing follows the read router: a point SELECT and HISTORY go to the
// owning shard (its replicas first); range, lookup and aggregate SELECTs
// scatter across every shard — each shard's slice of the result is
// proven against that shard's own trusted digest — and merge: rows
// interleave in pk order, COUNT and SUM partials add up (the shards
// partition the key space, so per-shard aggregates are disjoint).
//
// INSERT, UPDATE and DELETE execute on the primary (a sharded server
// routes them by what they do and commits cross-shard batches with
// two-phase commit) and report RowsAffected plus the commit position;
// HISTORY returns version rows (unverified, like Client.History).
func (cl *Client) Query(statement string) (QueryResult, error) {
	stmt, err := query.Parse(statement)
	if err != nil {
		return QueryResult{}, err
	}
	switch s := stmt.(type) {
	case query.Select:
		pl, err := query.PlanOf(s)
		if err != nil {
			return QueryResult{}, err
		}
		aud := cl.auditor()
		sel := func(l shardLink) (QueryResult, error) {
			if aud != nil {
				return l.queryOptimistic(aud, statement, pl)
			}
			return l.queryVerified(statement, pl)
		}
		if pl.Kind == query.PlanPoint {
			return read(cl, cl.ShardFor([]byte(s.PK)), nil, sel)
		}
		parts, err := scatter(cl, "client.query-verified", func(i int, tr *obs.Trace) (QueryResult, error) {
			return read(cl, i, tr, sel)
		})
		return mergeQueryResults(pl, parts, err)
	case query.History:
		return read(cl, cl.ShardFor([]byte(s.PK)), nil, func(l shardLink) (QueryResult, error) {
			return l.queryHistory(statement, s)
		})
	default:
		return cl.primaryLink(0, nil).queryMutate(statement)
	}
}

// mergeQueryResults folds per-shard results into one: aggregate partials
// add (the shards partition the key space), rows merge into pk order.
func mergeQueryResults(pl query.Plan, parts []QueryResult, err error) (QueryResult, error) {
	if err != nil {
		return QueryResult{}, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	if pl.Sel.Agg != "" {
		var n uint64
		for _, p := range parts {
			n += p.AggValue
		}
		return QueryResult{AggValue: n, HasAgg: true}, nil
	}
	var rows []QueryRow
	for _, p := range parts {
		rows = append(rows, p.Rows...)
	}
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i].PK, rows[j].PK) < 0 })
	return QueryResult{Rows: rows}, nil
}

// ---------------------------------------------------------------------------
// Per-link query flows

// queryVerified is the eager verified SELECT: the statement executes
// server-side against one ledger snapshot, and the response carries the
// scan cells, the digest and an aggregated batch proof. The plan was
// derived client-side from the statement the client itself sent, so the
// obligations the proof must discharge — which ranges, which keys — are
// not the server's to choose, and the result is rebuilt exclusively
// from the proven values (ResultFromProof); the unproven response cells
// only seed the obligation derivation for lookup plans and `SELECT *`.
func (l shardLink) queryVerified(statement string, pl query.Plan) (QueryResult, error) {
	tr := l.span("client.query-verified")
	defer tr.Finish()
	// A range or point plan's obligations follow from the statement alone,
	// so the index nodes held on their way can be hinted; a lookup plan
	// learns its keys from the answer and derives none here.
	path := l.v.PathFor(pl.Queries(nil))
	req := wire.Request{Op: wire.OpQuery, Statement: statement, Shard: l.shard, Have: path.Have()}
	req.SetTrace(tr)
	resp, err := l.c.Do(req)
	if err != nil {
		return QueryResult{}, err
	}
	if err := l.checkEmptyReplica(resp.Digest); err != nil {
		return QueryResult{}, err
	}
	if resp.BatchProof == nil {
		return l.acceptProofless(pl, resp)
	}
	// The proof must discharge the plan's obligations and no others: a
	// valid proof of a narrower range would silently omit rows, one for
	// another key smuggle in that key's value. Checked before
	// verification, as in getVerified.
	queries := pl.Queries(resp.Cells)
	if !resp.BatchProof.Answers(queries) {
		return QueryResult{}, fmt.Errorf("%w: proof answers different queries than the statement's", ErrTampered)
	}
	verify := func() error { return l.v.VerifyBatch(*resp.BatchProof, resp.Digest, len(queries), path) }
	if err := l.syncAndVerifyWith(tr, resp.Digest, verify); err != nil {
		return QueryResult{}, err
	}
	out, err := pl.ResultFromProof(resp.Cells, resp.BatchProof)
	if err != nil {
		return QueryResult{}, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	return out, nil
}

// acceptProofless decides whether a SELECT response without a batch
// proof is acceptable. Only two claims are: the ledger is empty (height
// 0 — rejected once the client trusts a non-empty one, so an existing
// database cannot masquerade as empty), or the plan derives zero proof
// obligations from the response — an unprovable empty: an index lookup
// with no candidate rows, or a `SELECT *` that surfaced no columns.
// Anything else is a server withholding proof.
func (l shardLink) acceptProofless(pl query.Plan, resp wire.Response) (QueryResult, error) {
	if resp.Digest.Height == 0 {
		if len(resp.Cells) > 0 {
			return QueryResult{}, fmt.Errorf("%w: rows claimed against an empty ledger", ErrTampered)
		}
		if err := l.checkEmptyClaim(); err != nil {
			return QueryResult{}, err
		}
		return pl.ResultFromCells(nil)
	}
	if len(pl.Queries(resp.Cells)) > 0 {
		return QueryResult{}, fmt.Errorf("%w: server omitted proof", ErrTampered)
	}
	return pl.ResultFromCells(resp.Cells)
}

// queryOptimistic is AuditMode's SELECT: the statement executes
// server-side with no proof work (Request.Deferred), the result is
// accepted optimistically, and one receipt per canonical proof
// obligation is enqueued — the audit flush then proves exactly the
// ranges and keys the plan demands, with the same range binding as the
// eager path, so a row omitted from a pk-interval scan still fails its
// audit.
func (l shardLink) queryOptimistic(a *Auditor, statement string, pl query.Plan) (QueryResult, error) {
	if err := a.poisoned(); err != nil {
		return QueryResult{}, err
	}
	tr := l.span("client.query-optimistic")
	defer tr.Finish()
	req := wire.Request{Op: wire.OpQuery, Statement: statement, Shard: l.shard, Deferred: true}
	req.SetTrace(tr)
	resp, err := l.c.Do(req)
	if err != nil {
		return QueryResult{}, err
	}
	if err := l.checkEmptyReplica(resp.Digest); err != nil {
		return QueryResult{}, err
	}
	if resp.Digest.Height == 0 {
		if len(resp.Cells) > 0 {
			return QueryResult{}, fmt.Errorf("%w: rows claimed against an empty ledger", ErrTampered)
		}
		if err := l.checkEmptyClaim(); err != nil {
			return QueryResult{}, err
		}
		return pl.ResultFromCells(nil)
	}
	if err := l.checkOptimisticLag(resp.Digest); err != nil {
		return QueryResult{}, err
	}
	if queries := pl.Queries(resp.Cells); len(queries) > 0 {
		l.v.NoteDeferred(len(queries))
		for _, q := range queries {
			if !a.add(queryReceipt(l.index, resp.Digest, q, resp.Cells)) {
				return QueryResult{}, errAuditClosed
			}
		}
	}
	return pl.ResultFromCells(resp.Cells)
}

// queryReceipt shapes one proof obligation and the response cells it
// covers into an audit receipt: a range obligation commits the full
// per-column result slice (scan order), a point obligation commits the
// one value the server claimed (or its absence). The flush's batch
// proof then replays each obligation against the ledger and compares.
func queryReceipt(shard int, d Digest, q ledger.BatchQuery, cells []Cell) auditReceipt {
	if q.Range {
		var colCells []Cell
		for _, c := range cells {
			if c.Table == q.Table && c.Column == q.Column {
				colCells = append(colCells, c)
			}
		}
		return auditReceipt{shard: shard, digest: d, query: q,
			found: len(colCells) > 0, hash: auditCellsHash(colCells)}
	}
	var value []byte
	found := false
	for _, c := range cells {
		if c.Table == q.Table && c.Column == q.Column && bytes.Equal(c.PK, q.PK) {
			value, found = c.Value, true
			break
		}
	}
	return auditReceipt{shard: shard, digest: d, query: q, found: found,
		hash: auditValueHash(value)}
}

// queryMutate runs a mutation statement over the wire. The commit is
// unverified at this point — it lands in the ledger, where any later
// verified read (or audit) proves it.
func (l shardLink) queryMutate(statement string) (QueryResult, error) {
	tr := l.span("client.query-exec")
	defer tr.Finish()
	req := wire.Request{Op: wire.OpQuery, Statement: statement, Shard: l.shard}
	req.SetTrace(tr)
	resp, err := l.c.Do(req)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{RowsAffected: resp.RowsAffected, Block: resp.Height}, nil
}

// queryHistory fetches a cell's version history shaped into HISTORY
// rows (unverified, matching Client.History).
func (l shardLink) queryHistory(statement string, h query.History) (QueryResult, error) {
	tr := l.span("client.query-history")
	defer tr.Finish()
	req := wire.Request{Op: wire.OpQuery, Statement: statement, Shard: l.shard}
	req.SetTrace(tr)
	resp, err := l.c.Do(req)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Rows: query.HistoryRows(h.Column, resp.Cells)}, nil
}
