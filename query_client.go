package spitz

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"spitz/internal/ledger"
	"spitz/internal/obs"
	"spitz/internal/query"
	"spitz/internal/wire"
)

// Query parses and executes one statement against the server.
//
// SELECT runs verified: the server executes the statement against a
// single ledger snapshot and returns the scan cells together with one
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
// INSERT, UPDATE and DELETE execute on the server and report
// RowsAffected plus the committed block height; HISTORY returns version
// rows (unverified, like Client.History).
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
		if a := cl.auditor(); a != nil {
			return cl.link().queryOptimistic(a, 0, statement, pl)
		}
		return cl.link().queryVerified(statement, pl)
	case query.History:
		return cl.link().queryHistory(statement, s)
	default:
		return cl.link().queryMutate(statement)
	}
}

// Query executes one statement against the cluster. Mutations route
// through the coordinator (cross-shard batches commit with two-phase
// commit); point SELECTs and HISTORY go to the owning shard; range,
// lookup and aggregate SELECTs fan out across every shard — each
// shard's slice of the result is proven against that shard's own
// trusted digest — and merge: rows interleave in pk order, COUNT and
// SUM partials add up (the shards partition the key space, so per-shard
// aggregates are disjoint). See Client.Query for the verification
// model.
func (sc *ShardedClient) Query(statement string) (QueryResult, error) {
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
		if pl.Kind == query.PlanPoint {
			si := sc.ShardFor([]byte(s.PK))
			if a := sc.auditor(); a != nil {
				return sc.link(si).queryOptimistic(a, si, statement, pl)
			}
			return sc.link(si).queryVerified(statement, pl)
		}
		return sc.queryFanOut(statement, pl)
	case query.History:
		return sc.linkFor([]byte(s.PK)).queryHistory(statement, s)
	default:
		// Any connection reaches the coordinator, which routes the
		// mutation by what it does, not by a client-chosen shard.
		return sc.link(0).queryMutate(statement)
	}
}

// Query executes one statement with the replicated client's routing:
// SELECT and HISTORY are served by a replica (with primary-anchored
// trust, failing over like GetVerified); mutations go to the primary.
func (rc *ReplicatedClient) Query(statement string) (QueryResult, error) {
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
		aud := rc.auditor()
		var out QueryResult
		err = rc.doRead(func(l shardLink) error {
			var err error
			if aud != nil {
				out, err = l.queryOptimistic(aud, 0, statement, pl)
			} else {
				out, err = l.queryVerified(statement, pl)
			}
			return err
		})
		return out, err
	case query.History:
		var out QueryResult
		err = rc.doRead(func(l shardLink) error {
			var err error
			out, err = l.queryHistory(statement, s)
			return err
		})
		return out, err
	default:
		return rc.primaryLink().queryMutate(statement)
	}
}

// queryFanOut scatters a range, lookup or aggregate SELECT across every
// shard and merges the per-shard verified results.
func (sc *ShardedClient) queryFanOut(statement string, pl query.Plan) (QueryResult, error) {
	var parts []QueryResult
	var err error
	if a := sc.auditor(); a != nil {
		parts, err = sc.queryAll(func(i int, l shardLink) (QueryResult, error) {
			return l.queryOptimistic(a, i, statement, pl)
		})
	} else {
		// One root span owns the scatter; each shard's verified read
		// becomes a child leg under a single trace ID.
		tr := obs.DefaultTracer.Root("client.query-verified", "client")
		defer tr.Finish()
		parts, err = sc.queryAll(func(i int, l shardLink) (QueryResult, error) {
			l.tr = tr
			return l.queryVerified(statement, pl)
		})
	}
	return mergeQueryResults(pl, parts, err)
}

// queryAll runs fn for every shard concurrently.
func (sc *ShardedClient) queryAll(fn func(i int, l shardLink) (QueryResult, error)) ([]QueryResult, error) {
	parts := make([]QueryResult, len(sc.conns))
	errs := make([]error, len(sc.conns))
	var wg sync.WaitGroup
	for i := range sc.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = fn(i, sc.link(i))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// mergeQueryResults folds per-shard results into one: aggregate partials
// add (the shards partition the key space), rows merge into pk order.
func mergeQueryResults(pl query.Plan, parts []QueryResult, err error) (QueryResult, error) {
	if err != nil {
		return QueryResult{}, err
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
func (l shardLink) queryOptimistic(a *Auditor, shard int, statement string, pl query.Plan) (QueryResult, error) {
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
			if !a.add(queryReceipt(shard, resp.Digest, q, resp.Cells)) {
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
