package spitz

import (
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
// are audited in batch (see AuditMode). Either way the SELECT is one
// verified read, proven as point and range reads are (verifiedRead).
//
// Routing follows the read router: a point SELECT and HISTORY go to the
// owning shard (its replicas first); range, lookup and aggregate SELECTs
// scatter across every shard — each shard's slice of the result is
// proven against that shard's own trusted digest — and merge: rows
// interleave in pk order, COUNT and SUM partials add up (the shards
// partition the key space, so per-shard aggregates are disjoint).
//
// INSERT, UPDATE and DELETE execute on the primary, each on the shard
// that owns its row, and report RowsAffected plus the height of the block
// that shard committed it in; HISTORY returns version rows, verified as
// Client.History verifies them.
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
		r := selectRead(cl.auditor(), statement, &pl)
		sel := func(i int, tr *obs.Trace) (QueryResult, error) {
			cells, err := read(cl, i, tr, r.run)
			if err != nil {
				return QueryResult{}, err
			}
			return pl.ResultFromCells(cells)
		}
		if pl.Kind == query.PlanPoint {
			return sel(cl.ShardFor([]byte(s.PK)), nil)
		}
		parts, err := scatter(cl, "client.query-verified", sel)
		if err != nil {
			return QueryResult{}, err
		}
		return query.MergeResults(pl, parts), nil
	case query.History:
		cells, err := cl.History(s.Table, s.Column, []byte(s.PK))
		return QueryResult{Rows: query.HistoryRows(s.Column, cells)}, err
	default:
		// A mutation, unverified here: it lands in the ledger, where any
		// later verified read (or audit) proves it. A response with an
		// error carries no counts.
		l := cl.primaryLink(0, nil)
		tr := l.span("client.query-exec")
		defer tr.Finish()
		req := wire.Request{Op: wire.OpQuery, Statement: statement, Shard: l.shard}
		req.SetTrace(tr)
		resp, err := l.c.Do(req)
		return QueryResult{RowsAffected: resp.RowsAffected, Block: resp.Height}, err
	}
}
