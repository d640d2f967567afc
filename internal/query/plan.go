package query

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"spitz/internal/cellstore"
	"spitz/internal/ledger"
)

// PlanKind classifies how a SELECT locates its rows, which dictates the
// proof obligations a verified execution must discharge.
type PlanKind int

const (
	// PlanPoint reads one explicitly named primary key; every covered
	// column gets a point proof (presence or absence).
	PlanPoint PlanKind = iota
	// PlanRange scans a pk interval; every covered column gets one range
	// proof, so the row set is proven COMPLETE — nothing in the interval
	// can be omitted. Aggregates always run as range plans.
	PlanRange
	// PlanLookup locates candidate rows through the inverted index
	// (predicates only, no pk condition). Every surfaced row is proven
	// cell by cell, but completeness is NOT guaranteed: the index is an
	// unauthenticated acceleration structure, and an adversarial server
	// could omit matching rows. Use a pk range when completeness matters.
	PlanLookup
)

// Plan is a SELECT prepared for verified execution. The same Plan runs on
// both sides of the wire: the server derives the proof obligations it
// must discharge, and the client re-derives them independently from the
// response, so a server cannot narrow what gets proven.
type Plan struct {
	Sel  Select
	Kind PlanKind
}

// PlanOf classifies a parsed SELECT.
func PlanOf(s Select) (Plan, error) {
	switch {
	case s.IsRange:
		return Plan{Sel: s, Kind: PlanRange}, nil
	case s.HasPK:
		return Plan{Sel: s, Kind: PlanPoint}, nil
	default:
		if len(s.Preds) == 0 {
			return Plan{}, errors.New("query: SELECT needs a pk condition or a predicate")
		}
		return Plan{Sel: s, Kind: PlanLookup}, nil
	}
}

// rangeBounds returns the half-open pk interval of a range plan; the SQL
// BETWEEN hi bound is inclusive.
func (pl Plan) rangeBounds() (lo, hiEx []byte) {
	return []byte(pl.Sel.Lo), cellstore.KeySuccessor([]byte(pl.Sel.Hi))
}

// proofColumns is the sorted distinct column set the proof must cover,
// derived identically on server and client: the selected columns (or the
// aggregate column), plus every predicate column. For `SELECT *` the
// selected set is whatever columns appear in the returned cells — the
// schema itself is not authenticated, so a column the server never
// surfaces cannot be covered (use explicit column lists to pin coverage).
func (pl Plan) proofColumns(cells []cellstore.Cell) []string {
	set := map[string]struct{}{}
	switch {
	case pl.Sel.Agg != "":
		set[pl.Sel.AggCol] = struct{}{}
	case len(pl.Sel.Columns) > 0:
		for _, c := range pl.Sel.Columns {
			set[c] = struct{}{}
		}
	default:
		for _, c := range cells {
			set[c.Column] = struct{}{}
		}
	}
	return pl.withPreds(set)
}

// withPreds adds the columns the plan's predicates read to set and
// returns them all, sorted.
func (pl Plan) withPreds(set map[string]struct{}) []string {
	for _, p := range pl.Sel.Preds {
		set[p.Column] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// proofPKs is the sorted distinct primary-key set point obligations
// cover: the queried pk for a point plan, the pks present in the
// returned cells for a lookup plan.
func (pl Plan) proofPKs(cells []cellstore.Cell) [][]byte {
	if pl.Kind == PlanPoint {
		return [][]byte{[]byte(pl.Sel.PK)}
	}
	seen := map[string]struct{}{}
	var out [][]byte
	for _, c := range cells {
		if _, ok := seen[string(c.PK)]; ok {
			continue
		}
		seen[string(c.PK)] = struct{}{}
		out = append(out, c.PK)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

// Queries derives the canonical proof obligations for this plan given the
// response cells: one range query per covered column for range plans, one
// point query per (pk, column) pair otherwise, in sorted order. Server
// and client compute this from the same inputs, so the obligations agree
// byte for byte.
func (pl Plan) Queries(cells []cellstore.Cell) []ledger.BatchQuery {
	cols := pl.proofColumns(cells)
	if pl.Kind == PlanRange {
		lo, hiEx := pl.rangeBounds()
		qs := make([]ledger.BatchQuery, 0, len(cols))
		for _, col := range cols {
			qs = append(qs, ledger.BatchQuery{Table: pl.Sel.Table, Column: col,
				PK: lo, PKHi: hiEx, Range: true})
		}
		return qs
	}
	var qs []ledger.BatchQuery
	for _, pk := range pl.proofPKs(cells) {
		for _, col := range cols {
			qs = append(qs, ledger.BatchQuery{Table: pl.Sel.Table, Column: col, PK: pk})
		}
	}
	return qs
}

// scanColumns is the column set the executor reads: proofColumns for
// explicit selections, the table's columns plus predicate columns for `*`
// — the one statement shape that reads the schema.
func (pl Plan) scanColumns(r snapReader) ([]string, error) {
	if pl.Sel.Agg != "" || len(pl.Sel.Columns) > 0 {
		return pl.proofColumns(nil), nil
	}
	schema, err := r.columns(pl.Sel.Table)
	if err != nil {
		return nil, err
	}
	set := map[string]struct{}{}
	for _, c := range schema {
		set[c] = struct{}{}
	}
	return pl.withPreds(set), nil
}

// errUnknownTable is a SELECT of a table without a key in the snapshot
// read: no cell of it exists there.
var errUnknownTable = errors.New("query: unknown table")

// collectCells executes the plan's read phase and returns the raw scan
// cells: per covered column in order, the live head cells the reader
// holds. Rows, predicates, projections and aggregates are applied by
// ResultFromCells — identically on every path.
func collectCells(r snapReader, pl Plan) ([]cellstore.Cell, error) {
	s := pl.Sel
	cols, err := pl.scanColumns(r)
	if err != nil {
		return nil, err
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w %q", errUnknownTable, s.Table)
	}
	switch pl.Kind {
	case PlanRange:
		lo, hiEx := pl.rangeBounds()
		var cells []cellstore.Cell
		for _, col := range cols {
			cs, err := r.rangePK(s.Table, col, lo, hiEx)
			if err != nil {
				return nil, err
			}
			for _, c := range cs {
				if !c.Tombstone {
					cells = append(cells, c)
				}
			}
		}
		return cells, nil
	case PlanPoint:
		return pointCells(r, pl, cols, [][]byte{[]byte(s.PK)})
	default: // PlanLookup
		pks, err := lookupPKs(r, s)
		if err != nil {
			return nil, err
		}
		return pointCells(r, pl, cols, pks)
	}
}

// pointCells reads the live head cell of every (pk, column) pair.
func pointCells(r snapReader, pl Plan, cols []string, pks [][]byte) ([]cellstore.Cell, error) {
	var cells []cellstore.Cell
	for _, pk := range pks {
		for _, col := range cols {
			c, found, err := r.getHead(pl.Sel.Table, col, pk)
			if err != nil {
				return nil, err
			}
			if found && !c.Tombstone {
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// lookupPKs locates candidate rows for a predicate-only SELECT: the
// inverted index's (snapReader), or a full column scan when the engine
// keeps none. Candidates are only located here — every predicate is
// re-checked against the cells actually read.
func lookupPKs(r snapReader, s Select) ([][]byte, error) {
	first := s.Preds[0]
	cand := r.cand
	if !r.indexed {
		all, err := r.rangePK(s.Table, first.Column, nil, nil)
		if err != nil {
			return nil, err
		}
		for _, c := range all {
			if !c.Tombstone && string(c.Value) == first.Value {
				cand = append(cand, c)
			}
		}
	}
	seen := map[string]struct{}{}
	var pks [][]byte
	for _, c := range cand {
		if _, ok := seen[string(c.PK)]; ok {
			continue
		}
		seen[string(c.PK)] = struct{}{}
		pks = append(pks, c.PK)
	}
	sort.Slice(pks, func(i, j int) bool { return bytes.Compare(pks[i], pks[j]) < 0 })
	return pks, nil
}

// ResultFromCells assembles the final Result from raw scan cells: rows
// are composed per pk, predicates filter, aggregates fold, projections
// trim, and output is sorted by pk. Every execution path — local,
// verified, deferred-audit — funnels through this, so a query means the
// same thing everywhere.
func (pl Plan) ResultFromCells(cells []cellstore.Cell) (Result, error) {
	rows := map[string]*Row{}
	for _, c := range cells {
		if c.Tombstone {
			continue
		}
		r, ok := rows[string(c.PK)]
		if !ok {
			r = &Row{PK: append([]byte(nil), c.PK...), Columns: map[string][]byte{}}
			rows[string(c.PK)] = r
		}
		r.Columns[c.Column] = c.Value
	}
	return pl.finish(rows)
}

// finish applies predicates, aggregates and projection to composed rows.
func (pl Plan) finish(rows map[string]*Row) (Result, error) {
	s := pl.Sel
	kept := make([]*Row, 0, len(rows))
	for _, r := range rows {
		ok := true
		for _, p := range s.Preds {
			if v, has := r.Columns[p.Column]; !has || string(v) != p.Value {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, r)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return bytes.Compare(kept[i].PK, kept[j].PK) < 0 })

	if s.Agg != "" {
		var n uint64
		for _, r := range kept {
			v, has := r.Columns[s.AggCol]
			if !has {
				continue // the row has no live cell in the aggregate column
			}
			if s.Agg == "COUNT" {
				n++
				continue
			}
			u, err := strconv.ParseUint(string(v), 10, 64)
			if err != nil {
				return Result{}, fmt.Errorf("query: SUM over non-numeric value %q", v)
			}
			n += u
		}
		return Result{AggValue: n, HasAgg: true}, nil
	}

	var out []Row
	for _, r := range kept {
		if len(s.Columns) > 0 {
			proj := map[string][]byte{}
			for _, col := range s.Columns {
				if v, has := r.Columns[col]; has {
					proj[col] = v
				}
			}
			r.Columns = proj
		}
		// A row surfaces only when at least one selected column is live
		// (predicate-only hits with no selected values stay invisible,
		// matching point-read semantics).
		if len(r.Columns) > 0 {
			out = append(out, *r)
		}
	}
	return Result{Rows: out}, nil
}

// ResultFromProof rebuilds the query result exclusively from a batch
// proof — the response's unproven cells only seeded the obligation
// derivation. Each of the plan's obligations is walked from the cell root
// of the proof's header (ledger.Proof.Cells), so the rows are what the
// proof shows for exactly those obligations: a proof of a narrower range
// does not reach the rows it would omit, one for another key does not
// reach this one. Binding that header to a trusted digest is the
// caller's (Verifier.Check does both).
func (pl Plan) ResultFromProof(cells []cellstore.Cell, bp *ledger.Proof) (Result, error) {
	live, err := bp.Cells(pl.Queries(cells), nil)
	if err != nil {
		return Result{}, err
	}
	var proven []cellstore.Cell
	for _, cs := range live {
		proven = append(proven, cs...)
	}
	return pl.ResultFromCells(proven)
}
