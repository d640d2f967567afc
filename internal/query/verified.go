package query

import (
	"errors"
	"fmt"

	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/ledger"
)

// VerifiedSelect is the server half of a proof-carrying SELECT: the raw
// scan cells the statement touched, the digest the proof verifies
// against, and one aggregated batch proof covering the plan's canonical
// obligations. Cells follow the raw-scan convention — per covered column
// (sorted), the live head cells in scan order — and the client composes
// rows, applies predicates and folds aggregates itself from proven
// values, so nothing in the result is taken on trust.
type VerifiedSelect struct {
	Cells  []cellstore.Cell
	Found  bool
	Digest ledger.Digest
	Proof  *ledger.Proof
}

// snapReader is where every SELECT reads, verified or embedded: one
// immutable ledger snapshot, so the statement observes one consistent
// state even while commits land, and a `SELECT *` takes its columns from
// the keys of the snapshot it reads. A lookup's candidates come from the
// inverted index current to that same snapshot (indexed; without an index
// the lookup scans the snapshot), and every cell that matters is re-read
// at the snapshot.
type snapReader struct {
	snap    cellstore.Store
	ver     uint64
	cand    []cellstore.Cell
	indexed bool
}

func (r snapReader) columns(table string) ([]string, error) { return r.snap.Columns(table) }

func (r snapReader) getHead(table, column string, pk []byte) (cellstore.Cell, bool, error) {
	return r.snap.GetLatest(table, column, pk, r.ver)
}

func (r snapReader) rangePK(table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, error) {
	return r.snap.RangePK(table, column, pkLo, pkHi, r.ver)
}

// ExecVerifiedSelect executes a SELECT against the engine's latest
// committed snapshot and proves the result. The execution digest is
// captured first; the statement then runs entirely against the immutable
// snapshot at that digest's head block, so the proof obligations —
// derived from the returned cells via Plan.Queries — are discharged
// exactly, even under concurrent write churn.
//
// When deferred is true the proof round is skipped: the response carries
// the attested cells and the execution digest, and the client records
// audit receipts it flushes later through OpProveBatch (AuditMode).
//
// A nil Proof on a non-deferred result means the plan derived zero
// obligations: either the ledger is empty (Digest.Height == 0) or the
// result is an unprovable empty — a lookup with no candidates, or a
// `SELECT *` that surfaced no columns. Clients accept those only as
// empty results.
func ExecVerifiedSelect(eng *core.Engine, s Select, deferred bool) (VerifiedSelect, error) {
	pl, err := PlanOf(s)
	if err != nil {
		return VerifiedSelect{}, err
	}
	d := eng.Digest()
	if d.Height == 0 {
		return VerifiedSelect{Digest: d}, nil
	}
	cells, d, err := collectAt(eng, pl, d)
	if err != nil {
		return VerifiedSelect{}, err
	}
	res := VerifiedSelect{Cells: cells, Found: len(cells) > 0, Digest: d}
	queries := pl.Queries(cells)
	if len(queries) == 0 || deferred {
		return res, nil
	}
	pb, err := eng.ProveBatch(d, d, queries)
	if err != nil {
		return VerifiedSelect{}, err
	}
	// The proof's inclusion leg is sized to the ledger at prove time,
	// which may have grown past the captured digest: return the digest
	// the proof actually verifies against. The anchor block (the captured
	// digest's head) is what the cells were read from.
	res.Digest = pb.Digest
	res.Proof = &pb.Proof
	return res, nil
}

// collectAt runs the plan's read phase against the immutable snapshot of
// d's head block — or, for a lookup over the inverted index, of the head
// block of the digest the index is current to, returned in d's place: the
// index may be a block behind the ledger. The empty ledger has no table.
func collectAt(eng *core.Engine, pl Plan, d ledger.Digest) ([]cellstore.Cell, ledger.Digest, error) {
	var r snapReader
	if pl.Kind == PlanLookup {
		first := pl.Sel.Preds[0]
		cand, at, err := eng.LookupEqualAt(pl.Sel.Table, first.Column, []byte(first.Value))
		switch {
		case err == nil:
			r.cand, r.indexed, d = cand, true, at
		case !errors.Is(err, core.ErrNoInvertedIndex):
			return nil, d, err
		}
	}
	if d.Height == 0 {
		return nil, d, fmt.Errorf("%w %q", errUnknownTable, pl.Sel.Table)
	}
	snap, h, err := eng.Ledger().Snapshot(d.Height - 1)
	if err != nil {
		return nil, d, err
	}
	r.snap, r.ver = snap, h.Version
	cells, err := collectCells(r, pl)
	return cells, d, err
}
