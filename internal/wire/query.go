package wire

import (
	"spitz/internal/core"
	"spitz/internal/query"
)

// dispatchQuery executes one parsed OpQuery statement against an engine.
//
// SELECT responds with the raw scan cells, the digest the proof verifies
// against, and the aggregated batch proof for the plan's canonical
// obligations (Request.Deferred skips the proof; AuditMode clients prove
// the receipts later through OpProveBatch). The client re-derives the
// plan from the statement it sent, so it checks the proof covers exactly
// the keys and ranges the query claims — the server cannot substitute a
// proof of something else.
//
// HISTORY is refused: a cell's history is a proven read of its own
// (OpHistory). Mutations respond with RowsAffected and the committed
// block height, as a served deployment's writer does.
func dispatchQuery(eng *core.Engine, req Request, stmt query.Statement) Response {
	switch s := stmt.(type) {
	case query.Select:
		res, err := query.ExecVerifiedSelect(eng, s, req.Deferred)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Found: res.Found, Cells: res.Cells, Proof: res.Proof, Digest: res.Digest}
	case query.History:
		return Response{Err: "wire: HISTORY is proven by OpHistory, not run as a query"}
	}
	out, err := query.ExecParsed(query.EngineStore{Eng: eng}, req.Statement, stmt)
	if err != nil {
		return Response{Err: err.Error()}
	}
	return Response{RowsAffected: out.RowsAffected, Height: out.Block}
}
