package query

import (
	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/ledger"
)

// SelectAt runs a verified SELECT's read phase against the snapshot of the
// block at height, as ExecVerifiedSelect does at the head.
func SelectAt(eng *core.Engine, s Select, height uint64) ([]cellstore.Cell, error) {
	pl, err := PlanOf(s)
	if err != nil {
		return nil, err
	}
	cells, _, err := collectAt(eng, pl, ledger.Digest{Height: height + 1})
	return cells, err
}

// Exec parses and executes one statement against one engine.
func Exec(eng *core.Engine, statement string) (Result, error) {
	return ExecStore(EngineStore{Eng: eng}, statement)
}
