package query

import (
	"errors"
	"fmt"

	"spitz/internal/cellstore"
	"spitz/internal/core"
)

// Row is one result row: the primary key plus column values.
type Row struct {
	PK      []byte
	Columns map[string][]byte
}

// Result is the outcome of Exec.
type Result struct {
	// Rows is set for SELECT and HISTORY.
	Rows []Row
	// RowsAffected is set for INSERT, UPDATE and DELETE.
	RowsAffected int
	// Block is the commit position of a mutation: the height of the
	// block it committed into on a single engine, or the cluster commit
	// timestamp when the store is a sharded coordinator.
	Block uint64
	// AggValue is the folded COUNT/SUM of an aggregate SELECT; HasAgg
	// distinguishes a zero aggregate from a row-returning query.
	AggValue uint64
	HasAgg   bool
}

// Store is the surface statements execute against: a single engine, a
// sharded cluster, or any backend that can apply a mutation batch and
// read cells back.
type Store interface {
	Apply(statement string, puts []core.Put) (uint64, error)
	Get(table, column string, pk []byte) ([]byte, error)
	Columns(table string) ([]string, error)
	History(table, column string, pk []byte) ([]cellstore.Cell, error)
	RangePK(table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, error)
	LookupEqual(table, column string, value []byte) ([]cellstore.Cell, error)
}

// EngineStore adapts a single core.Engine to the Store interface.
type EngineStore struct{ Eng *core.Engine }

// Apply commits the puts and returns the block height.
func (s EngineStore) Apply(statement string, puts []core.Put) (uint64, error) {
	h, err := s.Eng.Apply(statement, puts)
	if err != nil {
		return 0, err
	}
	return h.Height, nil
}

func (s EngineStore) Get(table, column string, pk []byte) ([]byte, error) {
	return s.Eng.Get(table, column, pk)
}

func (s EngineStore) Columns(table string) ([]string, error) { return s.Eng.Columns(table) }

func (s EngineStore) History(table, column string, pk []byte) ([]cellstore.Cell, error) {
	return s.Eng.History(table, column, pk)
}

func (s EngineStore) RangePK(table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, error) {
	return s.Eng.RangePK(table, column, pkLo, pkHi)
}

func (s EngineStore) LookupEqual(table, column string, value []byte) ([]cellstore.Cell, error) {
	return s.Eng.LookupEqual(table, column, value)
}

// Exec parses and executes one statement against the engine. Mutations
// record the statement text in their ledger block for auditing.
func Exec(eng *core.Engine, statement string) (Result, error) {
	return ExecStore(EngineStore{Eng: eng}, statement)
}

// ExecStore parses and executes one statement against any Store.
func ExecStore(st Store, statement string) (Result, error) {
	stmt, err := Parse(statement)
	if err != nil {
		return Result{}, err
	}
	return ExecParsed(st, statement, stmt)
}

// ExecParsed executes an already parsed statement; raw is the original
// statement text mutations record in their ledger block.
func ExecParsed(st Store, raw string, stmt Statement) (Result, error) {
	switch s := stmt.(type) {
	case Insert:
		return execInsert(st, raw, s)
	case Select:
		return execSelect(st, s)
	case Update:
		return execUpdate(st, raw, s)
	case Delete:
		return execDelete(st, raw, s)
	case History:
		return execHistory(st, s)
	}
	return Result{}, errors.New("query: unhandled statement")
}

// Mutates reports whether statement parses to a write (INSERT, UPDATE or
// DELETE). Statements that fail to parse report false; executing them
// surfaces the parse error.
func Mutates(statement string) bool {
	stmt, err := Parse(statement)
	if err != nil {
		return false
	}
	switch stmt.(type) {
	case Insert, Update, Delete:
		return true
	}
	return false
}

func execInsert(st Store, raw string, s Insert) (Result, error) {
	pk := []byte(s.Values[0])
	puts := make([]core.Put, 0, len(s.Columns)-1)
	for i := 1; i < len(s.Columns); i++ {
		puts = append(puts, core.Put{Table: s.Table, Column: s.Columns[i],
			PK: pk, Value: []byte(s.Values[i])})
	}
	if len(puts) == 0 {
		// A row with only a primary key still marks existence.
		puts = append(puts, core.Put{Table: s.Table, Column: s.Columns[0], PK: pk, Value: pk})
	}
	height, err := st.Apply(raw, puts)
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: 1, Block: height}, nil
}

// storeReader adapts a Store to the cellReader collection interface.
type storeReader struct{ st Store }

func (r storeReader) columns(table string) ([]string, error) { return r.st.Columns(table) }

func (r storeReader) getHead(table, column string, pk []byte) (cellstore.Cell, bool, error) {
	v, err := r.st.Get(table, column, pk)
	if errors.Is(err, core.ErrNotFound) {
		return cellstore.Cell{}, false, nil
	}
	if err != nil {
		return cellstore.Cell{}, false, err
	}
	return cellstore.Cell{Table: table, Column: column, PK: pk, Value: v}, true, nil
}

func (r storeReader) rangePK(table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, error) {
	return r.st.RangePK(table, column, pkLo, pkHi)
}

func (r storeReader) lookupEqual(table, column string, value []byte) ([]cellstore.Cell, error) {
	return r.st.LookupEqual(table, column, value)
}

func execSelect(st Store, s Select) (Result, error) {
	pl, err := PlanOf(s)
	if err != nil {
		return Result{}, err
	}
	cells, err := collectCells(storeReader{st: st}, pl)
	if err != nil {
		return Result{}, err
	}
	return pl.ResultFromCells(cells)
}

func execUpdate(st Store, raw string, s Update) (Result, error) {
	pk := []byte(s.PK)
	// UPDATE only touches rows that exist — a row exists when any of its
	// columns holds a live value. Updating an absent row affects nothing
	// and commits nothing.
	cols, err := st.Columns(s.Table)
	if err != nil {
		return Result{}, err
	}
	exists := false
	for _, col := range cols {
		if _, err := st.Get(s.Table, col, pk); errors.Is(err, core.ErrNotFound) {
			continue
		} else if err != nil {
			return Result{}, err
		}
		exists = true
		break
	}
	if !exists {
		return Result{RowsAffected: 0}, nil
	}
	puts := make([]core.Put, len(s.Columns))
	for i, col := range s.Columns {
		puts[i] = core.Put{Table: s.Table, Column: col, PK: pk, Value: []byte(s.Values[i])}
	}
	height, err := st.Apply(raw, puts)
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: 1, Block: height}, nil
}

func execDelete(st Store, raw string, s Delete) (Result, error) {
	cols, err := st.Columns(s.Table)
	if err != nil {
		return Result{}, err
	}
	if len(cols) == 0 {
		return Result{}, fmt.Errorf("query: unknown table %q", s.Table)
	}
	pk := []byte(s.PK)
	var puts []core.Put
	for _, col := range cols {
		if _, err := st.Get(s.Table, col, pk); errors.Is(err, core.ErrNotFound) {
			continue
		} else if err != nil {
			return Result{}, err
		}
		puts = append(puts, core.Put{Table: s.Table, Column: col, PK: pk, Tombstone: true})
	}
	if len(puts) == 0 {
		return Result{RowsAffected: 0}, nil
	}
	height, err := st.Apply(raw, puts)
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: 1, Block: height}, nil
}

func execHistory(st Store, s History) (Result, error) {
	cells, err := st.History(s.Table, s.Column, []byte(s.PK))
	if err != nil {
		return Result{}, err
	}
	return Result{Rows: HistoryRows(s.Column, cells)}, nil
}

// HistoryRows shapes version cells into HISTORY result rows — newest
// first, tombstones as nil values, the commit version exposed as the
// @version pseudo-column. Shared by local execution and the network
// client, which receives the cells over the wire.
func HistoryRows(column string, cells []cellstore.Cell) []Row {
	rows := make([]Row, 0, len(cells))
	for _, c := range cells {
		val := c.Value
		if c.Tombstone {
			val = nil
		}
		rows = append(rows, Row{PK: c.PK, Columns: map[string][]byte{
			column:     val,
			"@version": []byte(fmt.Sprintf("%d", c.Version)),
		}})
	}
	return rows
}
