package query

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

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
	// Block is the height of the block a mutation committed into, on the
	// shard that owns its row.
	Block uint64
	// AggValue is the folded COUNT/SUM of an aggregate SELECT; HasAgg
	// distinguishes a zero aggregate from a row-returning query.
	AggValue uint64
	HasAgg   bool
}

// Store is the surface statements execute against: a single engine or a
// sharded cluster. A mutation touches one row, which lives on the shard
// that owns its key: it reads the row there and commits through that
// engine's gate against the versions it read, so it is one transaction
// on every topology. SELECT and HISTORY read the engines themselves, a
// SELECT each at one ledger snapshot.
type Store interface {
	Columns(table string) ([]string, error)
	// Engines returns every shard's engine; ShardFor the index of the one
	// that owns pk.
	Engines() []*core.Engine
	ShardFor(pk []byte) int
}

// EngineStore adapts a single core.Engine to the Store interface.
type EngineStore struct{ Eng *core.Engine }

func (s EngineStore) Columns(table string) ([]string, error) { return s.Eng.Columns(table) }

func (s EngineStore) Engines() []*core.Engine { return []*core.Engine{s.Eng} }

func (s EngineStore) ShardFor([]byte) int { return 0 }

// ExecStore parses and executes one statement against any Store.
// Mutations record the statement text in their ledger block for auditing.
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
	return commitRow(st.Engines()[st.ShardFor(pk)], raw, nil, puts)
}

// execSelect runs a SELECT on one ledger snapshot of every shard and
// merges the shards' results as a client merges proven ones. The table is
// unknown only when no shard's snapshot has a key of it.
func execSelect(st Store, s Select) (Result, error) {
	pl, err := PlanOf(s)
	if err != nil {
		return Result{}, err
	}
	var parts []Result
	for _, eng := range st.Engines() {
		cells, _, err := collectAt(eng, pl, eng.Digest())
		if errors.Is(err, errUnknownTable) {
			continue // the table's rows may all sit on other shards
		}
		if err != nil {
			return Result{}, err
		}
		r, err := pl.ResultFromCells(cells)
		if err != nil {
			return Result{}, err
		}
		parts = append(parts, r)
	}
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("%w %q", errUnknownTable, s.Table)
	}
	return MergeResults(pl, parts), nil
}

// MergeResults folds the per-shard results of one plan into one: the
// shards partition the key space, so aggregate partials add up and rows
// interleave in pk order.
func MergeResults(pl Plan, parts []Result) Result {
	if len(parts) == 1 {
		return parts[0]
	}
	if pl.Sel.Agg != "" {
		var n uint64
		for _, p := range parts {
			n += p.AggValue
		}
		return Result{AggValue: n, HasAgg: true}
	}
	var rows []Row
	for _, p := range parts {
		rows = append(rows, p.Rows...)
	}
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i].PK, rows[j].PK) < 0 })
	return Result{Rows: rows}
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
	eng := st.Engines()[st.ShardFor(pk)]
	reads := make(map[string]uint64, len(cols))
	exists := false
	for _, col := range cols {
		_, ver, live, err := eng.Read(s.Table, col, pk)
		if err != nil {
			return Result{}, err
		}
		reads[string(cellstore.CellPrefix(s.Table, col, pk))] = ver
		if exists = live; exists {
			break
		}
	}
	var puts []core.Put
	if exists {
		puts = make([]core.Put, len(s.Columns))
		for i, col := range s.Columns {
			puts[i] = core.Put{Table: s.Table, Column: col, PK: pk, Value: []byte(s.Values[i])}
		}
	}
	return commitRow(eng, raw, reads, puts)
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
	eng := st.Engines()[st.ShardFor(pk)]
	reads := make(map[string]uint64, len(cols))
	var puts []core.Put
	for _, col := range cols {
		_, ver, live, err := eng.Read(s.Table, col, pk)
		if err != nil {
			return Result{}, err
		}
		reads[string(cellstore.CellPrefix(s.Table, col, pk))] = ver
		if live {
			puts = append(puts, core.Put{Table: s.Table, Column: col, PK: pk, Tombstone: true})
		}
	}
	return commitRow(eng, raw, reads, puts)
}

// commitRow commits the puts of a mutation of one row on eng, the engine
// that owns it, admitted only if every read (cell reference → version
// read) is still current: a concurrent mutation of the row it read
// aborts one of the two with core.ErrConflict, so no row is left half
// updated and half deleted. With no puts the reads are validated alone
// and the mutation affected nothing.
func commitRow(eng *core.Engine, raw string, reads map[string]uint64, puts []core.Put) (Result, error) {
	if len(reads) == 0 && len(puts) == 0 {
		return Result{}, nil
	}
	h, err := eng.Commit(raw, reads, puts)
	if err != nil || len(puts) == 0 {
		return Result{}, err
	}
	return Result{RowsAffected: 1, Block: h.Height}, nil
}

func execHistory(st Store, s History) (Result, error) {
	pk := []byte(s.PK)
	cells, err := st.Engines()[st.ShardFor(pk)].History(s.Table, s.Column, pk)
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
