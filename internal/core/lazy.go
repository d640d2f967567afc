package core

import (
	"errors"

	"spitz/internal/cellstore"
	"spitz/internal/ledger"
	"spitz/internal/postree"
)

// NewWithLedger builds an engine around an already-reconstructed ledger
// (see ledger.Reopen): the root-addressed open path for disk-backed
// deployments. nextTxnID is the recovered transaction-ID floor (from the
// checkpoint manifest); WAL tail replay via ReplayBlock advances it
// further. With Options.LazyIndex set, construction does no O(state)
// work — the first verified read after a restart touches only the
// O(log n) path it proves — otherwise the schema and inverted index
// rebuild eagerly from the head instance, as Restore does.
func NewWithLedger(opts Options, l *ledger.Ledger, nextTxnID uint64) (*Engine, error) {
	if opts.Store == nil {
		return nil, errors.New("core: NewWithLedger requires the ledger's store")
	}
	e := build(opts, l)
	e.nextTxnID = nextTxnID
	e.lazy = opts.LazyIndex && !opts.MaintainInverted
	if !e.lazy {
		if err := e.rebuildIndexes(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// rebuildIndexes repopulates the schema and inverted index from the head
// cell instance — the eager-open cost LazyIndex avoids.
func (e *Engine) rebuildIndexes() error {
	cells, _, ok := e.ledger.Latest()
	if !ok {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return cells.Tree.Scan(nil, nil, func(entry postree.Entry) bool {
		table, column, pk, err := cellstore.DecodeRef(entry.Key)
		if err != nil {
			return false
		}
		ver, value, tomb, err := cellstore.DecodeVersion(entry.Value)
		if err != nil {
			return false
		}
		e.indexCellsLocked([]cellstore.Cell{{Table: table, Column: column,
			PK: append([]byte(nil), pk...), Version: ver,
			Value: append([]byte(nil), value...), Tombstone: tomb}})
		return true
	})
}

// ensureSchema runs the deferred schema discovery scan of a lazily
// opened engine, once, on first use of a schema-dependent API (Columns).
// It reads only cell keys — refs decode without touching version bodies —
// but still faults the whole head instance through the node store, so
// the cost is paid exactly when a caller actually asks for the schema.
func (e *Engine) ensureSchema() {
	e.mu.RLock()
	need := e.lazy && !e.schemaScanned
	e.mu.RUnlock()
	if !need {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.lazy || e.schemaScanned {
		return
	}
	cells, _, ok := e.ledger.Latest()
	if ok {
		_ = cells.Tree.Scan(nil, nil, func(entry postree.Entry) bool {
			table, column, _, err := cellstore.DecodeRef(entry.Key)
			if err != nil {
				return false
			}
			cols := e.schema[table]
			if cols == nil {
				cols = make(map[string]struct{})
				e.schema[table] = cols
			}
			cols[column] = struct{}{}
			return true
		})
	}
	e.schemaScanned = true
}

// NextTxnID returns the next transaction ID the engine would assign. The
// durable layer persists it at checkpoint so recovered engines never
// reuse an ID already bound into the audit history.
func (e *Engine) NextTxnID() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.nextTxnID
}
