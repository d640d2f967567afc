package core

import (
	"bytes"
	"errors"
	"fmt"

	"spitz/internal/cellstore"
	"spitz/internal/ledger"
)

// The commit gate. Every write and every transaction enters an engine
// here, and is validated under e.mu — the lock that draws its commit
// version and makes its writes visible to the next validation — so no
// commit can land between a transaction's validation and its enqueue
// (Section 5.2: MVCC with backward validation on a node, two-phase commit
// across nodes). The engine is also its shard's two-phase-commit
// participant: a prepared transaction's locks live under the same mutex,
// so a plain Apply respects them too. Lock order: e.mu, then the ledger's
// locks, as ReplayBlock takes them.

// ErrConflict is returned when a commit's reads are no longer the newest
// versions of their cells, or a key it reads or writes is held by a
// prepared cross-shard transaction; the caller may retry with fresh reads.
var ErrConflict = errors.New("core: conflict, transaction aborted")

// preparedTxn is one cross-shard transaction's footprint on this shard
// between Prepare and CommitPrepared or Abort.
type preparedTxn struct {
	statement string
	reads     []string
	cells     []cellstore.Cell
}

// Read returns a cell's newest value and the version that wrote it, as
// the gate sees it: a write already ordered but not yet in a block
// included. version is 0 for a cell never written; found is false for an
// absent or deleted one. A transaction hands the versions it read back to
// Commit or Prepare, keyed by cell reference (cellstore.CellPrefix).
func (e *Engine) Read(table, column string, pk []byte) (value []byte, version uint64, found bool, err error) {
	ref := cellstore.CellPrefix(table, column, pk)
	e.mu.RLock()
	p, ok := e.pending[string(ref)]
	e.mu.RUnlock()
	if ok {
		return bytes.Clone(p.value), p.version, !p.tombstone, nil
	}
	// A write that left the pending index is in the ledger's head already:
	// the ledger publishes a block before its writes leave the index.
	return e.head(ref)
}

// Commit admits one transaction and returns the header of the block that
// carried it. reads maps each cell reference the transaction read to the
// version it saw (Read); each must still be the newest, and no key read
// or written may be held by a prepared transaction. The check and the
// enqueue of puts happen under the one lock, so nothing commits in
// between. A commit without puts is validated only and returns a zero
// header.
func (e *Engine) Commit(statement string, reads map[string]uint64, puts []Put) (ledger.BlockHeader, error) {
	if len(puts) == 0 && len(reads) == 0 {
		return ledger.BlockHeader{}, errEmptyBatch
	}
	cells := cellsOf(puts)
	var req *commitReq
	e.mu.Lock()
	err := e.admitLocked(0, reads, cells)
	if err == nil && len(cells) > 0 {
		req, err = e.enqueueLocked(statement, cells)
	}
	e.mu.Unlock()
	if err != nil || req == nil {
		return ledger.BlockHeader{}, err
	}
	return e.waitCommit(req)
}

// Prepare is the first phase of two-phase commit on this shard
// (twopc.Participant): it validates txn's part as Commit would and, on
// success, holds its read keys shared and its write keys exclusively
// until CommitPrepared or Abort. An error is a vote to abort; nothing is
// held then.
func (e *Engine) Prepare(txn uint64, statement string, reads map[string]uint64, puts []Put) error {
	cells := cellsOf(puts)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refusalLocked(); err != nil {
		return err
	}
	if _, dup := e.prepared[txn]; dup {
		return fmt.Errorf("core: transaction %d already prepared", txn)
	}
	if err := e.admitLocked(txn, reads, cells); err != nil {
		return err
	}
	p := &preparedTxn{statement: statement, cells: cells}
	for ref := range reads {
		holders := e.readers[ref]
		if holders == nil {
			holders = make(map[uint64]struct{})
			e.readers[ref] = holders
		}
		holders[txn] = struct{}{}
		p.reads = append(p.reads, ref)
	}
	for i := range cells {
		e.locks[cellRef(&cells[i])] = txn
	}
	e.prepared[txn] = p
	return nil
}

// CommitPrepared is the second phase: it queues txn's prepared writes and
// releases its keys in one critical section — the writes are visible to
// the gate before anything else may touch the keys — and waits for the
// block that carries them. A part without writes only releases its keys.
func (e *Engine) CommitPrepared(txn uint64) error {
	var req *commitReq
	e.mu.Lock()
	p, ok := e.prepared[txn]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("core: commit of unprepared transaction %d", txn)
	}
	e.releaseLocked(txn, p)
	var err error
	if len(p.cells) > 0 {
		req, err = e.enqueueLocked(p.statement, p.cells)
	}
	e.mu.Unlock()
	if err != nil || req == nil {
		return err
	}
	_, err = e.waitCommit(req)
	return err
}

// Abort releases whatever txn holds; it is a no-op for a transaction
// that never prepared here.
func (e *Engine) Abort(txn uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.prepared[txn]; ok {
		e.releaseLocked(txn, p)
	}
}

// admitLocked is the gate's check. txn names the prepared transaction the
// commit belongs to, whose own locks do not conflict; 0 names none (the
// coordinator numbers transactions from 1). Caller holds e.mu.
func (e *Engine) admitLocked(txn uint64, reads map[string]uint64, cells []cellstore.Cell) error {
	for ref, seen := range reads {
		if holder, ok := e.locks[ref]; ok && holder != txn {
			return fmt.Errorf("%w: read of %q is being written by a prepared transaction", ErrConflict, ref)
		}
		var cur uint64
		if p, ok := e.pending[ref]; ok {
			cur = p.version
		} else {
			var err error
			if _, cur, _, err = e.head([]byte(ref)); err != nil {
				return err
			}
		}
		if cur != seen {
			return fmt.Errorf("%w: read of %q invalidated (saw v%d, now v%d)", ErrConflict, ref, seen, cur)
		}
	}
	if len(e.prepared) == 0 {
		return nil // no key is held
	}
	for i := range cells {
		ref := cellRef(&cells[i])
		if holder, ok := e.locks[ref]; ok && holder != txn {
			return fmt.Errorf("%w: write of %q is held by a prepared transaction", ErrConflict, ref)
		}
		for reader := range e.readers[ref] {
			if reader != txn {
				return fmt.Errorf("%w: write of %q is read by a prepared transaction", ErrConflict, ref)
			}
		}
	}
	return nil
}

// releaseLocked drops every key txn holds and forgets it. Caller holds
// e.mu.
func (e *Engine) releaseLocked(txn uint64, p *preparedTxn) {
	for _, ref := range p.reads {
		delete(e.readers[ref], txn)
		if len(e.readers[ref]) == 0 {
			delete(e.readers, ref)
		}
	}
	for i := range p.cells {
		if ref := cellRef(&p.cells[i]); e.locks[ref] == txn {
			delete(e.locks, ref)
		}
	}
	delete(e.prepared, txn)
}

// cellsOf turns puts into the cells the pipeline stamps with a version.
func cellsOf(puts []Put) []cellstore.Cell {
	cells := make([]cellstore.Cell, len(puts))
	for i, p := range puts {
		cells[i] = cellstore.Cell{Table: p.Table, Column: p.Column, PK: p.PK,
			Value: p.Value, Tombstone: p.Tombstone}
	}
	return cells
}

// cellRef is a cell's reference, as the gate's maps key it.
func cellRef(c *cellstore.Cell) string {
	return string(cellstore.CellPrefix(c.Table, c.Column, c.PK))
}
