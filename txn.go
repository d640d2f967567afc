package spitz

import (
	"errors"
	"sort"
	"sync/atomic"

	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/obs"
	"spitz/internal/twopc"
	"spitz/internal/wire"
)

// Txn is an interactive serializable transaction over a deployment's
// shards — every shard of a ClusterDB, the one of a DB (Section 5.2).
// Reads see each shard's newest state, writes already ordered but not
// yet in a block included, and record the version they saw; a second
// read of a cell returns its newest state again, but the commit checks
// the first. Writes stage until Commit, which admits the transaction
// where each shard admits every commit, under the lock that draws its
// version: a transaction that touches one shard is one gated commit there
// (core.Engine.Commit), one that touches several runs two-phase commit,
// whose prepare takes that gate on every shard. A read that is no longer
// current fails the commit with ErrConflict; the transaction may be
// retried from the start. Not safe for concurrent use.
type Txn struct {
	engines  []*core.Engine
	coord    *twopc.Coordinator // nil on one shard
	counts   *txnCounts         // the deployment's
	reads    map[int]map[string]uint64
	writes   map[int][]Put
	writeIdx map[string]writeLoc
	done     bool
}

type writeLoc struct {
	shard int
	index int
}

// TxnStats counts interactive transaction outcomes: commits, and
// transactions that aborted or failed to commit.
type TxnStats struct {
	Commits int64
	Aborts  int64
}

// txnCounts is where a deployment's transactions count their outcomes.
type txnCounts struct{ commits, aborts atomic.Int64 }

func (c *txnCounts) stats() TxnStats {
	return TxnStats{Commits: c.commits.Load(), Aborts: c.aborts.Load()}
}

// errTxnDone is returned when a transaction is used after Commit or Abort.
var errTxnDone = errors.New("spitz: transaction already finished")

func newTxn(engines []*core.Engine, coord *twopc.Coordinator, counts *txnCounts) *Txn {
	return &Txn{
		engines:  engines,
		coord:    coord,
		counts:   counts,
		reads:    make(map[int]map[string]uint64),
		writes:   make(map[int][]Put),
		writeIdx: make(map[string]writeLoc),
	}
}

// Get reads a cell: the transaction's own staged write first, then the
// owning shard's newest state, recording the version read for Commit.
func (t *Txn) Get(table, column string, pk []byte) ([]byte, bool, error) {
	if t.done {
		return nil, false, errTxnDone
	}
	ref := string(cellstore.CellPrefix(table, column, pk))
	if loc, ok := t.writeIdx[ref]; ok {
		w := t.writes[loc.shard][loc.index]
		return w.Value, !w.Tombstone, nil
	}
	si := wire.ShardIndex(pk, len(t.engines))
	val, ver, found, err := t.engines[si].Read(table, column, pk)
	if err != nil {
		return nil, false, err
	}
	seen := t.reads[si]
	if seen == nil {
		seen = make(map[string]uint64)
		t.reads[si] = seen
	}
	if _, again := seen[ref]; !again {
		seen[ref] = ver // 0 when never written: "observed absent"
	}
	if !found {
		return nil, false, nil
	}
	return val, true, nil
}

// Put stages a cell write.
func (t *Txn) Put(table, column string, pk, value []byte) error {
	return t.stage(Put{Table: table, Column: column, PK: pk, Value: value})
}

// Delete stages a cell deletion (tombstone).
func (t *Txn) Delete(table, column string, pk []byte) error {
	return t.stage(Put{Table: table, Column: column, PK: pk, Tombstone: true})
}

func (t *Txn) stage(p Put) error {
	if t.done {
		return errTxnDone
	}
	ref := string(cellstore.CellPrefix(p.Table, p.Column, p.PK))
	if loc, ok := t.writeIdx[ref]; ok {
		t.writes[loc.shard][loc.index] = p
		return nil
	}
	si := wire.ShardIndex(p.PK, len(t.engines))
	t.writeIdx[ref] = writeLoc{shard: si, index: len(t.writes[si])}
	t.writes[si] = append(t.writes[si], p)
	return nil
}

// Commit validates and commits the transaction and returns its commit
// version: the version of the block that carries it when it touched one
// shard, the coordinator's commit timestamp when it touched several, 0
// when it touched none. On ErrConflict nothing was written anywhere: a
// read no longer current, or a shard's engine replaced by a restore since
// Begin.
func (t *Txn) Commit() (uint64, error) {
	if t.done {
		return 0, errTxnDone
	}
	t.done = true
	var h BlockHeader
	var err error
	if len(t.reads) > 0 || len(t.writes) > 0 {
		h, err = commit(t.engines, t.coord, nil, "TXN", t.reads, t.writes)
	}
	if err != nil {
		t.counts.aborts.Add(1)
	} else {
		t.counts.commits.Add(1)
	}
	return h.Version, err
}

// Abort discards the transaction. Nothing was prepared, so there is
// nothing to roll back.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.counts.aborts.Add(1)
}

// commit admits one transaction's parts, keyed by shard index. A
// transaction on one shard is one gated Commit on its engine; only one on
// several runs two-phase commit, tr threading a served request's trace
// into its per-shard legs. A cross-shard commit is in no one block: its
// header carries only the coordinator's commit timestamp, as Version.
func commit(engines []*core.Engine, coord *twopc.Coordinator, tr *obs.Trace, statement string,
	reads map[int]map[string]uint64, writes map[int][]Put) (BlockHeader, error) {
	shards := touched(reads, writes)
	if len(shards) < 2 {
		si := 0
		if len(shards) == 1 {
			si = shards[0]
		}
		return engines[si].Commit(statement, reads[si], writes[si])
	}
	version, err := coord.ExecuteTraced(tr, requests(statement, shards, reads, writes))
	return BlockHeader{Version: version}, err
}

// touched lists the shards a transaction reads or writes, ascending, so
// prepare order (and therefore conflict behaviour) is reproducible run to
// run rather than map iteration order.
func touched(reads map[int]map[string]uint64, writes map[int][]Put) []int {
	shards := make([]int, 0, len(reads)+len(writes))
	for si := range reads {
		shards = append(shards, si)
	}
	for si := range writes {
		if _, ok := reads[si]; !ok {
			shards = append(shards, si)
		}
	}
	sort.Ints(shards)
	return shards
}

// requests builds a cross-shard transaction's 2PC requests, one per shard
// it touches, in shards' order.
func requests(statement string, shards []int, reads map[int]map[string]uint64, writes map[int][]Put) []twopc.Request {
	reqs := make([]twopc.Request, len(shards))
	for i, si := range shards {
		reqs[i] = twopc.Request{
			Shard:     wire.ShardName(si),
			Statement: statement,
			Reads:     reads[si],
			Puts:      writes[si],
		}
	}
	return reqs
}
