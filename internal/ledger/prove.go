package ledger

import (
	"errors"
	"fmt"
	"spitz/internal/proof"
	"time"

	"spitz/internal/cellstore"
	"spitz/internal/mtree"
	"spitz/internal/obs"
)

// mProofBuild times proof constructions: POS-tree walks, cell proofs and
// block inclusion, excluding lock wait and encoding.
var mProofBuild = obs.Default.Histogram("spitz_proof_build_ns")

// Prove proves queries at the block at the given height: the one prover,
// which as-of reads and tests reach directly.
func (l *Ledger) Prove(height uint64, queries []BatchQuery) (Proof, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.proveLocked(height, queries, nil)
}

// proveLocked proves queries at the block at height with one block
// binding: one point proof covering every point query (each shared node
// once), and one range proof per range query. The optional sampled trace
// records the snapshot, cell-proof and inclusion stages, so /tracez
// attributes a slow verified read to the stage that owns the time.
// Callers hold l.mu.
func (l *Ledger) proveLocked(height uint64, queries []BatchQuery, tr *obs.Trace) (Proof, error) {
	start := time.Now()
	h, snap, err := l.snapshotLocked(height)
	if err != nil {
		return Proof{}, err
	}
	tr.Stage("ledger.snapshot", start)
	cellsStart := tr.Now()
	p := Proof{Header: h}
	if keys := p.PointKeys(queries); len(keys) > 0 {
		bp, err := snap.Tree.ProveGetBatch(keys)
		if err != nil {
			return Proof{}, err
		}
		p.SetPoint(bp)
	}
	for _, q := range queries {
		if !q.Range {
			continue
		}
		rp, err := snap.Tree.ProveScan(proof.RefRange(q.Table, q.Column, q.PK, q.PKHi))
		if err != nil {
			return Proof{}, err
		}
		p.AddRange(rp)
	}
	tr.Stage("proof.cells", cellsStart)
	incStart := tr.Now()
	if p.Inclusion, err = l.blockInclusion(height); err != nil {
		return Proof{}, err
	}
	tr.Stage("proof.inclusion", incStart)
	mProofBuild.ObserveSince(start)
	return p, nil
}

// ProveCurrent proves the current answer to one eager verified read's
// query and returns the digest the proof verifies against, both captured
// under one lock acquisition, so a commit racing the read can never
// produce a proof that fails against that digest. The proof is at the
// head block, unless trusted — the height of the digest the reader already
// trusts, 0 for none — is behind the head and every entry the query covers
// (the key's, or each in its range) is byte-identical at the trusted block
// and at the head (postree.Tree.Unchanged): then the answer has not
// changed since, and it is proven at the trusted block with the trusted
// digest, which its reader checks without a consistency proof or a block
// binding. Only a failure to prove at the head is an error. The optional
// sampled trace records lock wait, the comparison, and the prover's
// stages. The digest's height is 0 (with a zero proof) when the ledger is
// empty.
func (l *Ledger) ProveCurrent(q BatchQuery, trusted uint64, tr *obs.Trace) (Proof, Digest, error) {
	lockStart := tr.Now()
	l.mu.RLock()
	defer l.mu.RUnlock()
	tr.Stage("ledger.lock", lockStart)
	d := l.digestLocked()
	if d.Height == 0 {
		return Proof{}, d, nil
	}
	qs := [1]BatchQuery{q}
	if trusted > 0 && trusted < d.Height && l.unchangedLocked(q, trusted, tr) {
		if p, err := l.proveLocked(trusted-1, qs[:], tr); err == nil {
			return p, Digest{Height: trusted, Root: l.commit.RootAt(int(trusted))}, nil
		}
	}
	p, err := l.proveLocked(d.Height-1, qs[:], tr)
	return p, d, err
}

// unchangedLocked reports whether every entry q covers is byte-identical at
// block trusted-1 and at the head. A trusted block this ledger cannot read
// — one rebuilt from a snapshot holds only its head's tree — counts as
// changed, so its reader is answered at the head, as before it trusted it.
func (l *Ledger) unchangedLocked(q BatchQuery, trusted uint64, tr *obs.Trace) bool {
	defer tr.Stage("ledger.unchanged", tr.Now())
	_, old, err := l.snapshotLocked(trusted - 1)
	if err != nil {
		return false
	}
	start, end := proof.RefRange(q.Table, q.Column, q.PK, q.PKHi) // start: the key's own
	if !q.Range {
		end = cellstore.KeySuccessor(start)
	}
	same, err := old.Tree.Unchanged(l.cells.Tree, start, end)
	return err == nil && same
}

// ProveGetHead is ProveCurrent of a point read for a reader that trusts
// nothing, with the cell its proof shows (a tombstone too; ok: present).
func (l *Ledger) ProveGetHead(table, column string, pk []byte) (cellstore.Cell, bool, Proof, Digest, error) {
	p, d, err := l.ProveCurrent(BatchQuery{Table: table, Column: column, PK: pk}, 0, nil)
	if err != nil || d.Height == 0 {
		return cellstore.Cell{}, false, Proof{}, d, err
	}
	cell, ok, err := cellstore.HeadCell(table, column, pk, *p.Point)
	return cell, ok, p, d, err
}

// ProveRangePKHead is ProveCurrent of a primary-key range scan for a
// reader that trusts nothing, with the live cells its proof shows.
func (l *Ledger) ProveRangePKHead(table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, Proof, Digest, error) {
	p, d, err := l.ProveCurrent(BatchQuery{Table: table, Column: column, PK: pkLo, PKHi: pkHi, Range: true}, 0, nil)
	if err != nil || d.Height == 0 {
		return nil, Proof{}, d, err
	}
	live, err := proof.LiveCells(p.Ranges[0].Entries)
	return live, p, d, err
}

// BatchRes is everything a ProveBatch round trip returns, captured under
// one lock acquisition: the current digest, consistency proofs advancing
// the client's trusted digest and showing the receipts' digest is a
// genuine prefix of the same history, and the proof itself.
type BatchRes struct {
	Digest      Digest
	ConsTrusted mtree.ConsistencyProof // trusted -> current
	ConsAt      mtree.ConsistencyProof // receipt digest -> current
	Proof       Proof
}

// ProveBatch serves one deferred-verification flush: it proves every
// query in the batch at the block the digest `at` committed as head
// (height at.Height-1), bound to the current ledger state. `trusted` is
// the client's trusted digest (its height may be zero for a fresh
// client); the returned ConsTrusted lets the client advance trust to the
// returned digest, and ConsAt proves `at` — the digest the optimistic
// reads were accepted at — is a prefix of that same history, so a server
// that invented `at` at read time is caught here even before any value
// comparison.
func (l *Ledger) ProveBatch(trusted, at Digest, queries []BatchQuery) (BatchRes, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var res BatchRes
	res.Digest = l.digestLocked()
	if at.Height == 0 || at.Height > res.Digest.Height {
		return BatchRes{}, fmt.Errorf("ledger: batch digest height %d outside ledger of height %d",
			at.Height, res.Digest.Height)
	}
	var err error
	if res.ConsTrusted, err = l.commit.ConsistencyProof(int(trusted.Height), len(l.headers)); err != nil {
		return BatchRes{}, err
	}
	if res.ConsAt, err = l.commit.ConsistencyProof(int(at.Height), len(l.headers)); err != nil {
		return BatchRes{}, err
	}
	if res.Proof, err = l.proveLocked(at.Height-1, queries, nil); err != nil {
		return BatchRes{}, err
	}
	return res, nil
}

// ProveBlock returns a block header with its inclusion proof under the
// current digest. Clients verifying *writes* use it: after a commit they
// check that the new block is in the ledger and that its recorded write-set
// hash matches what they submitted — batch-level write verification
// (Section 5.3's deferred scheme).
func (l *Ledger) ProveBlock(height uint64) (BlockHeader, mtree.InclusionProof, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if height >= uint64(len(l.headers)) {
		return BlockHeader{}, mtree.InclusionProof{}, errors.New("ledger: height beyond head")
	}
	inc, err := l.blockInclusion(height)
	if err != nil {
		return BlockHeader{}, mtree.InclusionProof{}, err
	}
	return l.headers[height], inc, nil
}

// snapshotLocked resolves a height to its header and cell store view. The
// latest height reuses the live snapshot without reloading.
func (l *Ledger) snapshotLocked(height uint64) (BlockHeader, cellstore.Store, error) {
	if height >= uint64(len(l.headers)) {
		return BlockHeader{}, cellstore.Store{}, errors.New("ledger: height beyond head")
	}
	h := l.headers[height]
	if height == uint64(len(l.headers))-1 {
		return h, l.cells, nil
	}
	// Historical instances share the live tree's node cache, so proofs at
	// older heights reuse interior fragments across reads.
	tree, err := l.cells.Tree.At(h.CellRoot)
	if err != nil {
		return BlockHeader{}, cellstore.Store{}, err
	}
	return h, cellstore.Store{Tree: tree}, nil
}

// GetHeadAttested serves the optimistic fast path of a deferred-audit
// read: the cell's head version together with the digest it was read at,
// captured under one lock acquisition — and nothing else. No proof is
// constructed; the client enqueues a receipt and later verifies a whole
// batch of them against this digest with one ProveBatch round trip.
// ok is false when the cell is absent (the digest still attests the
// ledger state the absence was observed at).
func (l *Ledger) GetHeadAttested(table, column string, pk []byte) (cellstore.Cell, bool, Digest, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	d := l.digestLocked()
	if d.Height == 0 {
		return cellstore.Cell{}, false, d, nil
	}
	c, ok, err := l.cells.GetHead(table, column, pk)
	return c, ok, d, err
}

// RangePKHeadAttested is the range form of GetHeadAttested: the live head
// cells in [pkLo, pkHi) plus the digest they were read at, atomically,
// without a proof.
func (l *Ledger) RangePKHeadAttested(table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, Digest, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	d := l.digestLocked()
	if d.Height == 0 {
		return nil, d, nil
	}
	cells, err := l.cells.RangePK(table, column, pkLo, pkHi, l.headers[len(l.headers)-1].Version)
	return cells, d, err
}
