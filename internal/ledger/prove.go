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

// ProveGetHead serves a verified point read at the head block and returns
// the digest the proof verifies against. Digest and proof are captured
// under one lock acquisition, so a commit racing the read can never
// produce a proof that fails against the returned digest. ok is false
// (with a zero proof) when the ledger is empty.
func (l *Ledger) ProveGetHead(table, column string, pk []byte) (cellstore.Cell, bool, Proof, Digest, error) {
	return l.ProveGetHeadTraced(table, column, pk, nil)
}

// ProveGetHeadTraced is ProveGetHead with an optional sampled request
// trace: lock wait, snapshot resolution, proof construction and block
// inclusion each record a stage.
func (l *Ledger) ProveGetHeadTraced(table, column string, pk []byte, tr *obs.Trace) (cellstore.Cell, bool, Proof, Digest, error) {
	lockStart := tr.Now()
	l.mu.RLock()
	defer l.mu.RUnlock()
	tr.Stage("ledger.lock", lockStart)
	d := l.digestLocked()
	if d.Height == 0 {
		return cellstore.Cell{}, false, Proof{}, d, nil
	}
	q := [1]BatchQuery{{Table: table, Column: column, PK: pk}}
	p, err := l.proveLocked(d.Height-1, q[:], tr)
	if err != nil {
		return cellstore.Cell{}, false, Proof{}, d, err
	}
	cell, ok, err := cellstore.HeadCell(table, column, pk, *p.Point)
	if err != nil {
		return cellstore.Cell{}, false, Proof{}, d, err
	}
	return cell, ok, p, d, nil
}

// ProveRangePKHead serves a verified primary-key range scan at the head
// block with one proof covering the whole result and the digest it
// verifies against, captured atomically (see ProveGetHead).
func (l *Ledger) ProveRangePKHead(table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, Proof, Digest, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	d := l.digestLocked()
	if d.Height == 0 {
		return nil, Proof{}, d, nil
	}
	q := [1]BatchQuery{{Table: table, Column: column, PK: pkLo, PKHi: pkHi, Range: true}}
	p, err := l.proveLocked(d.Height-1, q[:], nil)
	if err != nil {
		return nil, Proof{}, d, err
	}
	live, err := proof.LiveCells(p.Ranges[0].Entries)
	if err != nil {
		return nil, Proof{}, d, err
	}
	return live, p, d, nil
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
