package ledger

import (
	"errors"
	"time"

	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/mtree"
	"spitz/internal/obs"
	"spitz/internal/postree"
)

// mProofBuild times head proof constructions: POS-tree walk + point proof
// + block inclusion, excluding lock wait and encoding.
var mProofBuild = obs.Default.Histogram("spitz_proof_build_ns")

// ErrProofInvalid is returned when a ledger proof fails verification.
var ErrProofInvalid = errors.New("ledger: proof verification failed")

// Proof is the integrity proof attached to a Spitz query result. It binds
// the result to a block (via the block's cell-tree root) and the block to
// the ledger digest the client saved (via the commitment Merkle tree).
// Exactly one of Point and Range is set, matching the query kind.
//
// The cell part is produced by the same index traversal that served the
// query — Spitz "can store the proofs of the results and the value of the
// target nodes in a unified index" (Section 6.2.1).
type Proof struct {
	Header    BlockHeader
	Inclusion mtree.InclusionProof
	Point     *postree.PointProof
	Range     *postree.RangeProof
	// Unbound marks a proof travelling without its block binding (Unbind):
	// only a verifier holding that block's header can check it.
	Unbound bool

	// one is where Batch builds its view, so building it allocates
	// nothing. It never travels.
	one struct {
		points     postree.BatchProof
		key, value [1][]byte
		found      [1]bool
		ranges     [1]postree.RangeProof
	}
}

// Batch views the proof as the BatchProof of its one query, so a point or
// range read is bound (BatchProof.Answers), verified and read
// (BatchProof.Live) exactly as a batch is. The view shares the sub-proof's
// bodies and lives in p: it allocates nothing, and verifying it fills the
// view's range rows, not p.Range's. A proof with neither or both cell
// proofs has no such view, as it has no valid one (see VerifyPath).
func (p *Proof) Batch() (BatchProof, error) {
	b := BatchProof{Header: p.Header, Inclusion: p.Inclusion, Unbound: p.Unbound}
	switch {
	case p.Point != nil && p.Range == nil:
		one := &p.one
		one.key[0], one.value[0], one.found[0] = p.Point.Key, p.Point.Value, p.Point.Found
		one.points = postree.BatchProof{Keys: one.key[:], Values: one.value[:], Found: one.found[:], Nodes: p.Point.Nodes}
		b.Points = &one.points
	case p.Range != nil && p.Point == nil:
		p.one.ranges[0] = *p.Range
		b.Ranges = p.one.ranges[:]
	default:
		return BatchProof{}, ErrProofInvalid
	}
	return b, nil
}

// Verify checks the proof against a client-saved ledger digest. It
// confirms (1) the block is part of the ledger the digest commits to, and
// (2) the result is exactly what the block's index contains for the query.
func (p Proof) Verify(d Digest) error {
	return p.VerifyPath(d, nil)
}

// VerifyPath is Verify for a client that may already hold verified index
// nodes of the proof's search path or scan (postree.Path; nil holds
// nothing), through its batch view. A range proof's Entries are filled
// from the verified leaves.
func (p Proof) VerifyPath(d Digest, path *postree.Path) error {
	b, err := p.Batch()
	if err == nil {
		err = b.VerifyPath(d, path)
	}
	if err == nil && p.Range != nil {
		p.Range.Entries = b.Ranges[0].Entries
	}
	return err
}

// verifyBlock checks that the block h is part of the ledger d commits to.
func verifyBlock(h BlockHeader, inc mtree.InclusionProof, d Digest) error {
	if h.Height >= d.Height {
		return ErrProofInvalid // block not covered by the digest
	}
	if inc.TreeSize != int(d.Height) || inc.Index != int(h.Height) {
		return ErrProofInvalid
	}
	if err := inc.Verify(d.Root, mtree.LeafHash(h.Encode())); err != nil {
		return ErrProofInvalid
	}
	return nil
}

// Held is the hint of a request this ledger answers, ready to cut proofs
// against (Proof.Elide, BatchProof.Elide): the digests of the index nodes
// the client says it holds, with the cell tree's node cache behind them
// for the nodes it holds an older version of.
func (l *Ledger) Held(have []hashutil.Digest) postree.HeldSet {
	if len(have) == 0 {
		return postree.HeldSet{}
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.cells.Tree.Held(have)
}

// Elide returns the proof as it travels to a client that says it holds
// the index nodes in have (none: a cold or hint-less client): without the
// bodies of exactly those nodes, with a patch in place of the body of a
// node the client holds another version of, and without a range proof's
// rows, which the client reads off the leaves it verifies. The receiver
// is not modified.
func (p Proof) Elide(have postree.HeldSet) Proof {
	n := 0
	switch {
	case p.Point != nil && have.Len() > 0:
		pt, k := p.Point.Elide(have)
		p.Point, n = &pt, k
	case p.Range != nil:
		rp, k := p.Range.WithoutEntries().Elide(have)
		p.Range, n = &rp, k
	}
	countCut(n, have)
	return p
}

// Trimmed returns the proof as it travels to a client that supplies the
// question it asked (Ask): without a point proof's key or a range proof's
// bounds. The receiver and what it points to are not modified.
func (p Proof) Trimmed() Proof {
	if p.Point != nil {
		pt := *p.Point
		pt.Key = nil
		p.Point = &pt
	}
	if p.Range != nil {
		rp := *p.Range
		rp.Start, rp.End = nil, nil
		p.Range = &rp
	}
	return p
}

// Ask gives a proof that travelled without its question (Trimmed) the one
// its read asked — a point read's key, or a scan's bounds, of pk (up to
// pkHi) in table.column; a proof that carries its question keeps it, for
// BatchProof.Answers to compare.
func (p *Proof) Ask(table, column string, pk, pkHi []byte) {
	switch {
	case p.Point != nil && p.Point.Key == nil:
		p.Point.Ask(cellstore.CellPrefix(table, column, pk))
	case p.Range != nil && p.Range.Start == nil:
		p.Range.Start, p.Range.End = cellstore.RefRange(table, column, pk, pkHi)
	}
}

// Unbind returns the proof as it travels to a client holding the verified
// header of its block: without that header and its inclusion path.
func (p Proof) Unbind() Proof {
	p.Header, p.Inclusion, p.Unbound = BlockHeader{}, mtree.InclusionProof{}, true
	return p
}

var (
	// mProofNodesElided counts index-node bodies left out of point, range
	// and batch proofs because the client already held them.
	mProofNodesElided = obs.Default.Counter("spitz_proof_nodes_elided_total")
	// mProofNodesPatched counts index nodes that travelled as a patch
	// against a version the client held, mProofPatchSaved the bytes those
	// patches were smaller than the bodies they stand for.
	mProofNodesPatched = obs.Default.Counter("spitz_proof_nodes_patched_total")
	mProofPatchSaved   = obs.Default.Counter("spitz_proof_patch_bytes_saved_total")
)

// countCut adds what one response's proofs were cut by to the server's
// counters: n bodies left out, and whatever have patched.
func countCut(n int, have postree.HeldSet) {
	mProofNodesElided.Add(uint64(n))
	if nodes, saved := have.Patched(); nodes > 0 {
		mProofNodesPatched.Add(uint64(nodes))
		mProofPatchSaved.Add(uint64(saved))
	}
}

// Cells decodes the proven cells (including tombstones, so callers can
// distinguish deletion from absence). Call only after Verify.
func (p Proof) Cells() ([]cellstore.Cell, error) {
	switch {
	case p.Point != nil:
		if !p.Point.Found {
			return nil, nil
		}
		table, column, pk, err := cellstore.DecodeRef(p.Point.Key)
		if err != nil {
			return nil, err
		}
		ver, value, tomb, err := cellstore.DecodeVersion(p.Point.Value)
		if err != nil {
			return nil, err
		}
		return []cellstore.Cell{{Table: table, Column: column, PK: pk,
			Version: ver, Value: value, Tombstone: tomb}}, nil
	case p.Range != nil:
		return cellstore.DecodeEntries(p.Range.Entries)
	}
	return nil, ErrProofInvalid
}

// ProveGetLatest serves a verified point read at the given block height:
// the cell's head version in that block's snapshot (necessarily at or
// before the block's version), with the unified proof.
func (l *Ledger) ProveGetLatest(height uint64, table, column string, pk []byte) (cellstore.Cell, bool, Proof, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	cell, ok, p, _, err := l.proveGetLocked(height, table, column, pk, nil)
	return cell, ok, p, err
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
// trace: lock wait, snapshot resolution, point-proof construction and
// block inclusion each record a stage, so /tracez attributes a slow
// verified read to the stage that owns the time.
func (l *Ledger) ProveGetHeadTraced(table, column string, pk []byte, tr *obs.Trace) (cellstore.Cell, bool, Proof, Digest, error) {
	var lockStart time.Time
	if tr.Sampled() {
		lockStart = time.Now()
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	tr.Stage("ledger.lock", lockStart)
	d := l.digestLocked()
	if d.Height == 0 {
		return cellstore.Cell{}, false, Proof{}, d, nil
	}
	return l.proveGetLocked(d.Height-1, table, column, pk, tr)
}

func (l *Ledger) proveGetLocked(height uint64, table, column string, pk []byte, tr *obs.Trace) (cellstore.Cell, bool, Proof, Digest, error) {
	d := l.digestLocked()
	buildStart := time.Now()
	h, snap, err := l.snapshotLocked(height)
	if err != nil {
		return cellstore.Cell{}, false, Proof{}, d, err
	}
	tr.Stage("ledger.snapshot", buildStart)
	var pointStart time.Time
	if tr.Sampled() {
		pointStart = time.Now()
	}
	cell, ok, pointProof, err := snap.ProveGetHead(table, column, pk)
	if err != nil {
		return cellstore.Cell{}, false, Proof{}, d, err
	}
	tr.Stage("proof.point", pointStart)
	var incStart time.Time
	if tr.Sampled() {
		incStart = time.Now()
	}
	inc, err := l.blockInclusion(height)
	if err != nil {
		return cellstore.Cell{}, false, Proof{}, d, err
	}
	tr.Stage("proof.inclusion", incStart)
	mProofBuild.ObserveSince(buildStart)
	return cell, ok, Proof{Header: h, Inclusion: inc, Point: &pointProof}, d, nil
}

// ProveRangePK serves a verified primary-key range scan at the given block
// height with a single unified proof covering the whole result.
func (l *Ledger) ProveRangePK(height uint64, table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, Proof, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	cells, p, _, err := l.proveRangeLocked(height, table, column, pkLo, pkHi)
	return cells, p, err
}

// ProveRangePKHead serves a verified range scan at the head block with the
// digest the proof verifies against, captured atomically (see
// ProveGetHead).
func (l *Ledger) ProveRangePKHead(table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, Proof, Digest, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	d := l.digestLocked()
	if d.Height == 0 {
		return nil, Proof{}, d, nil
	}
	return l.proveRangeLocked(d.Height-1, table, column, pkLo, pkHi)
}

func (l *Ledger) proveRangeLocked(height uint64, table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, Proof, Digest, error) {
	d := l.digestLocked()
	h, snap, err := l.snapshotLocked(height)
	if err != nil {
		return nil, Proof{}, d, err
	}
	cells, rangeProof, err := snap.ProveRangePK(table, column, pkLo, pkHi)
	if err != nil {
		return nil, Proof{}, d, err
	}
	inc, err := l.blockInclusion(height)
	if err != nil {
		return nil, Proof{}, d, err
	}
	return cells, Proof{Header: h, Inclusion: inc, Range: &rangeProof}, d, nil
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
