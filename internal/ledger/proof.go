package ledger

import (
	"bytes"
	"errors"

	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/mtree"
	"spitz/internal/obs"
	"spitz/internal/postree"
)

// ErrProofInvalid is returned when a ledger proof fails verification.
var ErrProofInvalid = errors.New("ledger: proof verification failed")

// BatchQuery is one read being proven: a point read (Range false) or a
// primary-key range scan (Range true) of one column — a verified read's
// one question, a SELECT's obligations, or a deferred-audit receipt.
type BatchQuery struct {
	Table  string
	Column string
	PK     []byte
	PKHi   []byte
	Range  bool
}

// Proof is the integrity proof of one or more reads against one ledger
// block. It binds the reads' answers to the block (via the block's
// cell-tree root) with one header, and the block to the ledger digest the
// client saved (via the commitment Merkle tree) with one inclusion proof.
// Every point read shares one multi-key point proof (shared sibling nodes
// instead of N independent paths) and every range scan has its own range
// proof: a point or range read is the one-query proof, a deferred-audit
// flush proves all receipts taken at one digest through one of these.
//
// The cell part is produced by the same index traversal that served the
// query — Spitz "can store the proofs of the results and the value of the
// target nodes in a unified index" (Section 6.2.1).
type Proof struct {
	Header    BlockHeader
	Inclusion mtree.InclusionProof
	// Point covers every point query, in request order among point
	// queries; nil when there are none.
	Point *postree.BatchProof
	// Ranges covers every range query, in request order among range
	// queries.
	Ranges []postree.RangeProof
	// Unbound marks a proof travelling without its block binding (Unbind):
	// only a verifier holding that block's header can check it.
	Unbound bool

	// one is room for a single read's parts inside the proof itself, so
	// proving, decoding and asking a point or range read allocate nothing
	// for its key, value, found flag or sub-proof. A copy of the proof
	// shares them. It never travels.
	one struct {
		point      postree.BatchProof
		key, value [1][]byte
		found      [1]bool
		ranges     [1]postree.RangeProof
	}
}

// Answers reports whether the proof is, sub-proof by sub-proof, a proof
// of exactly these queries: one point entry per point query carrying that
// query's tree key, one range proof per range query carrying that query's
// bounds, each kind in request order, nothing missing and nothing extra.
// Clients check it before they verify, so a valid proof of some other
// question — another key's value, a narrower range that silently omits
// rows, a point read's proof with a range beside it — is turned away
// without touching the verifier.
func (p *Proof) Answers(queries []BatchQuery) bool {
	pi, ri := 0, 0
	for _, q := range queries {
		if q.Range {
			start, end := cellstore.RefRange(q.Table, q.Column, q.PK, q.PKHi)
			if ri >= len(p.Ranges) || !bytes.Equal(p.Ranges[ri].Start, start) || !bytes.Equal(p.Ranges[ri].End, end) {
				return false
			}
			ri++
			continue
		}
		if p.Point == nil || pi >= len(p.Point.Keys) ||
			!bytes.Equal(p.Point.Keys[pi], cellstore.CellPrefix(q.Table, q.Column, q.PK)) {
			return false
		}
		pi++
	}
	return ri == len(p.Ranges) && (p.Point == nil || pi == len(p.Point.Keys))
}

// Ask gives a proof that travelled without its question (Trimmed: no
// point keys, ranges without bounds) the one these queries ask, so that it
// is checked (Answers) and verified for the client's own question. What
// the proof does carry it keeps.
func (p *Proof) Ask(queries []BatchQuery) {
	if p.Point != nil && p.Point.Keys == nil {
		keys := p.one.key[:0] // one point query's key needs no room of its own
		for _, q := range queries {
			if !q.Range {
				keys = append(keys, cellstore.CellPrefix(q.Table, q.Column, q.PK))
			}
		}
		p.Point.Ask(keys)
	}
	ri := 0
	for _, q := range queries {
		if !q.Range {
			continue
		}
		if ri < len(p.Ranges) && p.Ranges[ri].Start == nil {
			p.Ranges[ri].Start, p.Ranges[ri].End = cellstore.RefRange(q.Table, q.Column, q.PK, q.PKHi)
		}
		ri++
	}
}

// Live reads the answers off a proof of exactly these queries (Answers)
// that has verified: for each query, in order, the live cells it proves —
// a point query's cell or none, a range query's rows in key order —
// with tombstones left out. It is the one place proven cells are decoded.
func (p *Proof) Live(queries []BatchQuery) ([][]cellstore.Cell, error) {
	out := make([][]cellstore.Cell, len(queries))
	var points []cellstore.Cell // every point query's cell, in one array
	if p.Point != nil {
		points = make([]cellstore.Cell, 0, len(p.Point.Keys))
	}
	pi, ri := 0, 0
	for i, q := range queries {
		if q.Range {
			cells, err := cellstore.DecodeEntries(p.Ranges[ri].Entries)
			if err != nil {
				return nil, err
			}
			ri++
			live := cells[:0]
			for _, c := range cells {
				if !c.Tombstone {
					live = append(live, c)
				}
			}
			out[i] = live
			continue
		}
		if p.Point.Found[pi] {
			ver, value, tomb, err := cellstore.DecodeVersion(p.Point.Values[pi])
			if err != nil {
				return nil, err
			}
			if !tomb {
				points = append(points, cellstore.Cell{Table: q.Table, Column: q.Column, PK: q.PK, Version: ver, Value: value})
				n := len(points)
				out[i] = points[n-1 : n : n]
			}
		}
		pi++
	}
	return out, nil
}

// Verify checks the proof against a client-saved ledger digest. It
// confirms (1) the block is part of the ledger the digest commits to, and
// (2) every cell sub-proof hashes to the block's cell-tree root, so each
// answer is exactly what the block's index holds for its query (a range
// proof's Entries are filled from the verified leaves). Verification is
// all-or-nothing — a single corrupt shared node rejects the whole proof,
// so no covered read can be silently accepted.
func (p Proof) Verify(d Digest) error {
	return p.VerifyPath(d, nil)
}

// VerifyPath is Verify for a client that may already hold verified index
// nodes on the proof's search paths and scans (postree.Path; nil holds
// nothing). The sub-proofs share the one path: what any of them reaches is
// reached.
func (p Proof) VerifyPath(d Digest, path *postree.Path) error {
	if err := VerifyBlock(p.Header, p.Inclusion, d); err != nil {
		return err
	}
	return p.VerifyCells(path)
}

// VerifyCells checks the cell proofs alone, against p.Header's cell root,
// which the caller has bound to its trusted digest: VerifyPath, or a
// verifier supplying the header it checked before to an Unbound proof.
func (p Proof) VerifyCells(path *postree.Path) error {
	if p.Point != nil {
		if err := p.Point.VerifyPath(p.Header.CellRoot, path); err != nil {
			return ErrProofInvalid
		}
	}
	for i := range p.Ranges {
		if err := p.Ranges[i].VerifyPath(p.Header.CellRoot, path); err != nil {
			return ErrProofInvalid
		}
	}
	return nil
}

// VerifyBlock is the one inclusion check: the block h must be part of the
// ledger d commits to, inc its path in the commitment tree of d's height.
func VerifyBlock(h BlockHeader, inc mtree.InclusionProof, d Digest) error {
	if h.Height >= d.Height || inc.TreeSize != int(d.Height) || inc.Index != int(h.Height) {
		return ErrProofInvalid // block not covered by the digest
	}
	if err := inc.Verify(d.Root, mtree.LeafHash(h.Encode())); err != nil {
		return ErrProofInvalid
	}
	return nil
}

// Held is the hint of a request this ledger answers, ready to cut proofs
// against (Proof.Elide): the digests of the index nodes the client says it
// holds, with the cell tree's node cache behind them for the nodes it
// holds an older version of.
func (l *Ledger) Held(have []hashutil.Digest) postree.HeldSet {
	if len(have) == 0 {
		return postree.HeldSet{}
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.cells.Tree.Held(have)
}

// Elide returns the proof as it travels to a client that says it holds
// the index nodes in have (none: a cold or hint-less client): every
// sub-proof without the bodies of exactly those nodes, with a patch in
// place of the body of a node the client holds another version of, and
// every range proof without its rows, which the client reads off the
// leaves it verifies. The receiver and the sub-proofs it points to are
// not modified.
func (p Proof) Elide(have postree.HeldSet) Proof {
	n := 0
	if p.Point != nil && have.Len() > 0 {
		bp, k := p.Point.Elide(have)
		p.Point, n = &bp, k
	}
	if len(p.Ranges) > 0 {
		ranges := make([]postree.RangeProof, len(p.Ranges))
		for i := range p.Ranges {
			var k int
			ranges[i], k = p.Ranges[i].WithoutEntries().Elide(have)
			n += k
		}
		p.Ranges = ranges
	}
	countCut(n, have)
	return p
}

// Trimmed returns the proof as it travels to a client that supplies the
// question it asked (Ask): without its point keys or its ranges' bounds.
// The receiver and what it points to are not modified.
func (p Proof) Trimmed() Proof {
	if p.Point != nil {
		pt := *p.Point
		pt.Keys = nil
		p.Point = &pt
	}
	if p.Ranges != nil {
		p.Ranges = append([]postree.RangeProof(nil), p.Ranges...)
		for i := range p.Ranges {
			p.Ranges[i].Start, p.Ranges[i].End = nil, nil
		}
	}
	return p
}

// Unbind returns the proof as it travels to a client holding the verified
// header of its block: without that header and its inclusion path.
func (p Proof) Unbind() Proof {
	p.Header, p.Inclusion, p.Unbound = BlockHeader{}, mtree.InclusionProof{}, true
	return p
}

var (
	// mProofNodesElided counts index-node bodies left out of proofs
	// because the client already held them.
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
