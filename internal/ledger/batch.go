package ledger

import (
	"bytes"
	"fmt"

	"spitz/internal/cellstore"
	"spitz/internal/mtree"
	"spitz/internal/postree"
)

// BatchQuery is one deferred-audit receipt being proven: a point read
// (Range false) or a primary-key range scan (Range true) of one column.
type BatchQuery struct {
	Table  string
	Column string
	PK     []byte
	PKHi   []byte
	Range  bool
}

// BatchProof proves a batch of reads against one ledger block with a
// single block binding: one header, one inclusion proof, one aggregated
// multi-key point proof (shared sibling nodes instead of N independent
// paths) and one range proof per range query. It is the server half of
// deferred verification: a client flushes all receipts taken at one
// digest through one of these.
type BatchProof struct {
	Header    BlockHeader
	Inclusion mtree.InclusionProof
	// Points covers every point query, in request order among point
	// queries; nil when the batch had none.
	Points *postree.BatchProof
	// Ranges covers every range query, in request order among range
	// queries.
	Ranges  []postree.RangeProof
	Unbound bool // travelling without its block binding (Proof.Unbound)
}

// Answers reports whether the proof is, sub-proof by sub-proof, a proof
// of exactly these queries: one point entry per point query carrying that
// query's tree key, one range proof per range query carrying that query's
// bounds, each kind in request order, nothing missing and nothing extra.
// Clients check it before they verify, so a valid proof of some other
// question — another key's value, a narrower range that silently omits
// rows — is turned away without touching the verifier.
func (p BatchProof) Answers(queries []BatchQuery) bool {
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
		if p.Points == nil || pi >= len(p.Points.Keys) ||
			!bytes.Equal(p.Points.Keys[pi], cellstore.CellPrefix(q.Table, q.Column, q.PK)) {
			return false
		}
		pi++
	}
	return ri == len(p.Ranges) && (p.Points == nil || pi == len(p.Points.Keys))
}

// Ask gives a proof that travelled without its question (Trimmed: no
// point keys, ranges without bounds) the one these queries ask, so that it
// is checked (Answers) and verified for the client's own question. What
// the proof does carry it keeps.
func (p *BatchProof) Ask(queries []BatchQuery) {
	var keys [][]byte
	ri := 0
	for _, q := range queries {
		if !q.Range {
			keys = append(keys, cellstore.CellPrefix(q.Table, q.Column, q.PK))
			continue
		}
		if ri < len(p.Ranges) && p.Ranges[ri].Start == nil {
			p.Ranges[ri].Start, p.Ranges[ri].End = cellstore.RefRange(q.Table, q.Column, q.PK, q.PKHi)
		}
		ri++
	}
	if p.Points != nil && p.Points.Keys == nil {
		p.Points.Ask(keys)
	}
}

// Live reads the answers off a proof of exactly these queries (Answers)
// that has verified: for each query, in order, the live cells it proves —
// a point query's cell or none, a range query's rows in key order —
// with tombstones left out. It is the one place proven cells are decoded.
func (p BatchProof) Live(queries []BatchQuery) ([][]cellstore.Cell, error) {
	out := make([][]cellstore.Cell, len(queries))
	var points []cellstore.Cell // every point query's cell, in one array
	if p.Points != nil {
		points = make([]cellstore.Cell, 0, len(p.Points.Keys))
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
		if p.Points.Found[pi] {
			ver, value, tomb, err := cellstore.DecodeVersion(p.Points.Values[pi])
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

// Verify checks the batch proof against a client-saved ledger digest,
// exactly as Proof.Verify does for a single read: the block must be part
// of the ledger the digest commits to, and every aggregated cell proof
// must hash to the block's cell-tree root. Verification is all-or-nothing
// — a single corrupt shared node rejects the whole batch, so no covered
// receipt can be silently accepted.
func (p BatchProof) Verify(d Digest) error {
	return p.VerifyPath(d, nil)
}

// VerifyPath is Verify for a client that may already hold verified index
// nodes on the batch's search paths and scans (see Proof.VerifyPath). The
// sub-proofs share the one path: what any of them reaches is reached.
func (p BatchProof) VerifyPath(d Digest, path *postree.Path) error {
	if err := verifyBlock(p.Header, p.Inclusion, d); err != nil {
		return err
	}
	return p.VerifyCells(path)
}

// VerifyCells checks the cell proofs alone, against p.Header's cell root,
// which the caller has bound to its trusted digest: VerifyPath, or a
// verifier supplying the header it checked before to an Unbound proof.
func (p BatchProof) VerifyCells(path *postree.Path) error {
	if p.Points != nil {
		if err := p.Points.VerifyPath(p.Header.CellRoot, path); err != nil {
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

// Elide is Proof.Elide for a batch proof: every sub-proof loses the
// bodies of the index nodes the client holds, every range proof its rows.
// The receiver and the sub-proofs it points to are not modified.
func (p BatchProof) Elide(have postree.HeldSet) BatchProof {
	n := 0
	if p.Points != nil && have.Len() > 0 {
		bp, k := p.Points.Elide(have)
		p.Points, n = &bp, k
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

// Trimmed is Proof.Trimmed for a batch proof: its point keys and range
// bounds.
func (p BatchProof) Trimmed() BatchProof {
	if p.Points != nil {
		pt := *p.Points
		pt.Keys = nil
		p.Points = &pt
	}
	if p.Ranges != nil {
		p.Ranges = append([]postree.RangeProof(nil), p.Ranges...)
		for i := range p.Ranges {
			p.Ranges[i].Start, p.Ranges[i].End = nil, nil
		}
	}
	return p
}

// Unbind is Proof.Unbind for a batch proof.
func (p BatchProof) Unbind() BatchProof {
	p.Header, p.Inclusion, p.Unbound = BlockHeader{}, mtree.InclusionProof{}, true
	return p
}

// BatchRes is everything a ProveBatch round trip returns, captured under
// one lock acquisition: the current digest, consistency proofs advancing
// the client's trusted digest and showing the receipts' digest is a
// genuine prefix of the same history, and the batch proof itself.
type BatchRes struct {
	Digest      Digest
	ConsTrusted mtree.ConsistencyProof // trusted -> current
	ConsAt      mtree.ConsistencyProof // receipt digest -> current
	Proof       BatchProof
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
	height := at.Height - 1
	h, snap, err := l.snapshotLocked(height)
	if err != nil {
		return BatchRes{}, err
	}
	var pointKeys [][]byte
	for _, q := range queries {
		if !q.Range {
			pointKeys = append(pointKeys, cellstore.CellPrefix(q.Table, q.Column, q.PK))
		}
	}
	if len(pointKeys) > 0 {
		bp, err := snap.Tree.ProveGetBatch(pointKeys)
		if err != nil {
			return BatchRes{}, err
		}
		res.Proof.Points = &bp
	}
	for _, q := range queries {
		if !q.Range {
			continue
		}
		_, rp, err := snap.ProveRangePK(q.Table, q.Column, q.PK, q.PKHi)
		if err != nil {
			return BatchRes{}, err
		}
		res.Proof.Ranges = append(res.Proof.Ranges, rp)
	}
	inc, err := l.blockInclusion(height)
	if err != nil {
		return BatchRes{}, err
	}
	res.Proof.Header = h
	res.Proof.Inclusion = inc
	return res, nil
}
