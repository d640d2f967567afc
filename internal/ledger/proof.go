package ledger

import (
	"spitz/internal/hashutil"
	"spitz/internal/mtree"
	"spitz/internal/obs"
	"spitz/internal/postree"
	"spitz/internal/proof"
)

// Proof is the integrity proof of one or more reads against one ledger
// block (proof.Proof); BatchQuery is one read it proves.
type (
	Proof      = proof.Proof
	BatchQuery = proof.BatchQuery
)

// Held is the hint of a request this ledger answers, ready to cut proofs
// against (Cut): the digests of the index nodes the client says it
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

// Cut returns the proof as it travels to a client that walks the question
// it asked itself (proof.Verifier.Check) and says it holds the index nodes
// in have (none: a cold or hint-less client): without its point keys or
// its ranges' bounds, every sub-proof without the bodies of exactly those
// nodes, with a patch in place of the body of a node the client holds
// another version of, and every range proof without its rows, which the
// client reads off the leaves it verifies. p and the sub-proofs it points
// to are not modified.
func Cut(p Proof, have postree.HeldSet) Proof {
	n := 0
	if p.Point != nil {
		bp, k := have.Point(*p.Point)
		bp.Keys = nil
		p.Point, n = &bp, k
	}
	var ranges []postree.RangeProof // an empty list travels as none
	if len(p.Ranges) > 0 {
		ranges = make([]postree.RangeProof, len(p.Ranges))
	}
	for i := range p.Ranges {
		var k int
		ranges[i], k = have.Range(p.Ranges[i])
		ranges[i].Start, ranges[i].End = nil, nil
		n += k
	}
	p.Ranges = ranges
	countCut(n, have)
	return p
}

// Unbind returns the proof as it travels to a client holding the verified
// header of its block: without that header and its inclusion path.
func Unbind(p Proof) Proof {
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
