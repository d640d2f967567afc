package postree

import (
	"encoding/binary"
	"fmt"
	"math"

	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
	"spitz/internal/proof"
)

// BatchProof proves point reads under a tree root: see proof.BatchProof.
// The prover fills its Digests, which HeldSet.Point cuts against.
type BatchProof = proof.BatchProof

// RangeProof proves a range scan under a tree root: see proof.RangeProof.
type RangeProof = proof.RangeProof

// ProveGet proves one point read: the one-key ProveGetBatch.
func (t *Tree) ProveGet(key []byte) (BatchProof, error) {
	return t.ProveGetBatch([][]byte{key})
}

// ProveGetBatch proves a batch of point reads in one pass, deduplicating
// shared nodes. Keys may repeat and need not be sorted; results are in
// request order. The index levels come decoded from the node cache; each
// key's leaf, as in Get, is searched — and then cut — in its stored body
// rather than decoded whole, and only the groups the cut ships entries
// from or hashes siblings in are checked, before any of it is answered or
// shipped. A key beyond the tree's max has no leaf: the path proves its
// absence.
func (t *Tree) ProveGetBatch(keys [][]byte) (BatchProof, error) {
	p := BatchProof{
		Keys:   keys,
		Values: make([][]byte, len(keys)),
		Found:  make([]bool, len(keys)),
	}
	if t.root.IsZero() {
		return p, nil // proof against the zero root: trivially empty tree
	}
	// seen.List is p.Digests: where each visited node sits in p.Nodes.
	// keep[slot] is the run of entries a visited leaf must keep (unused for
	// index nodes); a short batch's fit on the stack.
	size := t.level + len(keys)
	seen := proof.DigestSet{List: make([]hashutil.Digest, 0, size)}
	p.Nodes = make([][]byte, 0, size)
	var room [proof.ScanLimit][2]int
	keep := room[:0]
	visit := func(d hashutil.Digest, body []byte) int {
		if slot := seen.Find(d); slot >= 0 {
			return slot
		}
		seen = seen.Add(d)
		p.Nodes, keep = append(p.Nodes, body), append(keep, [2]int{math.MaxInt, -1})
		return len(p.Nodes) - 1
	}
	for ki, key := range keys {
		d, body, err := t.leafFor(key, func(d hashutil.Digest, body []byte) { visit(d, body) })
		if err != nil {
			return BatchProof{}, fmt.Errorf("postree: prove get: %w", err)
		}
		if body == nil {
			continue // key beyond max: the path proves absence
		}
		slot := visit(d, body)
		lo, hi, e, found, err := t.find(d, p.Nodes[slot], key)
		if err != nil {
			return BatchProof{}, fmt.Errorf("postree: prove get: %w", err)
		}
		if p.Found[ki] = found; found {
			p.Values[ki] = e.Value
		}
		keep[slot] = [2]int{min(keep[slot][0], lo), max(keep[slot][1], hi)}
	}
	p.Digests = seen.List
	for slot, body := range p.Nodes {
		if body[0] != 0 {
			continue
		}
		// Several keys' run may span groups none of their searches checked.
		if err := t.store.CheckGroups(p.Digests[slot], body, keep[slot][0], keep[slot][1]); err != nil {
			return BatchProof{}, fmt.Errorf("postree: prove get: %w", err)
		}
		pruned, err := posleaf.Prune(body, keep[slot][0], keep[slot][1])
		if err != nil {
			return BatchProof{}, fmt.Errorf("postree: prove get: %w", err)
		}
		p.Nodes[slot] = pruned
	}
	return p, nil
}

// pointSpan returns the entry positions of a leaf of count entries that
// decide a search that ended at position i: the entry itself for a hit,
// both sides of the gap (as far as the leaf has them) for a miss.
func pointSpan(count, i int, found bool) (lo, hi int) {
	if found {
		return i, i
	}
	return max(i-1, 0), min(i, count-1)
}

// ---------------------------------------------------------------------------
// Elision: what the verifier holds is not shipped

// FingerprintSize is how much of a node's digest names it in a hint: its
// first 8 bytes. A hint is matched by fingerprint alone, so it may carry no
// more (the trimmed wire form sends no more). A fingerprint that matches a
// node the verifier does not hold only leaves out a body its walk then
// cannot find: the proof fails, it never verifies wrong data.
const FingerprintSize = 8

func fingerprint(d hashutil.Digest) uint64 { return binary.BigEndian.Uint64(d[:FingerprintSize]) }

// HeldSet is what a verifier says it already holds — the hint a proof is
// cut against: a held index node, named by fingerprint, is left out, and
// one that is not held travels as a patch against a held node at its
// position when the set can find one (see Tree.Held). The zero HeldSet is
// empty.
type HeldSet struct {
	hint  []hashutil.Digest   // as it arrived; only each one's fingerprint counts
	index map[uint64]struct{} // the hint's fingerprints, kept once past proof.ScanLimit
	bases *bases              // nil: the hint alone, nothing to patch against
}

// NewHeldSet builds the set from a hint as it arrived; ds is not copied
// (a digest repeated in it is harmless).
func NewHeldSet(ds []hashutil.Digest) HeldSet {
	h := HeldSet{hint: ds}
	if len(ds) > proof.ScanLimit {
		h.index = make(map[uint64]struct{}, len(ds))
		for _, d := range ds {
			h.index[fingerprint(d)] = struct{}{}
		}
	}
	return h
}

// holds reports whether the hint names d's fingerprint.
func (h HeldSet) holds(d hashutil.Digest) bool {
	fp := fingerprint(d)
	if h.index != nil {
		_, ok := h.index[fp]
		return ok
	}
	for i := range h.hint {
		if fingerprint(h.hint[i]) == fp {
			return true
		}
	}
	return false
}

// Patched reports what the proofs cut against the set so far carry as
// patches: how many index nodes, and how many bytes fewer than their
// bodies.
func (h HeldSet) Patched() (nodes, saved int) {
	if h.bases == nil {
		return 0, 0
	}
	return h.bases.patched, h.bases.saved
}

// elide is the one rule for what travels, for every proof shape: an index
// node's body is left out if the verifier said it holds it, and replaced by
// a patch if the verifier holds another version of that node and the patch
// is smaller. Leaves always ship — they carry the answer and are what the
// verifier hashes fresh on every read. digests[i] must be the digest of
// nodes[i] (a proof that was decoded rather than built has none and is
// returned as it is); nodes itself is not modified. The results are the
// node list as it travels with the digests that still address it (none
// once anything was cut), and the number of bodies left out.
func (h HeldSet) elide(nodes [][]byte, digests []hashutil.Digest) ([][]byte, []hashutil.Digest, int) {
	if len(h.hint) == 0 || len(digests) != len(nodes) {
		return nodes, digests, 0
	}
	var out [][]byte
	elided := 0
	for i, body := range nodes {
		keep, cut := body, false
		if len(body) > 0 && body[0] != 0 {
			if h.holds(digests[i]) {
				keep, cut = nil, true
				elided++
			} else if patch := h.bases.patch(digests[i], body); patch != nil {
				keep, cut = patch, true
			}
		}
		if cut && out == nil {
			out = append(make([][]byte, 0, len(nodes)), nodes[:i]...)
		}
		if out != nil && keep != nil {
			out = append(out, keep)
		}
	}
	if out == nil {
		return nodes, digests, 0
	}
	return out, nil, elided
}

// ProveScan scans [start, end) and returns the result set with its proof.
func (t *Tree) ProveScan(start, end []byte) (RangeProof, error) {
	p := RangeProof{Start: start, End: end}
	if t.root.IsZero() {
		return p, nil
	}
	if err := t.proveScanNode(t.root, &p); err != nil {
		return RangeProof{}, err
	}
	return p, nil
}

func (t *Tree) proveScanNode(d hashutil.Digest, p *RangeProof) error {
	body, n, err := t.loadProofNode(d)
	if err != nil {
		return fmt.Errorf("postree: prove scan: %w", err)
	}
	p.Digests = append(p.Digests, d)
	if n.Level == 0 {
		a, b := proof.LeafSpan(n.Entries, p.Start, p.End)
		if err := t.checkRun(d, body, n, a, b); err != nil {
			return fmt.Errorf("postree: prove scan: %w", err)
		}
		p.Entries = append(p.Entries, n.Entries[a:b]...)
		// The in-range entries and one neighbour on each side, as far as
		// the leaf has them: what brackets demands of this leaf.
		if body, err = posleaf.Prune(body, max(a-1, 0), min(b, len(n.Entries)-1)); err != nil {
			return fmt.Errorf("postree: prove scan: %w", err)
		}
		p.Nodes = append(p.Nodes, body)
		return nil
	}
	p.Nodes = append(p.Nodes, body)
	from, to := proof.ChildSpan(n.Entries, p.Start, p.End)
	for _, e := range n.Entries[from:to] {
		if err := t.proveScanNode(proof.ChildDigest(e), p); err != nil {
			return err
		}
	}
	return nil
}

// Point returns a copy of p as it travels to the verifier that holds h:
// without the bodies of the index nodes it holds, and with a patch in place
// of a body where that is smaller. p itself is not modified; the second
// result is the number of nodes elided.
func (h HeldSet) Point(p BatchProof) (BatchProof, int) {
	var n int
	p.Nodes, p.Digests, n = h.elide(p.Nodes, p.Digests)
	return p, n
}

// Range is Point for a range proof, which also travels without its rows:
// the verifier reads them off the leaves it verifies, so shipping them a
// second time would only add bytes it must not trust.
func (h HeldSet) Range(p RangeProof) (RangeProof, int) {
	var n int
	p.Entries = nil
	p.Nodes, p.Digests, n = h.elide(p.Nodes, p.Digests)
	return p, n
}
