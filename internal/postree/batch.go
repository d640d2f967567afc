package postree

import (
	"bytes"
	"fmt"
	"math"

	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
)

// BatchProof proves the presence or absence of several keys under one tree
// root with a single shared node set: the bodies of every node on any
// key's search path, each once. N point reads at the same root share the
// root node and every common path prefix, so the proof (and its
// verification) costs far less than N independent PointProofs — this is
// the multi-key aggregation Spitz's deferred verification batches receipts
// into (one multi-proof per digest). A leaf is cut, as in a PointProof, to
// what decides the keys that land in it: the contiguous run of entries from
// the first one any of them needs to the last, whose groups are checked
// before any of it is answered or shipped.
//
// Keys[i], Values[i] and Found[i] describe the i-th proven read; Values[i]
// is nil when Found[i] is false.
type BatchProof struct {
	Keys   [][]byte
	Values [][]byte
	Found  []bool
	Nodes  [][]byte // bodies of every visited node, each once

	digests []hashutil.Digest // digests[i] addresses Nodes[i]; see PointProof
}

// ProveGetBatch proves a batch of point reads in one pass, deduplicating
// shared nodes. Keys may repeat and need not be sorted; results are in
// request order. Each key's leaf is searched where it is stored, as in
// ProveGet, and not decoded.
func (t *Tree) ProveGetBatch(keys [][]byte) (BatchProof, error) {
	p := BatchProof{
		Keys:   keys,
		Values: make([][]byte, len(keys)),
		Found:  make([]bool, len(keys)),
	}
	if t.root.IsZero() {
		return p, nil
	}
	// at[d] is where node d sits in p.Nodes; keep[at[d]] the entry
	// positions a visited leaf must keep (unused for index nodes).
	at := make(map[hashutil.Digest]int, 8)
	var keep [][2]int
	visit := func(d hashutil.Digest, body []byte) int {
		slot, seen := at[d]
		if !seen {
			slot = len(p.Nodes)
			at[d] = slot
			p.Nodes, p.digests = append(p.Nodes, body), append(p.digests, d)
			keep = append(keep, [2]int{math.MaxInt, -1})
		}
		return slot
	}
	for ki, key := range keys {
		d, body, err := t.leafFor(key, func(d hashutil.Digest, body []byte) { visit(d, body) })
		if err != nil {
			return BatchProof{}, fmt.Errorf("postree: prove batch: %w", err)
		}
		if body == nil {
			continue // key beyond max: the path proves absence
		}
		slot := visit(d, body)
		lo, hi, e, found, err := t.find(d, p.Nodes[slot], key)
		if err != nil {
			return BatchProof{}, fmt.Errorf("postree: prove batch: %w", err)
		}
		if p.Found[ki] = found; found {
			p.Values[ki] = e.Value
		}
		keep[slot] = [2]int{min(keep[slot][0], lo), max(keep[slot][1], hi)}
	}
	// A leaf's kept run is checked before any of it is shipped.
	for slot, body := range p.Nodes {
		if body[0] != 0 {
			continue
		}
		if err := t.store.CheckGroups(p.digests[slot], body, keep[slot][0], keep[slot][1]); err != nil {
			return BatchProof{}, fmt.Errorf("postree: prove batch: %w", err)
		}
		pruned, err := posleaf.Prune(body, keep[slot][0], keep[slot][1])
		if err != nil {
			return BatchProof{}, fmt.Errorf("postree: prove batch: %w", err)
		}
		p.Nodes[slot] = pruned
	}
	return p, nil
}

// Elide is PointProof.Elide for a batch proof.
func (p BatchProof) Elide(have HeldSet) (BatchProof, int) {
	nodes, n := elide(p.Nodes, p.digests, have)
	if nodes != nil {
		p.Nodes, p.digests = nodes, nil
	}
	return p, n
}

// Ask is PointProof.Ask for a batch proof: keys, one per proven read, and
// each found key's value. It reports false, and leaves p as it was, when
// the number of keys is not the number of reads the proof proves.
func (p *BatchProof) Ask(keys [][]byte) bool {
	if len(keys) != len(p.Found) {
		return false
	}
	leaves := shippedLeaves(p.Nodes, nil)
	p.Keys, p.Values = keys, make([][]byte, len(keys))
	for i, key := range keys {
		if p.Found[i] {
			p.Values[i] = shippedValue(leaves, key)
		}
	}
	return true
}

// Verify checks the batch proof against a trusted root digest. On success
// the caller may trust every (Keys[i], Values[i], Found[i]) triple as of
// the state committed by root. Verification is all-or-nothing: a corrupt
// shared node fails every read whose path crosses it — and because the
// proof is rejected as a whole, every covered read is rejected. Every
// node must be shipped: it is VerifyPath with nothing pinned.
func (p BatchProof) Verify(root hashutil.Digest) error {
	return p.VerifyPath(root, nil)
}

// VerifyPath is Verify for a verifier that may hold some of the index
// nodes on the keys' search paths: each key's search is rerun from the
// root through the same resolver a PointProof uses (see
// PointProof.VerifyPath), over one shared set of shipped bodies.
func (p BatchProof) VerifyPath(root hashutil.Digest, path *Path) error {
	if len(p.Values) != len(p.Keys) || len(p.Found) != len(p.Keys) {
		return ErrProofInvalid
	}
	if root.IsZero() {
		// Empty tree: every key is absent and the proof must be empty.
		if len(p.Nodes) != 0 {
			return ErrProofInvalid
		}
		for i := range p.Keys {
			if p.Found[i] || p.Values[i] != nil {
				return ErrProofInvalid
			}
		}
		return nil
	}
	var small smallProof
	r, err := open(p.Nodes, path, &small)
	if err != nil {
		return err
	}
	for i, key := range p.Keys {
		value, found, err := r.get(root, key)
		if err != nil {
			return err
		}
		if found != p.Found[i] || !bytes.Equal(value, p.Values[i]) {
			return ErrProofInvalid
		}
	}
	return r.finish()
}
