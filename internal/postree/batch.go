package postree

import (
	"bytes"
	"fmt"
	"sort"

	"spitz/internal/hashutil"
)

// BatchProof proves the presence or absence of several keys under one tree
// root with a single shared node set: the bodies of every node on any
// key's search path, deduplicated by content digest. N point reads at the
// same root share the root node and every common path prefix, so the
// proof (and its verification) costs far less than N independent
// PointProofs — this is the multi-key aggregation Spitz's deferred
// verification batches receipts into (one multi-proof per digest).
//
// Keys[i], Values[i] and Found[i] describe the i-th proven read; Values[i]
// is nil when Found[i] is false.
type BatchProof struct {
	Keys   [][]byte
	Values [][]byte
	Found  []bool
	Nodes  [][]byte // deduplicated bodies of every visited node
}

// ProveGetBatch proves a batch of point reads in one pass, deduplicating
// shared nodes. Keys may repeat and need not be sorted; results are in
// request order.
func (t *Tree) ProveGetBatch(keys [][]byte) (BatchProof, error) {
	p := BatchProof{
		Keys:   keys,
		Values: make([][]byte, len(keys)),
		Found:  make([]bool, len(keys)),
	}
	if t.root.IsZero() {
		return p, nil
	}
	seen := make(map[hashutil.Digest]struct{}, 8)
	for ki, key := range keys {
		d := t.root
		for {
			body, n, err := t.loadProofNode(d)
			if err != nil {
				return BatchProof{}, fmt.Errorf("postree: prove batch: %w", err)
			}
			if _, ok := seen[d]; !ok {
				seen[d] = struct{}{}
				p.Nodes = append(p.Nodes, body)
			}
			i := sort.Search(len(n.entries), func(i int) bool {
				return bytes.Compare(n.entries[i].Key, key) >= 0
			})
			if n.level == 0 {
				if i < len(n.entries) && bytes.Equal(n.entries[i].Key, key) {
					p.Found[ki] = true
					p.Values[ki] = n.entries[i].Value
				}
				break
			}
			if i == len(n.entries) {
				break // key beyond max: the path proves absence
			}
			d = childDigest(n.entries[i])
		}
	}
	return p, nil
}

// batchNode is one decoded proof node during batch verification.
type batchNode struct {
	n    *node
	used bool
}

// Verify checks the batch proof against a trusted root digest. On success
// the caller may trust every (Keys[i], Values[i], Found[i]) triple as of
// the state committed by root. Verification is all-or-nothing: a corrupt
// shared node fails every read whose path crosses it — and because the
// proof is rejected as a whole, every covered read is rejected.
func (p BatchProof) Verify(root hashutil.Digest) error {
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
	if len(p.Keys) > 0 && len(p.Nodes) == 0 {
		return ErrProofInvalid
	}
	// Index the node bodies by their content digest. The digest is
	// recomputed from the body, so a child lookup by digest transitively
	// verifies hash linkage from the root.
	idx := make(map[hashutil.Digest]*batchNode, len(p.Nodes))
	for _, body := range p.Nodes {
		n, d, err := openNode(body, false)
		if err != nil {
			return ErrProofInvalid
		}
		if _, dup := idx[d]; dup {
			return ErrProofInvalid // duplicates would mask an unused node
		}
		idx[d] = &batchNode{n: n}
	}
	for ki, key := range p.Keys {
		if err := p.verifyKey(root, idx, ki, key); err != nil {
			return err
		}
	}
	for _, bn := range idx {
		if !bn.used {
			return ErrProofInvalid // extra unvisited nodes smuggled in
		}
	}
	return nil
}

// verifyKey replays one key's search using only the proof's node set.
func (p BatchProof) verifyKey(root hashutil.Digest, idx map[hashutil.Digest]*batchNode, ki int, key []byte) error {
	want := root
	level := -1 // unknown until the root node is decoded
	for {
		bn, ok := idx[want]
		if !ok {
			return ErrProofInvalid // path node missing from the proof
		}
		bn.used = true
		n := bn.n
		if level >= 0 && n.level != level {
			return ErrProofInvalid // levels must strictly descend
		}
		i := sort.Search(len(n.entries), func(i int) bool {
			return bytes.Compare(n.entries[i].Key, key) >= 0
		})
		if n.level == 0 {
			found := i < len(n.entries) && bytes.Equal(n.entries[i].Key, key)
			if found != p.Found[ki] {
				return ErrProofInvalid
			}
			if found && !bytes.Equal(n.entries[i].Value, p.Values[ki]) {
				return ErrProofInvalid
			}
			if !found && p.Values[ki] != nil {
				return ErrProofInvalid
			}
			return nil
		}
		if i == len(n.entries) {
			// Absence proven by the index node: key exceeds its max key.
			if p.Found[ki] || p.Values[ki] != nil {
				return ErrProofInvalid
			}
			return nil
		}
		want = childDigest(n.entries[i])
		level = n.level - 1
	}
}
