// Package mtree implements an append-only Merkle tree in the style of
// RFC 6962 (Certificate Transparency).
//
// Both ledger designs in the paper commit their block sequence with such a
// tree: the baseline's journal ("blocks organized in a hash chain ... a
// Merkle tree is built upon the entire journal", Section 2.3) and Spitz's
// ledger ("the block and the data can be verified using the Merkle tree
// structure built on top of the entire ledger", Section 5). The tree
// supports inclusion proofs ("this block is in the ledger whose digest you
// saved") and consistency proofs ("today's ledger extends yesterday's").
package mtree

import (
	"errors"
	"fmt"
	"math/bits"

	"spitz/internal/hashutil"
)

// Tree is an append-only Merkle tree over opaque leaf payload hashes.
// Appends are O(log n) amortized; proofs are O(log n). The zero value is an
// empty tree ready for use. Tree is not safe for concurrent mutation.
type Tree struct {
	// levels[0] holds leaf hashes; levels[l][i] is the RFC 6962 hash of the
	// perfect (or right-edge partial, carried) subtree covering leaves
	// [i<<l, min(n, (i+1)<<l)).
	levels [][]hashutil.Digest
}

// Size returns the number of leaves.
func (t *Tree) Size() int {
	if len(t.levels) == 0 {
		return 0
	}
	return len(t.levels[0])
}

// AppendData hashes payload as a leaf and appends it.
func (t *Tree) AppendData(payload []byte) int {
	return t.Append(LeafHash(payload))
}

// Append adds a precomputed leaf hash and returns its index.
func (t *Tree) Append(leaf hashutil.Digest) int {
	if len(t.levels) == 0 {
		t.levels = append(t.levels, nil)
	}
	t.levels[0] = append(t.levels[0], leaf)
	i := len(t.levels[0]) - 1
	// Recompute the carried/combined nodes up the right edge.
	for l := 0; ; l++ {
		cur := t.levels[l]
		if len(cur) == 1 {
			// This level is the root; drop any stale levels above.
			t.levels = t.levels[:l+1]
			break
		}
		parentLen := (len(cur) + 1) / 2
		if l+1 >= len(t.levels) {
			t.levels = append(t.levels, make([]hashutil.Digest, 0, parentLen))
		}
		parent := t.levels[l+1]
		if len(parent) < parentLen {
			parent = append(parent, hashutil.Digest{})
		}
		p := len(parent) - 1
		left := cur[2*p]
		if 2*p+1 < len(cur) {
			parent[p] = hashutil.SumPair(hashutil.DomainInner, left, cur[2*p+1])
		} else {
			parent[p] = left // odd node carried up unchanged (RFC 6962)
		}
		t.levels[l+1] = parent
	}
	return i
}

// Root returns the tree head digest. The empty tree's root is the hash of
// the empty string under the leaf domain, as in RFC 6962.
func (t *Tree) Root() hashutil.Digest { return t.RootAt(t.Size()) }

// RootAt returns the root the tree had at n leaves, n <= Size.
func (t *Tree) RootAt(n int) hashutil.Digest {
	if n == 0 {
		return hashutil.Sum(hashutil.DomainLeaf, nil)
	}
	return t.mth(0, n)
}

// Leaf returns the leaf hash at index i.
func (t *Tree) Leaf(i int) (hashutil.Digest, error) {
	if i < 0 || i >= t.Size() {
		return hashutil.Digest{}, fmt.Errorf("mtree: leaf index %d out of range [0,%d)", i, t.Size())
	}
	return t.levels[0][i], nil
}

// LeafHash computes the RFC 6962 leaf hash of a payload.
func LeafHash(payload []byte) hashutil.Digest {
	return hashutil.Sum(hashutil.DomainLeaf, payload)
}

// mth returns the Merkle tree hash of leaves [a, b): read from levels when
// the range is an aligned perfect subtree or the tree's right edge, both
// materialized by construction, and by the RFC 6962 recursion otherwise —
// the right edge of a prefix, for proofs up to an older size.
func (t *Tree) mth(a, b int) hashutil.Digest {
	n := b - a
	if n == 1 {
		return t.levels[0][a]
	}
	l := bits.Len(uint(n - 1)) // ceil(log2 n)
	if a%(1<<l) == 0 && (a>>l) < len(t.levels[l]) {
		// Aligned: read the materialized node (perfect or carried).
		if b == a+(1<<l) || b == t.Size() {
			return t.levels[l][a>>l]
		}
	}
	k := largestPowerOfTwoBelow(n)
	return hashutil.SumPair(hashutil.DomainInner, t.mth(a, a+k), t.mth(a+k, b))
}

func largestPowerOfTwoBelow(n int) int {
	if n < 2 {
		return 0
	}
	return 1 << (bits.Len(uint(n-1)) - 1)
}

// InclusionProof returns the audit path proving that leaf i is included in
// the tree of the current size.
func (t *Tree) InclusionProof(i int) (InclusionProof, error) {
	n := t.Size()
	if i < 0 || i >= n {
		return InclusionProof{}, fmt.Errorf("mtree: inclusion proof index %d out of range [0,%d)", i, n)
	}
	return InclusionProof{Index: i, TreeSize: n, Path: t.path(i, 0, n)}, nil
}

func (t *Tree) path(m, a, b int) []hashutil.Digest {
	if b-a <= 1 {
		return nil
	}
	k := largestPowerOfTwoBelow(b - a)
	if m < a+k {
		return append(t.path(m, a, a+k), t.mth(a+k, b))
	}
	return append(t.path(m, a+k, b), t.mth(a, a+k))
}

// InclusionProof proves a leaf's membership in a tree of a given size.
type InclusionProof struct {
	Index    int
	TreeSize int
	Path     []hashutil.Digest
}

// Errors returned by proof verification.
var (
	ErrProofMismatch = errors.New("mtree: proof does not reproduce the root")
	ErrBadProof      = errors.New("mtree: malformed proof")
)

// Verify checks the proof against a known root and the claimed leaf hash.
func (p InclusionProof) Verify(root, leaf hashutil.Digest) error {
	if p.Index < 0 || p.Index >= p.TreeSize {
		return ErrBadProof
	}
	if len(p.Path) != pathLen(p.Index, p.TreeSize) {
		return ErrBadProof
	}
	if replay(leaf, p.Index, p.TreeSize, p.Path) != root {
		return ErrProofMismatch
	}
	return nil
}

// pathLen returns the audit path length for leaf m in a tree of n leaves.
func pathLen(m, n int) int {
	l := 0
	for n > 1 {
		k := largestPowerOfTwoBelow(n)
		if m < k {
			n = k
		} else {
			m -= k
			n -= k
		}
		l++
	}
	return l
}

// replay recomputes the root from a leaf hash and an audit path produced by
// path(): the path lists siblings from bottom to top.
func replay(leaf hashutil.Digest, m, n int, path []hashutil.Digest) hashutil.Digest {
	if n <= 1 {
		return leaf
	}
	k := largestPowerOfTwoBelow(n)
	if len(path) == 0 {
		return hashutil.Digest{}
	}
	sib := path[len(path)-1]
	rest := path[:len(path)-1]
	if m < k {
		left := replay(leaf, m, k, rest)
		return hashutil.SumPair(hashutil.DomainInner, left, sib)
	}
	right := replay(leaf, m-k, n-k, rest)
	return hashutil.SumPair(hashutil.DomainInner, sib, right)
}

// ConsistencyProof proves that the tree of size OldSize is a prefix of the
// tree of size NewSize.
type ConsistencyProof struct {
	OldSize int
	NewSize int
	Path    []hashutil.Digest
}

// ConsistencyProof proves the first oldSize leaves a prefix of the first
// newSize — the whole tree or any prefix of it, the same proof whenever
// it is taken.
func (t *Tree) ConsistencyProof(oldSize, newSize int) (ConsistencyProof, error) {
	if oldSize < 0 || oldSize > newSize || newSize > t.Size() {
		return ConsistencyProof{}, fmt.Errorf("mtree: consistency sizes %d -> %d out of range [0,%d]", oldSize, newSize, t.Size())
	}
	p := ConsistencyProof{OldSize: oldSize, NewSize: newSize}
	if oldSize > 0 && oldSize < newSize {
		p.Path = t.subproof(oldSize, 0, newSize, true)
	}
	return p, nil
}

func (t *Tree) subproof(m, a, b int, complete bool) []hashutil.Digest {
	n := b - a
	if m == n {
		if complete {
			return nil
		}
		return []hashutil.Digest{t.mth(a, b)}
	}
	k := largestPowerOfTwoBelow(n)
	if m <= k {
		return append(t.subproof(m, a, a+k, complete), t.mth(a+k, b))
	}
	return append(t.subproof(m-k, a+k, b, false), t.mth(a, a+k))
}

// Verify checks the consistency proof against the old and new roots.
func (p ConsistencyProof) Verify(oldRoot, newRoot hashutil.Digest) error {
	if p.OldSize < 0 || p.OldSize > p.NewSize {
		return ErrBadProof
	}
	if p.OldSize == 0 {
		return nil // anything is consistent with the empty tree
	}
	if p.OldSize == p.NewSize {
		if oldRoot != newRoot {
			return ErrProofMismatch
		}
		return nil
	}
	gotOld, gotNew, err := replayConsistency(p.OldSize, 0, p.NewSize, true, oldRoot, p.Path)
	if err != nil {
		return err
	}
	if gotOld != oldRoot || gotNew != newRoot {
		return ErrProofMismatch
	}
	return nil
}

// replayConsistency mirrors subproof: it recomputes (oldRoot, newRoot) from
// the proof path. seed is the claimed old root, used for "complete" left
// spines that the proof omits.
func replayConsistency(m, a, b int, complete bool, seed hashutil.Digest, path []hashutil.Digest) (oldH, newH hashutil.Digest, err error) {
	n := b - a
	if m == n {
		if complete {
			return seed, seed, nil
		}
		if len(path) == 0 {
			return oldH, newH, ErrBadProof
		}
		h := path[len(path)-1]
		return h, h, nil
	}
	if len(path) == 0 {
		return oldH, newH, ErrBadProof
	}
	sib := path[len(path)-1]
	rest := path[:len(path)-1]
	k := largestPowerOfTwoBelow(n)
	if m <= k {
		o, nw, err := replayConsistency(m, a, a+k, complete, seed, rest)
		if err != nil {
			return oldH, newH, err
		}
		return o, hashutil.SumPair(hashutil.DomainInner, nw, sib), nil
	}
	o, nw, err := replayConsistency(m-k, a+k, b, false, seed, rest)
	if err != nil {
		return oldH, newH, err
	}
	return hashutil.SumPair(hashutil.DomainInner, sib, o),
		hashutil.SumPair(hashutil.DomainInner, sib, nw), nil
}
