package mtree

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"spitz/internal/hashutil"
)

// refRoot computes MTH(D[a:b]) directly from the RFC 6962 definition, as an
// independent oracle for the incremental implementation.
func refRoot(leaves []hashutil.Digest) hashutil.Digest {
	switch len(leaves) {
	case 0:
		return hashutil.Sum(hashutil.DomainLeaf, nil)
	case 1:
		return leaves[0]
	}
	k := largestPowerOfTwoBelow(len(leaves))
	return hashutil.SumPair(hashutil.DomainInner, refRoot(leaves[:k]), refRoot(leaves[k:]))
}

func leavesN(n int) []hashutil.Digest {
	out := make([]hashutil.Digest, n)
	for i := range out {
		out[i] = LeafHash([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return out
}

func buildTree(leaves []hashutil.Digest) *Tree {
	t := &Tree{}
	for _, l := range leaves {
		t.Append(l)
	}
	return t
}

func TestEmptyTree(t *testing.T) {
	tr := &Tree{}
	if tr.Size() != 0 {
		t.Fatal("empty tree has nonzero size")
	}
	if tr.Root() != hashutil.Sum(hashutil.DomainLeaf, nil) {
		t.Fatal("empty root mismatch")
	}
}

func TestRootMatchesReferenceForAllSmallSizes(t *testing.T) {
	for n := 1; n <= 130; n++ {
		leaves := leavesN(n)
		tr := buildTree(leaves)
		if tr.Size() != n {
			t.Fatalf("n=%d: size=%d", n, tr.Size())
		}
		if got, want := tr.Root(), refRoot(leaves); got != want {
			t.Fatalf("n=%d: incremental root %s != reference %s", n, got.Short(), want.Short())
		}
	}
}

// TestRootAtEveryPrefix: the root a tree had at each earlier size is the
// reference root of that prefix of its leaves.
func TestRootAtEveryPrefix(t *testing.T) {
	leaves := leavesN(130)
	tr := buildTree(leaves)
	for n := 1; n <= len(leaves); n++ {
		if got, want := tr.RootAt(n), refRoot(leaves[:n]); got != want {
			t.Fatalf("n=%d: root at %s != reference %s", n, got.Short(), want.Short())
		}
	}
}

func TestAppendData(t *testing.T) {
	tr := &Tree{}
	i := tr.AppendData([]byte("payload"))
	if i != 0 {
		t.Fatalf("first index = %d", i)
	}
	leaf, err := tr.Leaf(0)
	if err != nil {
		t.Fatal(err)
	}
	if leaf != LeafHash([]byte("payload")) {
		t.Fatal("AppendData leaf hash mismatch")
	}
}

func TestLeafOutOfRange(t *testing.T) {
	tr := buildTree(leavesN(3))
	if _, err := tr.Leaf(-1); err == nil {
		t.Error("Leaf(-1) succeeded")
	}
	if _, err := tr.Leaf(3); err == nil {
		t.Error("Leaf(size) succeeded")
	}
}

func TestInclusionProofAllPositions(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 33, 64, 100} {
		leaves := leavesN(n)
		tr := buildTree(leaves)
		root := tr.Root()
		for i := 0; i < n; i++ {
			p, err := tr.InclusionProof(i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if err := p.Verify(root, leaves[i]); err != nil {
				t.Fatalf("n=%d i=%d: verify: %v", n, i, err)
			}
		}
	}
}

func TestInclusionProofRejectsWrongLeaf(t *testing.T) {
	leaves := leavesN(10)
	tr := buildTree(leaves)
	p, err := tr.InclusionProof(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(tr.Root(), leaves[5]); err == nil {
		t.Fatal("proof verified against the wrong leaf")
	}
}

func TestInclusionProofRejectsWrongRoot(t *testing.T) {
	leaves := leavesN(10)
	tr := buildTree(leaves)
	p, _ := tr.InclusionProof(4)
	bad := tr.Root()
	bad[0] ^= 1
	if err := p.Verify(bad, leaves[4]); err == nil {
		t.Fatal("proof verified against a corrupted root")
	}
}

func TestInclusionProofRejectsTamperedPath(t *testing.T) {
	leaves := leavesN(16)
	tr := buildTree(leaves)
	p, _ := tr.InclusionProof(7)
	p.Path[1][3] ^= 0xFF
	if err := p.Verify(tr.Root(), leaves[7]); err == nil {
		t.Fatal("tampered path verified")
	}
}

func TestInclusionProofRejectsTruncatedPath(t *testing.T) {
	leaves := leavesN(16)
	tr := buildTree(leaves)
	p, _ := tr.InclusionProof(7)
	p.Path = p.Path[:len(p.Path)-1]
	if err := p.Verify(tr.Root(), leaves[7]); err != ErrBadProof {
		t.Fatalf("truncated path: err=%v, want ErrBadProof", err)
	}
}

func TestInclusionProofOutOfRange(t *testing.T) {
	tr := buildTree(leavesN(4))
	if _, err := tr.InclusionProof(4); err == nil {
		t.Error("InclusionProof(size) succeeded")
	}
	if _, err := tr.InclusionProof(-1); err == nil {
		t.Error("InclusionProof(-1) succeeded")
	}
}

func TestConsistencyProofAllPairs(t *testing.T) {
	const maxN = 40
	leaves := leavesN(maxN)
	// Precompute roots of each prefix.
	roots := make([]hashutil.Digest, maxN+1)
	tr := &Tree{}
	roots[0] = tr.Root()
	for i, l := range leaves {
		tr.Append(l)
		roots[i+1] = tr.Root()
	}
	// Every pair, the newer size the whole tree or any prefix of it: a
	// proof up to a size is taken from the grown tree, and must equal the
	// one the tree of that size gave.
	full := buildTree(leaves)
	for n := 0; n <= maxN; n++ {
		at := buildTree(leaves[:n])
		for old := 0; old <= n; old++ {
			p, err := full.ConsistencyProof(old, n)
			if err != nil {
				t.Fatalf("%d -> %d: %v", old, n, err)
			}
			if err := p.Verify(roots[old], roots[n]); err != nil {
				t.Fatalf("%d -> %d: verify: %v", old, n, err)
			}
			if q, _ := at.ConsistencyProof(old, n); !reflect.DeepEqual(p, q) {
				t.Fatalf("%d -> %d: the grown tree's proof differs from the tree of size %d's", old, n, n)
			}
		}
	}
}

func TestConsistencyProofRejectsForgedOldRoot(t *testing.T) {
	leaves := leavesN(20)
	tr := buildTree(leaves)
	prefix := buildTree(leaves[:12])
	p, err := tr.ConsistencyProof(12, 20)
	if err != nil {
		t.Fatal(err)
	}
	bad := prefix.Root()
	bad[5] ^= 0x80
	if err := p.Verify(bad, tr.Root()); err == nil {
		t.Fatal("consistency proof verified a forged old root")
	}
}

func TestConsistencyProofSameSize(t *testing.T) {
	tr := buildTree(leavesN(9))
	p, err := tr.ConsistencyProof(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(tr.Root(), tr.Root()); err != nil {
		t.Fatalf("same-size consistency: %v", err)
	}
	other := tr.Root()
	other[0] ^= 1
	if err := p.Verify(other, tr.Root()); err == nil {
		t.Fatal("same-size consistency with different roots verified")
	}
}

func TestConsistencyProofOutOfRange(t *testing.T) {
	tr := buildTree(leavesN(4))
	for _, c := range [][2]int{{5, 5}, {2, 5}, {-1, 4}, {3, 2}} {
		if _, err := tr.ConsistencyProof(c[0], c[1]); err == nil {
			t.Errorf("ConsistencyProof(%d, %d) on a tree of 4 succeeded", c[0], c[1])
		}
	}
}

// Property: for random sizes and positions, inclusion proofs verify and the
// incremental root equals the reference root.
func TestQuickInclusionAndRoot(t *testing.T) {
	f := func(sz uint8, pos uint8) bool {
		n := int(sz)%200 + 1
		i := int(pos) % n
		leaves := leavesN(n)
		tr := buildTree(leaves)
		if tr.Root() != refRoot(leaves) {
			return false
		}
		p, err := tr.InclusionProof(i)
		if err != nil {
			return false
		}
		return p.Verify(tr.Root(), leaves[i]) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: consistency proofs verify between random prefix pairs.
func TestQuickConsistency(t *testing.T) {
	f := func(a, b uint8) bool {
		old, n := int(a)%120, int(b)%120
		if old > n {
			old, n = n, old
		}
		if n == 0 {
			return true
		}
		leaves := leavesN(n)
		oldRoot := refRoot(leaves[:old])
		if old == 0 {
			oldRoot = hashutil.Sum(hashutil.DomainLeaf, nil)
		}
		tr := buildTree(leaves)
		p, err := tr.ConsistencyProof(old, n)
		if err != nil {
			return false
		}
		return p.Verify(oldRoot, tr.Root()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	tr := &Tree{}
	leaf := LeafHash([]byte("x"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Append(leaf)
	}
}

func BenchmarkInclusionProof(b *testing.B) {
	tr := buildTree(leavesN(4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.InclusionProof(i % 4096); err != nil {
			b.Fatal(err)
		}
	}
}
