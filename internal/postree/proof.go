package postree

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
)

// Proof-related errors.
var (
	// ErrProofInvalid means the proof does not hash to the trusted root or
	// is internally inconsistent: the data or the execution was tampered.
	ErrProofInvalid = errors.New("postree: proof verification failed")
)

// PointProof proves the presence (Value != nil treated together with Found)
// or absence of Key under a tree root. It consists of the serialized bodies
// of the index nodes on the root-to-leaf search path and, last, the leaf
// pruned to the group of entries that decides the answer (see ProveGet);
// the verifier re-hashes each body, checks parent/child digest linkage and
// reruns the search.
//
// This is Spitz's "unified index" property in code: the proof is assembled
// from exactly the nodes the query already visited, so proving costs no
// extra traversal (contrast with the baseline in internal/baseline, which
// performs an independent journal lookup per record).
//
// A position of Nodes may be elided (empty) when the verifier said it
// already holds that node: see Path and Elide. The leaf is never elided.
type PointProof struct {
	Key   []byte
	Value []byte // the proven value; nil when Found is false
	Found bool
	Nodes [][]byte // node bodies, root first; an empty body is an elided index node

	// digests[i] is the content address ProveGet loaded Nodes[i] from. It
	// never crosses the wire; Elide compares it with what a client says
	// it holds, so the server neither re-hashes nor decodes to elide.
	digests []hashutil.Digest
	// keepLo..keepHi are the entry positions the leaf slot was pruned to
	// keep: with the leaf's digest, enough to cut the slot again (WithLeaf).
	keepLo, keepHi int
}

// ProveGet returns the value under key together with its proof. Absence is
// also proven (Found=false with the search-path nodes demonstrating no such
// key exists).
//
// The leaf slot is the stored leaf cut down to what decides a search that
// ended at position i of its entries: the header, which commits to every
// group, and the group holding entry i for a hit; for a miss the groups
// holding the entries on either side of the gap, i-1 and i — one group, or
// two when the gap is a group edge, and only the one that exists when the
// key sorts before the leaf's first entry or after its last. Nothing is
// hashed to build it: the groups are sliced out of the stored body.
func (t *Tree) ProveGet(key []byte) (PointProof, error) {
	p := PointProof{Key: key}
	if t.root.IsZero() {
		return p, nil // proof against the zero root: trivially empty tree
	}
	d := t.root
	for {
		body, n, err := t.loadProofNode(d)
		if err != nil {
			return PointProof{}, fmt.Errorf("postree: prove get: %w", err)
		}
		p.digests = append(p.digests, d)
		i := searchEntries(n.entries, key)
		if n.level == 0 {
			if i < len(n.entries) && bytes.Equal(n.entries[i].Key, key) {
				p.Found = true
				p.Value = n.entries[i].Value
			}
			p.keepLo, p.keepHi = i, i
			if !p.Found {
				p.keepLo, p.keepHi = max(i-1, 0), min(i, len(n.entries)-1)
			}
			if body, err = posleaf.Prune(body, p.keepLo, p.keepHi); err != nil {
				return PointProof{}, fmt.Errorf("postree: prove get: %w", err)
			}
			p.Nodes = append(p.Nodes, body)
			return p, nil
		}
		p.Nodes = append(p.Nodes, body)
		if i == len(n.entries) {
			return p, nil // key beyond max: path proves absence
		}
		d = childDigest(n.entries[i])
	}
}

// WithoutLeaf returns p with its leaf slot emptied, for a cache that
// holds many proofs: the index-node slots are references into the node
// store, but a pruned leaf is assembled (header here, group there), so
// each one is a private copy of a kilobyte or two. Tree.WithLeaf cuts it
// again when the proof is served.
func (p PointProof) WithoutLeaf() PointProof {
	if last := len(p.Nodes) - 1; last >= 0 && len(p.Nodes[last]) > 0 && p.Nodes[last][0] == 0 {
		p.Nodes = append(append([][]byte(nil), p.Nodes[:last]...), nil)
	}
	return p
}

// WithLeaf restores the leaf slot of a proof ProveGet built on this
// tree's store and WithoutLeaf emptied; any other proof is returned as it
// is.
func (t *Tree) WithLeaf(p PointProof) (PointProof, error) {
	last := len(p.Nodes) - 1
	if last < 0 || len(p.Nodes[last]) != 0 {
		return p, nil
	}
	body, err := t.store.Get(p.digests[last])
	if err == nil {
		body, err = posleaf.Prune(body, p.keepLo, p.keepHi)
	}
	if err != nil {
		return PointProof{}, fmt.Errorf("postree: restore leaf: %w", err)
	}
	p.Nodes = append(append([][]byte(nil), p.Nodes[:last]...), body)
	return p, nil
}

// Elide returns a copy of p without the bodies of the index nodes the
// client already holds: position i is emptied when have[i] is the digest
// of Nodes[i]. The leaf is always shipped — it carries the answer and is
// what the verifier hashes fresh on every read. p itself (which the
// ledger's proof cache may share between clients) is not modified; the
// second result is the number of nodes elided.
func (p PointProof) Elide(have []hashutil.Digest) (PointProof, int) {
	elided := 0
	for i := 0; i < len(have) && i < len(p.digests); i++ {
		body := p.Nodes[i]
		if have[i] != p.digests[i] || len(body) == 0 || body[0] == 0 {
			continue // not held, or a leaf (level byte 0)
		}
		if elided == 0 {
			p.Nodes = append([][]byte(nil), p.Nodes...)
		}
		p.Nodes[i] = nil
		elided++
	}
	return p, elided
}

// Node is a decoded index node that a verifier has hashed to its digest
// under the index-node domain. Only VerifyPath mints Nodes, so holding
// one means its routing entries are authentic for that digest — which is
// what lets a client cache them by digest and skip re-fetching them.
type Node struct {
	digest hashutil.Digest
	n      *node
	size   int
}

// entryHeaderBytes is the in-memory size of a decoded Entry: two slice
// headers on a 64-bit host.
const entryHeaderBytes = 48

// Digest returns the node's content address.
func (n *Node) Digest() hashutil.Digest { return n.digest }

// Size returns the memory a cache holding the node keeps alive: the
// serialized body its entries point into, plus the decoded entry
// headers.
func (n *Node) Size() int { return n.size }

// Child returns the digest of the child subtree key routes to; ok is
// false when key is beyond the node's largest key (the node itself then
// proves absence).
func (n *Node) Child(key []byte) (d hashutil.Digest, ok bool) {
	i := searchEntries(n.n.entries, key)
	if i == len(n.n.entries) {
		return d, false
	}
	return childDigest(n.n.entries[i]), true
}

// Path is the verifier's side of one point read. Held are the verified
// index nodes it already has along the key's search path, root first,
// pinned when the request was built so that a cache eviction cannot race
// the response; their digests are what it tells the server it holds.
// VerifyPath fills Shipped with the index nodes that arrived as bodies
// and hashed to the digest the walk expected, and Superseded with the
// held nodes a different body arrived in place of — the tree under this
// root has another node at that point of the key's path, so nothing
// reaches the held one any more. When VerifyPath returns an error the
// proof is rejected as a whole and both must be discarded.
type Path struct {
	Held       []*Node
	Shipped    []*Node
	Superseded []*Node
}

// Have returns the digests of the held nodes, the hint a server elides
// against (nil when nothing is held).
func (pa *Path) Have() []hashutil.Digest {
	if len(pa.Held) == 0 {
		return nil
	}
	ds := make([]hashutil.Digest, len(pa.Held))
	for i, n := range pa.Held {
		ds[i] = n.digest
	}
	return ds
}

func searchEntries(entries []Entry, key []byte) int {
	return sort.Search(len(entries), func(i int) bool {
		return bytes.Compare(entries[i].Key, key) >= 0
	})
}

// Verify checks the proof against a trusted root digest. On success the
// caller may trust p.Value/p.Found for p.Key as of the state committed by
// root. Every node must be shipped: it is VerifyPath with nothing held.
func (p PointProof) Verify(root hashutil.Digest) error {
	return p.VerifyPath(root, nil)
}

// VerifyPath is Verify for a verifier that may already hold some of the
// path's index nodes (path may be nil). The walk starts at the trusted
// root and follows child digests exactly as for a full proof; each node
// on the way comes either from a shipped body, which is decoded and must
// hash to the expected digest, or — at an elided position — from the node
// the verifier pinned for that depth, which must be the expected digest.
// An elided position the verifier holds nothing for, or holds a different
// node for, fails: elision can only ever be answered from the verifier's
// own verified nodes, never trusted on the server's say-so. The leaf is
// never held, so it is always hashed fresh: its header against the digest
// its parent routes to, and each group that was shipped against its slot
// in that header. Nothing about the groups that were not shipped is
// trusted: the answer is read off shipped entries only, and an absence
// needs both neighbours of the gap in hand (or the leaf's own edge, which
// the header's count fixes).
func (p PointProof) VerifyPath(root hashutil.Digest, path *Path) error {
	if root.IsZero() {
		// Empty tree: every key is absent and the proof must be empty.
		if p.Found || len(p.Nodes) != 0 {
			return ErrProofInvalid
		}
		return nil
	}
	if len(p.Nodes) == 0 {
		return ErrProofInvalid
	}
	want := root
	for depth, body := range p.Nodes {
		var n *node
		if len(body) == 0 {
			if path == nil || depth >= len(path.Held) || path.Held[depth].digest != want {
				return ErrProofInvalid
			}
			n = path.Held[depth].n
		} else {
			var err error
			var d hashutil.Digest
			if n, d, err = openNode(body, true); err != nil || d != want {
				return ErrProofInvalid
			}
			if path != nil && depth < len(path.Held) && path.Held[depth].digest != want {
				path.Superseded = append(path.Superseded, path.Held[depth])
			}
			if n.level > 0 && path != nil {
				path.Shipped = append(path.Shipped, &Node{digest: want, n: n,
					size: len(body) + cap(n.entries)*entryHeaderBytes})
			}
		}
		i := searchEntries(n.entries, p.Key)
		if n.level == 0 {
			if depth != len(p.Nodes)-1 {
				return ErrProofInvalid // leaf must terminate the path
			}
			found := i < len(n.entries) && bytes.Equal(n.entries[i].Key, p.Key)
			if found != p.Found {
				return ErrProofInvalid
			}
			if found && !bytes.Equal(n.entries[i].Value, p.Value) {
				return ErrProofInvalid
			}
			if !found && !n.bracketsGap(i) {
				return ErrProofInvalid
			}
			return nil
		}
		if i == len(n.entries) {
			// Absence proven by the index node: key exceeds max key.
			if p.Found || depth != len(p.Nodes)-1 {
				return ErrProofInvalid
			}
			return nil
		}
		want = childDigest(n.entries[i])
	}
	return ErrProofInvalid // path ended at an index node
}

// bracketsGap reports whether a search that found no key and ended at
// index i of the entries present saw both sides of the gap it ended in:
// the entry before and the entry after, each either present or beyond the
// leaf's edge. A pruned leaf that ends at a group edge short of that says
// nothing about what the next group holds.
func (n *node) bracketsGap(i int) bool {
	before := i > 0 || n.first == 0
	after := i < len(n.entries) || n.first+len(n.entries) == n.count
	return before && after
}

// RangeProof proves that Entries is exactly the set of entries in
// [Start, End) under a root. It carries the bodies of every node the range
// scan visited; shared path prefixes are included once, which is why
// verified range queries in Spitz amortize so much better than per-record
// proofs (Figure 7).
type RangeProof struct {
	Start, End []byte
	Entries    []Entry
	Nodes      [][]byte // bodies of all visited nodes, in preorder
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
	p.Nodes = append(p.Nodes, body)
	if n.level == 0 {
		for _, e := range n.entries {
			if bytes.Compare(e.Key, p.Start) < 0 {
				continue
			}
			if p.End != nil && bytes.Compare(e.Key, p.End) >= 0 {
				break
			}
			p.Entries = append(p.Entries, e)
		}
		return nil
	}
	for i, e := range n.entries {
		if bytes.Compare(e.Key, p.Start) < 0 {
			continue // child's max key below range
		}
		if i > 0 && p.End != nil && bytes.Compare(n.entries[i-1].Key, p.End) >= 0 {
			break // child's min key at/above exclusive end
		}
		if err := t.proveScanNode(childDigest(e), p); err != nil {
			return err
		}
	}
	return nil
}

// Verify checks the range proof against a trusted root. On success the
// caller may trust that p.Entries is the complete, untampered result of
// scanning [p.Start, p.End).
func (p RangeProof) Verify(root hashutil.Digest) error {
	if root.IsZero() {
		if len(p.Entries) != 0 || len(p.Nodes) != 0 {
			return ErrProofInvalid
		}
		return nil
	}
	if len(p.Nodes) == 0 {
		return ErrProofInvalid
	}
	v := &rangeVerifier{proof: p}
	if err := v.walk(root); err != nil {
		return err
	}
	if v.next != len(p.Nodes) {
		return ErrProofInvalid // extra unvisited nodes smuggled in
	}
	if len(v.collected) != len(p.Entries) {
		return ErrProofInvalid
	}
	for i, e := range v.collected {
		if !bytes.Equal(e.Key, p.Entries[i].Key) || !bytes.Equal(e.Value, p.Entries[i].Value) {
			return ErrProofInvalid
		}
	}
	return nil
}

// rangeVerifier replays the scan using only the node bodies in the proof.
type rangeVerifier struct {
	proof     RangeProof
	next      int
	collected []Entry
}

func (v *rangeVerifier) walk(want hashutil.Digest) error {
	if v.next >= len(v.proof.Nodes) {
		return ErrProofInvalid
	}
	body := v.proof.Nodes[v.next]
	v.next++
	n, d, err := openNode(body, false)
	if err != nil || d != want {
		return ErrProofInvalid
	}
	if n.level == 0 {
		for _, e := range n.entries {
			if bytes.Compare(e.Key, v.proof.Start) < 0 {
				continue
			}
			if v.proof.End != nil && bytes.Compare(e.Key, v.proof.End) >= 0 {
				break
			}
			v.collected = append(v.collected, e)
		}
		return nil
	}
	for i, e := range n.entries {
		if bytes.Compare(e.Key, v.proof.Start) < 0 {
			continue
		}
		if i > 0 && v.proof.End != nil && bytes.Compare(n.entries[i-1].Key, v.proof.End) >= 0 {
			break
		}
		if err := v.walk(childDigest(e)); err != nil {
			return err
		}
	}
	return nil
}
