package postree

import (
	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
	"spitz/internal/proof"
)

// The verifier's half of the tree lives in internal/proof. The tests of
// this package drive it against the trees they build, under these names.
type (
	Node = proof.Verified
	Path = proof.Path
)

var ErrProofInvalid = proof.ErrProofInvalid

func NewPath(n int) *Path { return proof.NewPath(n) }

func decodeNode(body []byte) (*node, error) { return proof.DecodeNode(body) }

func openNode(body []byte) (*node, hashutil.Digest, error) { return proof.OpenNode(body) }

// entryHeaderBytes is the in-memory size of a decoded Entry, as
// proof.Node.Size counts it.
const entryHeaderBytes = 48

func nodeSize(n *node, body []byte) int { return n.Size(body) }

// entryBytes is what the entries take encoded.
func entryBytes(entries []Entry) int {
	size := 0
	for _, e := range entries {
		size += posleaf.EntrySize(e.Key, e.Value)
	}
	return size
}

// withoutEntries is a range proof as it travels: without its rows.
func withoutEntries(p RangeProof) RangeProof {
	p.Entries = nil
	return p
}

// childOf returns the digest of the child of the verified node v that key
// routes to (zero past its largest key).
func childOf(v *Node, key []byte) hashutil.Digest {
	n := v.Node()
	if i := proof.Search(n.Entries, key); i < len(n.Entries) {
		return proof.ChildDigest(n.Entries[i])
	}
	return hashutil.Digest{}
}

// pinned reports whether path pinned the node with digest d.
func pinned(path *Path, d hashutil.Digest) bool {
	for _, h := range path.Have() {
		if h == d {
			return true
		}
	}
	return false
}

// rebuild returns the index node a patched slot stands for, made from the
// base it names among held, and its body: what the verifier rebuilds.
func rebuild(slot []byte, held []*Node) (*node, []byte, error) {
	var d hashutil.Digest
	copy(d[:], slot[1:])
	for _, v := range held {
		if v.Digest() == d {
			entries, err := proof.ApplyEdits(nil, slot[1+len(d):], v.Node().Entries)
			if err != nil {
				return nil, nil, err
			}
			n, body := proof.IndexNode(v.Node().Level, entries)
			return n, body, nil
		}
	}
	return nil, nil, ErrProofInvalid
}

// digestBytes is v's digest as a slice.
func digestBytes(v *Node) []byte {
	d := v.Digest()
	return d[:]
}
