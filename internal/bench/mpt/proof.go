package mpt

import (
	"bytes"
	"errors"
	"fmt"

	"spitz/internal/hashutil"
)

// ErrProofInvalid is returned when a proof fails verification.
var ErrProofInvalid = errors.New("mpt: proof verification failed")

// Proof proves presence or absence of Key under a trie root, as the
// serialized bodies of the search-path nodes.
type Proof struct {
	Key   []byte
	Value []byte
	Found bool
	Nodes [][]byte // root first
}

// ProveGet returns the value under key together with a proof.
func (t *Trie) ProveGet(key []byte) (Proof, error) {
	p := Proof{Key: key}
	if t.root.IsZero() {
		return p, nil
	}
	path := keyNibbles(key)
	d := t.root
	for {
		body, err := t.store.Get(d)
		if err != nil {
			return Proof{}, fmt.Errorf("mpt: prove get: %w", err)
		}
		p.Nodes = append(p.Nodes, body)
		n, err := decode(body)
		if err != nil {
			return Proof{}, err
		}
		switch n.kind {
		case kindLeaf:
			if bytes.Equal(n.path, path) {
				p.Found, p.Value = true, n.value
			}
			return p, nil
		case kindExt:
			if !bytes.HasPrefix(path, n.path) {
				return p, nil
			}
			path = path[len(n.path):]
			d = n.childOne
		case kindBranch:
			if len(path) == 0 {
				if n.hasValue {
					p.Found, p.Value = true, n.value
				}
				return p, nil
			}
			c := n.children[path[0]]
			if c.IsZero() {
				return p, nil
			}
			path = path[1:]
			d = c
		}
	}
}

// Verify checks the proof against a trusted root digest.
func (p Proof) Verify(root hashutil.Digest) error {
	if root.IsZero() {
		if p.Found || len(p.Nodes) != 0 {
			return ErrProofInvalid
		}
		return nil
	}
	if len(p.Nodes) == 0 {
		return ErrProofInvalid
	}
	path := keyNibbles(p.Key)
	want := root
	for depth, body := range p.Nodes {
		if hashutil.Sum(hashutil.DomainMPTNode, body) != want {
			return ErrProofInvalid
		}
		n, err := decode(body)
		if err != nil {
			return ErrProofInvalid
		}
		terminal := func(found bool, value []byte) error {
			if depth != len(p.Nodes)-1 {
				return ErrProofInvalid
			}
			if found != p.Found {
				return ErrProofInvalid
			}
			if found && !bytes.Equal(value, p.Value) {
				return ErrProofInvalid
			}
			return nil
		}
		switch n.kind {
		case kindLeaf:
			if bytes.Equal(n.path, path) {
				return terminal(true, n.value)
			}
			return terminal(false, nil)
		case kindExt:
			if !bytes.HasPrefix(path, n.path) {
				return terminal(false, nil)
			}
			path = path[len(n.path):]
			want = n.childOne
		case kindBranch:
			if len(path) == 0 {
				return terminal(n.hasValue, n.value)
			}
			c := n.children[path[0]]
			if c.IsZero() {
				return terminal(false, nil)
			}
			path = path[1:]
			want = c
		default:
			return ErrProofInvalid
		}
	}
	return ErrProofInvalid // path must end at a terminal decision
}
