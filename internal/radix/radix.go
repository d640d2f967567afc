// Package radix implements a compressed radix tree (Patricia trie) over
// byte-string keys.
//
// Spitz's inverted index uses a radix tree "to reduce space consumption"
// for string cell values (Section 5, "Inverted Index"): shared prefixes —
// common in enum-like and identifier columns — are stored once.
package radix

import (
	"bytes"
	"sort"
)

// Tree maps []byte keys to values of type V. The zero value is ready to
// use. Not safe for concurrent mutation.
type Tree[V any] struct {
	root node[V]
}

type node[V any] struct {
	prefix   []byte // compressed edge label leading to this node
	value    V
	hasValue bool
	children []*node[V] // sorted by first byte of child prefix; labels nonempty
}

// findChild returns the index of the child whose prefix starts with b, or
// -1 when absent.
func (n *node[V]) findChild(b byte) int {
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i].prefix[0] >= b })
	if i < len(n.children) && n.children[i].prefix[0] == b {
		return i
	}
	return -1
}

// Get returns the value stored under key.
func (t *Tree[V]) Get(key []byte) (V, bool) {
	n := &t.root
	for {
		if len(key) == 0 {
			if n.hasValue {
				return n.value, true
			}
			var zero V
			return zero, false
		}
		ci := n.findChild(key[0])
		if ci < 0 {
			var zero V
			return zero, false
		}
		c := n.children[ci]
		if !bytes.HasPrefix(key, c.prefix) {
			var zero V
			return zero, false
		}
		key = key[len(c.prefix):]
		n = c
	}
}

// Put inserts or replaces the value under key, reporting whether the key
// was newly inserted.
func (t *Tree[V]) Put(key []byte, value V) bool {
	n := &t.root
	for {
		if len(key) == 0 {
			added := !n.hasValue
			n.value, n.hasValue = value, true
			return added
		}
		ci := n.findChild(key[0])
		if ci < 0 {
			// No child shares the first byte: attach a fresh leaf.
			leaf := &node[V]{prefix: append([]byte(nil), key...), value: value, hasValue: true}
			i := sort.Search(len(n.children), func(i int) bool { return n.children[i].prefix[0] >= key[0] })
			n.children = append(n.children, nil)
			copy(n.children[i+1:], n.children[i:])
			n.children[i] = leaf
			return true
		}
		c := n.children[ci]
		cp := commonPrefix(key, c.prefix)
		if cp == len(c.prefix) {
			key = key[cp:]
			n = c
			continue
		}
		// Split the edge at the divergence point.
		mid := &node[V]{prefix: c.prefix[:cp]}
		c.prefix = c.prefix[cp:]
		mid.children = []*node[V]{c}
		n.children[ci] = mid
		key = key[cp:]
		n = mid
	}
}

// Delete removes key, reporting whether it was present. Single-child
// chains left by removals are re-compressed to keep lookups fast.
func (t *Tree[V]) Delete(key []byte) bool {
	return t.deleteFrom(&t.root, key)
}

func (t *Tree[V]) deleteFrom(n *node[V], key []byte) bool {
	if len(key) == 0 {
		if !n.hasValue {
			return false
		}
		var zero V
		n.value, n.hasValue = zero, false
		return true
	}
	ci := n.findChild(key[0])
	if ci < 0 {
		return false
	}
	c := n.children[ci]
	if !bytes.HasPrefix(key, c.prefix) {
		return false
	}
	if !t.deleteFrom(c, key[len(c.prefix):]) {
		return false
	}
	// Compact: drop empty leaves, merge single-child pass-through nodes.
	switch {
	case !c.hasValue && len(c.children) == 0:
		n.children = append(n.children[:ci], n.children[ci+1:]...)
	case !c.hasValue && len(c.children) == 1:
		only := c.children[0]
		only.prefix = append(append([]byte(nil), c.prefix...), only.prefix...)
		n.children[ci] = only
	}
	return true
}

func commonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
