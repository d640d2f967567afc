// Package mpt implements a Merkle Patricia Trie, the authenticated index
// used by Ethereum and the first SIRI instance analyzed by the paper's
// reference [59] (Section 3.1: "MPT, MBT, and POS-Tree are different
// instances of Structurally Invariant and Reusable Indexes").
//
// The trie is copy-on-write over a content-addressed store: every mutation
// returns a new root digest and rewrites only the nodes on the touched
// path, so consecutive versions share structure exactly like the POS-tree.
// Tries are history independent by construction (the shape depends only on
// the key set), which makes MPT a valid ledger index for Spitz; the
// ablation benchmarks compare it against MBT and POS-tree.
package mpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
)

// Node kinds in the serialized form.
const (
	kindLeaf   byte = 0
	kindExt    byte = 1
	kindBranch byte = 2
)

// Trie is an immutable MPT snapshot. The zero value is unusable; obtain
// one from Empty or Load.
type Trie struct {
	store cas.Store
	root  hashutil.Digest // zero = empty trie
	count int
}

// Empty returns an empty trie backed by store.
func Empty(store cas.Store) *Trie { return &Trie{store: store} }

// Load reopens a trie from a root digest; count is recovered by walking
// the trie (O(n)) and is only needed for bookkeeping, so Load is intended
// for tests and tools. An all-zero digest loads the empty trie.
func Load(store cas.Store, root hashutil.Digest) (*Trie, error) {
	t := &Trie{store: store, root: root}
	if root.IsZero() {
		return t, nil
	}
	n := 0
	if err := t.Scan(func([]byte, []byte) bool { n++; return true }); err != nil {
		return nil, err
	}
	t.count = n
	return t, nil
}

// Root returns the root digest (zero for empty).
func (t *Trie) Root() hashutil.Digest { return t.root }

// Count returns the number of keys.
func (t *Trie) Count() int { return t.count }

// node is the in-memory decoded form.
type node struct {
	kind     byte
	path     []byte              // nibbles (leaf suffix or extension run)
	value    []byte              // leaf value or branch value (nil = none)
	hasValue bool                // distinguishes empty value from no value
	children [16]hashutil.Digest // branch children (zero = absent)
	childOne hashutil.Digest     // extension child
}

func keyNibbles(key []byte) []byte {
	out := make([]byte, 0, 2*len(key))
	for _, b := range key {
		out = append(out, b>>4, b&0x0f)
	}
	return out
}

func (n *node) encode() []byte {
	var buf []byte
	buf = append(buf, n.kind)
	switch n.kind {
	case kindLeaf:
		buf = binary.AppendUvarint(buf, uint64(len(n.path)))
		buf = append(buf, n.path...)
		buf = binary.AppendUvarint(buf, uint64(len(n.value)))
		buf = append(buf, n.value...)
	case kindExt:
		buf = binary.AppendUvarint(buf, uint64(len(n.path)))
		buf = append(buf, n.path...)
		buf = append(buf, n.childOne[:]...)
	case kindBranch:
		var mask uint16
		for i, c := range n.children {
			if !c.IsZero() {
				mask |= 1 << i
			}
		}
		buf = binary.BigEndian.AppendUint16(buf, mask)
		for _, c := range n.children {
			if !c.IsZero() {
				buf = append(buf, c[:]...)
			}
		}
		if n.hasValue {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(len(n.value)))
			buf = append(buf, n.value...)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

func decode(data []byte) (*node, error) {
	if len(data) == 0 {
		return nil, errors.New("mpt: empty node")
	}
	n := &node{kind: data[0]}
	rest := data[1:]
	readUvarint := func() (uint64, error) {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return 0, errors.New("mpt: bad varint")
		}
		rest = rest[k:]
		return v, nil
	}
	switch n.kind {
	case kindLeaf:
		pl, err := readUvarint()
		if err != nil || uint64(len(rest)) < pl {
			return nil, errors.New("mpt: bad leaf path")
		}
		n.path = rest[:pl]
		rest = rest[pl:]
		vl, err := readUvarint()
		if err != nil || uint64(len(rest)) != vl {
			return nil, errors.New("mpt: bad leaf value")
		}
		n.value = rest
		n.hasValue = true
	case kindExt:
		pl, err := readUvarint()
		if err != nil || uint64(len(rest)) != pl+hashutil.DigestSize {
			return nil, errors.New("mpt: bad extension")
		}
		n.path = rest[:pl]
		copy(n.childOne[:], rest[pl:])
	case kindBranch:
		if len(rest) < 2 {
			return nil, errors.New("mpt: bad branch")
		}
		mask := binary.BigEndian.Uint16(rest[:2])
		rest = rest[2:]
		for i := 0; i < 16; i++ {
			if mask&(1<<i) != 0 {
				if len(rest) < hashutil.DigestSize {
					return nil, errors.New("mpt: truncated branch child")
				}
				copy(n.children[i][:], rest[:hashutil.DigestSize])
				rest = rest[hashutil.DigestSize:]
			}
		}
		if len(rest) < 1 {
			return nil, errors.New("mpt: missing branch value flag")
		}
		if rest[0] == 1 {
			rest = rest[1:]
			vl, err := readUvarint()
			if err != nil || uint64(len(rest)) != vl {
				return nil, errors.New("mpt: bad branch value")
			}
			n.value = rest
			n.hasValue = true
		} else if len(rest) != 1 {
			return nil, errors.New("mpt: trailing branch bytes")
		}
	default:
		return nil, fmt.Errorf("mpt: unknown node kind %d", n.kind)
	}
	return n, nil
}

func (t *Trie) storeNode(n *node) hashutil.Digest {
	return t.store.Put(hashutil.DomainMPTNode, n.encode())
}

func (t *Trie) loadNode(d hashutil.Digest) (*node, error) {
	body, err := t.store.Get(d)
	if err != nil {
		return nil, fmt.Errorf("mpt: load node: %w", err)
	}
	return decode(body)
}

// Get returns the value for key, or (nil, false) if absent.
func (t *Trie) Get(key []byte) ([]byte, bool, error) {
	if t.root.IsZero() {
		return nil, false, nil
	}
	path := keyNibbles(key)
	d := t.root
	for {
		n, err := t.loadNode(d)
		if err != nil {
			return nil, false, err
		}
		switch n.kind {
		case kindLeaf:
			if bytes.Equal(n.path, path) {
				return n.value, true, nil
			}
			return nil, false, nil
		case kindExt:
			if !bytes.HasPrefix(path, n.path) {
				return nil, false, nil
			}
			path = path[len(n.path):]
			d = n.childOne
		case kindBranch:
			if len(path) == 0 {
				if n.hasValue {
					return n.value, true, nil
				}
				return nil, false, nil
			}
			c := n.children[path[0]]
			if c.IsZero() {
				return nil, false, nil
			}
			path = path[1:]
			d = c
		}
	}
}

// Put returns a new trie with key set to value.
func (t *Trie) Put(key, value []byte) (*Trie, error) {
	path := keyNibbles(key)
	var root hashutil.Digest
	var added bool
	var err error
	if t.root.IsZero() {
		root = t.storeNode(&node{kind: kindLeaf, path: path, value: value, hasValue: true})
		added = true
	} else {
		root, added, err = t.insert(t.root, path, value)
		if err != nil {
			return nil, err
		}
	}
	nc := t.count
	if added {
		nc++
	}
	return &Trie{store: t.store, root: root, count: nc}, nil
}

func (t *Trie) insert(d hashutil.Digest, path, value []byte) (hashutil.Digest, bool, error) {
	n, err := t.loadNode(d)
	if err != nil {
		return d, false, err
	}
	switch n.kind {
	case kindLeaf:
		cp := commonPrefix(n.path, path)
		if cp == len(n.path) && cp == len(path) {
			// Same key: replace value.
			return t.storeNode(&node{kind: kindLeaf, path: path, value: value, hasValue: true}), false, nil
		}
		br := &node{kind: kindBranch}
		if err := t.attach(br, n.path[cp:], n.value); err != nil {
			return d, false, err
		}
		if err := t.attach(br, path[cp:], value); err != nil {
			return d, false, err
		}
		return t.wrapExt(path[:cp], t.storeNode(br)), true, nil
	case kindExt:
		cp := commonPrefix(n.path, path)
		if cp == len(n.path) {
			child, added, err := t.insert(n.childOne, path[cp:], value)
			if err != nil {
				return d, false, err
			}
			return t.storeNode(&node{kind: kindExt, path: n.path, childOne: child}), added, nil
		}
		// Split the extension at the divergence point.
		br := &node{kind: kindBranch}
		// Remainder of the extension below the branch.
		extRest := n.path[cp:]
		sub := n.childOne
		if len(extRest) > 1 {
			sub = t.storeNode(&node{kind: kindExt, path: extRest[1:], childOne: n.childOne})
		}
		br.children[extRest[0]] = sub
		if err := t.attach(br, path[cp:], value); err != nil {
			return d, false, err
		}
		return t.wrapExt(path[:cp], t.storeNode(br)), true, nil
	case kindBranch:
		nb := *n
		if len(path) == 0 {
			added := !n.hasValue
			nb.value, nb.hasValue = value, true
			return t.storeNode(&nb), added, nil
		}
		c := path[0]
		if n.children[c].IsZero() {
			nb.children[c] = t.storeNode(&node{kind: kindLeaf, path: path[1:], value: value, hasValue: true})
			return t.storeNode(&nb), true, nil
		}
		child, added, err := t.insert(n.children[c], path[1:], value)
		if err != nil {
			return d, false, err
		}
		nb.children[c] = child
		return t.storeNode(&nb), added, nil
	}
	return d, false, fmt.Errorf("mpt: corrupt node kind %d", n.kind)
}

// attach hangs a value below a branch at the given remaining path; an empty
// path puts the value on the branch itself.
func (t *Trie) attach(br *node, path, value []byte) error {
	if len(path) == 0 {
		if br.hasValue {
			return errors.New("mpt: duplicate branch value")
		}
		br.value, br.hasValue = value, true
		return nil
	}
	if !br.children[path[0]].IsZero() {
		return errors.New("mpt: branch slot collision")
	}
	br.children[path[0]] = t.storeNode(&node{kind: kindLeaf, path: path[1:], value: value, hasValue: true})
	return nil
}

// wrapExt wraps a node in an extension if the prefix is nonempty.
func (t *Trie) wrapExt(prefix []byte, child hashutil.Digest) hashutil.Digest {
	if len(prefix) == 0 {
		return child
	}
	return t.storeNode(&node{kind: kindExt, path: prefix, childOne: child})
}

// Delete returns a new trie without key (no-op when absent).
func (t *Trie) Delete(key []byte) (*Trie, error) {
	if t.root.IsZero() {
		return t, nil
	}
	nd, removed, err := t.remove(t.root, keyNibbles(key))
	if err != nil {
		return nil, err
	}
	if !removed {
		return t, nil
	}
	return &Trie{store: t.store, root: nd, count: t.count - 1}, nil
}

// remove deletes path under d. It returns the replacement digest (zero if
// the subtree became empty) and whether a key was removed.
func (t *Trie) remove(d hashutil.Digest, path []byte) (hashutil.Digest, bool, error) {
	n, err := t.loadNode(d)
	if err != nil {
		return d, false, err
	}
	switch n.kind {
	case kindLeaf:
		if bytes.Equal(n.path, path) {
			return hashutil.Zero, true, nil
		}
		return d, false, nil
	case kindExt:
		if !bytes.HasPrefix(path, n.path) {
			return d, false, nil
		}
		child, removed, err := t.remove(n.childOne, path[len(n.path):])
		if err != nil || !removed {
			return d, removed, err
		}
		if child.IsZero() {
			return hashutil.Zero, true, nil
		}
		merged, err := t.mergeExt(n.path, child)
		return merged, true, err
	case kindBranch:
		nb := *n
		if len(path) == 0 {
			if !n.hasValue {
				return d, false, nil
			}
			nb.value, nb.hasValue = nil, false
		} else {
			c := path[0]
			if n.children[c].IsZero() {
				return d, false, nil
			}
			child, removed, err := t.remove(n.children[c], path[1:])
			if err != nil || !removed {
				return d, removed, err
			}
			nb.children[c] = child
		}
		return t.collapseBranch(&nb)
	}
	return d, false, fmt.Errorf("mpt: corrupt node kind %d", n.kind)
}

// collapseBranch restores the canonical form after a removal: a branch with
// a single remaining item becomes a leaf or extension.
func (t *Trie) collapseBranch(n *node) (hashutil.Digest, bool, error) {
	liveIdx := -1
	liveCount := 0
	for i, c := range n.children {
		if !c.IsZero() {
			liveCount++
			liveIdx = i
		}
	}
	switch {
	case liveCount == 0 && !n.hasValue:
		return hashutil.Zero, true, nil
	case liveCount == 0:
		return t.storeNode(&node{kind: kindLeaf, path: nil, value: n.value, hasValue: true}), true, nil
	case liveCount == 1 && !n.hasValue:
		merged, err := t.mergeExt([]byte{byte(liveIdx)}, n.children[liveIdx])
		return merged, true, err
	default:
		return t.storeNode(n), true, nil
	}
}

// mergeExt prepends prefix to the child, fusing chains of extensions and
// leaves to keep the trie canonical (history independent).
func (t *Trie) mergeExt(prefix []byte, child hashutil.Digest) (hashutil.Digest, error) {
	cn, err := t.loadNode(child)
	if err != nil {
		return child, err
	}
	switch cn.kind {
	case kindLeaf:
		return t.storeNode(&node{kind: kindLeaf, path: concat(prefix, cn.path), value: cn.value, hasValue: true}), nil
	case kindExt:
		return t.storeNode(&node{kind: kindExt, path: concat(prefix, cn.path), childOne: cn.childOne}), nil
	default:
		return t.storeNode(&node{kind: kindExt, path: prefix, childOne: child}), nil
	}
}

// Scan visits every key/value pair in nibble order. fn returning false
// stops early. Keys are reassembled from nibbles (they must have come from
// byte keys, i.e. have even nibble length).
func (t *Trie) Scan(fn func(key, value []byte) bool) error {
	if t.root.IsZero() {
		return nil
	}
	_, err := t.scan(t.root, nil, fn)
	return err
}

func (t *Trie) scan(d hashutil.Digest, prefix []byte, fn func(k, v []byte) bool) (bool, error) {
	n, err := t.loadNode(d)
	if err != nil {
		return false, err
	}
	switch n.kind {
	case kindLeaf:
		return fn(nibblesToKey(concat(prefix, n.path)), n.value), nil
	case kindExt:
		return t.scan(n.childOne, concat(prefix, n.path), fn)
	case kindBranch:
		if n.hasValue {
			if !fn(nibblesToKey(prefix), n.value) {
				return false, nil
			}
		}
		for i, c := range n.children {
			if c.IsZero() {
				continue
			}
			cont, err := t.scan(c, append(concat(prefix, nil), byte(i)), fn)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("mpt: corrupt node kind %d", n.kind)
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

func concat(a, b []byte) []byte {
	out := make([]byte, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func nibblesToKey(nibbles []byte) []byte {
	out := make([]byte, len(nibbles)/2)
	for i := range out {
		out[i] = nibbles[2*i]<<4 | nibbles[2*i+1]
	}
	return out
}

// LiveBytes returns the total size of the distinct nodes reachable from
// this snapshot's root (the live storage of the instance).
func (t *Trie) LiveBytes() (int64, error) {
	if t.root.IsZero() {
		return 0, nil
	}
	seen := make(map[hashutil.Digest]bool)
	var walk func(d hashutil.Digest) (int64, error)
	walk = func(d hashutil.Digest) (int64, error) {
		if seen[d] {
			return 0, nil
		}
		seen[d] = true
		body, err := t.store.Get(d)
		if err != nil {
			return 0, err
		}
		total := int64(len(body))
		n, err := decode(body)
		if err != nil {
			return 0, err
		}
		switch n.kind {
		case kindExt:
			sub, err := walk(n.childOne)
			if err != nil {
				return 0, err
			}
			total += sub
		case kindBranch:
			for _, c := range n.children {
				if c.IsZero() {
					continue
				}
				sub, err := walk(c)
				if err != nil {
					return 0, err
				}
				total += sub
			}
		}
		return total, nil
	}
	return walk(t.root)
}
