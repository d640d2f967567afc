// Package postree implements the Pattern-Oriented-Split Tree (POS-Tree) of
// ForkBase, the SIRI-family index Spitz adopts for its ledger (Section 6.1
// of the paper: "we implement the ledger by adopting index from Structurally
// Identical and Reusable Indexes (SIRI) family for both query and
// verification").
//
// A POS-tree is a Merkle-ized B+-tree-like structure whose node boundaries
// are *content defined*: a sorted run of entries is cut after every entry
// whose hash matches a bit pattern. Because the cut positions are a pure
// function of entry content, the tree shape is history independent
// (structurally invariant): the same set of key/value pairs produces the
// same tree — and therefore the same root digest — no matter in what order
// it was assembled. Combined with a content-addressed store this gives the
// two SIRI properties Spitz exploits:
//
//   - consecutive versions share all untouched nodes physically (cheap
//     immutable snapshots: one per ledger block), and
//   - the root digest is a commitment to the entire database state, so the
//     traversal that answers a query doubles as its integrity proof.
//
// All mutating operations are copy-on-write and return a new Tree; existing
// Trees remain valid snapshots.
package postree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
)

const (
	// patternBits sets the expected node fanout to 2^patternBits = 32.
	patternBits = 5
	// maxFanout is a safety valve against adversarial inputs; with random
	// content it is effectively never reached ((31/32)^1024 ≈ e^-32).
	maxFanout = 1024
	// maxStrata bounds tree height (fanout 32 ⇒ 32^16 entries, far beyond
	// anything addressable).
	maxStrata = 16
	// MaxHeight is maxStrata for decoders outside the package: no search
	// path, and so no list of held-node digests, is longer.
	MaxHeight = maxStrata
)

// Entry is a key/value pair stored in the tree. Keys are unique.
type Entry struct {
	Key   []byte
	Value []byte
}

// Edit describes one mutation in a batch: an upsert, or a delete when
// Delete is true.
type Edit struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// Tree is an immutable POS-tree snapshot rooted at a content digest. The
// zero Tree is not usable; obtain one from Empty, Load or BulkLoad.
type Tree struct {
	store cas.Store
	cache *nodeCache
	root  hashutil.Digest // zero when the tree is empty
	level int             // root node level; 0 = leaf
	count int             // number of data entries
}

// Empty returns an empty tree backed by store.
func Empty(store cas.Store) *Tree {
	return &Tree{store: store, cache: newNodeCache(defaultCacheSize)}
}

// Load reopens a tree from its root digest. An all-zero digest loads the
// empty tree. Count and level are recovered from the root node.
func Load(store cas.Store, root hashutil.Digest) (*Tree, error) {
	if root.IsZero() {
		return Empty(store), nil
	}
	n, err := loadNode(store, root)
	if err != nil {
		return nil, err
	}
	count := 0
	if n.level == 0 {
		count = len(n.entries)
	} else {
		for _, e := range n.entries {
			count += int(childCount(e))
		}
	}
	return &Tree{store: store, cache: newNodeCache(defaultCacheSize), root: root, level: n.level, count: count}, nil
}

// At reopens the (usually historical) snapshot rooted at root, sharing
// this tree's store and node cache — so proofs built at older heights
// reuse every interior fragment the live tree (or an earlier historical
// read) already fetched. An all-zero digest yields the empty tree.
func (t *Tree) At(root hashutil.Digest) (*Tree, error) {
	if root.IsZero() {
		return &Tree{store: t.store, cache: t.cache}, nil
	}
	n, err := t.loadNodeCached(root)
	if err != nil {
		return nil, err
	}
	count := 0
	if n.level == 0 {
		count = len(n.entries)
	} else {
		for _, e := range n.entries {
			count += int(childCount(e))
		}
	}
	return &Tree{store: t.store, cache: t.cache, root: root, level: n.level, count: count}, nil
}

// Root returns the root digest; it is zero for an empty tree.
func (t *Tree) Root() hashutil.Digest { return t.root }

// Count returns the number of entries.
func (t *Tree) Count() int { return t.count }

// Store returns the backing content-addressed store.
func (t *Tree) Store() cas.Store { return t.store }

// ---------------------------------------------------------------------------
// Node representation

// node is the in-memory form of a stored tree node. Leaf nodes (level 0)
// hold data entries; index nodes at level L hold routing entries whose Key
// is the largest key in the child subtree and whose Value is the 32-byte
// child digest followed by the 8-byte big-endian subtree entry count.
type node struct {
	level   int
	entries []Entry
}

func childDigest(e Entry) hashutil.Digest {
	var d hashutil.Digest
	copy(d[:], e.Value[:hashutil.DigestSize])
	return d
}

func childCount(e Entry) uint64 {
	return binary.BigEndian.Uint64(e.Value[hashutil.DigestSize:])
}

func makeIndexEntry(sep []byte, d hashutil.Digest, count uint64) Entry {
	v := make([]byte, hashutil.DigestSize+8)
	copy(v, d[:])
	binary.BigEndian.PutUint64(v[hashutil.DigestSize:], count)
	return Entry{Key: sep, Value: v}
}

func (n *node) encode() []byte {
	size := 1 + binary.MaxVarintLen64
	for _, e := range n.entries {
		size += 2*binary.MaxVarintLen64 + len(e.Key) + len(e.Value)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, byte(n.level))
	buf = binary.AppendUvarint(buf, uint64(len(n.entries)))
	for _, e := range n.entries {
		buf = binary.AppendUvarint(buf, uint64(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(e.Value)))
		buf = append(buf, e.Value...)
	}
	return buf
}

func decodeNode(data []byte) (*node, error) {
	if len(data) < 2 {
		return nil, errors.New("postree: node too short")
	}
	n := &node{level: int(data[0])}
	rest := data[1:]
	cnt, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, errors.New("postree: bad entry count")
	}
	rest = rest[k:]
	// Bodies arrive in proofs from an untrusted server: an entry costs at
	// least its two length bytes, so bound the count before allocating.
	if cnt > uint64(len(rest))/2 {
		return nil, errors.New("postree: entry count beyond node size")
	}
	n.entries = make([]Entry, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		kl, k1 := binary.Uvarint(rest)
		if k1 <= 0 || uint64(len(rest)-k1) < kl {
			return nil, errors.New("postree: bad key length")
		}
		key := rest[k1 : k1+int(kl)]
		rest = rest[k1+int(kl):]
		vl, k2 := binary.Uvarint(rest)
		if k2 <= 0 || uint64(len(rest)-k2) < vl {
			return nil, errors.New("postree: bad value length")
		}
		val := rest[k2 : k2+int(vl)]
		rest = rest[k2+int(vl):]
		e := Entry{Key: key, Value: val}
		if n.level > 0 && len(val) != hashutil.DigestSize+8 {
			return nil, errors.New("postree: bad index entry value size")
		}
		n.entries = append(n.entries, e)
	}
	if len(rest) != 0 {
		return nil, errors.New("postree: trailing bytes in node")
	}
	return n, nil
}

func nodeDomain(level int) byte {
	if level == 0 {
		return hashutil.DomainPOSLeaf
	}
	return hashutil.DomainPOSIndex
}

func (t *Tree) storeNode(n *node) (hashutil.Digest, uint64) {
	body := n.encode()
	d := t.store.Put(nodeDomain(n.level), body)
	var cnt uint64
	if n.level == 0 {
		cnt = uint64(len(n.entries))
	} else {
		for _, e := range n.entries {
			cnt += childCount(e)
		}
	}
	return d, cnt
}

func loadNode(store cas.Store, d hashutil.Digest) (*node, error) {
	body, err := store.Get(d)
	if err != nil {
		return nil, fmt.Errorf("postree: load node: %w", err)
	}
	return decodeNode(body)
}

// ---------------------------------------------------------------------------
// Content-defined node boundaries

// isBoundary reports whether an entry terminates a node. It depends only on
// the entry's content, which is what makes the tree structurally invariant.
func isBoundary(e Entry) bool {
	h := hashutil.SumParts(hashutil.DomainPostings, e.Key, e.Value)
	pat := binary.BigEndian.Uint32(h[:4])
	const mask = 1<<patternBits - 1
	return pat&mask == mask
}

// chunkEntries cuts a sorted entry run into complete nodes (each ending at
// a boundary entry or at maxFanout) and an open tail of entries after the
// last boundary. The stored nodes' routing entries are returned.
func (t *Tree) chunkEntries(entries []Entry, level int) (complete []Entry, tail []Entry) {
	start := 0
	for i, e := range entries {
		if isBoundary(e) || i-start+1 >= maxFanout {
			nd := &node{level: level, entries: entries[start : i+1]}
			d, cnt := t.storeNode(nd)
			complete = append(complete, makeIndexEntry(e.Key, d, cnt))
			start = i + 1
		}
	}
	return complete, entries[start:]
}

// ---------------------------------------------------------------------------
// Construction

// BulkLoad builds a tree from entries, which must be sorted by key with no
// duplicates. It is equivalent to (but much faster than) inserting each
// entry individually: by structural invariance the resulting root digest is
// identical.
func BulkLoad(store cas.Store, entries []Entry) (*Tree, error) {
	for i := 1; i < len(entries); i++ {
		if bytes.Compare(entries[i-1].Key, entries[i].Key) >= 0 {
			return nil, fmt.Errorf("postree: BulkLoad input not strictly sorted at %d", i)
		}
	}
	t := Empty(store)
	if len(entries) == 0 {
		return t, nil
	}
	return t.buildUp(entries, 0, len(entries))
}

// buildUp chunks the given stratum and all strata above it until a single
// node remains, which becomes the root.
func (t *Tree) buildUp(entries []Entry, level, count int) (*Tree, error) {
	for {
		if level >= maxStrata {
			return nil, errors.New("postree: tree too tall")
		}
		complete, tail := t.chunkEntries(entries, level)
		if len(tail) > 0 {
			nd := &node{level: level, entries: tail}
			d, cnt := t.storeNode(nd)
			complete = append(complete, makeIndexEntry(tail[len(tail)-1].Key, d, cnt))
		}
		if len(complete) == 1 {
			return &Tree{store: t.store, cache: t.cache, root: childDigest(complete[0]), level: level, count: count}, nil
		}
		entries = complete
		level++
	}
}

// ---------------------------------------------------------------------------
// Reads

// Get returns the value stored under key, or (nil, false) if absent.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	if t.root.IsZero() {
		return nil, false, nil
	}
	d := t.root
	for {
		n, err := t.loadNodeCached(d)
		if err != nil {
			return nil, false, err
		}
		if n.level == 0 {
			i := sort.Search(len(n.entries), func(i int) bool {
				return bytes.Compare(n.entries[i].Key, key) >= 0
			})
			if i < len(n.entries) && bytes.Equal(n.entries[i].Key, key) {
				return n.entries[i].Value, true, nil
			}
			return nil, false, nil
		}
		i := sort.Search(len(n.entries), func(i int) bool {
			return bytes.Compare(n.entries[i].Key, key) >= 0
		})
		if i == len(n.entries) {
			return nil, false, nil // beyond the largest key
		}
		d = childDigest(n.entries[i])
	}
}

// Scan calls fn for every entry with start <= key < end, in key order. A
// nil end means "to the last key". fn returning false stops the scan early.
// The Entry passed to fn references node storage and must not be retained
// without copying.
func (t *Tree) Scan(start, end []byte, fn func(Entry) bool) error {
	if t.root.IsZero() {
		return nil
	}
	_, err := t.scanNode(t.root, start, end, fn)
	return err
}

func (t *Tree) scanNode(d hashutil.Digest, start, end []byte, fn func(Entry) bool) (bool, error) {
	n, err := t.loadNodeCached(d)
	if err != nil {
		return false, err
	}
	if n.level == 0 {
		i := sort.Search(len(n.entries), func(i int) bool {
			return bytes.Compare(n.entries[i].Key, start) >= 0
		})
		for ; i < len(n.entries); i++ {
			e := n.entries[i]
			if end != nil && bytes.Compare(e.Key, end) >= 0 {
				return false, nil
			}
			if !fn(e) {
				return false, nil
			}
		}
		return true, nil
	}
	i := sort.Search(len(n.entries), func(i int) bool {
		return bytes.Compare(n.entries[i].Key, start) >= 0
	})
	for ; i < len(n.entries); i++ {
		e := n.entries[i]
		if i > 0 && end != nil && bytes.Compare(n.entries[i-1].Key, end) >= 0 {
			return false, nil
		}
		cont, err := t.scanNode(childDigest(e), start, end, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// ---------------------------------------------------------------------------
// Writes

// Put returns a new tree with key set to value.
func (t *Tree) Put(key, value []byte) (*Tree, error) {
	return t.Apply([]Edit{{Key: key, Value: value}})
}

// Delete returns a new tree without key (a no-op if the key is absent).
func (t *Tree) Delete(key []byte) (*Tree, error) {
	return t.Apply([]Edit{{Key: key, Delete: true}})
}

// Apply performs a batch of edits in one pass and returns the new tree.
// Later edits on the same key win. The cost is proportional to the number
// of distinct tree paths touched, not to the tree size.
func (t *Tree) Apply(edits []Edit) (*Tree, error) {
	return t.ApplyFunc(edits, nil)
}

// ApplyFunc is Apply with a replacement hook: onReplace is called with the
// key and prior value of every entry an edit overwrites or deletes, while
// the old value is still valid. Spitz's cell store uses it to demote
// replaced version heads into the out-of-band version chain without a
// second tree traversal.
func (t *Tree) ApplyFunc(edits []Edit, onReplace func(key, oldValue []byte)) (*Tree, error) {
	if len(edits) == 0 {
		return t, nil
	}
	// Sort and dedupe (last occurrence wins).
	sorted := make([]Edit, len(edits))
	copy(sorted, edits)
	sort.SliceStable(sorted, func(i, j int) bool {
		return bytes.Compare(sorted[i].Key, sorted[j].Key) < 0
	})
	dedup := sorted[:0]
	for i, e := range sorted {
		if i+1 < len(sorted) && bytes.Equal(e.Key, sorted[i+1].Key) {
			continue
		}
		dedup = append(dedup, e)
	}
	if t.root.IsZero() {
		var entries []Entry
		for _, e := range dedup {
			if !e.Delete {
				entries = append(entries, Entry{Key: e.Key, Value: e.Value})
			}
		}
		return BulkLoad(t.store, entries)
	}

	carry := make([][]Entry, maxStrata)
	complete, err := t.processNode(t.root, t.level, carry, dedup, onReplace)
	if err != nil {
		return nil, err
	}
	// Flush open tails bottom-up: the tail at stratum s becomes the final
	// node at level s, whose routing entry joins the tail above it.
	for s := 0; s <= t.level; s++ {
		if len(carry[s]) == 0 {
			continue
		}
		nd := &node{level: s, entries: carry[s]}
		d, cnt := t.storeNode(nd)
		e := makeIndexEntry(carry[s][len(carry[s])-1].Key, d, cnt)
		if s == t.level {
			complete = append(complete, e)
		} else {
			carry[s+1] = append(carry[s+1], e)
		}
	}
	newCount := 0
	for _, e := range complete {
		newCount += int(childCount(e))
	}
	switch len(complete) {
	case 0:
		return Empty(t.store), nil
	case 1:
		return t.canonicalize(childDigest(complete[0]), newCount)
	default:
		return t.buildUp(complete, t.level+1, newCount)
	}
}

// canonicalize unwraps single-entry index chains that the carry flush can
// produce when a tree shrinks, restoring the history-independent form: a
// canonical root never is an index node with a single routing entry.
func (t *Tree) canonicalize(root hashutil.Digest, count int) (*Tree, error) {
	for {
		n, err := t.loadNodeCached(root)
		if err != nil {
			return nil, err
		}
		if n.level == 0 || len(n.entries) > 1 {
			return &Tree{store: t.store, cache: t.cache, root: root, level: n.level, count: count}, nil
		}
		root = childDigest(n.entries[0])
	}
}

// processNode rewrites the subtree rooted at d (a node at the given level)
// to incorporate edits. carry[s] holds entries at stratum s produced to the
// left that have not yet been grouped into a node; this call consumes
// carry[level] (prepending it to its own content) and may leave new open
// tails behind for the caller. The returned entries route to the complete
// replacement nodes at this node's level.
func (t *Tree) processNode(d hashutil.Digest, level int, carry [][]Entry, edits []Edit, onReplace func(key, oldValue []byte)) ([]Entry, error) {
	n, err := t.loadNodeCached(d)
	if err != nil {
		return nil, err
	}
	if n.level != level {
		return nil, fmt.Errorf("postree: node %s has level %d, expected %d", d.Short(), n.level, level)
	}
	if level == 0 {
		merged := mergeEdits(carry[0], n.entries, edits, onReplace)
		complete, tail := t.chunkEntries(merged, 0)
		carry[0] = tail
		return complete, nil
	}

	content := append([]Entry{}, carry[level]...)
	carry[level] = nil
	remaining := edits
	for i, ce := range n.entries {
		last := i == len(n.entries)-1
		var childEdits []Edit
		childEdits, remaining = splitEdits(remaining, ce.Key, last)
		if len(childEdits) == 0 && lowerEmpty(carry, level) {
			content = append(content, ce)
			continue
		}
		sub, err := t.processNode(childDigest(ce), level-1, carry, childEdits, onReplace)
		if err != nil {
			return nil, err
		}
		content = append(content, sub...)
	}
	complete, tail := t.chunkEntries(content, level)
	carry[level] = tail
	return complete, nil
}

// lowerEmpty reports whether all carries strictly below the given stratum
// are empty (carry[s] for s < level corresponds to content of descendants).
func lowerEmpty(carry [][]Entry, level int) bool {
	for s := 0; s < level; s++ {
		if len(carry[s]) > 0 {
			return false
		}
	}
	return true
}

// splitEdits partitions sorted edits into those routed to a child with
// separator key sep (keys <= sep, or everything if last) and the rest.
func splitEdits(edits []Edit, sep []byte, last bool) (child, rest []Edit) {
	if last {
		return edits, nil
	}
	i := sort.Search(len(edits), func(i int) bool {
		return bytes.Compare(edits[i].Key, sep) > 0
	})
	return edits[:i], edits[i:]
}

// mergeEdits merges a sorted prefix, sorted base entries and sorted edits
// into a single sorted entry run, applying upserts and deletes. onReplace
// (optional) observes overwritten and deleted entries.
func mergeEdits(prefix, base []Entry, edits []Edit, onReplace func(key, oldValue []byte)) []Entry {
	out := make([]Entry, 0, len(prefix)+len(base)+len(edits))
	out = append(out, prefix...)
	bi, ei := 0, 0
	for bi < len(base) || ei < len(edits) {
		switch {
		case bi == len(base):
			if !edits[ei].Delete {
				out = append(out, Entry{Key: edits[ei].Key, Value: edits[ei].Value})
			}
			ei++
		case ei == len(edits):
			out = append(out, base[bi])
			bi++
		default:
			switch bytes.Compare(base[bi].Key, edits[ei].Key) {
			case -1:
				out = append(out, base[bi])
				bi++
			case 1:
				if !edits[ei].Delete {
					out = append(out, Entry{Key: edits[ei].Key, Value: edits[ei].Value})
				}
				ei++
			default: // same key: edit wins
				if onReplace != nil {
					onReplace(base[bi].Key, base[bi].Value)
				}
				if !edits[ei].Delete {
					out = append(out, Entry{Key: edits[ei].Key, Value: edits[ei].Value})
				}
				bi++
				ei++
			}
		}
	}
	return out
}

// LiveBytes returns the total size of the distinct nodes reachable from
// this snapshot's root — the live storage of the instance, as opposed to
// the store's physical size, which also holds superseded copy-on-write
// nodes awaiting garbage collection.
func (t *Tree) LiveBytes() (int64, error) {
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
		n, err := decodeNode(body)
		if err != nil {
			return 0, err
		}
		if n.level > 0 {
			for _, e := range n.entries {
				sub, err := walk(childDigest(e))
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

// WalkNodes visits every distinct node reachable from the root, top-down,
// passing each node's level and serialized body. fn returning false stops
// the walk. Snapshot export uses it to enumerate an instance's live set.
func (t *Tree) WalkNodes(fn func(level int, body []byte) bool) error {
	if t.root.IsZero() {
		return nil
	}
	seen := make(map[hashutil.Digest]bool)
	var walk func(d hashutil.Digest) (bool, error)
	walk = func(d hashutil.Digest) (bool, error) {
		if seen[d] {
			return true, nil
		}
		seen[d] = true
		body, err := t.store.Get(d)
		if err != nil {
			return false, err
		}
		n, err := decodeNode(body)
		if err != nil {
			return false, err
		}
		if !fn(n.level, body) {
			return false, nil
		}
		if n.level > 0 {
			for _, e := range n.entries {
				cont, err := walk(childDigest(e))
				if err != nil || !cont {
					return cont, err
				}
			}
		}
		return true, nil
	}
	_, err := walk(t.root)
	return err
}
