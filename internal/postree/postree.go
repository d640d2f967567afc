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
	"spitz/internal/obs"
	"spitz/internal/posleaf"
	"spitz/internal/proof"
)

// patternBits sets the expected node fanout to 2^patternBits = 32.
const patternBits = 5

// Entry is a key/value pair stored in the tree. Keys are unique.
type Entry = proof.Entry

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
	return &Tree{store: store, cache: newNodeCache()}
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
	return rooted(store, newNodeCache(), root, n), nil
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
	return rooted(t.store, t.cache, root, n), nil
}

// rooted is the tree whose root node n has digest root.
func rooted(store cas.Store, cache *nodeCache, root hashutil.Digest, n *node) *Tree {
	count := len(n.Entries)
	if n.Level > 0 {
		count = 0
		for _, e := range n.Entries {
			count += int(childCount(e))
		}
	}
	return &Tree{store: store, cache: cache, root: root, level: n.Level, count: count}
}

// Root returns the root digest; it is zero for an empty tree.
func (t *Tree) Root() hashutil.Digest { return t.root }

// Count returns the number of entries.
func (t *Tree) Count() int { return t.count }

// Store returns the backing content-addressed store.
func (t *Tree) Store() cas.Store { return t.store }

// ---------------------------------------------------------------------------
// Node representation

// node is the in-memory form of a stored tree node: its level, entries
// and, for a leaf decoded from a proof, the run of them present.
type node = proof.Node

func childCount(e Entry) uint64 {
	return binary.BigEndian.Uint64(e.Value[hashutil.DigestSize:])
}

func makeIndexEntry(sep []byte, d hashutil.Digest, count uint64) Entry {
	v := make([]byte, hashutil.DigestSize+8)
	copy(v, d[:])
	binary.BigEndian.PutUint64(v[hashutil.DigestSize:], count)
	return Entry{Key: sep, Value: v}
}

// mHashedBytes counts the bytes SHA-256 is fed to commit to the nodes
// encode builds: an index node's whole body; for a leaf the entries written
// one by one, the nodes of the hash tree over them and the digest's input
// (posleaf.Writer.Hashed). It falls short of the bytes written by the
// groups encode copied, root and all, from the leaf being rewritten.
var mHashedBytes = obs.Default.Counter("spitz_postree_hashed_bytes_total")

// encode serializes a run as one node of the given level: an index node
// as proof.IndexNode lays it out, hashed whole, and returned decoded as
// well; a leaf in the layout of internal/posleaf, which keeps a root per
// group of entries.
// Where r.kept says a stretch of a leaf's entries is a stored leaf's,
// unchanged, the writer takes the groups both leaves cut alike out of
// that leaf's body, already hashed — checked or not: a damaged group keeps
// its genuine root and fails the first read that uses it, which is why the
// stretches copied are returned, for the store to know (cas.CopyTracker).
// An entry of a stored leaf that is framed and hashed anew is checked
// first. The body is allocated once, at its exact size: the store keeps it.
func (t *Tree) encode(level int, r run) (*node, []byte, []copied, error) {
	if level > 0 {
		n, body := proof.IndexNode(level, r.entries)
		mHashedBytes.Add(uint64(len(body)))
		return n, body, nil, nil
	}
	size := 0
	for _, e := range r.entries {
		size += posleaf.EntrySize(e.Key, e.Value)
	}
	w := posleaf.NewWriter(len(r.entries), size)
	at := cursor{spans: r.kept}
	var copies []copied
	for i := 0; i < len(r.entries); {
		if sp, ok := at.span(i); ok {
			if took := w.Copy(sp.src.groups, sp.pos+i-sp.at, sp.at+sp.n-i); took > 0 {
				copies = append(copies, copied{at: i, pos: sp.pos + i - sp.at, n: took, src: sp.src})
				i += took
				continue
			}
			if err := t.checkKept(sp, i); err != nil {
				return nil, nil, nil, err
			}
		}
		w.Entry(r.entries[i].Key, r.entries[i].Value)
		i++
	}
	mHashedBytes.Add(uint64(w.Hashed()))
	return nil, w.Body(), copies, nil
}

// copied is a stretch of a leaf that encode took over by its groups from
// the stored leaf src: n entries from position at, src's from pos.
type copied struct {
	at, pos, n int
	src        *stored
}

func nodeDomain(level int) byte {
	if level == 0 {
		return hashutil.DomainPOSLeaf
	}
	return hashutil.DomainPOSIndex
}

// storeNode stores a run as one node of the given level: it encodes it,
// hands the body to the store — the one copy of it there is — and admits
// an index node to the cache, so that the apply of the next block, and
// the proofs until then, find decoded what this one wrote.
func (t *Tree) storeNode(level int, r run) (hashutil.Digest, uint64, error) {
	n, body, copies, err := t.encode(level, r)
	if err != nil {
		return hashutil.Digest{}, 0, err
	}
	d := t.store.PutOwned(nodeDomain(level), body)
	if level == 0 {
		if ct, ok := t.store.(cas.CopyTracker); ok {
			for _, c := range copies {
				ct.CopiedGroups(d, body, c.at, c.src.d, c.src.body, c.pos, c.n)
			}
		}
		return d, uint64(len(r.entries)), nil
	}
	t.cache.put(d, n, body)
	var cnt uint64
	for _, e := range r.entries {
		cnt += childCount(e)
	}
	return d, cnt, nil
}

func loadNode(store cas.Store, d hashutil.Digest) (*node, error) {
	body, err := store.Get(d)
	if err != nil {
		return nil, fmt.Errorf("postree: load node: %w", err)
	}
	return proof.DecodeNode(body)
}

// ---------------------------------------------------------------------------
// Content-defined node boundaries

// mBoundaryHashes counts isBoundary evaluations — one SHA-256 each. A
// single-key update costs one per edited entry plus one per node it
// rewrites, not one per entry of those nodes (see run).
var mBoundaryHashes = obs.Default.Counter("spitz_postree_boundary_hashes_total")

// isBoundary reports whether an entry terminates a node. It depends only on
// the entry's content, which is what makes the tree structurally invariant.
func isBoundary(e Entry) bool {
	mBoundaryHashes.Inc()
	h := hashutil.SumParts(hashutil.DomainPostings, e.Key, e.Value)
	pat := binary.BigEndian.Uint32(h[:4])
	const mask = 1<<patternBits - 1
	return pat&mask == mask
}

// run is a sorted stretch of entries of one stratum on its way to being
// cut into nodes. kept records which stretches of it are entries of stored
// nodes, unchanged and in order; everything else an edit created. Two
// things are read off it. An entry other than the last of a stored node is
// not a boundary — a node ends at its first — so chunking does not hash it
// again to find out: only entries an edit created and each source node's
// last entry are tested. And a leaf is encoded by copying the groups it
// keeps from the leaf it rewrites. No spans mark nothing (a bulk load:
// every entry is new).
type run struct {
	entries []Entry
	kept    []span // ascending by at, disjoint
}

// span says that n entries of a run, from index at, are the entries of
// the stored node src from position pos.
type span struct {
	at, n int
	src   *stored
	pos   int
}

// stored is a node an apply is rewriting, as the source of spans: the
// decoded node; last, its last key, from its parent's routing entry, when
// the tree's shape says that entry is a boundary (nil: it must be tested);
// and for a leaf, its digest, the body the store returned and where its
// groups lie in it (body and groups nil for an index node, which was
// hashed whole: nothing is checked or copied).
type stored struct {
	n      *node
	last   []byte
	d      hashutil.Digest
	body   []byte
	groups *posleaf.Source
}

// inner reports whether the run's entry i, which the span covers, is an
// entry other than the last of its source node.
func (s span) inner(i int) bool { return s.pos+i-s.at < len(s.src.n.Entries)-1 }

// checkKept checks the group of the stored leaf that holds the run's entry
// i, which sp covers: an entry the apply reads rather than copies.
func (t *Tree) checkKept(sp span, i int) error {
	if sp.src.body == nil {
		return nil
	}
	q := sp.pos + i - sp.at
	return t.store.CheckGroups(sp.src.d, sp.src.body, q, q)
}

// cursor finds the span covering each index of a run visited in
// ascending order.
type cursor struct {
	spans []span
	k     int
}

func (c *cursor) span(i int) (span, bool) {
	for c.k < len(c.spans) && c.spans[c.k].at+c.spans[c.k].n <= i {
		c.k++
	}
	if c.k < len(c.spans) && c.spans[c.k].at <= i {
		return c.spans[c.k], true
	}
	return span{}, false
}

// add appends an entry an edit created.
func (r *run) add(e Entry) { r.entries = append(r.entries, e) }

// keep appends entries lo … hi-1 of the stored node src, unchanged. The
// run must own its kept slice (see window): a span that continues the last
// one grows it in place.
func (r *run) keep(src *stored, lo, hi int) {
	if lo >= hi {
		return
	}
	at := len(r.entries)
	r.entries = append(r.entries, src.n.Entries[lo:hi]...)
	if k := len(r.kept) - 1; k >= 0 && r.kept[k].src == src && r.kept[k].pos+r.kept[k].n == lo && r.kept[k].at+r.kept[k].n == at {
		r.kept[k].n += hi - lo
		return
	}
	r.kept = append(r.kept, span{at: at, n: hi - lo, src: src, pos: lo})
}

// window returns entries lo … hi-1 of r as a run of their own: the spans
// cut to the window, counted from its start, in a slice nothing shares.
func (r run) window(lo, hi int) run {
	w := run{entries: r.entries[lo:hi]}
	for _, s := range r.kept {
		from, to := max(s.at, lo), min(s.at+s.n, hi)
		if from < to {
			w.kept = append(w.kept, span{at: from - lo, n: to - from, src: s.src, pos: s.pos + from - s.at})
		}
	}
	return w
}

// chunkEntries cuts a sorted entry run into complete nodes (each ending at
// a boundary entry or at proof.MaxFanout) and an open tail of entries after the
// last boundary. The stored nodes' routing entries are returned. A stored
// node's last entry ends a node where the tree's shape says it did
// (stored.last), and nothing of it is read; any other stored leaf's entry
// that can end a node — tested as a boundary, or cut at by proof.MaxFanout — is
// checked first: the tree's shape and a routing key are read off it.
func (t *Tree) chunkEntries(r run, level int) (complete []Entry, tail run, err error) {
	start := 0
	at := cursor{spans: r.kept}
	for i, e := range r.entries {
		sp, kept := at.span(i)
		test, full := !(kept && sp.inner(i)), i-start+1 >= proof.MaxFanout
		shaped := kept && test && sp.src.last != nil
		if kept && !shaped && (test || full) {
			if err := t.checkKept(sp, i); err != nil {
				return nil, run{}, err
			}
		}
		if shaped || (test && isBoundary(e)) || full {
			d, cnt, err := t.storeNode(level, r.window(start, i+1))
			if err != nil {
				return nil, run{}, err
			}
			sep := e.Key
			if shaped {
				sep = sp.src.last
			}
			complete = append(complete, makeIndexEntry(sep, d, cnt))
			start = i + 1
		}
	}
	return complete, r.window(start, len(r.entries)), nil
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
		if level >= proof.MaxHeight {
			return nil, errors.New("postree: tree too tall")
		}
		complete, tail, err := t.chunkEntries(run{entries: entries}, level)
		if err != nil {
			return nil, err
		}
		if last := len(tail.entries) - 1; last >= 0 {
			d, cnt, err := t.storeNode(level, tail)
			if err != nil {
				return nil, err
			}
			complete = append(complete, makeIndexEntry(tail.entries[last].Key, d, cnt))
		}
		if len(complete) == 1 {
			return &Tree{store: t.store, cache: t.cache, root: proof.ChildDigest(complete[0]), level: level, count: count}, nil
		}
		entries = complete
		level++
	}
}

// ---------------------------------------------------------------------------
// Reads

// Get returns the value stored under key, or (nil, false) if absent: a Seek
// that lands on key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	e, ok, err := t.Seek(key)
	if !ok || !bytes.Equal(e.Key, key) {
		return nil, false, err
	}
	return e.Value, true, nil
}

// Seek returns the first entry whose key is at or past key, and false when
// every key is below it. The index levels come decoded from the node cache;
// the leaf, which is never cached decoded, is searched in its stored body
// (posleaf.Find) rather than decoded whole for the sake of one entry, and
// the store checks only the groups of the entries that place the answer
// (cas.Store.CheckGroups): the entry, and for a key the tree does not
// hold, the one before it. The Entry aliases node storage.
func (t *Tree) Seek(key []byte) (Entry, bool, error) {
	if t.root.IsZero() {
		return Entry{}, false, nil
	}
	d, body, err := t.leafFor(key, nil)
	if body == nil || err != nil {
		return Entry{}, false, err
	}
	_, _, e, _, err := t.find(d, body, key)
	return e, e.Key != nil, err
}

// leafFor descends the index levels of a non-empty tree and returns the
// digest and stored body of the leaf key routes to, a nil body when key is
// beyond the largest key. Each index node it passes is handed to visit,
// when there is one.
func (t *Tree) leafFor(key []byte, visit func(d hashutil.Digest, body []byte)) (hashutil.Digest, []byte, error) {
	d := t.root
	for level := t.level; level > 0; level-- {
		body, n, err := t.loadProofNode(d)
		if err != nil {
			return d, nil, err
		}
		if n.Level != level {
			return d, nil, fmt.Errorf("postree: node %s has level %d, expected %d", d.Short(), n.Level, level)
		}
		if visit != nil {
			visit(d, body)
		}
		i := proof.Search(n.Entries, key)
		if i == len(n.Entries) {
			return d, nil, nil
		}
		d = proof.ChildDigest(n.Entries[i])
	}
	body, err := t.store.Get(d)
	if err != nil {
		return d, nil, fmt.Errorf("postree: load node: %w", err)
	}
	return d, body, nil
}

// find searches the stored leaf d, body, for key (posleaf.Find) and checks
// the groups of the entries that decide the answer, lo through hi: the
// entry itself for a hit, both sides of the gap for a miss. e is the first
// entry at or past key, zero when the leaf has none; found reports a hit.
func (t *Tree) find(d hashutil.Digest, body, key []byte) (lo, hi int, e Entry, found bool, err error) {
	l, err := posleaf.Parse(body)
	if err != nil {
		return 0, 0, Entry{}, false, err
	}
	i, k, v, err := posleaf.Find(body, key)
	if err != nil {
		return 0, 0, Entry{}, false, err
	}
	found = k != nil && bytes.Equal(k, key)
	lo, hi = pointSpan(l.Count, i, found)
	if err := t.store.CheckGroups(d, body, lo, hi); err != nil {
		return 0, 0, Entry{}, false, err
	}
	return lo, hi, Entry{Key: k, Value: v}, found, nil
}

// checkRun checks the groups of the stored leaf d, body, decoded as n, that
// hold the run [a, b) of its entries a scan picked out and the entry on
// either side of it, as far as the leaf has them: what the run is and
// where it begins and ends.
func (t *Tree) checkRun(d hashutil.Digest, body []byte, n *node, a, b int) error {
	return t.store.CheckGroups(d, body, max(a-1, 0), min(b, len(n.Entries)-1))
}

// Scan calls fn for every entry with start <= key < end, in key order. A
// nil end means "to the last key". fn returning false stops the scan early.
// The Entry passed to fn references node storage and must not be retained
// without copying. A leaf's entries in range, and the one either side that
// bounds them, are checked before fn sees any of them.
func (t *Tree) Scan(start, end []byte, fn func(Entry) bool) error {
	if t.root.IsZero() {
		return nil
	}
	_, err := t.scanNode(t.root, start, end, fn)
	return err
}

func (t *Tree) scanNode(d hashutil.Digest, start, end []byte, fn func(Entry) bool) (bool, error) {
	body, n, err := t.loadProofNode(d)
	if err != nil {
		return false, err
	}
	if n.Level == 0 {
		a, b := proof.LeafSpan(n.Entries, start, end)
		if err := t.checkRun(d, body, n, a, b); err != nil {
			return false, err
		}
		for _, e := range n.Entries[a:b] {
			if !fn(e) {
				return false, nil
			}
		}
		return b == len(n.Entries), nil // an entry at or past end stops the scan
	}
	i := sort.Search(len(n.Entries), func(i int) bool {
		return bytes.Compare(n.Entries[i].Key, start) >= 0
	})
	for ; i < len(n.Entries); i++ {
		e := n.Entries[i]
		if i > 0 && end != nil && bytes.Compare(n.Entries[i-1].Key, end) >= 0 {
			return false, nil
		}
		cont, err := t.scanNode(proof.ChildDigest(e), start, end, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// Unchanged reports whether t and u hold byte-identical entries with keys
// in [start, end) (a nil end is unbounded), a key absent from both counting
// as the same. It walks the two trees in lockstep, in key order, opening a
// node only where their digests differ (a subtree both hold has the same
// entries in both), and checks a leaf's groups as Scan does.
func (t *Tree) Unchanged(u *Tree, start, end []byte) (bool, error) {
	a, b := &walk{t: t, start: start, end: end}, &walk{t: u, start: start, end: end}
	for _, w := range []*walk{a, b} {
		if !w.t.root.IsZero() {
			w.stack = append(w.stack, pending{level: w.t.level, d: w.t.root})
		}
	}
	for {
		x, y := a.top(), b.top()
		switch {
		case x.level == walked && y.level == walked:
			return true, nil
		case x.level == y.level && x.level >= 0 && x.d == y.d:
		case x.level == entry && y.level == entry:
			if !bytes.Equal(x.e.Key, y.e.Key) || !bytes.Equal(x.e.Value, y.e.Value) {
				return false, nil
			}
		case max(x.level, y.level) == entry: // an entry the other tree lacks
			return false, nil
		default: // open the higher node
			w := a
			if y.level > x.level {
				w = b
			}
			if err := w.open(); err != nil {
				return false, err
			}
			continue
		}
		a.stack, b.stack = a.stack[:len(a.stack)-1], b.stack[:len(b.stack)-1]
	}
}

// walk is what is left of one side of Unchanged: a stack of nodes to open
// (level ≥ 0) and entries (level entry), the next in key order on top.
type walk struct {
	t          *Tree
	start, end []byte
	stack      []pending
}

type pending struct {
	level int
	d     hashutil.Digest
	e     Entry
}

const entry, walked = -1, -2 // pending levels below a leaf's

func (w *walk) top() pending {
	if len(w.stack) == 0 {
		return pending{level: walked}
	}
	return w.stack[len(w.stack)-1]
}

// open replaces the node on top by its children that may hold keys in the
// range or, for a leaf, by its entries in the range.
func (w *walk) open() error {
	d := w.stack[len(w.stack)-1].d
	w.stack = w.stack[:len(w.stack)-1]
	body, n, err := w.t.loadProofNode(d)
	if err != nil {
		return err
	}
	if n.Level == 0 {
		a, b := proof.LeafSpan(n.Entries, w.start, w.end)
		for i := b - 1; i >= a; i-- {
			w.stack = append(w.stack, pending{level: entry, e: n.Entries[i]})
		}
		return w.t.checkRun(d, body, n, a, b)
	}
	from, to := proof.ChildSpan(n.Entries, w.start, w.end)
	for i := to - 1; i >= from; i-- {
		w.stack = append(w.stack, pending{level: n.Level - 1, d: proof.ChildDigest(n.Entries[i])})
	}
	return nil
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
// the old value is still valid, and with the edit's value; what it returns
// is stored instead (a delete ignores it). Spitz's cell store uses it to
// link a new head to the version it replaces without a second tree
// traversal.
func (t *Tree) ApplyFunc(edits []Edit, onReplace func(key, oldValue, value []byte) []byte) (*Tree, error) {
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
		if len(entries) == 0 {
			return t, nil
		}
		return t.buildUp(entries, 0, len(entries))
	}

	carry := make([]run, proof.MaxHeight)
	complete, err := t.processNode(t.root, nil, t.level, carry, dedup, onReplace)
	if err != nil {
		return nil, err
	}
	// Flush open tails bottom-up: the tail at stratum s becomes the final
	// node at level s, whose routing entry joins the tail above it.
	for s := 0; s <= t.level; s++ {
		tail := carry[s].entries
		if len(tail) == 0 {
			continue
		}
		d, cnt, err := t.storeNode(s, carry[s])
		if err != nil {
			return nil, err
		}
		e := makeIndexEntry(tail[len(tail)-1].Key, d, cnt)
		if s == t.level {
			complete = append(complete, e)
		} else {
			carry[s+1].add(e)
		}
	}
	newCount := 0
	for _, e := range complete {
		newCount += int(childCount(e))
	}
	switch len(complete) {
	case 0:
		return &Tree{store: t.store, cache: t.cache}, nil
	case 1:
		return t.canonicalize(proof.ChildDigest(complete[0]), newCount)
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
		if n.Level == 0 || len(n.Entries) > 1 {
			return &Tree{store: t.store, cache: t.cache, root: root, level: n.Level, count: count}, nil
		}
		t.cache.retire(root) // unwrapped: no part of the tree returned
		root = proof.ChildDigest(n.Entries[0])
	}
}

// processNode rewrites the subtree rooted at d (a node at the given level)
// to incorporate edits; key is the key d's parent routes to it by, nil
// for the rightmost node of its level. carry[s] holds entries at stratum s
// produced to the left that have not yet been grouped into a node; this
// call consumes carry[level] (prepending it to its own content) and may
// leave new open tails behind for the caller. The returned entries route
// to the complete replacement nodes at this node's level.
func (t *Tree) processNode(d hashutil.Digest, key []byte, level int, carry []run, edits []Edit, onReplace func(key, oldValue, value []byte) []byte) ([]Entry, error) {
	body, n, err := t.loadProofNode(d)
	if err != nil {
		return nil, err
	}
	if n.Level != level {
		return nil, fmt.Errorf("postree: node %s has level %d, expected %d", d.Short(), n.Level, level)
	}
	src := &stored{n: n}
	// A stored node ends where the chunker cut it: at a boundary entry,
	// unless proof.MaxFanout cut it or it is the rightmost of its level.
	if key != nil && len(n.Entries) < proof.MaxFanout {
		src.last = key
	}
	if level == 0 {
		src.d, src.body = d, body
		// Locate the leaf's groups, for the leaves that keep some of them.
		if l, err := posleaf.Parse(body); err == nil {
			src.groups = l.Source()
		}
		merged, err := t.mergeEdits(carry[0], src, edits, onReplace)
		if err != nil {
			return nil, err
		}
		complete, tail, err := t.chunkEntries(merged, 0)
		carry[0] = tail
		return complete, err
	}

	// The carry's tail was sliced out of the run it came from: copy, so
	// appending cannot write into that run's backing array.
	content := run{
		entries: append(make([]Entry, 0, len(carry[level].entries)+len(n.Entries)), carry[level].entries...),
		kept:    carry[level].kept,
	}
	carry[level] = run{}
	remaining := edits
	for i, ce := range n.Entries {
		last := i == len(n.Entries)-1
		var childEdits []Edit
		childEdits, remaining = splitEdits(remaining, ce.Key, last)
		if len(childEdits) == 0 && lowerEmpty(carry, level) {
			content.keep(src, i, i+1)
			continue
		}
		childKey := ce.Key
		if key == nil && last {
			childKey = nil
		}
		sub, err := t.processNode(proof.ChildDigest(ce), childKey, level-1, carry, childEdits, onReplace)
		if err != nil {
			return nil, err
		}
		content.entries = append(content.entries, sub...)
	}
	complete, tail, err := t.chunkEntries(content, level)
	if err != nil {
		return nil, err
	}
	carry[level] = tail
	// This node is history now: keep it for the readers a few blocks
	// behind, out of the way of what the head needs.
	t.cache.retire(d)
	return complete, nil
}

// lowerEmpty reports whether all carries strictly below the given stratum
// are empty (carry[s] for s < level corresponds to content of descendants).
func lowerEmpty(carry []run, level int) bool {
	for s := 0; s < level; s++ {
		if len(carry[s].entries) > 0 {
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

// mergeEdits merges a sorted prefix, the entries of a stored leaf and
// sorted edits into a single sorted run, applying upserts and deletes.
// onReplace (optional) sees overwritten and deleted entries (ApplyFunc). The
// groups of the entries that place each edit — the entry it replaces, or
// the two either side of where it goes — are checked before they are
// trusted.
func (t *Tree) mergeEdits(prefix run, leaf *stored, edits []Edit, onReplace func(key, oldValue, value []byte) []byte) (run, error) {
	base := leaf.n.Entries
	out := run{
		entries: append(make([]Entry, 0, len(prefix.entries)+len(base)+len(edits)), prefix.entries...),
		kept:    prefix.kept,
	}
	bi := 0
	for _, e := range edits {
		// The leaf's entries below the edit's key are kept as they are.
		next := bi + proof.Search(base[bi:], e.Key)
		same := next < len(base) && bytes.Equal(base[next].Key, e.Key)
		lo, hi := pointSpan(len(base), next, same)
		if err := t.store.CheckGroups(leaf.d, leaf.body, lo, hi); err != nil {
			return run{}, err
		}
		out.keep(leaf, bi, next)
		bi = next
		value := e.Value
		if same { // same key: edit wins
			if onReplace != nil {
				value = onReplace(base[bi].Key, base[bi].Value, value)
			}
			bi++
		}
		if !e.Delete {
			out.add(Entry{Key: e.Key, Value: value})
		}
	}
	out.keep(leaf, bi, len(base))
	return out, nil
}

// LiveBytes returns the total size of the distinct nodes reachable from
// this snapshot's root — the live storage of the instance, as opposed to
// the store's physical size, which also holds superseded copy-on-write
// nodes awaiting garbage collection.
func (t *Tree) LiveBytes() (int64, error) {
	var total int64
	err := t.WalkNodes(func(_ int, body []byte) bool {
		total += int64(len(body))
		return true
	})
	return total, err
}

// WalkNodes visits every distinct node reachable from the root, top-down,
// passing each node's level and serialized body, every group of a leaf
// checked first. fn returning false stops the walk. Snapshot export uses it
// to enumerate an instance's live set.
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
		n, err := proof.DecodeNode(body)
		if err != nil {
			return false, err
		}
		if n.Level == 0 {
			if err := t.store.CheckGroups(d, body, 0, len(n.Entries)-1); err != nil {
				return false, err
			}
		}
		if !fn(n.Level, body) {
			return false, nil
		}
		if n.Level > 0 {
			for _, e := range n.Entries {
				cont, err := walk(proof.ChildDigest(e))
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
