package postree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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

// BatchProof proves the presence or absence of one or more keys under a
// tree root — a point read is the batch of one key — with a single shared
// node set: the bodies of every node on any key's search path, each once,
// root first. N point reads at the same root share the root node and every
// common path prefix, so the proof (and its verification) costs far less
// than N independent paths; this is the multi-key aggregation Spitz's
// deferred verification batches receipts into (one multi-proof per
// digest). A leaf is cut to what decides the keys that land in it: the
// contiguous run of entries from the first one any of them needs to the
// last, beside the hash path that binds them to the leaf's digest
// (posleaf.Prune). For one key that run is the entry itself on a hit, and
// the entries on either side of the gap on a miss. The verifier re-hashes
// each body, follows child digests from the root and reruns each search.
//
// This is Spitz's "unified index" property in code: the proof is assembled
// from exactly the nodes the query already visited, so proving costs no
// extra traversal (contrast with internal/bench/baseline, which performs
// an independent journal lookup per record).
//
// Keys[i], Values[i] and Found[i] describe the i-th proven read; Values[i]
// is nil when Found[i] is false. Nodes is a set: the verifier finds each
// node it wants by the digest the body hashes to, so the bodies of index
// nodes the verifier said it holds are simply left out (see Path and
// Elide). Leaves are never left out.
type BatchProof struct {
	Keys   [][]byte
	Values [][]byte
	Found  []bool
	Nodes  [][]byte // bodies of every visited node, each once

	// digests[i] is the content address the prover loaded Nodes[i] from.
	// It never crosses the wire; Elide compares it with what a client says
	// it holds, so the server neither re-hashes nor decodes to elide.
	digests []hashutil.Digest
}

// ProveGet proves one point read: the one-key ProveGetBatch.
func (t *Tree) ProveGet(key []byte) (BatchProof, error) {
	return t.ProveGetBatch([][]byte{key})
}

// ProveGetBatch proves a batch of point reads in one pass, deduplicating
// shared nodes. Keys may repeat and need not be sorted; results are in
// request order. The index levels come decoded from the node cache; each
// key's leaf, as in Get, is searched — and then cut — in its stored body
// rather than decoded whole, and only the groups the cut ships entries
// from or hashes siblings in are checked, before any of it is answered or
// shipped. A key beyond the tree's max has no leaf: the path proves its
// absence.
func (t *Tree) ProveGetBatch(keys [][]byte) (BatchProof, error) {
	p := BatchProof{
		Keys:   keys,
		Values: make([][]byte, len(keys)),
		Found:  make([]bool, len(keys)),
	}
	if t.root.IsZero() {
		return p, nil // proof against the zero root: trivially empty tree
	}
	// seen.list is p.digests: where each visited node sits in p.Nodes.
	// keep[slot] is the run of entries a visited leaf must keep (unused for
	// index nodes); a short batch's fit on the stack.
	size := t.level + len(keys)
	seen := digestSet{list: make([]hashutil.Digest, 0, size)}
	p.Nodes = make([][]byte, 0, size)
	var room [scanLimit][2]int
	keep := room[:0]
	visit := func(d hashutil.Digest, body []byte) int {
		if slot := seen.find(d); slot >= 0 {
			return slot
		}
		seen = seen.add(d)
		p.Nodes, keep = append(p.Nodes, body), append(keep, [2]int{math.MaxInt, -1})
		return len(p.Nodes) - 1
	}
	for ki, key := range keys {
		d, body, err := t.leafFor(key, func(d hashutil.Digest, body []byte) { visit(d, body) })
		if err != nil {
			return BatchProof{}, fmt.Errorf("postree: prove get: %w", err)
		}
		if body == nil {
			continue // key beyond max: the path proves absence
		}
		slot := visit(d, body)
		lo, hi, e, found, err := t.find(d, p.Nodes[slot], key)
		if err != nil {
			return BatchProof{}, fmt.Errorf("postree: prove get: %w", err)
		}
		if p.Found[ki] = found; found {
			p.Values[ki] = e.Value
		}
		keep[slot] = [2]int{min(keep[slot][0], lo), max(keep[slot][1], hi)}
	}
	p.digests = seen.list
	for slot, body := range p.Nodes {
		if body[0] != 0 {
			continue
		}
		// Several keys' run may span groups none of their searches checked.
		if err := t.store.CheckGroups(p.digests[slot], body, keep[slot][0], keep[slot][1]); err != nil {
			return BatchProof{}, fmt.Errorf("postree: prove get: %w", err)
		}
		pruned, err := posleaf.Prune(body, keep[slot][0], keep[slot][1])
		if err != nil {
			return BatchProof{}, fmt.Errorf("postree: prove get: %w", err)
		}
		p.Nodes[slot] = pruned
	}
	return p, nil
}

// pointSpan returns the entry positions of a leaf of count entries that
// decide a search that ended at position i: the entry itself for a hit,
// both sides of the gap (as far as the leaf has them) for a miss.
func pointSpan(count, i int, found bool) (lo, hi int) {
	if found {
		return i, i
	}
	return max(i-1, 0), min(i, count-1)
}

// ---------------------------------------------------------------------------
// Elision: what the verifier holds is not shipped

// scanLimit is the size up to which a set of digests is searched by
// scanning it; larger sets are indexed by a map. A point read's path is
// the small case and never allocates one.
const scanLimit = 8

// digestSet is a list of distinct node digests that can be asked where a
// digest sits in it: the nodes a verifier pinned and the bodies a proof
// shipped are each one of these, beside a parallel slice of what the
// digest names.
type digestSet struct {
	list  []hashutil.Digest
	index map[hashutil.Digest]int // position in list, kept once past scanLimit
}

// find returns d's position, or -1.
func (s digestSet) find(d hashutil.Digest) int {
	if s.index != nil {
		if i, ok := s.index[d]; ok {
			return i
		}
		return -1
	}
	for i := range s.list {
		if s.list[i] == d {
			return i
		}
	}
	return -1
}

// add returns the set with d, which must not be in it, appended.
func (s digestSet) add(d hashutil.Digest) digestSet {
	s.list = append(s.list, d)
	if s.index != nil {
		s.index[d] = len(s.list) - 1
	} else if len(s.list) > scanLimit {
		s.index = make(map[hashutil.Digest]int, 4*len(s.list))
		for i, d := range s.list {
			s.index[d] = i
		}
	}
	return s
}

// FingerprintSize is how much of a node's digest names it in a hint: its
// first 8 bytes. A hint is matched by fingerprint alone, so it may carry no
// more (the trimmed wire form sends no more). A fingerprint that matches a
// node the verifier does not hold only leaves out a body its walk then
// cannot find: the proof fails, it never verifies wrong data.
const FingerprintSize = 8

func fingerprint(d hashutil.Digest) uint64 { return binary.BigEndian.Uint64(d[:FingerprintSize]) }

// HeldSet is what a verifier says it already holds — the hint a proof is
// cut against: a held index node, named by fingerprint, is left out, and
// one that is not held travels as a patch against a held node at its
// position when the set can find one (see Tree.Held). The zero HeldSet is
// empty.
type HeldSet struct {
	hint  []hashutil.Digest   // as it arrived; only each one's fingerprint counts
	index map[uint64]struct{} // the hint's fingerprints, kept once past scanLimit
	bases *bases              // nil: the hint alone, nothing to patch against
}

// NewHeldSet builds the set from a hint as it arrived; ds is not copied
// (a digest repeated in it is harmless).
func NewHeldSet(ds []hashutil.Digest) HeldSet {
	h := HeldSet{hint: ds}
	if len(ds) > scanLimit {
		h.index = make(map[uint64]struct{}, len(ds))
		for _, d := range ds {
			h.index[fingerprint(d)] = struct{}{}
		}
	}
	return h
}

// holds reports whether the hint names d's fingerprint.
func (h HeldSet) holds(d hashutil.Digest) bool {
	fp := fingerprint(d)
	if h.index != nil {
		_, ok := h.index[fp]
		return ok
	}
	for i := range h.hint {
		if fingerprint(h.hint[i]) == fp {
			return true
		}
	}
	return false
}

// Len returns the number of digests in the hint.
func (h HeldSet) Len() int { return len(h.hint) }

// Patched reports what the proofs cut against the set so far carry as
// patches: how many index nodes, and how many bytes fewer than their
// bodies.
func (h HeldSet) Patched() (nodes, saved int) {
	if h.bases == nil {
		return 0, 0
	}
	return h.bases.patched, h.bases.saved
}

// elide is the one rule for what travels, for every proof shape: an index
// node's body is left out if the verifier said it holds it, and replaced by
// a patch if the verifier holds another version of that node and the patch
// is smaller. Leaves always ship — they carry the answer and are what the
// verifier hashes fresh on every read. digests[i] must be the digest of
// nodes[i] (a proof that was decoded rather than built has none and is
// returned as it is); nodes itself is not modified. The result is the list
// as it travels — nil when that is nodes, unchanged — and the number of
// bodies left out.
func elide(nodes [][]byte, digests []hashutil.Digest, have HeldSet) (out [][]byte, elided int) {
	if len(have.hint) == 0 || len(digests) != len(nodes) {
		return nil, 0
	}
	for i, body := range nodes {
		keep, cut := body, false
		if len(body) > 0 && body[0] != 0 {
			if have.holds(digests[i]) {
				keep, cut = nil, true
				elided++
			} else if patch := have.bases.patch(digests[i], body); patch != nil {
				keep, cut = patch, true
			}
		}
		if cut && out == nil {
			out = append(make([][]byte, 0, len(nodes)), nodes[:i]...)
		}
		if out != nil && keep != nil {
			out = append(out, keep)
		}
	}
	return out, elided
}

// Elide returns a copy of p without the bodies of the index nodes the
// client already holds. p itself is not modified; the second result is the
// number of nodes elided.
func (p BatchProof) Elide(have HeldSet) (BatchProof, int) {
	nodes, n := elide(p.Nodes, p.digests, have)
	if nodes != nil {
		p.Nodes, p.digests = nodes, nil
	}
	return p, n
}

// Ask sets the keys the proof answers — the verifier's own, for a proof
// that travelled without them, one per proven read — and each found key's
// value to that key's entry among the shipped leaves: verification then
// checks the proof answers exactly those keys. Values is rewritten in
// place when it already has a slot per key. Ask reports false, and leaves
// p as it was, when the number of keys is not the number of reads the
// proof proves.
func (p *BatchProof) Ask(keys [][]byte) bool {
	if len(keys) != len(p.Found) {
		return false
	}
	var room [2]posleaf.Leaf
	leaves := shippedLeaves(p.Nodes, room[:0])
	if len(p.Values) != len(keys) {
		p.Values = make([][]byte, len(keys))
	}
	p.Keys = keys
	for i, key := range keys {
		p.Values[i] = nil
		if p.Found[i] {
			p.Values[i] = shippedValue(leaves, key)
		}
	}
	return true
}

// Node is a decoded index node that a verifier has hashed to its digest
// under the index-node domain. Only proof verification mints Nodes, so
// holding one means its routing entries are authentic for that digest —
// which is what lets a client cache them by digest and skip re-fetching
// them. A digest can only ever name the one node that hashes to it under
// that domain, whatever tree, height or position it was met at: that is
// why a set of digests is as safe a hint as a list of positions.
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

// Position returns where the node sits: what a cache files it under to
// find it again as the older version of a node it lacks.
func (n *Node) Position() Position { return n.n.position() }

// Level returns the node's level: 1 directly above the leaves.
func (n *Node) Level() int { return n.n.level }

// Child returns the digest of the child subtree key routes to and that
// child's last key — with the level below this node's, its Position; ok is
// false when key is beyond the node's largest key (the node itself then
// proves absence).
func (n *Node) Child(key []byte) (d hashutil.Digest, last []byte, ok bool) {
	i := searchEntries(n.n.entries, key)
	if i == len(n.n.entries) {
		return d, nil, false
	}
	return childDigest(n.n.entries[i]), n.n.entries[i].Key, true
}

// Children calls fn with the digest and last key of every child subtree a
// scan of [start, end) descends into, in key order (a nil end is
// unbounded).
func (n *Node) Children(start, end []byte, fn func(d hashutil.Digest, last []byte)) {
	from, to := childSpan(n.n.entries, start, end)
	for _, e := range n.n.entries[from:to] {
		fn(childDigest(e), e.Key)
	}
}

// Path is the verifier's side of one read of any shape: the verified
// index nodes it pinned before sending the request — so that a cache
// eviction cannot race the response — whose digests are what it tells the
// server it holds. It is a set keyed by digest: a point read pins the
// handful of nodes on one search path (scanned, never indexed), a batch
// or range read the nodes on all of them.
//
// Verification marks the pinned nodes the walk from the trusted root
// reached and fills Shipped with the index nodes that arrived as bodies,
// or as patches against pinned nodes (Patched counts those), and hashed
// to a digest the walk wanted. A pinned node the walk never
// reached is superseded: under this root the paths it was pinned for run
// through other nodes. A Path serves one response — the sub-proofs of a
// batch share it and accumulate into it — and when verification returns
// an error the proof is rejected as a whole and the path's results must
// be discarded.
type Path struct {
	set     digestSet // the pinned nodes' digests
	held    []pinned  // held[i] is the node set.list[i] names
	Shipped []*Node
	Patched int

	// Room for one search path's pins inside the Path itself, so a point
	// read allocates the Path and nothing else.
	small struct {
		digests [pathRoom]hashutil.Digest
		held    [pathRoom]pinned
	}
}

// pathRoom is the index path of any tree of practical height: a billion
// rows at fanout 32 is six index levels.
const pathRoom = 6

type pinned struct {
	n       *Node
	reached bool
}

// NewPath returns an empty path with room for n pinned nodes.
func NewPath(n int) *Path {
	pa := new(Path)
	if n <= pathRoom {
		pa.set.list, pa.held = pa.small.digests[:0], pa.small.held[:0]
	} else {
		pa.set.list, pa.held = make([]hashutil.Digest, 0, n), make([]pinned, 0, n)
	}
	return pa
}

// Pin adds a verified node to the set and reports whether it was new.
func (pa *Path) Pin(n *Node) bool {
	if pa.set.find(n.digest) >= 0 {
		return false
	}
	pa.set = pa.set.add(n.digest)
	pa.held = append(pa.held, pinned{n: n})
	return true
}

// Len returns the number of pinned nodes.
func (pa *Path) Len() int { return len(pa.held) }

// Have returns the digests of the pinned nodes, the hint a server elides
// against (nil when nothing is pinned). The slice is the path's own: it
// must not be modified.
func (pa *Path) Have() []hashutil.Digest {
	if len(pa.held) == 0 {
		return nil
	}
	return pa.set.list
}

// Elided returns how many pinned nodes verification resolved a wanted
// digest from — the bodies the server did not have to ship.
func (pa *Path) Elided() int {
	n := 0
	for i := range pa.held {
		if pa.held[i].reached {
			n++
		}
	}
	return n
}

// Superseded returns the pinned nodes verification never reached.
func (pa *Path) Superseded() []*Node {
	var out []*Node
	for i := range pa.held {
		if !pa.held[i].reached {
			out = append(out, pa.held[i].n)
		}
	}
	return out
}

func searchEntries(entries []Entry, key []byte) int {
	return sort.Search(len(entries), func(i int) bool {
		return bytes.Compare(entries[i].Key, key) >= 0
	})
}

// ---------------------------------------------------------------------------
// The resolver: shipped or pinned

// resolver is the one place verification of any proof shape gets its
// nodes from. Every slot the proof shipped is opened once — a body decoded,
// a patched slot rebuilt into the node and body it stands for from the
// pinned node it names (see patchMarker), either hashed to the digest its
// bytes are bound to, leaves through posleaf.Leaf.Verify — and from then on
// the walk from the trusted root asks for nodes by digest: it is handed a
// shipped body that hashed to that digest, or failing that a node the
// verifier pinned before it sent the request, or nothing. Nothing is ever
// taken from the server's say-so, and the order bodies arrived in carries
// no meaning. finish rejects a proof that shipped a body the walk never
// asked for.
type resolver struct {
	path    *Path
	set     digestSet     // the digests the shipped bodies hashed to
	shipped []shippedNode // shipped[i] is what set.list[i] names
	used    int
	patched int
}

type shippedNode struct {
	n    *node
	size int
	used bool
}

// smallProof is room for a proof of no more than scanLimit bodies — a
// point proof always — on the verifying function's stack.
type smallProof struct {
	digests [scanLimit]hashutil.Digest
	nodes   [scanLimit]shippedNode
}

// open decodes and hashes the shipped bodies, into small when they fit,
// and returns the resolver over them. A body that does not decode (an
// empty one included), a patch that does not apply to a node path pinned,
// or two bodies that hash to one digest — which would let an unasked-for
// node hide behind an asked-for one — reject the proof.
func open(bodies [][]byte, path *Path, small *smallProof) (resolver, error) {
	r := resolver{path: path, set: digestSet{list: small.digests[:0]}, shipped: small.nodes[:0]}
	if len(bodies) > scanLimit {
		r.set = digestSet{list: make([]hashutil.Digest, 0, len(bodies)), index: make(map[hashutil.Digest]int, len(bodies))}
		r.shipped = make([]shippedNode, 0, len(bodies))
	}
	for _, body := range bodies {
		var n *node
		var d hashutil.Digest
		var err error
		if len(body) > 0 && body[0] == patchMarker {
			if n, body, err = rebuild(body, path); err == nil {
				d = hashutil.Sum(hashutil.DomainPOSIndex, body)
				r.patched++
			}
		} else {
			n, d, err = openNode(body)
		}
		if err != nil || r.set.find(d) >= 0 {
			return resolver{}, ErrProofInvalid
		}
		r.set = r.set.add(d)
		r.shipped = append(r.shipped, shippedNode{n: n, size: nodeSize(n, body)})
	}
	return r, nil
}

// node returns the node with digest want, which must sit at level (-1:
// the root, whose level is not known beforehand): levels strictly
// descend, so a walk cannot be led in circles.
func (r *resolver) node(want hashutil.Digest, level int) (*node, error) {
	var n *node
	if i := r.set.find(want); i >= 0 {
		s := &r.shipped[i]
		if !s.used {
			s.used = true
			r.used++
		}
		n = s.n
	} else if r.path != nil {
		if i := r.path.set.find(want); i >= 0 {
			r.path.held[i].reached = true
			n = r.path.held[i].n.n
		}
	}
	if n == nil || (level >= 0 && n.level != level) {
		return nil, ErrProofInvalid
	}
	return n, nil
}

// finish closes a verification that succeeded so far: every shipped body
// must have been asked for, and the index nodes among them are handed to
// the path as verified Nodes.
func (r *resolver) finish() error {
	if r.used != len(r.shipped) {
		return ErrProofInvalid // extra unvisited nodes smuggled in
	}
	if r.path != nil {
		for i := range r.shipped {
			if s := &r.shipped[i]; s.n.level > 0 {
				r.path.Shipped = append(r.path.Shipped, &Node{digest: r.set.list[i], n: s.n, size: s.size})
			}
		}
		r.path.Patched += r.patched
	}
	return nil
}

// get reruns the search for key from root. The answer is read off shipped
// entries only: nothing about the entries of a leaf that were not shipped
// is trusted, so an absence needs both neighbours of the gap in hand (or
// the leaf's own edge, which the count in its digest fixes).
func (r *resolver) get(root hashutil.Digest, key []byte) (value []byte, found bool, err error) {
	want, level := root, -1
	for {
		n, err := r.node(want, level)
		if err != nil {
			return nil, false, err
		}
		i := searchEntries(n.entries, key)
		if n.level == 0 {
			if i < len(n.entries) && bytes.Equal(n.entries[i].Key, key) {
				return n.entries[i].Value, true, nil
			}
			if !n.brackets(i, i) {
				return nil, false, ErrProofInvalid
			}
			return nil, false, nil
		}
		if i == len(n.entries) {
			return nil, false, nil // absence proven by the index node: key exceeds its max key
		}
		want, level = childDigest(n.entries[i]), n.level-1
	}
}

// scan reruns the scan of [start, end) below want and appends the entries
// in range to out. Every leaf it reaches must show where the range's
// entries in that leaf begin and end — see brackets — so a proven range
// is proven complete: interior leaves arrive whole, edge leaves with the
// entry on the far side of each cut.
func (r *resolver) scan(want hashutil.Digest, level int, start, end []byte, out *[]Entry) error {
	n, err := r.node(want, level)
	if err != nil {
		return err
	}
	if n.level == 0 {
		a, b := leafSpan(n.entries, start, end)
		if !n.brackets(a, b) {
			return ErrProofInvalid
		}
		*out = append(*out, n.entries[a:b]...)
		return nil
	}
	from, to := childSpan(n.entries, start, end)
	for _, e := range n.entries[from:to] {
		if err := r.scan(childDigest(e), n.level-1, start, end, out); err != nil {
			return err
		}
	}
	return nil
}

// brackets reports whether the entries present of a (possibly pruned)
// leaf show both ends of the run [a, b) of them a search or scan picked
// out: the entry before position a and the entry at position b must each
// be present, or beyond the leaf's own edge. The entries present are a
// contiguous run, so between two of them nothing is hidden; but where the
// run stops short of the leaf's edge it says nothing about what the next
// entry holds. For a point miss a == b: the gap the key would sit in.
func (n *node) brackets(a, b int) bool {
	before := a > 0 || n.first == 0
	after := b < len(n.entries) || n.first+len(n.entries) == n.count
	return before && after
}

// leafSpan returns the positions [a, b) of the entries with keys in
// [start, end); a nil end is unbounded.
func leafSpan(entries []Entry, start, end []byte) (a, b int) {
	a = searchEntries(entries, start)
	if end == nil {
		return a, len(entries)
	}
	return a, a + searchEntries(entries[a:], end)
}

// childSpan returns the positions [from, to) of the routing entries whose
// subtrees may hold keys in [start, end): a child's entry carries its
// largest key, so the first child of interest is the first whose key is
// at or past start, and the last the first whose key is at or past end.
func childSpan(entries []Entry, start, end []byte) (from, to int) {
	from, to = searchEntries(entries, start), len(entries)
	if end != nil {
		to = min(searchEntries(entries, end)+1, len(entries))
	}
	return from, max(from, to)
}

// Verify checks the proof against a trusted root digest. On success the
// caller may trust every (Keys[i], Values[i], Found[i]) triple as of the
// state committed by root. Verification is all-or-nothing: a corrupt
// shared node fails every read whose path crosses it — and because the
// proof is rejected as a whole, every covered read is rejected. Every node
// must be shipped: it is VerifyPath with nothing pinned.
func (p BatchProof) Verify(root hashutil.Digest) error {
	return p.VerifyPath(root, nil)
}

// VerifyPath is Verify for a verifier that may already hold some of the
// index nodes on the keys' search paths (path may be nil). Each key's
// search starts at the trusted root and follows child digests exactly as
// for a full proof; the resolver hands it each node from a shipped body,
// which must hash to the wanted digest, or from the verifier's own pinned
// nodes — never on the server's say-so. Leaves are never pinned, so they
// are always hashed fresh: the entries shipped and their siblings up to
// the digest the parent routes to.
func (p BatchProof) VerifyPath(root hashutil.Digest, path *Path) error {
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
	var small smallProof
	r, err := open(p.Nodes, path, &small)
	if err != nil {
		return err
	}
	for i, key := range p.Keys {
		value, found, err := r.get(root, key)
		if err != nil {
			return err
		}
		if found != p.Found[i] || !bytes.Equal(value, p.Values[i]) {
			return ErrProofInvalid
		}
	}
	return r.finish()
}

// RangeProof proves that Entries is exactly the set of entries in
// [Start, End) under a root. It carries the bodies of the nodes the range
// scan visited; shared path prefixes are included once, which is why
// verified range queries in Spitz amortize so much better than per-record
// proofs (Figure 7). Interior leaves are all answer and travel with every
// entry and no sibling; the leaves at the two edges of the range are pruned
// to their in-range entries plus the one neighbouring entry on each side
// that shows nothing was cut off.
//
// ProveScan fills Entries; Verify fills it again from the verified
// leaves, ignoring whatever it held, so the rows do not travel beside the
// leaves that contain them: the codec leaves them out.
type RangeProof struct {
	Start, End []byte
	Entries    []Entry
	Nodes      [][]byte // bodies of the visited nodes; ProveScan lists them in preorder

	digests []hashutil.Digest // digests[i] addresses Nodes[i]; see BatchProof
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
	p.digests = append(p.digests, d)
	if n.level == 0 {
		a, b := leafSpan(n.entries, p.Start, p.End)
		if err := t.checkRun(d, body, n, a, b); err != nil {
			return fmt.Errorf("postree: prove scan: %w", err)
		}
		p.Entries = append(p.Entries, n.entries[a:b]...)
		// The in-range entries and one neighbour on each side, as far as
		// the leaf has them: what brackets demands of this leaf.
		if body, err = posleaf.Prune(body, max(a-1, 0), min(b, len(n.entries)-1)); err != nil {
			return fmt.Errorf("postree: prove scan: %w", err)
		}
		p.Nodes = append(p.Nodes, body)
		return nil
	}
	p.Nodes = append(p.Nodes, body)
	from, to := childSpan(n.entries, p.Start, p.End)
	for _, e := range n.entries[from:to] {
		if err := t.proveScanNode(childDigest(e), p); err != nil {
			return err
		}
	}
	return nil
}

// Elide is BatchProof.Elide for a range proof.
func (p RangeProof) Elide(have HeldSet) (RangeProof, int) {
	nodes, n := elide(p.Nodes, p.digests, have)
	if nodes != nil {
		p.Nodes, p.digests = nodes, nil
	}
	return p, n
}

// WithoutEntries returns the proof as it travels: the verifier reads the
// rows off the leaves it verifies, so shipping them a second time would
// only add bytes it must not trust.
func (p RangeProof) WithoutEntries() RangeProof {
	p.Entries = nil
	return p
}

// Verify checks the range proof against a trusted root and sets p.Entries
// to the complete, untampered result of scanning [p.Start, p.End), read
// off the verified leaves. Every node must be shipped.
func (p *RangeProof) Verify(root hashutil.Digest) error {
	return p.VerifyPath(root, nil)
}

// VerifyPath is Verify for a verifier that may hold some of the scan's
// index nodes (see BatchProof.VerifyPath). On an error p.Entries is left
// empty.
func (p *RangeProof) VerifyPath(root hashutil.Digest, path *Path) error {
	p.Entries = nil
	if root.IsZero() {
		if len(p.Nodes) != 0 {
			return ErrProofInvalid
		}
		return nil
	}
	var small smallProof
	r, err := open(p.Nodes, path, &small)
	if err != nil {
		return err
	}
	var entries []Entry
	if err := r.scan(root, -1, p.Start, p.End, &entries); err != nil {
		return err
	}
	if err := r.finish(); err != nil {
		return err
	}
	p.Entries = entries
	return nil
}
