package proof

// The verifier's half of the POS-tree (internal/postree builds it): node
// decoding, the point and range proofs and their checks, the resolver every
// check gets its nodes from, patched slots, and the proofs' decoders. The
// builder encodes nodes and proofs with the same layouts and reuses the
// decoding and search helpers here on its own stored nodes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sort"

	"spitz/internal/binenc"
	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
)

// ErrProofInvalid means a proof does not hash to the trusted root or is
// internally inconsistent: the data or the execution was tampered with.
var ErrProofInvalid = errors.New("proof: proof verification failed")

const (
	// MaxHeight bounds a tree's height (fanout 32 ⇒ 32^16 entries, far
	// beyond anything addressable): no search path is longer.
	MaxHeight = 16
	// MaxFanout is a safety valve against adversarial inputs; with random
	// content it is effectively never reached ((31/32)^1024 ≈ e^-32).
	MaxFanout = 1024
	// MaxHave bounds the hint of one read — the digests of the nodes its
	// verifier pinned, Path.Have — for the client that builds it and the
	// decoder that receives it alike: a thousand digests name more index
	// nodes than a batch of a few hundred keys walks through, and cost a
	// request 32 KiB.
	MaxHave = 1024
)

// Entry is a key/value pair stored in the tree. Keys are unique.
type Entry struct {
	Key   []byte
	Value []byte
}

// Node is a decoded tree node. Leaves (level 0) hold data entries; index
// nodes at level L hold routing entries whose Key is the largest key in
// the child subtree and whose Value is the 32-byte child digest followed
// by the 8-byte big-endian subtree entry count.
//
// A leaf decoded from the pruned form a proof carries holds only the run
// of entries that was shipped: First is the position in the leaf of
// Entries[0] and Count the leaf's true entry count (0 and len(Entries) for
// a leaf decoded whole; neither is set on other nodes).
type Node struct {
	Level   int
	Entries []Entry
	First   int
	Count   int
}

// ChildDigest returns the digest of the subtree a routing entry names.
func ChildDigest(e Entry) hashutil.Digest {
	var d hashutil.Digest
	copy(d[:], e.Value[:hashutil.DigestSize])
	return d
}

// entryHeaderBytes is the in-memory size of a decoded Entry: two slice
// headers on a 64-bit host.
const entryHeaderBytes = 48

// Size is the memory a cache holding the node keeps alive: the serialized
// body its entries point into, plus the decoded entry headers.
func (n *Node) Size(body []byte) int {
	return len(body) + cap(n.Entries)*entryHeaderBytes
}

// Last returns the node's largest key; a stored node has entries.
func (n *Node) Last() []byte { return n.Entries[len(n.Entries)-1].Key }

// Position is a place in a tree that outlives the node sitting there: an
// index level and the last (largest) key below the node, which is also the
// key its parent routes to it by. Node boundaries are content defined — a
// node ends at an entry whose hash matches the pattern — so rewriting a
// node's entries leaves its last key, and with it its position, where it
// was, unless the rewrite splits or merges it. Two nodes at one position
// are versions of each other, and mostly differ in an entry or two.
type Position struct {
	Level int
	Last  string
}

// Position is where an index node sits.
func (n *Node) Position() Position {
	return Position{Level: n.Level, Last: string(n.Last())}
}

// Search returns the position of the first entry whose key is at or past
// key.
func Search(entries []Entry, key []byte) int {
	return sort.Search(len(entries), func(i int) bool {
		return bytes.Compare(entries[i].Key, key) >= 0
	})
}

// LeafSpan returns the positions [a, b) of the entries with keys in
// [start, end); a nil end is unbounded.
func LeafSpan(entries []Entry, start, end []byte) (a, b int) {
	a = Search(entries, start)
	if end == nil {
		return a, len(entries)
	}
	return a, a + Search(entries[a:], end)
}

// ChildSpan returns the positions [from, to) of the routing entries whose
// subtrees may hold keys in [start, end): a child's entry carries its
// largest key, so the first child of interest is the first whose key is
// at or past start, and the last the first whose key is at or past end.
func ChildSpan(entries []Entry, start, end []byte) (from, to int) {
	from, to = Search(entries, start), len(entries)
	if end != nil {
		to = min(Search(entries, end)+1, len(entries))
	}
	return from, max(from, to)
}

// Brackets reports whether the entries present of a (possibly pruned)
// leaf show both ends of the run [a, b) of them a search or scan picked
// out: the entry before position a and the entry at position b must each
// be present, or beyond the leaf's own edge. The entries present are a
// contiguous run, so between two of them nothing is hidden; but where the
// run stops short of the leaf's edge it says nothing about what the next
// entry holds. For a point miss a == b: the gap the key would sit in.
func (n *Node) Brackets(a, b int) bool {
	before := a > 0 || n.First == 0
	after := b < len(n.Entries) || n.First+len(n.Entries) == n.Count
	return before && after
}

// DecodeNode decodes a whole node body. Nothing is hashed: bodies that
// arrive in proofs go through OpenNode.
func DecodeNode(data []byte) (*Node, error) {
	if len(data) < 2 {
		return nil, errors.New("proof: node too short")
	}
	if data[0] == 0 {
		l, err := posleaf.Parse(data)
		if err != nil {
			return nil, err
		}
		return decodeLeaf(l)
	}
	n := &Node{Level: int(data[0])}
	cnt, k := binary.Uvarint(data[1:])
	if k <= 0 {
		return nil, errors.New("proof: bad entry count")
	}
	rest := data[1+k:]
	// Bodies arrive in proofs from an untrusted server: an entry costs at
	// least its two length bytes, so bound the count before allocating.
	if cnt > uint64(len(rest))/2 {
		return nil, errors.New("proof: entry count beyond node size")
	}
	n.Entries = make([]Entry, cnt)
	for i := range n.Entries {
		var err error
		e := &n.Entries[i]
		if e.Key, e.Value, rest, err = posleaf.ReadEntry(rest); err != nil {
			return nil, errors.New("proof: bad entry length")
		}
		if len(e.Value) != hashutil.DigestSize+8 {
			return nil, errors.New("proof: bad index entry value size")
		}
	}
	if len(rest) != 0 {
		return nil, errors.New("proof: trailing bytes in node")
	}
	return n, nil
}

// decodeLeaf decodes the entries present of a parsed leaf, whose number
// posleaf bounded by the bytes they take.
func decodeLeaf(l posleaf.Leaf) (*Node, error) {
	n := &Node{Entries: make([]Entry, l.N), First: l.First, Count: l.Count}
	rest := l.Entries
	for i := range n.Entries {
		var err error
		e := &n.Entries[i]
		if e.Key, e.Value, rest, err = posleaf.ReadEntry(rest); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, errors.New("proof: trailing bytes in node")
	}
	return n, nil
}

// OpenNode decodes a node body that arrived in a proof and returns the
// digest its bytes are bound to, which the caller compares with the digest
// it expected: an index node hashes whole under the index domain; a leaf's
// digest is recomputed from the entries present and the siblings beside
// them (posleaf.Leaf.Verify — the same function a stored leaf passes when
// it is read back from disk). Proofs of every shape carry leaves in the
// pruned form, where only a run of the entries need be present.
func OpenNode(body []byte) (*Node, hashutil.Digest, error) {
	if len(body) == 0 || body[0] != 0 {
		n, err := DecodeNode(body)
		if err != nil {
			return nil, hashutil.Digest{}, err
		}
		return n, hashutil.Sum(hashutil.DomainPOSIndex, body), nil
	}
	l, err := posleaf.ParsePruned(body)
	if err != nil {
		return nil, hashutil.Digest{}, err
	}
	d, err := l.Verify()
	if err != nil {
		return nil, hashutil.Digest{}, err
	}
	n, err := decodeLeaf(l)
	return n, d, err
}

// IndexNode encodes an index node of the given entries — level | count |
// entries, allocated at its exact size — and returns it decoded the way a
// cache keeps it: with entries that point into the body and nowhere else.
// The entries it was encoded from alias whatever they were merged from —
// the bodies of the nodes this one replaces, fresh routing values, keys of
// leaves — and a cached node holding on to those would pin a chain of
// superseded bodies the cache does not account for. The lengths are
// known, so nothing is parsed.
func IndexNode(level int, entries []Entry) (*Node, []byte) {
	size := 0
	for _, e := range entries {
		size += posleaf.EntrySize(e.Key, e.Value)
	}
	body := make([]byte, 0, 1+posleaf.UvarintLen(len(entries))+size)
	body = append(body, byte(level))
	body = binary.AppendUvarint(body, uint64(len(entries)))
	n := &Node{Level: level, Entries: make([]Entry, len(entries))}
	for i, e := range entries {
		body = posleaf.AppendEntry(body, e.Key, e.Value) // within capacity: never moves
		v := len(body) - len(e.Value)
		k := v - posleaf.UvarintLen(len(e.Value)) - len(e.Key)
		n.Entries[i] = Entry{Key: body[k : k+len(e.Key)], Value: body[v:]}
	}
	return n, body
}

// ---------------------------------------------------------------------------
// Digest sets

// ScanLimit is the size up to which a set of digests is searched by
// scanning it; larger sets are indexed by a map. A point read's path is
// the small case and never allocates one.
const ScanLimit = 8

// DigestSet is a list of distinct node digests that can be asked where a
// digest sits in it: the nodes a verifier pinned, the bodies a proof
// shipped and the nodes a prover visited are each one of these, beside a
// parallel slice of what the digest names.
type DigestSet struct {
	List  []hashutil.Digest
	index map[hashutil.Digest]int // position in List, kept once past ScanLimit
}

// Find returns d's position, or -1.
func (s DigestSet) Find(d hashutil.Digest) int {
	if s.index != nil {
		if i, ok := s.index[d]; ok {
			return i
		}
		return -1
	}
	for i := range s.List {
		if s.List[i] == d {
			return i
		}
	}
	return -1
}

// Add returns the set with d, which must not be in it, appended.
func (s DigestSet) Add(d hashutil.Digest) DigestSet {
	s.List = append(s.List, d)
	if s.index != nil {
		s.index[d] = len(s.List) - 1
	} else if len(s.List) > ScanLimit {
		s.index = make(map[hashutil.Digest]int, 4*len(s.List))
		for i, d := range s.List {
			s.index[d] = i
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// Proofs

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
// is nil when Found[i] is false. The prover fills all three; only the keys
// may travel, so a decoded proof's Values and Found are nil, and the walk
// decides them. Nodes is a set: the verifier finds each node it wants by
// the digest the body hashes to, so the bodies of index nodes the verifier
// said it holds are simply left out (see Path). Leaves are never left out.
type BatchProof struct {
	Keys   [][]byte
	Values [][]byte
	Found  []bool
	Nodes  [][]byte // bodies of every visited node, each once

	// Digests[i] is the content address the prover loaded Nodes[i] from.
	// It never crosses the wire: the prover compares it with what a client
	// says it holds, so it neither re-hashes nor decodes to elide.
	Digests []hashutil.Digest
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
// index nodes on the keys' search paths (path may be nil): the walk of the
// proof's own keys, with each value it carries compared with the one the
// walk reaches. A proof that carries no values (a decoded one: they do
// not travel) claims nothing but what its nodes hash to.
func (p BatchProof) VerifyPath(root hashutil.Digest, path *Path) error {
	if p.Values != nil && len(p.Values) != len(p.Keys) {
		return ErrProofInvalid
	}
	return p.walk(root, path, p.Keys, func(i int, value []byte, _ bool) error {
		if p.Values != nil && !bytes.Equal(value, p.Values[i]) {
			return ErrProofInvalid
		}
		return nil
	})
}

// walk reruns the search for each of keys from root, in order, through
// one resolver over the shipped bodies and path's pinned nodes, and hands
// visit each key's answer: its entry's value and true, or nil and false.
// Each search starts at the trusted root and follows child digests; the
// resolver hands it each node from a shipped body, which must hash to the
// wanted digest, or from the verifier's own pinned nodes — never on the
// server's say-so. Leaves are never pinned, so they are always hashed
// fresh: the entries shipped and their siblings up to the digest the
// parent routes to. Keys and found flags the proof carries (a prover's
// does) must be these keys and what each search found.
func (p *BatchProof) walk(root hashutil.Digest, path *Path, keys [][]byte, visit func(i int, value []byte, found bool) error) error {
	if (p.Found != nil && len(p.Found) != len(keys)) || (p.Keys != nil && len(p.Keys) != len(keys)) {
		return ErrProofInvalid
	}
	var small smallProof
	var r resolver
	if !root.IsZero() {
		var err error
		if r, err = open(p.Nodes, path, &small); err != nil {
			return err
		}
	} else if len(p.Nodes) != 0 {
		return ErrProofInvalid // an empty tree is proven by no node at all
	}
	for i, key := range keys {
		if p.Keys != nil && !bytes.Equal(p.Keys[i], key) {
			return ErrProofInvalid
		}
		var value []byte
		found := false
		if !root.IsZero() {
			var err error
			if value, found, err = r.get(root, key); err != nil {
				return err
			}
		}
		if p.Found != nil && found != p.Found[i] {
			return ErrProofInvalid
		}
		if err := visit(i, value, found); err != nil {
			return err
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
// The prover fills Entries; Verify fills it again from the verified
// leaves, ignoring whatever it held, so the rows do not travel beside the
// leaves that contain them: the codec leaves them out.
type RangeProof struct {
	Start, End []byte
	Entries    []Entry
	Nodes      [][]byte // bodies of the visited nodes, in preorder as proven

	Digests []hashutil.Digest // Digests[i] addresses Nodes[i]; see BatchProof
}

// Verify checks the range proof against a trusted root and sets p.Entries
// to the complete, untampered result of scanning [p.Start, p.End), read
// off the verified leaves. Every node must be shipped.
func (p *RangeProof) Verify(root hashutil.Digest) error {
	return p.VerifyPath(root, nil)
}

// VerifyPath is Verify for a verifier that may hold some of the scan's
// index nodes (see BatchProof.VerifyPath): the walk of the proof's own
// bounds. On an error p.Entries is left empty.
func (p *RangeProof) VerifyPath(root hashutil.Digest, path *Path) error {
	p.Entries = nil
	entries, err := p.walk(root, path, p.Start, p.End)
	if err == nil {
		p.Entries = entries
	}
	return err
}

// walk reruns the scan of [start, end) from root through one resolver
// over the shipped bodies and path's pinned nodes, and returns the entries
// in range, read off the verified leaves. Bounds the proof carries must be
// these.
func (p *RangeProof) walk(root hashutil.Digest, path *Path, start, end []byte) ([]Entry, error) {
	if (p.Start != nil || p.End != nil) && (!bytes.Equal(p.Start, start) || !bytes.Equal(p.End, end)) {
		return nil, ErrProofInvalid
	}
	if root.IsZero() {
		if len(p.Nodes) != 0 {
			return nil, ErrProofInvalid
		}
		return nil, nil
	}
	var small smallProof
	r, err := open(p.Nodes, path, &small)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := r.scan(root, -1, start, end, &entries); err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return entries, nil
}

// ReadRangeProof decodes a range proof; Entries is Verify's to fill.
func ReadRangeProof(src []byte) (RangeProof, []byte, error) {
	d := binenc.Decoder{Src: src}
	p := RangeProof{Start: binenc.Read(&d, binenc.ReadBytes), End: binenc.Read(&d, binenc.ReadBytes), Nodes: binenc.Read(&d, binenc.ReadByteSlices)}
	return p, d.Src, d.Err
}

// ReadBatchProof decodes a point proof: its keys (none when it travelled
// without them) and node bodies. Values and found flags do not travel:
// what a proof proves travels once, inside the leaves that prove it, and
// is read off the walk that verifies it.
func ReadBatchProof(src []byte) (BatchProof, []byte, error) {
	d := binenc.Decoder{Src: src}
	p := BatchProof{Keys: binenc.Read(&d, binenc.ReadByteSlices), Nodes: binenc.Read(&d, binenc.ReadByteSlices)}
	return p, d.Src, d.Err
}

// ---------------------------------------------------------------------------
// What the verifier holds

// Verified is an index node a verifier hashed to its digest under the
// index-node domain. Only verification mints one, so holding one means its
// routing entries are authentic for that digest — which is what lets a
// client cache them by digest and skip re-fetching them. A digest can only
// ever name the one node that hashes to it under that domain, whatever
// tree, height or position it was met at: that is why a set of digests is
// as safe a hint as a list of positions.
type Verified struct {
	digest hashutil.Digest
	node   *Node
	size   int // Node.Size of it and its body
}

// Digest returns the node's content address.
func (v *Verified) Digest() hashutil.Digest { return v.digest }

// Node returns the decoded node; it must not be modified.
func (v *Verified) Node() *Node { return v.node }

// Size returns the memory a cache holding the node keeps alive.
func (v *Verified) Size() int { return v.size }

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
	set     DigestSet // the pinned nodes' digests
	held    []pinned  // held[i] is the node set.List[i] names
	Shipped []*Verified
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
	n       *Verified
	reached bool
}

// NewPath returns an empty path with room for n pinned nodes.
func NewPath(n int) *Path {
	pa := new(Path)
	if n <= pathRoom {
		pa.set.List, pa.held = pa.small.digests[:0], pa.small.held[:0]
	} else {
		pa.set.List, pa.held = make([]hashutil.Digest, 0, n), make([]pinned, 0, n)
	}
	return pa
}

// Pin adds a verified node to the set and reports whether it was new.
func (pa *Path) Pin(n *Verified) bool {
	if pa.set.Find(n.digest) >= 0 {
		return false
	}
	pa.set = pa.set.Add(n.digest)
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
	return pa.set.List
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
func (pa *Path) Superseded() []*Verified {
	var out []*Verified
	for i := range pa.held {
		if !pa.held[i].reached {
			out = append(out, pa.held[i].n)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// The resolver: shipped or pinned

// resolver is the one place verification of any proof shape gets its
// nodes from. Every slot the proof shipped is opened once — a body decoded,
// a patched slot rebuilt into the node and body it stands for from the
// pinned node it names (see PatchMarker), either hashed to the digest its
// bytes are bound to, leaves through posleaf.Leaf.Verify — and from then on
// the walk from the trusted root asks for nodes by digest: it is handed a
// shipped body that hashed to that digest, or failing that a node the
// verifier pinned before it sent the request, or nothing. Nothing is ever
// taken from the server's say-so, and the order bodies arrived in carries
// no meaning. finish rejects a proof that shipped a body the walk never
// asked for.
type resolver struct {
	path    *Path
	set     DigestSet     // the digests the shipped bodies hashed to
	shipped []shippedNode // shipped[i] is what set.List[i] names
	used    int
	patched int
}

type shippedNode struct {
	n    *Node
	size int
	used bool
}

// smallProof is room for a proof of no more than ScanLimit bodies — a
// point proof always — on the verifying function's stack.
type smallProof struct {
	digests [ScanLimit]hashutil.Digest
	nodes   [ScanLimit]shippedNode
}

// open decodes and hashes the shipped bodies, into small when they fit,
// and returns the resolver over them. A body that does not decode (an
// empty one included), a patch that does not apply to a node path pinned,
// or two bodies that hash to one digest — which would let an unasked-for
// node hide behind an asked-for one — reject the proof.
func open(bodies [][]byte, path *Path, small *smallProof) (resolver, error) {
	r := resolver{path: path, set: DigestSet{List: small.digests[:0]}, shipped: small.nodes[:0]}
	if len(bodies) > ScanLimit {
		r.set = DigestSet{List: make([]hashutil.Digest, 0, len(bodies)), index: make(map[hashutil.Digest]int, len(bodies))}
		r.shipped = make([]shippedNode, 0, len(bodies))
	}
	for _, body := range bodies {
		var n *Node
		var d hashutil.Digest
		var err error
		if len(body) > 0 && body[0] == PatchMarker {
			if n, body, err = rebuild(body, path); err == nil {
				d = hashutil.Sum(hashutil.DomainPOSIndex, body)
				r.patched++
			}
		} else {
			n, d, err = OpenNode(body)
		}
		if err != nil || r.set.Find(d) >= 0 {
			return resolver{}, ErrProofInvalid
		}
		r.set = r.set.Add(d)
		r.shipped = append(r.shipped, shippedNode{n: n, size: n.Size(body)})
	}
	return r, nil
}

// node returns the node with digest want, which must sit at level (-1:
// the root, whose level is not known beforehand): levels strictly
// descend, so a walk cannot be led in circles.
func (r *resolver) node(want hashutil.Digest, level int) (*Node, error) {
	var n *Node
	if i := r.set.Find(want); i >= 0 {
		s := &r.shipped[i]
		if !s.used {
			s.used = true
			r.used++
		}
		n = s.n
	} else if r.path != nil {
		if i := r.path.set.Find(want); i >= 0 {
			r.path.held[i].reached = true
			n = r.path.held[i].n.node
		}
	}
	if n == nil || (level >= 0 && n.Level != level) {
		return nil, ErrProofInvalid
	}
	return n, nil
}

// finish closes a verification that succeeded so far: every shipped body
// must have been asked for, and the index nodes among them are handed to
// the path as Verified nodes.
func (r *resolver) finish() error {
	if r.used != len(r.shipped) {
		return ErrProofInvalid // extra unvisited nodes smuggled in
	}
	if r.path != nil {
		for i := range r.shipped {
			if s := &r.shipped[i]; s.n.Level > 0 {
				r.path.Shipped = append(r.path.Shipped, &Verified{digest: r.set.List[i], node: s.n, size: s.size})
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
		i := Search(n.Entries, key)
		if n.Level == 0 {
			if i < len(n.Entries) && bytes.Equal(n.Entries[i].Key, key) {
				return n.Entries[i].Value, true, nil
			}
			if !n.Brackets(i, i) {
				return nil, false, ErrProofInvalid
			}
			return nil, false, nil
		}
		if i == len(n.Entries) {
			return nil, false, nil // absence proven by the index node: key exceeds its max key
		}
		want, level = ChildDigest(n.Entries[i]), n.Level-1
	}
}

// scan reruns the scan of [start, end) below want and appends the entries
// in range to out. Every leaf it reaches must show where the range's
// entries in that leaf begin and end — see Brackets — so a proven range
// is proven complete: interior leaves arrive whole, edge leaves with the
// entry on the far side of each cut.
func (r *resolver) scan(want hashutil.Digest, level int, start, end []byte, out *[]Entry) error {
	n, err := r.node(want, level)
	if err != nil {
		return err
	}
	if n.Level == 0 {
		a, b := LeafSpan(n.Entries, start, end)
		if !n.Brackets(a, b) {
			return ErrProofInvalid
		}
		*out = append(*out, n.Entries[a:b]...)
		return nil
	}
	from, to := ChildSpan(n.Entries, start, end)
	for _, e := range n.Entries[from:to] {
		if err := r.scan(ChildDigest(e), n.Level-1, start, end, out); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Patched slots

// PatchMarker opens a patched slot: an index node a proof carries as the
// difference from a version of it the verifier already holds.
//
//	slot := PatchMarker | base digest [32]byte | edit …   (to the end of the slot)
//	edit := (index<<2 | op) uvarint | operand
//
// index counts the base's entries. PatchSet's operand is an entry with an
// empty key: the base's entry at index keeps its key and takes the value.
// PatchInsert's is a whole entry, which goes in before the base's entry at
// index (after the last when index is their number). PatchDelete has none:
// the base's entry at index is dropped. Edits come in ascending order of
// index, inserts at an index before the set or delete of it, so one pass
// over the base rebuilds the node.
//
// A patch is a way of writing a body down, nothing more: the verifier
// rebuilds the body, hashes it under the index domain and from there treats
// it as any shipped body — wanted by the walk from the trusted root under
// exactly that digest, or the proof is rejected. The base must be one of
// the nodes the verifier pinned for this very request.
const PatchMarker = 0xFF // no body starts with it: a body's first byte is its level, below MaxHeight

// The edit ops of a patched slot.
const (
	PatchSet = iota
	PatchInsert
	PatchDelete
)

// ApplyEdits appends to dst the entries a patch's edits make of base, an
// index node's. Nothing is sized by a number the patch states — the result
// grows by the entries the edits spell out — and it stops at MaxFanout
// entries, which no node has more of, so a long slot of tiny inserts costs
// no more than a short one. A value the edits bring must have the size of a
// routing entry's, as DecodeNode demands of a body's.
func ApplyEdits(dst []Entry, edits []byte, base []Entry) ([]Entry, error) {
	out := dst
	next := 0 // the base's entries before next are dealt with
	for len(edits) > 0 {
		tag, k := binary.Uvarint(edits)
		if k <= 0 || tag>>2 < uint64(next) || tag>>2 > uint64(len(base)) {
			return nil, ErrProofInvalid
		}
		edits = edits[k:]
		at, op := int(tag>>2), int(tag&3)
		out = append(out, base[next:at]...)
		next = at
		if op != PatchInsert {
			if at == len(base) {
				return nil, ErrProofInvalid
			}
			next++
		}
		if op == PatchDelete {
			continue
		}
		var e Entry
		var err error
		if e.Key, e.Value, edits, err = posleaf.ReadEntry(edits); err != nil || len(e.Value) != hashutil.DigestSize+8 {
			return nil, ErrProofInvalid
		}
		switch {
		case op == PatchSet && len(e.Key) == 0:
			e.Key = base[at].Key
		case op != PatchInsert:
			return nil, ErrProofInvalid
		}
		if out = append(out, e); len(out) > MaxFanout {
			return nil, ErrProofInvalid
		}
	}
	if out = append(out, base[next:]...); len(out) > MaxFanout {
		return nil, ErrProofInvalid
	}
	return out, nil
}

// rebuild returns the index node a patched slot stands for, made from the
// base it names among the nodes path pinned, and its body. Entries and body
// share no memory with the base or the slot.
func rebuild(slot []byte, path *Path) (*Node, []byte, error) {
	var d hashutil.Digest
	if path == nil || len(slot) < 1+len(d) {
		return nil, nil, ErrProofInvalid
	}
	copy(d[:], slot[1:])
	i := path.set.Find(d)
	if i < 0 || path.held[i].n.node.Level == 0 {
		return nil, nil, ErrProofInvalid
	}
	base := path.held[i].n.node
	var room [64]Entry // the entries of a node of the usual size or twice it, on the stack
	entries, err := ApplyEdits(room[:0], slot[1+len(d):], base.Entries)
	if err != nil {
		return nil, nil, err
	}
	n, body := IndexNode(base.Level, entries)
	return n, body, nil
}
