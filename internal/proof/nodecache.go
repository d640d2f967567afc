package proof

import (
	"container/list"
	"sync"

	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/obs"
	"spitz/internal/postree"
)

// nodeCacheBytes caps the verified index nodes one Verifier keeps,
// counted as the memory they hold (postree.Node.Size: serialized body
// plus decoded entries). Index nodes are ~1/32 of a tree, so 2 MiB
// covers the whole interior of a database of a few hundred thousand rows
// (about 200 nodes, 444 KB of bodies, at 200k rows) and the hot interior
// of a larger one.
const nodeCacheBytes = 2 << 20

// Client-side proof traffic, summed over every Verifier in the process:
// what point, range and batch proofs cost on the wire and how much of it the
// node cache saved. Per-Verifier figures are Verifier.ProofStats.
var (
	mNodesShipped   = obs.Default.Counter("spitz_client_proof_nodes_shipped_total")
	mNodesPatched   = obs.Default.Counter("spitz_client_proof_nodes_patched_total")
	mNodesElided    = obs.Default.Counter("spitz_client_proof_nodes_elided_total")
	mProofBytes     = obs.Default.Counter("spitz_client_proof_bytes_total")
	mBindingsElided = obs.Default.Counter("spitz_client_bindings_elided_total") // proofs without their block binding
	mCacheEntries   = obs.Default.Gauge("spitz_client_nodecache_entries")
	mCacheBytes     = obs.Default.Gauge("spitz_client_nodecache_bytes")
)

// nodeCache holds index nodes (level >= 1) of the POS-trees a Verifier
// has verified proofs under, keyed by content digest. An entry is
// a postree.Node, which only proof verification mints, after the body
// hashed to the digest under the index-node domain — so entries are
// self-certifying: a digest can only ever map to the one node that
// hashes to it, whatever server, shard state or ledger height it came
// from. Nodes are copy-on-write, so the cache needs no invalidation on
// commit (a write re-ships only the path nodes it changed), only
// eviction, least recently used first.
//
// The newest node admitted at each postree.Position is also found by that
// position: where a hint walk is routed to a child the cache lacks, it
// pins the version of that child it does hold, and the server ships the
// current one as a patch against it. A stale node offered this way costs
// the request its digest and nothing else — the response is verified from
// the trusted root whatever was offered.
type nodeCache struct {
	mu    sync.Mutex
	root  hashutil.Digest // CellRoot of the last proof verified: where hint walks start
	m     map[hashutil.Digest]*list.Element
	at    map[postree.Position]*list.Element // the newest cached node at each position
	lru   list.List                          // of *postree.Node, most recently used first
	bytes int
	small int // when non-zero, a byte cap below nodeCacheBytes (tests only)
}

func (c *nodeCache) limit() int {
	if c.small > 0 {
		return c.small
	}
	return nodeCacheBytes
}

// find returns the cached node with digest d or, when the cache lacks it,
// the newest one it holds at the position d's parent — a node at level
// above, routing to d by the key last — says d sits at. Callers hold mu.
func (c *nodeCache) find(d hashutil.Digest, above int, last []byte) *list.Element {
	if el, ok := c.m[d]; ok {
		return el
	}
	return c.at[postree.Position{Level: above - 1, Last: string(last)}]
}

// pathTo pins the cached nodes on the search path from the last verified
// root towards key — at each step the child the node above names, or the
// version of it the cache holds — stopping where it holds neither.
func (c *nodeCache) pathTo(key []byte) *postree.Path {
	path := postree.NewPath(0) // a search path's pins fit inside the Path
	var els [postree.MaxHeight]*list.Element
	n := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.m[c.root]; el != nil && n < len(els); {
		node := el.Value.(*postree.Node)
		els[n] = el
		n++
		path.Pin(node)
		d, last, ok := node.Child(key)
		if !ok {
			break
		}
		el = c.find(d, node.Level(), last)
	}
	// Touch leaf-most first, so that a node is never older than its
	// descendants: evicting a parent before its children would strand
	// them where no walk from the root can reach.
	for i := n - 1; i >= 0; i-- {
		c.lru.MoveToFront(els[i])
	}
	return path
}

// pathFor is pathTo for a batch of reads: it walks the cached part of
// the tree under the last verified root along every point query's search
// path and through every range query's scan, pinning each node once (and
// no more than postree.MaxHave of them: the hint has to fit a request).
// One point query is pathTo's walk.
func (c *nodeCache) pathFor(queries []ledger.BatchQuery) *postree.Path {
	if len(queries) == 1 && !queries[0].Range {
		q := queries[0]
		return c.pathTo(cellstore.CellPrefix(q.Table, q.Column, q.PK))
	}
	path := postree.NewPath(2 * len(queries))
	var els []*list.Element
	c.mu.Lock()
	defer c.mu.Unlock()
	// pin pins the node in el; nil, or a full hint, ends a walk.
	pin := func(el *list.Element) *postree.Node {
		if el == nil || path.Len() >= postree.MaxHave {
			return nil
		}
		node := el.Value.(*postree.Node)
		if path.Pin(node) {
			els = append(els, el)
		}
		return node
	}
	var scan func(node *postree.Node, start, end []byte)
	scan = func(node *postree.Node, start, end []byte) {
		if node != nil {
			node.Children(start, end, func(d hashutil.Digest, last []byte) {
				scan(pin(c.find(d, node.Level(), last)), start, end)
			})
		}
	}
	for _, q := range queries {
		if q.Range {
			start, end := cellstore.RefRange(q.Table, q.Column, q.PK, q.PKHi)
			scan(pin(c.m[c.root]), start, end)
			continue
		}
		key := cellstore.CellPrefix(q.Table, q.Column, q.PK)
		for node := pin(c.m[c.root]); node != nil; {
			d, last, ok := node.Child(key)
			if !ok {
				break
			}
			node = pin(c.find(d, node.Level(), last))
		}
	}
	// Every node was pinned after its ancestors: touching in reverse keeps
	// a node no older than its descendants (see pathTo).
	for i := len(els) - 1; i >= 0; i-- {
		c.lru.MoveToFront(els[i])
	}
	return path
}

// admit records a verified proof: root becomes the start of the next
// hint walk, the pinned nodes the proof superseded are dropped — no
// walk from the new root reaches them, so they would only age out of the
// LRU while holding memory — and the index nodes it shipped are cached.
func (c *nodeCache) admit(root hashutil.Digest, shipped, superseded []*postree.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.root = root
	if c.m == nil {
		c.m = make(map[hashutil.Digest]*list.Element)
		c.at = make(map[postree.Position]*list.Element)
	}
	entries, bytes, limit := len(c.m), c.bytes, c.limit()
	// Drops first: when the tree gained a level a superseded node can be
	// among the shipped ones, one depth down, and is then kept.
	for _, n := range superseded {
		if el, ok := c.m[n.Digest()]; ok {
			c.drop(el)
		}
	}
	for i := len(shipped) - 1; i >= 0; i-- { // root last: see pathTo
		n := shipped[i]
		if _, ok := c.m[n.Digest()]; ok || n.Size() > limit {
			continue
		}
		el := c.lru.PushFront(n)
		c.m[n.Digest()], c.at[n.Position()] = el, el
		c.bytes += n.Size()
	}
	for c.bytes > limit {
		c.drop(c.lru.Back())
	}
	mCacheEntries.Add(int64(len(c.m) - entries))
	mCacheBytes.Add(int64(c.bytes - bytes))
}

func (c *nodeCache) drop(el *list.Element) {
	n := c.lru.Remove(el).(*postree.Node)
	delete(c.m, n.Digest())
	if pos := n.Position(); c.at[pos] == el {
		delete(c.at, pos)
	}
	c.bytes -= n.Size()
}

func (c *nodeCache) size() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.bytes
}
