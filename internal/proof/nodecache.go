package proof

import (
	"container/list"
	"sync"

	"spitz/internal/hashutil"
)

// nodeCacheBytes caps the verified index nodes one Verifier keeps,
// counted as the memory they hold (Verified.Size: serialized body
// plus decoded entries). Index nodes are ~1/32 of a tree, so 2 MiB
// covers the whole interior of a database of a few hundred thousand rows
// (about 200 nodes, 444 KB of bodies, at 200k rows) and the hot interior
// of a larger one.
const nodeCacheBytes = 2 << 20

// Count is handed what each proof a Verifier accepts adds to its
// ProofStats, and what each change to a node cache adds to its occupancy,
// so that a process can sum them over all its verifiers (the client
// publishes the sums as spitz_client_proof_*,
// spitz_client_bindings_elided_total and spitz_client_nodecache_*). It
// does nothing until a process sets it, before any Verifier is used.
var Count = func(delta ProofStats) {}

// nodeCache holds index nodes (level >= 1) of the POS-trees a Verifier
// has verified proofs under, keyed by content digest. An entry is
// Verified, which only proof verification mints, after the body
// hashed to the digest under the index-node domain — so entries are
// self-certifying: a digest can only ever map to the one node that
// hashes to it, whatever server, shard state or ledger height it came
// from. Nodes are copy-on-write, so the cache needs no invalidation on
// commit (a write re-ships only the path nodes it changed), only
// eviction, least recently used first.
//
// The newest node admitted at each Position is also found by that
// position: where a hint walk is routed to a child the cache lacks, it
// pins the version of that child it does hold, and the server ships the
// current one as a patch against it. A stale node offered this way costs
// the request its digest and nothing else — the response is verified from
// the trusted root whatever was offered.
type nodeCache struct {
	mu    sync.Mutex
	root  hashutil.Digest // CellRoot of the last proof verified: where hint walks start
	m     map[hashutil.Digest]*list.Element
	at    map[Position]*list.Element // the newest cached node at each position
	lru   list.List                  // of *Verified, most recently used first
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
	return c.at[Position{Level: above - 1, Last: string(last)}]
}

// pathFor pins the cached nodes a batch of reads walks through: under
// the last verified root, along every point query's search path and
// through every range query's scan — at each step the child the node
// above names, or the version of it the cache holds — each node once,
// stopping where it holds neither (or when the hint is full: at most
// MaxHave nodes, as a request carries). One point query's walk allocates
// nothing but the Path.
func (c *nodeCache) pathFor(queries []BatchQuery) *Path {
	path := NewPath(2 * len(queries))
	var room [MaxHeight]*list.Element
	els := room[:0]
	c.mu.Lock()
	defer c.mu.Unlock()
	// pin pins the node in el; nil, or a full hint, ends a walk.
	pin := func(el *list.Element) *Node {
		if el == nil || path.Len() >= MaxHave {
			return nil
		}
		v := el.Value.(*Verified)
		if path.Pin(v) {
			els = append(els, el)
		}
		return v.node
	}
	var scan func(n *Node, start, end []byte)
	scan = func(n *Node, start, end []byte) {
		if n != nil {
			from, to := ChildSpan(n.Entries, start, end)
			for _, e := range n.Entries[from:to] {
				scan(pin(c.find(ChildDigest(e), n.Level, e.Key)), start, end)
			}
		}
	}
	for _, q := range queries {
		if q.Range {
			start, end := RefRange(q.Table, q.Column, q.PK, q.PKHi)
			scan(pin(c.m[c.root]), start, end)
			continue
		}
		key := CellPrefix(q.Table, q.Column, q.PK)
		for n := pin(c.m[c.root]); n != nil; {
			i := Search(n.Entries, key)
			if i == len(n.Entries) {
				break
			}
			n = pin(c.find(ChildDigest(n.Entries[i]), n.Level, n.Entries[i].Key))
		}
	}
	// Every node was pinned after its ancestors. Touch leaf-most first,
	// so that a node is never older than its descendants: evicting a
	// parent before its children would strand them where no walk from the
	// root can reach.
	for i := len(els) - 1; i >= 0; i-- {
		c.lru.MoveToFront(els[i])
	}
	return path
}

// admit records a verified proof: root becomes the start of the next
// hint walk, the pinned nodes the proof superseded are dropped — no
// walk from the new root reaches them, so they would only age out of the
// LRU while holding memory — and the index nodes it shipped are cached.
func (c *nodeCache) admit(root hashutil.Digest, shipped, superseded []*Verified) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.root = root
	if c.m == nil {
		c.m = make(map[hashutil.Digest]*list.Element)
		c.at = make(map[Position]*list.Element)
	}
	entries, bytes, limit := len(c.m), c.bytes, c.limit()
	// Drops first: when the tree gained a level a superseded node can be
	// among the shipped ones, one depth down, and is then kept.
	for _, v := range superseded {
		if el, ok := c.m[v.digest]; ok {
			c.drop(el)
		}
	}
	for i := len(shipped) - 1; i >= 0; i-- { // root last: see pathFor
		v := shipped[i]
		if _, ok := c.m[v.digest]; ok || v.size > limit {
			continue
		}
		el := c.lru.PushFront(v)
		c.m[v.digest], c.at[v.node.Position()] = el, el
		c.bytes += v.size
	}
	for c.bytes > limit {
		c.drop(c.lru.Back())
	}
	Count(ProofStats{CacheEntries: len(c.m) - entries, CacheBytes: c.bytes - bytes})
}

func (c *nodeCache) drop(el *list.Element) {
	v := c.lru.Remove(el).(*Verified)
	delete(c.m, v.digest)
	if pos := v.node.Position(); c.at[pos] == el {
		delete(c.at, pos)
	}
	c.bytes -= v.size
}
