package postree

import (
	"runtime"
	"sync"

	"spitz/internal/hashutil"
	"spitz/internal/obs"
	"spitz/internal/proof"
)

// Node-cache effectiveness counters, aggregated across every POS-tree in
// the process (content addressing makes entries interchangeable anyway).
// Misses approximate storage fetches of interior nodes; evictions count
// nodes dropped from either generation. The gauges are what the caches
// hold — bodies plus decoded entries — in total and in their retired
// generations; a cache that is dropped gives its share back when it is
// collected.
var (
	mNodeCacheHits    = obs.Default.Counter("spitz_nodecache_hits_total")
	mNodeCacheMiss    = obs.Default.Counter("spitz_nodecache_misses_total")
	mNodeCacheEvict   = obs.Default.Counter("spitz_nodecache_evictions_total")
	mNodeCacheBytes   = obs.Default.Gauge("spitz_nodecache_bytes")
	mNodeCacheRetired = obs.Default.Gauge("spitz_nodecache_retired_bytes")
)

// The cache is bounded by the memory it keeps alive (see proof.Node.Size), in
// two budgets that do not borrow from each other. Index nodes are ~1/32
// of a tree — about 200 nodes and 0.8 MB for 200k rows — so the live
// budget holds the whole interior of a database of millions of rows and
// the hot interior of a larger one. The retired budget is history: a
// block supersedes a root-to-leaf path per touched leaf, ~4 KB a node,
// so it spans the last few hundred blocks.
const (
	liveCacheBytes    = 28 << 20
	retiredCacheBytes = 4 << 20
)

// nodeCache memoizes decoded *index* nodes — together with their
// serialized bodies, which proof construction embeds verbatim — by
// content digest. Content addressing makes the cache trivially coherent:
// a digest can only ever map to one node, so entries never need
// invalidation, only eviction. Successor trees created by Apply share
// their parent's cache, and so do the proof builders and the historical
// trees of Tree.At.
//
// The cache tracks the head of the lineage that shares it. A node enters
// when it is written (storeNode admits what it just encoded, so the next
// block's apply and the proofs in between never fetch and decode it) or
// when a read misses. It is *retired* when an apply replaces it: it stays
// readable, for the proofs and as-of reads that run a few blocks behind
// the head, in a first-in-first-out generation of its own whose budget is
// separate, so history never pushes out a node the head still needs; once
// it falls out of that, the store serves it like any other old node. Live
// nodes beyond their budget are evicted at random: map iteration order is
// randomized, and for a pool of immutable interior nodes recency tracking
// is not worth the contention of a true LRU.
//
// Leaves stay out: there are 32 times as many, and their bodies are
// governed by the store's own byte budget.
type nodeCache struct {
	mu      sync.RWMutex
	m       map[hashutil.Digest]cachedNode
	byFP    map[uint64]hashutil.Digest // m's digests by fingerprint: where a hint's nodes are found
	live    int64                      // bytes held by nodes not retired
	retired int64                      // bytes held by retired nodes
	queue   []hashutil.Digest          // the retired nodes, oldest first
}

// cachedNode pairs a decoded node with the body its entries point into,
// so traversals get the node and proof assembly gets the body from one
// lookup.
type cachedNode struct {
	n       *node
	body    []byte
	retired bool
}

func (e cachedNode) size() int64 { return int64(e.n.Size(e.body)) }

func newNodeCache() *nodeCache {
	c := &nodeCache{m: make(map[hashutil.Digest]cachedNode), byFP: make(map[uint64]hashutil.Digest)}
	runtime.SetFinalizer(c, func(c *nodeCache) {
		mNodeCacheBytes.Add(-c.live - c.retired)
		mNodeCacheRetired.Add(-c.retired)
	})
	return c
}

func (c *nodeCache) get(d hashutil.Digest) (cachedNode, bool) {
	if c == nil {
		return cachedNode{}, false
	}
	c.mu.RLock()
	e, ok := c.m[d]
	c.mu.RUnlock()
	if ok {
		mNodeCacheHits.Inc()
	} else {
		mNodeCacheMiss.Inc()
	}
	return e, ok
}

// put admits an index node as live. n's entries must point into body and
// nowhere else, or the cache pins memory it does not account for. A digest
// already present keeps the entry it has — retired or not: a retired node
// that became current again is simply fetched once more after it ages out.
func (c *nodeCache) put(d hashutil.Digest, n *node, body []byte) {
	if c == nil || n.Level == 0 {
		return // leaves are not cached
	}
	e := cachedNode{n: n, body: body}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[d]; ok {
		return
	}
	c.m[d], c.byFP[fingerprint(d)] = e, d
	c.live += e.size()
	mNodeCacheBytes.Add(e.size())
	for c.live > liveCacheBytes {
		for k, v := range c.m {
			if !v.retired {
				c.drop(k, v)
				break
			}
		}
	}
}

// retire moves a node an apply has replaced to the retired generation,
// and drops the oldest retired nodes beyond that generation's budget.
func (c *nodeCache) retire(d hashutil.Digest) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[d]
	if !ok || e.retired {
		return
	}
	e.retired = true
	c.m[d] = e
	c.live -= e.size()
	c.retired += e.size()
	mNodeCacheRetired.Add(e.size())
	c.queue = append(c.queue, d)
	for c.retired > retiredCacheBytes {
		k := c.queue[0]
		c.queue = c.queue[1:] // append reallocates, and copies only what is left
		c.drop(k, c.m[k])
	}
}

// drop evicts one entry. Callers hold mu.
func (c *nodeCache) drop(d hashutil.Digest, e cachedNode) {
	delete(c.m, d)
	if c.byFP[fingerprint(d)] == d {
		delete(c.byFP, fingerprint(d))
	}
	if e.retired {
		c.retired -= e.size()
		mNodeCacheRetired.Add(-e.size())
	} else {
		c.live -= e.size()
	}
	mNodeCacheBytes.Add(-e.size())
	mNodeCacheEvict.Inc()
}

// loadNodeCached is the cache-aware node loader used by traversals.
func (t *Tree) loadNodeCached(d hashutil.Digest) (*node, error) {
	_, n, err := t.loadProofNode(d)
	return n, err
}

// loadProofNode is the cache-aware loader for proof construction, which
// needs the serialized body (embedded in the proof) as well as the
// decoded node (to continue the traversal).
func (t *Tree) loadProofNode(d hashutil.Digest) ([]byte, *node, error) {
	if e, ok := t.cache.get(d); ok {
		return e.body, e.n, nil
	}
	body, err := t.store.Get(d)
	if err != nil {
		return nil, nil, err
	}
	n, err := proof.DecodeNode(body)
	if err != nil {
		return nil, nil, err
	}
	t.cache.put(d, n, body)
	return body, n, nil
}
