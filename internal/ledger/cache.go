package ledger

import (
	"sync"

	"spitz/internal/cellstore"
	"spitz/internal/mtree"
	"spitz/internal/obs"
	"spitz/internal/postree"
)

// Proof-cache effectiveness counters: a hot verified-read working set
// shows up as a high hit ratio; every commit shows up as one
// invalidation (the cache holds a single head generation).
var (
	mProofCacheHits  = obs.Default.Counter("spitz_proofcache_hits_total")
	mProofCacheMiss  = obs.Default.Counter("spitz_proofcache_misses_total")
	mProofCacheInval = obs.Default.Counter("spitz_proofcache_invalidations_total")
	// mProofNodesElided counts index-node bodies left out of point, range
	// and batch proofs because the client already held them (Proof.Elide,
	// BatchProof.Elide).
	mProofNodesElided = obs.Default.Counter("spitz_proof_nodes_elided_total")
	// mProofNodesPatched counts index nodes that travelled as a patch
	// against a version the client held, mProofPatchSaved the bytes those
	// patches were smaller than the bodies they stand for.
	mProofNodesPatched = obs.Default.Counter("spitz_proof_nodes_patched_total")
	mProofPatchSaved   = obs.Default.Counter("spitz_proof_patch_bytes_saved_total")
)

// proofCacheSize bounds the number of memoized head proofs. Entries are
// whole verified-read responses (point proof + block inclusion), so even
// a few thousand cover any realistic hot set.
const proofCacheSize = 8192

// proofCache memoizes fully assembled head point proofs keyed by
// (digest, cell reference): a verified read repeated at the same ledger
// height reuses the entire proof instead of re-walking the POS-tree and
// the commitment tree. The cache holds exactly one generation — the
// current head digest — and is invalidated wholesale on commit, so a
// proof can never be served against a digest it was not built for
// (entries additionally record the digest they were built under, and
// lookups compare it, making a stale hit structurally impossible).
type proofCache struct {
	mu     sync.Mutex
	digest Digest // the head digest every entry was built for
	m      map[string]cachedRead
}

// cachedRead is one memoized head point read with its unified proof.
type cachedRead struct {
	cell  cellstore.Cell
	ok    bool
	point postree.PointProof
	inc   mtree.InclusionProof
	hdr   BlockHeader
}

// get returns the cached read for ref, valid only when the cache
// generation matches the digest captured by the caller inside the
// ledger's read-locked critical section.
func (c *proofCache) get(d Digest, ref string) (cachedRead, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil || c.digest != d {
		mProofCacheMiss.Inc()
		return cachedRead{}, false
	}
	e, ok := c.m[ref]
	if ok {
		mProofCacheHits.Inc()
	} else {
		mProofCacheMiss.Inc()
	}
	return e, ok
}

// put stores a read built under digest d, resetting the generation if the
// cache was built for an older digest.
func (c *proofCache) put(d Digest, ref string, e cachedRead) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil || c.digest != d {
		c.m = make(map[string]cachedRead)
		c.digest = d
	}
	if len(c.m) >= proofCacheSize {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[ref] = e
}

// invalidate drops every entry. Commit calls it while holding the
// ledger's write lock, so no read-locked prover can observe the old
// generation after the head moves.
func (c *proofCache) invalidate() {
	mProofCacheInval.Inc()
	c.mu.Lock()
	c.m = nil
	c.digest = Digest{}
	c.mu.Unlock()
}
