package proof

import "spitz/internal/hashutil"

// CacheState is everything about v's node cache a rejected proof must not
// change.
func CacheState(v *Verifier) (root hashutil.Digest, order []hashutil.Digest, bytes int) {
	c := &v.nodes
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		order = append(order, el.Value.(*Verified).digest)
	}
	return c.root, order, c.bytes
}

// SetCacheLimit caps v's node cache at n bytes, below its usual cap.
func SetCacheLimit(v *Verifier, n int) { v.nodes.small = n }

// CacheLimit reports the cap of v's node cache.
func CacheLimit(v *Verifier) int { return v.nodes.limit() }
