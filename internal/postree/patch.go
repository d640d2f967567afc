package postree

import (
	"bytes"
	"encoding/binary"

	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
	"spitz/internal/proof"
)

// appendPatch appends the slot (the layout is proof.PatchMarker's) that
// rebuilds the index node with entries cur from the one with entries base,
// whose digest is d, if that takes fewer than limit bytes; otherwise it
// returns dst as it was and false.
// Both lists are sorted by key, so one merge finds the least edits.
func appendPatch(dst []byte, d hashutil.Digest, base, cur []Entry, limit int) ([]byte, bool) {
	out := append(append(dst, proof.PatchMarker), d[:]...)
	edit := func(at, op int) { out = binary.AppendUvarint(out, uint64(at)<<2|uint64(op)) }
	bi := 0
	for _, e := range cur {
		c := -1
		for bi < len(base) {
			if c = bytes.Compare(base[bi].Key, e.Key); c >= 0 {
				break
			}
			edit(bi, proof.PatchDelete)
			bi++
		}
		switch {
		case bi == len(base) || c > 0:
			edit(bi, proof.PatchInsert)
			out = posleaf.AppendEntry(out, e.Key, e.Value)
		case !bytes.Equal(base[bi].Value, e.Value):
			edit(bi, proof.PatchSet)
			out = posleaf.AppendEntry(out, nil, e.Value)
			bi++
		default:
			bi++
		}
		if len(out)-len(dst) >= limit {
			return dst, false
		}
	}
	for ; bi < len(base); bi++ {
		edit(bi, proof.PatchDelete)
	}
	if len(out)-len(dst) >= limit {
		return dst, false
	}
	return out, true
}

// maxBases caps how many digests of one hint are looked up as bases. A
// point read names a handful and an audit flush or a query a few dozen;
// past the cap a node simply ships whole.
const maxBases = 256

// bases is where a HeldSet finds the node to patch against: the nodes of
// its hint that the tree's node cache holds, live or retired, found by
// fingerprint. It looks nowhere else — a base the cache has let go is not
// fetched from the store — and nothing is looked up until a proof has an
// index node the hint does not name. A base travels named by its full
// digest, which the verifier looks up among the nodes it pinned.
type bases struct {
	cache          *nodeCache
	hint           []hashutil.Digest
	held           []base // the hint's nodes the cache holds; nil until looked up
	patched, saved int
}

type base struct {
	digest hashutil.Digest
	n      *node
}

// Held is NewHeldSet for the hint of a request that this tree, or any tree
// that shares its node cache, answers: index nodes the hint does not name
// are patched against the ones it does. The set serves that one response
// (its Patched is the response's tally) and one goroutine.
func (t *Tree) Held(ds []hashutil.Digest) HeldSet {
	h := NewHeldSet(ds)
	if len(ds) > 0 && t.cache != nil {
		h.bases = &bases{cache: t.cache, hint: ds}
	}
	return h
}

// patch returns the slot that carries the index node with digest d as a
// patch, or nil when it has to travel as body: no version of it is among
// the bases, or the patch would be no smaller.
func (b *bases) patch(d hashutil.Digest, body []byte) []byte {
	if b == nil {
		return nil
	}
	c := b.cache
	c.mu.RLock()
	cur, ok := c.m[d]
	if ok && b.held == nil {
		hint := b.hint[:min(len(b.hint), maxBases)]
		b.held = make([]base, 0, len(hint))
		for _, hd := range hint {
			if full, ok := c.byFP[fingerprint(hd)]; ok {
				b.held = append(b.held, base{digest: full, n: c.m[full].n})
			}
		}
	}
	c.mu.RUnlock()
	if !ok {
		return nil
	}
	// The base is the first held node at cur's position. A scan: a point
	// read holds a handful of nodes, and most of a batch's differ in level
	// or in the first bytes of the key.
	for _, from := range b.held {
		if from.n.Level != cur.n.Level || !bytes.Equal(from.n.Last(), cur.n.Last()) {
			continue
		}
		// Room for the usual patch — a few routing entries' new values —
		// in one allocation.
		slot, ok := appendPatch(make([]byte, 0, 256), from.digest, from.n.Entries, cur.n.Entries, len(body))
		if !ok {
			return nil
		}
		b.patched++
		b.saved += len(body) - len(slot)
		return slot
	}
	return nil
}
