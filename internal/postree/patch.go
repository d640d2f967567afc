package postree

import (
	"bytes"
	"encoding/binary"

	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
)

// A patched slot: an index node a proof carries as the difference from a
// version of it the verifier already holds.
//
//	slot := patchMarker | base digest [32]byte | edit …   (to the end of the slot)
//	edit := (index<<2 | op) uvarint | operand
//
// index counts the base's entries. patchSet's operand is an entry with an
// empty key: the base's entry at index keeps its key and takes the value.
// patchInsert's is a whole entry, which goes in before the base's entry at
// index (after the last when index is their number). patchDelete has none:
// the base's entry at index is dropped. Edits come in ascending order of
// index, inserts at an index before the set or delete of it, so one pass
// over the base rebuilds the node.
//
// A patch is a way of writing a body down, nothing more: the verifier
// rebuilds the body, hashes it under the index domain and from there treats
// it as any shipped body — wanted by the walk from the trusted root under
// exactly that digest, or the proof is rejected. The base must be one of
// the nodes the verifier pinned for this very request.
const patchMarker = 0xFF // no body starts with it: a body's first byte is its level, at most maxStrata

const (
	patchSet = iota
	patchInsert
	patchDelete
)

// appendPatch appends the slot that rebuilds the index node with entries
// cur from the one with entries base, whose digest is d, if that takes
// fewer than limit bytes; otherwise it returns dst as it was and false.
// Both lists are sorted by key, so one merge finds the least edits.
func appendPatch(dst []byte, d hashutil.Digest, base, cur []Entry, limit int) ([]byte, bool) {
	out := append(append(dst, patchMarker), d[:]...)
	edit := func(at, op int) { out = binary.AppendUvarint(out, uint64(at)<<2|uint64(op)) }
	bi := 0
	for _, e := range cur {
		c := -1
		for bi < len(base) {
			if c = bytes.Compare(base[bi].Key, e.Key); c >= 0 {
				break
			}
			edit(bi, patchDelete)
			bi++
		}
		switch {
		case bi == len(base) || c > 0:
			edit(bi, patchInsert)
			out = posleaf.AppendEntry(out, e.Key, e.Value)
		case !bytes.Equal(base[bi].Value, e.Value):
			edit(bi, patchSet)
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
		edit(bi, patchDelete)
	}
	if len(out)-len(dst) >= limit {
		return dst, false
	}
	return out, true
}

// applyEdits appends to dst the entries a patch's edits make of base, an
// index node's. Nothing is sized by a number the patch states — the result
// grows by the entries the edits spell out — and it stops at maxFanout
// entries, which no node has more of, so a long slot of tiny inserts costs
// no more than a short one. A value the edits bring must have the size of a
// routing entry's, as decodeNode demands of a body's.
func applyEdits(dst []Entry, edits []byte, base []Entry) ([]Entry, error) {
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
		if op != patchInsert {
			if at == len(base) {
				return nil, ErrProofInvalid
			}
			next++
		}
		if op == patchDelete {
			continue
		}
		var e Entry
		var err error
		if e.Key, e.Value, edits, err = posleaf.ReadEntry(edits); err != nil || len(e.Value) != hashutil.DigestSize+8 {
			return nil, ErrProofInvalid
		}
		switch {
		case op == patchSet && len(e.Key) == 0:
			e.Key = base[at].Key
		case op != patchInsert:
			return nil, ErrProofInvalid
		}
		if out = append(out, e); len(out) > maxFanout {
			return nil, ErrProofInvalid
		}
	}
	if out = append(out, base[next:]...); len(out) > maxFanout {
		return nil, ErrProofInvalid
	}
	return out, nil
}

// rebuild returns the index node a patched slot stands for, made from the
// base it names among the nodes path pinned, and its body. Entries and body
// share no memory with the base or the slot.
func rebuild(slot []byte, path *Path) (*node, []byte, error) {
	var d hashutil.Digest
	if path == nil || len(slot) < 1+len(d) {
		return nil, nil, ErrProofInvalid
	}
	copy(d[:], slot[1:])
	i := path.set.find(d)
	if i < 0 || path.held[i].n.n.level == 0 {
		return nil, nil, ErrProofInvalid
	}
	base := path.held[i].n.n
	var room [64]Entry // the entries of a node of the usual size or twice it, on the stack
	entries, err := applyEdits(room[:0], slot[1+len(d):], base.entries)
	if err != nil {
		return nil, nil, err
	}
	body := encodeIndex(base.level, entries, entryBytes(entries))
	return rehomed(base.level, entries, body), body, nil
}

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

// position is where an index node sits; a stored one has entries.
func (n *node) position() Position {
	return Position{Level: n.level, Last: string(n.last())}
}

func (n *node) last() []byte { return n.entries[len(n.entries)-1].Key }

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
		if from.n.level != cur.n.level || !bytes.Equal(from.n.last(), cur.n.last()) {
			continue
		}
		// Room for the usual patch — a few routing entries' new values —
		// in one allocation.
		slot, ok := appendPatch(make([]byte, 0, 256), from.digest, from.n.entries, cur.n.entries, len(body))
		if !ok {
			return nil
		}
		b.patched++
		b.saved += len(body) - len(slot)
		return slot
	}
	return nil
}
