package postree

// Compact binary encoding of the POS-tree proof types for the wire
// protocol's binary framing. Node bodies travel verbatim — they are the
// hashed material, so the codec must not canonicalize or re-order anything
// inside them — but for a leaf's run of entries, which travels packed
// (AppendNodes, posleaf.Unpack). nil-ness of range bounds is semantic (unbounded end) and is
// preserved exactly.
//
// What a proof proves travels once, inside the leaves that prove it: a
// range proof's rows and a point proof's values and found flags are not
// encoded, and the verifier reads them off the walk that verifies those
// leaves. The decoders are the verifier's: proof.ReadRangeProof and
// proof.ReadBatchProof.

import (
	"encoding/binary"

	"spitz/internal/binenc"
	"spitz/internal/posleaf"
)

// AppendRangeProof appends p's binary encoding.
func AppendRangeProof(dst []byte, p RangeProof) []byte {
	dst = binenc.AppendBytes(dst, p.Start)
	dst = binenc.AppendBytes(dst, p.End)
	return AppendNodes(dst, p.Nodes)
}

// AppendBatchProof appends p's binary encoding: its keys and node bodies.
func AppendBatchProof(dst []byte, p BatchProof) []byte {
	return AppendNodes(binenc.AppendByteSlices(dst, p.Keys), p.Nodes)
}

// AppendNodes appends a proof's node bodies as binenc.AppendByteSlices
// does, each leaf's run of entries packed: after the first, an entry drops
// the leading bytes its key shares with the key before it, at most as many
// as its value and the value's length take (Unpack's bound). A range's
// keys share most of their bytes, so its run travels at about its values'
// size; a point read's run of one entry packs to itself.
//
//	packed := level | count | first | n | entry | (n−1) × (shared uvarint | entry of the key's rest) | siblings
func AppendNodes(dst []byte, nodes [][]byte) []byte {
	if nodes == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(nodes))+1)
	for _, body := range nodes {
		l, err := posleaf.ParsePruned(body)
		if len(body) == 0 || body[0] != 0 || err != nil || l.N < 2 {
			dst = binenc.AppendBytes(dst, body)
			continue
		}
		head := 1 // level, then count, first and n
		for i := 0; i < 3; i++ {
			_, k := binary.Uvarint(body[head:])
			head += k
		}
		packed := append(make([]byte, 0, len(body)), body[:head]...)
		var prev []byte
		for rest := l.Entries; len(rest) > 0; {
			key, value, next, _ := posleaf.ReadEntry(rest)
			if prev == nil {
				packed = append(packed, rest[:len(rest)-len(next)]...)
			} else {
				shared := 0
				for shared < min(len(prev), len(key), posleaf.EntrySize(nil, value)) && prev[shared] == key[shared] {
					shared++
				}
				packed = posleaf.AppendEntry(binary.AppendUvarint(packed, uint64(shared)), key[shared:], value)
			}
			prev, rest = key, next
		}
		dst = binenc.AppendBytes(dst, append(packed, body[head+len(l.Entries):]...))
	}
	return dst
}

// Unpack unpacks, in place, the leaves of a decoded proof's node list
// (AppendNodes). Anything else — an index node, a patch, a leaf that does
// not unpack — stays as it came: unpacking is not a check, verification
// reads only bytes that hash to the digest it expects. A shared length
// past the key before it or past what its entry brings does not unpack,
// which bounds a leaf to about twice the bytes that carried it.
func Unpack(nodes [][]byte) {
	for i, body := range nodes {
		nodes[i] = unpack(body)
	}
}

func unpack(body []byte) []byte {
	if len(body) < 2 || body[0] != 0 {
		return body
	}
	rest, n := body[1:], uint64(0)
	for i := 0; i < 3; i++ { // count, first, then n
		k := 0
		if n, k = binary.Uvarint(rest); k <= 0 {
			return body
		}
		rest = rest[k:]
	}
	key, _, next, err := posleaf.ReadEntry(rest)
	if n < 2 || err != nil {
		return body
	}
	out := append(make([]byte, 0, 2*len(body)), body[:len(body)-len(next)]...)
	prev := append([]byte(nil), key...)
	for rest = next; n > 1; n-- {
		shared, k := binary.Uvarint(rest)
		if k <= 0 {
			return body
		}
		suffix, value, next, err := posleaf.ReadEntry(rest[k:])
		if err != nil || shared > uint64(len(prev)) || shared > uint64(len(rest)-len(next)) {
			return body
		}
		prev = append(prev[:shared], suffix...)
		out, rest = posleaf.AppendEntry(out, prev, value), next
	}
	return append(out, rest...)
}
