package postree

// Compact binary encoding of the POS-tree proof types for the wire
// protocol's binary framing. Node bodies travel verbatim — they are the
// hashed material, so the codec must not canonicalize or re-order anything
// inside them. nil-ness of range bounds is semantic (unbounded end) and is
// preserved exactly.
//
// What a proof proves travels once, inside the leaves that prove it: a
// range proof's rows and a point proof's values are not encoded.
// Verification sets the rows from the leaves it verified; the decoder
// points the values at the entries of the shipped leaves, and verification
// compares them with what the verified walk arrives at, so a decoded proof
// is the struct the prover held or it does not verify.

import (
	"bytes"

	"spitz/internal/binenc"
	"spitz/internal/posleaf"
)

// shippedLeaves appends to leaves every slot of nodes that parses as a
// pruned leaf, as it reads: nothing is hashed.
func shippedLeaves(nodes [][]byte, leaves []posleaf.Leaf) []posleaf.Leaf {
	for _, body := range nodes {
		if len(body) > 0 && body[0] == 0 {
			if l, err := posleaf.ParsePruned(body); err == nil {
				leaves = append(leaves, l)
			}
		}
	}
	return leaves
}

// shippedValue returns the value of key's entry in the first leaf whose
// run has one, nil when none does.
func shippedValue(leaves []posleaf.Leaf, key []byte) []byte {
	for _, l := range leaves {
		for rest, c := l.Entries, -1; c < 0 && len(rest) > 0; {
			var k, v []byte
			k, v, rest, _ = posleaf.ReadEntry(rest) // ParsePruned walked them
			if c = bytes.Compare(k, key); c == 0 {
				return v
			}
		}
	}
	return nil
}

// AppendRangeProof appends p's binary encoding.
func AppendRangeProof(dst []byte, p RangeProof) []byte {
	dst = binenc.AppendBytes(dst, p.Start)
	dst = binenc.AppendBytes(dst, p.End)
	return binenc.AppendByteSlices(dst, p.Nodes)
}

// ReadRangeProof decodes a range proof; Entries is Verify's to fill.
func ReadRangeProof(src []byte) (RangeProof, []byte, error) {
	d := binenc.Decoder{Src: src}
	p := RangeProof{Start: binenc.Read(&d, binenc.ReadBytes), End: binenc.Read(&d, binenc.ReadBytes), Nodes: binenc.Read(&d, binenc.ReadByteSlices)}
	return p, d.Src, d.Err
}

// AppendBatchProof appends p's binary encoding.
func AppendBatchProof(dst []byte, p BatchProof) []byte {
	dst = binenc.AppendByteSlices(dst, p.Keys)
	dst = binenc.AppendBools(dst, p.Found)
	return binenc.AppendByteSlices(dst, p.Nodes)
}

// ReadBatchProof decodes a point proof. When there are as many keys as
// reads, Values[i] is the value of Keys[i]'s entry in the shipped leaves
// where the proof claims one (Ask); a proof that travelled without its
// keys decodes with none.
func ReadBatchProof(src []byte) (BatchProof, []byte, error) {
	d := binenc.Decoder{Src: src}
	p := BatchProof{Keys: binenc.Read(&d, binenc.ReadByteSlices), Found: binenc.Read(&d, binenc.ReadBools), Nodes: binenc.Read(&d, binenc.ReadByteSlices)}
	p.Ask(p.Keys)
	return p, d.Src, d.Err
}
