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
// is the struct the prover held or it does not verify. The decoders are
// the verifier's: proof.ReadRangeProof and proof.ReadBatchProof.

import "spitz/internal/binenc"

// AppendRangeProof appends p's binary encoding.
func AppendRangeProof(dst []byte, p RangeProof) []byte {
	dst = binenc.AppendBytes(dst, p.Start)
	dst = binenc.AppendBytes(dst, p.End)
	return binenc.AppendByteSlices(dst, p.Nodes)
}

// AppendBatchProof appends p's binary encoding.
func AppendBatchProof(dst []byte, p BatchProof) []byte {
	dst = binenc.AppendByteSlices(dst, p.Keys)
	dst = binenc.AppendBools(dst, p.Found)
	return binenc.AppendByteSlices(dst, p.Nodes)
}
