package ledger

// Compact binary encoding of the ledger's proof/digest types for the
// wire protocol's binary framing; the decoders are the verifier's
// (internal/proof). BlockHeader reuses the canonical Encode/DecodeHeader
// layout (fixed 128 bytes) that also feeds the hash, so the wire can never
// carry a header that hashes differently than it decodes.

import (
	"spitz/internal/binenc"
	"spitz/internal/mtree"
	"spitz/internal/postree"
	"spitz/internal/proof"
)

// AppendDigest appends d's binary encoding.
func AppendDigest(dst []byte, d Digest) []byte {
	dst = binenc.AppendUvarint(dst, d.Height)
	return append(dst, d.Root[:]...)
}

// AppendHeader appends h's canonical fixed-size encoding.
func AppendHeader(dst []byte, h BlockHeader) []byte {
	return append(dst, h.Encode()...)
}

// AppendProof appends p's one-query layout, the layout of a point or
// range read's proof: its block binding (unless it travels without one —
// its carrier flags that, not these bytes), then a presence byte recording
// which cell sub-proof is attached (bit0 Point, bit1 Range), then the
// point part as Bytes(key) Bool(found) Nodes (postree.AppendNodes) — the key nil
// when the proof travels without it — and the range part: at most one
// of each, a read's proof having one and the empty ledger's none.
func AppendProof(dst []byte, p *Proof) []byte {
	if !p.Unbound {
		dst = mtree.AppendInclusionProof(AppendHeader(dst, p.Header), p.Inclusion)
	}
	dst = append(dst, byte(binenc.Flag(p.Point != nil, 1)|binenc.Flag(len(p.Ranges) > 0, 2)))
	if pt := p.Point; pt != nil {
		var key []byte
		if len(pt.Keys) == 1 {
			key = pt.Keys[0]
		}
		dst = binenc.AppendBytes(dst, key)
		dst = binenc.AppendBool(dst, len(pt.Found) == 1 && pt.Found[0])
		dst = postree.AppendNodes(dst, pt.Nodes)
	}
	if len(p.Ranges) > 0 {
		dst = postree.AppendRangeProof(dst, p.Ranges[0])
	}
	return dst
}

// AppendBatchProof appends p's batch layout, the layout of an audit
// flush's or a SELECT's proof: its block binding as AppendProof, then
// the point part if any, then the range parts.
func AppendBatchProof(dst []byte, p *Proof) []byte {
	if !p.Unbound {
		dst = mtree.AppendInclusionProof(AppendHeader(dst, p.Header), p.Inclusion)
	}
	if p.Point != nil {
		dst = append(dst, 1)
		dst = postree.AppendBatchProof(dst, *p.Point)
	} else {
		dst = append(dst, 0)
	}
	if p.Ranges == nil {
		return append(dst, 0)
	}
	dst = binenc.AppendUvarint(dst, uint64(len(p.Ranges))+1)
	for i := range p.Ranges {
		dst = postree.AppendRangeProof(dst, p.Ranges[i])
	}
	return dst
}

// AppendBatchQuery appends q's binary encoding.
func AppendBatchQuery(dst []byte, q BatchQuery) []byte {
	dst = binenc.AppendString(dst, q.Table)
	dst = binenc.AppendString(dst, q.Column)
	dst = binenc.AppendBytes(dst, q.PK)
	dst = binenc.AppendBytes(dst, q.PKHi)
	return binenc.AppendBool(dst, q.Range)
}

// AppendBatchQueries appends a nil-preserving batch query list.
func AppendBatchQueries(dst []byte, qs []BatchQuery) []byte {
	if qs == nil {
		return append(dst, 0)
	}
	dst = binenc.AppendUvarint(dst, uint64(len(qs))+1)
	for i := range qs {
		dst = AppendBatchQuery(dst, qs[i])
	}
	return dst
}

// AppendClusterDigest appends d's binary encoding.
func AppendClusterDigest(dst []byte, d *proof.ClusterDigest) []byte {
	dst = binenc.AppendUvarint(dst, uint64(len(d.Shards)))
	for i := range d.Shards {
		dst = AppendDigest(dst, d.Shards[i])
	}
	return append(dst, d.Root[:]...)
}

// ReadProof is proof.ReadProofAs for a proof in the one-query layout that
// travelled with its block binding. Only benchmark/ calls it.
func ReadProof(src []byte) (*Proof, []byte, error) { return proof.ReadProofAs(src, false) }
