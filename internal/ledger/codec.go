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

// AppendProof appends p's encoding, the one layout of every proof a read,
// a SELECT or an audit flush is answered with: its block binding (unless
// it travels without one — its carrier flags that, not these bytes), a
// uvarint shape — hasPoint | nRanges<<1 — then the point part, if any, as
// postree.AppendBatchProof (its keys nil when the proof travels without
// them) and the range parts (postree.AppendRangeProof).
func AppendProof(dst []byte, p *Proof) []byte {
	if !p.Unbound {
		dst = mtree.AppendInclusionProof(AppendHeader(dst, p.Header), p.Inclusion)
	}
	dst = binenc.AppendUvarint(dst, binenc.Flag(p.Point != nil, 1)|uint64(len(p.Ranges))<<1)
	if p.Point != nil {
		dst = postree.AppendBatchProof(dst, *p.Point)
	}
	for i := range p.Ranges {
		dst = postree.AppendRangeProof(dst, p.Ranges[i])
	}
	return dst
}

// AppendBatchProof is AppendProof.
//
// Deprecated: there is one proof layout; the name stays for the benchmark.
func AppendBatchProof(dst []byte, p *Proof) []byte { return AppendProof(dst, p) }

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

// ReadProof is proof.ReadProofAs for a proof that travelled with its block
// binding. Only benchmark/ calls it.
func ReadProof(src []byte) (*Proof, []byte, error) { return proof.ReadProofAs(src, false) }
