package ledger

// Compact binary encoding of the ledger's proof/digest types for the
// wire protocol's binary framing. BlockHeader reuses the canonical
// Encode/DecodeHeader layout (fixed 128 bytes) that also feeds the hash,
// so the wire can never carry a header that hashes differently than it
// decodes.

import (
	"spitz/internal/binenc"
	"spitz/internal/hashutil"
	"spitz/internal/mtree"
	"spitz/internal/postree"
)

// AppendDigest appends d's binary encoding.
func AppendDigest(dst []byte, d Digest) []byte {
	dst = binenc.AppendUvarint(dst, d.Height)
	return append(dst, d.Root[:]...)
}

// ReadDigest decodes a digest.
func ReadDigest(src []byte) (Digest, []byte, error) {
	var d Digest
	h, rest, err := binenc.ReadUvarint(src)
	if err != nil {
		return d, nil, err
	}
	if len(rest) < hashutil.DigestSize {
		return d, nil, binenc.ErrCorrupt
	}
	d.Height = h
	copy(d.Root[:], rest)
	return d, rest[hashutil.DigestSize:], nil
}

// AppendHeader appends h's canonical fixed-size encoding.
func AppendHeader(dst []byte, h BlockHeader) []byte {
	return append(dst, h.Encode()...)
}

// HeaderWireLen is the size of a block header's canonical encoding.
const HeaderWireLen = 8*4 + hashutil.DigestSize*3

// ReadHeader decodes a block header.
func ReadHeader(src []byte) (BlockHeader, []byte, error) {
	if len(src) < HeaderWireLen {
		return BlockHeader{}, nil, binenc.ErrCorrupt
	}
	h, err := DecodeHeader(src[:HeaderWireLen])
	if err != nil {
		return BlockHeader{}, nil, binenc.ErrCorrupt
	}
	return h, src[HeaderWireLen:], nil
}

// AppendProof appends p's binary encoding: its block binding (unless it
// travels without one — its carrier flags that, not these bytes), then a
// presence byte recording which of the optional cell proofs is attached
// (bit0 Point, bit1 Range).
func AppendProof(dst []byte, p *Proof) []byte {
	if !p.Unbound {
		dst = mtree.AppendInclusionProof(AppendHeader(dst, p.Header), p.Inclusion)
	}
	var present byte
	if p.Point != nil {
		present |= 1
	}
	if p.Range != nil {
		present |= 2
	}
	dst = append(dst, present)
	if p.Point != nil {
		dst = postree.AppendPointProof(dst, *p.Point)
	}
	if p.Range != nil {
		dst = postree.AppendRangeProof(dst, *p.Range)
	}
	return dst
}

// ReadProof decodes a proof that travelled with its block binding.
func ReadProof(src []byte) (*Proof, []byte, error) { return ReadProofAs(src, false) }

// ReadProofAs decodes a proof; unbound says it travelled without its
// block binding.
func ReadProofAs(src []byte, unbound bool) (*Proof, []byte, error) {
	p := &Proof{Unbound: unbound}
	var err error
	if !unbound {
		if p.Header, src, err = ReadHeader(src); err != nil {
			return nil, nil, err
		}
		if p.Inclusion, src, err = mtree.ReadInclusionProof(src); err != nil {
			return nil, nil, err
		}
	}
	if len(src) < 1 || src[0] > 3 {
		return nil, nil, binenc.ErrCorrupt
	}
	present := src[0]
	src = src[1:]
	if present&1 != 0 {
		var pt postree.PointProof
		if pt, src, err = postree.ReadPointProof(src); err != nil {
			return nil, nil, err
		}
		p.Point = &pt
	}
	if present&2 != 0 {
		var rp postree.RangeProof
		if rp, src, err = postree.ReadRangeProof(src); err != nil {
			return nil, nil, err
		}
		p.Range = &rp
	}
	return p, src, nil
}

// AppendBatchProof appends p's binary encoding.
func AppendBatchProof(dst []byte, p *BatchProof) []byte {
	if !p.Unbound {
		dst = mtree.AppendInclusionProof(AppendHeader(dst, p.Header), p.Inclusion)
	}
	if p.Points != nil {
		dst = append(dst, 1)
		dst = postree.AppendBatchProof(dst, *p.Points)
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

// ReadBatchProofAs is ReadProofAs for a batch proof.
func ReadBatchProofAs(src []byte, unbound bool) (*BatchProof, []byte, error) {
	p := &BatchProof{Unbound: unbound}
	var err error
	if !unbound {
		if p.Header, src, err = ReadHeader(src); err != nil {
			return nil, nil, err
		}
		if p.Inclusion, src, err = mtree.ReadInclusionProof(src); err != nil {
			return nil, nil, err
		}
	}
	var hasPoints bool
	if hasPoints, src, err = binenc.ReadBool(src); err != nil {
		return nil, nil, err
	}
	if hasPoints {
		var bp postree.BatchProof
		if bp, src, err = postree.ReadBatchProof(src); err != nil {
			return nil, nil, err
		}
		p.Points = &bp
	}
	n, rest, err := binenc.ReadUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return p, rest, nil
	}
	cnt, err := binenc.Count(n-1, rest, 3)
	if err != nil {
		return nil, nil, err
	}
	p.Ranges = make([]postree.RangeProof, cnt)
	for i := range p.Ranges {
		if p.Ranges[i], rest, err = postree.ReadRangeProof(rest); err != nil {
			return nil, nil, err
		}
	}
	return p, rest, nil
}

// AppendBatchQuery appends q's binary encoding.
func AppendBatchQuery(dst []byte, q BatchQuery) []byte {
	dst = binenc.AppendString(dst, q.Table)
	dst = binenc.AppendString(dst, q.Column)
	dst = binenc.AppendBytes(dst, q.PK)
	dst = binenc.AppendBytes(dst, q.PKHi)
	return binenc.AppendBool(dst, q.Range)
}

// ReadBatchQuery decodes a batch query.
func ReadBatchQuery(src []byte) (BatchQuery, []byte, error) {
	var q BatchQuery
	var err error
	if q.Table, src, err = binenc.ReadString(src); err != nil {
		return q, nil, err
	}
	if q.Column, src, err = binenc.ReadString(src); err != nil {
		return q, nil, err
	}
	if q.PK, src, err = binenc.ReadBytes(src); err != nil {
		return q, nil, err
	}
	if q.PKHi, src, err = binenc.ReadBytes(src); err != nil {
		return q, nil, err
	}
	q.Range, src, err = binenc.ReadBool(src)
	return q, src, err
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

// ReadBatchQueries decodes a batch query list.
func ReadBatchQueries(src []byte) ([]BatchQuery, []byte, error) {
	n, rest, err := binenc.ReadUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rest, nil
	}
	cnt, err := binenc.Count(n-1, rest, 5)
	if err != nil {
		return nil, nil, err
	}
	out := make([]BatchQuery, cnt)
	for i := range out {
		if out[i], rest, err = ReadBatchQuery(rest); err != nil {
			return nil, nil, err
		}
	}
	return out, rest, nil
}

// AppendClusterDigest appends d's binary encoding.
func AppendClusterDigest(dst []byte, d *ClusterDigest) []byte {
	dst = binenc.AppendUvarint(dst, uint64(len(d.Shards)))
	for i := range d.Shards {
		dst = AppendDigest(dst, d.Shards[i])
	}
	return append(dst, d.Root[:]...)
}

// ReadClusterDigest decodes a cluster digest.
func ReadClusterDigest(src []byte) (*ClusterDigest, []byte, error) {
	n, rest, err := binenc.ReadUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	cnt, err := binenc.Count(n, rest, 1+hashutil.DigestSize)
	if err != nil {
		return nil, nil, err
	}
	d := new(ClusterDigest)
	if cnt > 0 {
		d.Shards = make([]Digest, cnt)
		for i := range d.Shards {
			if d.Shards[i], rest, err = ReadDigest(rest); err != nil {
				return nil, nil, err
			}
		}
	}
	if len(rest) < hashutil.DigestSize {
		return nil, nil, binenc.ErrCorrupt
	}
	copy(d.Root[:], rest)
	return d, rest[hashutil.DigestSize:], nil
}
