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
	d := binenc.Decoder{Src: src}
	if !unbound {
		p.Header, p.Inclusion = binenc.Read(&d, ReadHeader), binenc.Read(&d, mtree.ReadInclusionProof)
	}
	if d.Err == nil && (len(d.Src) < 1 || d.Src[0] > 3) {
		d.Err = binenc.ErrCorrupt
	}
	if d.Err != nil {
		return nil, nil, d.Err
	}
	present := d.Src[0]
	d.Src = d.Src[1:]
	if present&1 != 0 {
		pt := binenc.Read(&d, postree.ReadPointProof)
		p.Point = &pt
	}
	if present&2 != 0 {
		rp := binenc.Read(&d, postree.ReadRangeProof)
		p.Range = &rp
	}
	if d.Err != nil {
		return nil, nil, d.Err
	}
	return p, d.Src, nil
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
	d := binenc.Decoder{Src: src}
	if !unbound {
		p.Header, p.Inclusion = binenc.Read(&d, ReadHeader), binenc.Read(&d, mtree.ReadInclusionProof)
	}
	if binenc.Read(&d, binenc.ReadBool) {
		bp := binenc.Read(&d, postree.ReadBatchProof)
		p.Points = &bp
	}
	var cnt int
	if n := binenc.Read(&d, binenc.ReadUvarint); d.Err == nil && n > 0 {
		cnt, d.Err = binenc.Count(n-1, d.Src, 3)
		if d.Err == nil {
			p.Ranges = make([]postree.RangeProof, cnt)
		}
	}
	for i := range p.Ranges {
		p.Ranges[i] = binenc.Read(&d, postree.ReadRangeProof)
	}
	if d.Err != nil {
		return nil, nil, d.Err
	}
	return p, d.Src, nil
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
	d := binenc.Decoder{Src: src}
	q := BatchQuery{Table: binenc.Read(&d, binenc.ReadString), Column: binenc.Read(&d, binenc.ReadString),
		PK: binenc.Read(&d, binenc.ReadBytes), PKHi: binenc.Read(&d, binenc.ReadBytes), Range: binenc.Read(&d, binenc.ReadBool)}
	return q, d.Src, d.Err
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
