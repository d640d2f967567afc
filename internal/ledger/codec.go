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

// AppendProof appends p's one-query layout, the layout of a point or
// range read's proof: its block binding (unless it travels without one —
// its carrier flags that, not these bytes), then a presence byte recording
// which cell sub-proof is attached (bit0 Point, bit1 Range), then the
// point part as Bytes(key) Bool(found) ByteSlices(nodes) — the key nil
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
		dst = binenc.AppendByteSlices(dst, pt.Nodes)
	}
	if len(p.Ranges) > 0 {
		dst = postree.AppendRangeProof(dst, p.Ranges[0])
	}
	return dst
}

// ReadProof decodes a proof in the one-query layout that travelled with
// its block binding.
func ReadProof(src []byte) (*Proof, []byte, error) { return ReadProofAs(src, false) }

// ReadProofAs decodes a proof in the one-query layout; unbound says it
// travelled without its block binding. The point part's key, value and
// found flag live in the proof itself.
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
		one := &p.one
		one.key[0], one.found[0] = binenc.Read(&d, binenc.ReadBytes), binenc.Read(&d, binenc.ReadBool)
		one.point = postree.BatchProof{Values: one.value[:], Found: one.found[:], Nodes: binenc.Read(&d, binenc.ReadByteSlices)}
		if one.key[0] != nil {
			one.point.Ask(one.key[:])
		}
		p.Point = &one.point
	}
	if present&2 != 0 {
		p.one.ranges[0] = binenc.Read(&d, postree.ReadRangeProof)
		p.Ranges = p.one.ranges[:]
	}
	if d.Err != nil {
		return nil, nil, d.Err
	}
	return p, d.Src, nil
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

// ReadBatchProofAs is ReadProofAs for the batch layout.
func ReadBatchProofAs(src []byte, unbound bool) (*Proof, []byte, error) {
	p := &Proof{Unbound: unbound}
	d := binenc.Decoder{Src: src}
	if !unbound {
		p.Header, p.Inclusion = binenc.Read(&d, ReadHeader), binenc.Read(&d, mtree.ReadInclusionProof)
	}
	if binenc.Read(&d, binenc.ReadBool) {
		p.one.point = binenc.Read(&d, postree.ReadBatchProof)
		p.Point = &p.one.point
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
