package proof

// The verifier's half of the ledger (internal/ledger builds it): the
// digest a client trusts, the block header that binds a cell-tree root to
// it, the sharded deployment's digest vector, the one proof type every
// verified read, query and audit flush is answered with, and the decoders
// of all of them. The ledger encodes them with the same layouts.

import (
	"encoding/binary"
	"fmt"

	"spitz/internal/binenc"
	"spitz/internal/hashutil"
	"spitz/internal/mtree"
)

// Digest is what a verifying client stores locally: the ledger height and
// the root of the Merkle commitment over all block hashes up to it.
// Section 5.3: "clients can use the digest of the ledger to perform
// verification locally ... recalculate the digest with the received proof
// and compare it with the previous digest saved locally."
type Digest struct {
	Height uint64
	Root   hashutil.Digest
}

// BlockHeader is the hashed block metadata.
type BlockHeader struct {
	Height    uint64
	Parent    hashutil.Digest // hash of the previous block (zero for genesis)
	Version   uint64          // commit version: cells in this block carry it
	CellRoot  hashutil.Digest // POS-tree root of the entire cell store
	CellCount uint64
	TxnCount  uint64
	BodyHash  hashutil.Digest // digest of the serialized transaction summaries
}

// HeaderWireLen is the size of a block header's canonical encoding.
const HeaderWireLen = 8*4 + hashutil.DigestSize*3

// Encode serializes the header canonically. The wire carries the same
// bytes, so it can never carry a header that hashes differently than it
// decodes.
func (h BlockHeader) Encode() []byte {
	buf := make([]byte, 0, HeaderWireLen)
	buf = binary.BigEndian.AppendUint64(buf, h.Height)
	buf = append(buf, h.Parent[:]...)
	buf = binary.BigEndian.AppendUint64(buf, h.Version)
	buf = append(buf, h.CellRoot[:]...)
	buf = binary.BigEndian.AppendUint64(buf, h.CellCount)
	buf = binary.BigEndian.AppendUint64(buf, h.TxnCount)
	buf = append(buf, h.BodyHash[:]...)
	return buf
}

// DecodeHeader parses an encoded header.
func DecodeHeader(data []byte) (BlockHeader, error) {
	var h BlockHeader
	if len(data) != HeaderWireLen {
		return h, fmt.Errorf("ledger: header length %d, want %d", len(data), HeaderWireLen)
	}
	off := 0
	h.Height = binary.BigEndian.Uint64(data[off:])
	off += 8
	copy(h.Parent[:], data[off:])
	off += hashutil.DigestSize
	h.Version = binary.BigEndian.Uint64(data[off:])
	off += 8
	copy(h.CellRoot[:], data[off:])
	off += hashutil.DigestSize
	h.CellCount = binary.BigEndian.Uint64(data[off:])
	off += 8
	h.TxnCount = binary.BigEndian.Uint64(data[off:])
	off += 8
	copy(h.BodyHash[:], data[off:])
	return h, nil
}

// Hash returns the block hash.
func (h BlockHeader) Hash() hashutil.Digest {
	return hashutil.Sum(hashutil.DomainBlock, h.Encode())
}

// VerifyBlock is the one inclusion check: the block h must be part of the
// ledger d commits to, inc its path in the commitment tree of d's height.
func VerifyBlock(h BlockHeader, inc mtree.InclusionProof, d Digest) error {
	if h.Height >= d.Height || inc.TreeSize != int(d.Height) || inc.Index != int(h.Height) {
		return ErrProofInvalid // block not covered by the digest
	}
	if err := inc.Verify(d.Root, mtree.LeafHash(h.Encode())); err != nil {
		return ErrProofInvalid
	}
	return nil
}

// ClusterDigest is the client-verifiable commitment of a sharded
// deployment (Section 5.2): one ledger Digest per shard plus a combined
// root binding the whole vector. A client saves the ClusterDigest and
// verifies each shard's proofs against that shard's entry; the combined
// root lets it pin the entire cluster state under one hash.
//
// Shards advance independently — a ClusterDigest is a vector of
// per-shard snapshots, each internally consistent, not a cross-shard
// atomic cut.
type ClusterDigest struct {
	Shards []Digest
	Root   hashutil.Digest
}

// NewClusterDigest builds a ClusterDigest from per-shard digests: the
// combined root hashes the canonical encoding of every (height, root)
// pair, in shard order, under the cluster domain.
func NewClusterDigest(shards []Digest) ClusterDigest {
	h := hashutil.NewStream(hashutil.DomainCluster)
	buf := make([]byte, 8+8+hashutil.DigestSize)
	binary.BigEndian.PutUint64(buf, uint64(len(shards)))
	h.Part(buf[:8])
	for i, d := range shards {
		binary.BigEndian.PutUint64(buf, uint64(i))
		binary.BigEndian.PutUint64(buf[8:], d.Height)
		copy(buf[16:], d.Root[:])
		h.Part(buf)
	}
	return ClusterDigest{Shards: append([]Digest(nil), shards...), Root: h.Sum()}
}

// Check validates the combined root against the shard vector, so a
// ClusterDigest received over the network cannot misbind its entries.
func (d ClusterDigest) Check() error {
	if NewClusterDigest(d.Shards).Root != d.Root {
		return fmt.Errorf("ledger: cluster digest root %s does not bind its %d shard digests",
			d.Root.Short(), len(d.Shards))
	}
	return nil
}

// BatchQuery is one read being proven: a point read (Range false) or a
// primary-key range scan (Range true) of one column — a verified read's
// one question, a SELECT's obligations, or a deferred-audit receipt.
type BatchQuery struct {
	Table  string
	Column string
	PK     []byte
	PKHi   []byte
	Range  bool
}

// Proof is the integrity proof of one or more reads against one ledger
// block. It binds the reads' answers to the block (via the block's
// cell-tree root) with one header, and the block to the ledger digest the
// client saved (via the commitment Merkle tree) with one inclusion proof.
// Every point read shares one multi-key point proof (shared sibling nodes
// instead of N independent paths) and every range scan has its own range
// proof: a point or range read is the one-query proof, a deferred-audit
// flush proves all receipts taken at one digest through one of these.
//
// The cell part is produced by the same index traversal that served the
// query — Spitz "can store the proofs of the results and the value of the
// target nodes in a unified index" (Section 6.2.1).
type Proof struct {
	Header    BlockHeader
	Inclusion mtree.InclusionProof
	// Point covers every point query, in request order among point
	// queries; nil when there are none.
	Point *BatchProof
	// Ranges covers every range query, in request order among range
	// queries.
	Ranges []RangeProof
	// Unbound marks a proof travelling without its block binding: only a
	// verifier holding that block's header can check it.
	Unbound bool

	// one is room for a single read's parts inside the proof itself, so
	// proving and decoding a point or range read allocate nothing for its
	// key or sub-proof. A copy of the proof shares them. It never travels.
	one struct {
		point  BatchProof
		key    [1][]byte
		ranges [1]RangeProof
	}
}

// PointKeys returns the tree keys of the point queries among queries, in
// order, in the proof's own room when there is one: what a prover asks
// its tree for (a verifier derives its own: Cells).
func (p *Proof) PointKeys(queries []BatchQuery) [][]byte {
	keys := p.one.key[:0]
	for _, q := range queries {
		if !q.Range {
			keys = append(keys, CellPrefix(q.Table, q.Column, q.PK))
		}
	}
	return keys
}

// SetPoint attaches the point part, in the proof's own room.
func (p *Proof) SetPoint(bp BatchProof) {
	p.one.point = bp
	p.Point = &p.one.point
}

// AddRange appends a range part, the first in the proof's own room.
func (p *Proof) AddRange(rp RangeProof) {
	if p.Ranges == nil {
		p.Ranges = p.one.ranges[:0]
	}
	p.Ranges = append(p.Ranges, rp)
}

// Cells reads the answers to queries off the proof's cell parts: each
// query is walked from the cell root of p.Header — which the caller binds
// to a digest it trusts (Verifier.Check) — through the bodies the proof
// shipped and the nodes path pinned (nil: none), a point query's search
// through the one point part and the i-th range query's scan through the
// i-th range part, and each query's live cells are decoded from what its
// walk reaches, in order: a point query's cell or none, a range query's
// rows in key order, tombstones left out. The proof must have exactly the
// queries' shape — a point part if any query is a point query, one range
// part per range query — and a key or bound it carries (a server may ship
// them) must be the query's own.
func (p *Proof) Cells(queries []BatchQuery, path *Path) ([][]Cell, error) {
	var keyRoom [1][]byte // a point read's one key and its place
	var atRoom [1]int
	keys, at := keyRoom[:0], atRoom[:0] // queries[at[i]] asks keys[i]
	for i, q := range queries {
		if !q.Range {
			keys, at = append(keys, CellPrefix(q.Table, q.Column, q.PK)), append(at, i)
		}
	}
	if len(p.Ranges) != len(queries)-len(keys) || (p.Point == nil) != (len(keys) == 0) {
		return nil, ErrProofInvalid
	}
	out := make([][]Cell, len(queries))
	if p.Point != nil {
		points := make([]Cell, 0, len(keys)) // every point query's cell, in one array
		err := p.Point.walk(p.Header.CellRoot, path, keys, func(i int, value []byte, found bool) error {
			if !found {
				return nil
			}
			ver, value, tomb, err := DecodeVersion(value)
			if err != nil || tomb {
				return err
			}
			q := &queries[at[i]]
			points = append(points, Cell{Table: q.Table, Column: q.Column, PK: q.PK, Version: ver, Value: value})
			n := len(points)
			out[at[i]] = points[n-1 : n : n]
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	ri := 0
	for i, q := range queries {
		if !q.Range {
			continue
		}
		start, end := RefRange(q.Table, q.Column, q.PK, q.PKHi)
		entries, err := p.Ranges[ri].walk(p.Header.CellRoot, path, start, end)
		ri++
		if err != nil {
			return nil, err
		}
		if out[i], err = LiveCells(entries); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Verify checks the proof against a client-saved ledger digest. It
// confirms (1) the block is part of the ledger the digest commits to, and
// (2) every cell sub-proof hashes to the block's cell-tree root, so each
// answer is exactly what the block's index holds for its query (a range
// proof's Entries are filled from the verified leaves). Verification is
// all-or-nothing — a single corrupt shared node rejects the whole proof,
// so no covered read can be silently accepted.
func (p Proof) Verify(d Digest) error {
	return p.VerifyPath(d, nil)
}

// VerifyPath is Verify for a client that may already hold verified index
// nodes on the proof's search paths and scans (Path; nil holds nothing).
// The sub-proofs share the one path: what any of them reaches is reached.
func (p Proof) VerifyPath(d Digest, path *Path) error {
	if err := VerifyBlock(p.Header, p.Inclusion, d); err != nil {
		return err
	}
	return p.VerifyCells(path)
}

// VerifyCells checks the cell proofs alone, against p.Header's cell root,
// which the caller has bound to its trusted digest: VerifyPath, or a
// verifier supplying the header it checked before to an Unbound proof.
func (p Proof) VerifyCells(path *Path) error {
	if p.Point != nil {
		if err := p.Point.VerifyPath(p.Header.CellRoot, path); err != nil {
			return ErrProofInvalid
		}
	}
	for i := range p.Ranges {
		if err := p.Ranges[i].VerifyPath(p.Header.CellRoot, path); err != nil {
			return ErrProofInvalid
		}
	}
	return nil
}

// Bound returns the digest p's binding commits its block to: the height
// its inclusion path names and the root the path replays the header to.
// A proof answering a request that named its trusted height travels
// without that digest, which the client works out here; the digest is
// then trusted only as far as the client proves it extends its trust
// (Verifier.AdvanceWith), as a digest the server sent would be.
func (p *Proof) Bound() (Digest, error) {
	root, err := p.Inclusion.Root(mtree.LeafHash(p.Header.Encode()))
	if err != nil || p.Unbound {
		return Digest{}, ErrProofInvalid
	}
	return Digest{Height: uint64(p.Inclusion.TreeSize), Root: root}, nil
}

// ---------------------------------------------------------------------------
// Decoders of the ledger's binary encodings (internal/ledger appends them)

// ReadDigest decodes a digest: uvarint height, root.
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

// ReadHeader decodes a block header in its canonical encoding.
func ReadHeader(src []byte) (BlockHeader, []byte, error) {
	if len(src) < HeaderWireLen {
		return BlockHeader{}, nil, binenc.ErrCorrupt
	}
	h, _ := DecodeHeader(src[:HeaderWireLen]) // of the one length it takes
	return h, src[HeaderWireLen:], nil
}

// ReadProofAs decodes a proof (ledger.AppendProof): its block binding
// unless unbound says it travelled without one, a uvarint shape —
// hasPoint | nRanges<<1 — then the point part if any (ReadBatchProof) and
// the range parts. A single read's part lives in the proof itself; values,
// found flags and rows do not travel, and are read off the walk that
// verifies them (Cells).
func ReadProofAs(src []byte, unbound bool) (*Proof, []byte, error) {
	d := binenc.Decoder{Src: src}
	p := &Proof{Unbound: unbound}
	if !unbound {
		p.Header, p.Inclusion = binenc.Read(&d, ReadHeader), binenc.Read(&d, mtree.ReadInclusionProof)
	}
	shape := binenc.Read(&d, binenc.ReadUvarint)
	if shape&1 != 0 {
		p.SetPoint(binenc.Read(&d, ReadBatchProof))
	}
	var n int
	if d.Err == nil {
		n, d.Err = binenc.Count(shape>>1, d.Src, 3)
	}
	for i := 0; i < n && d.Err == nil; i++ {
		p.AddRange(binenc.Read(&d, ReadRangeProof))
	}
	if d.Err != nil {
		return nil, nil, d.Err
	}
	return p, d.Src, nil
}

// ReadBatchQuery decodes a batch query.
func ReadBatchQuery(src []byte) (BatchQuery, []byte, error) {
	d := binenc.Decoder{Src: src}
	q := BatchQuery{Table: binenc.Read(&d, binenc.ReadString), Column: binenc.Read(&d, binenc.ReadString),
		PK: binenc.Read(&d, binenc.ReadBytes), PKHi: binenc.Read(&d, binenc.ReadBytes), Range: binenc.Read(&d, binenc.ReadBool)}
	return q, d.Src, d.Err
}

// ReadBatchQueries decodes a nil-preserving batch query list.
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

// ReadClusterDigest decodes a cluster digest: a count, the shard digests,
// the combined root. It does not Check the root.
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
