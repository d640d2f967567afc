package wire

// Hand-rolled binary codec for Request and Response, the payload layer
// of the v2 framing (see frame.go). Layout conventions come from
// internal/binenc; the proof types encode through their own packages'
// codecs so each layer owns its own wire layout.
//
// A Request is an opcode byte (0 = uncommon op, spelled out as a string
// for forward compatibility) followed by a uvarint presence bitmap and
// the present fields in declaration order. A Response is the same minus
// the opcode. Absent fields cost zero bytes, so the hot read path
// (OpGet: op + table/column/pk → Found + Value + a handful of cells)
// stays a few dozen bytes.

import (
	"math"

	"spitz/internal/binenc"
	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/postree"
)

// opCodes maps each known op to its 1-based wire opcode. Opcode 0 means
// a string-encoded op follows, so new ops interoperate before they get
// a compact code.
var opCodes = map[Op]byte{
	OpPut: 1, OpGet: 2, OpGetVerified: 3, OpRange: 4, OpRangeVer: 5,
	OpLookupEq: 6, OpHistory: 7, OpDigest: 8, OpConsistency: 9,
	OpProveBatch: 10, OpSnapshot: 11, OpRestore: 12, OpShardMap: 13,
	OpClusterDigest: 14, OpStats: 15, OpReplStream: 16, OpReplAck: 17,
	OpQuery: 18,
}

var opFromCode = func() [19]Op {
	var t [19]Op
	for op, c := range opCodes {
		t[c] = op
	}
	return t
}()

// Request presence bits, in field declaration order.
const (
	reqTable = 1 << iota
	reqColumn
	reqPK
	reqPKHi
	reqValue
	reqPuts
	reqStatement
	reqOldDigest
	reqOldDigest2
	reqAudits
	reqSnapshot
	reqShard
	reqHeight
	// reqTrace carries distributed trace context (trace ID + parent span
	// ID, two fixed u64s). Absent on the unsampled majority, so the hot
	// path's encoding is byte-identical to a build without tracing.
	reqTrace
	// reqDeferred's bit is the value itself — a deferred OpQuery costs
	// zero payload bytes (like respFound).
	reqDeferred
	// reqHave carries the digests of the index nodes the client of a
	// proof-carrying read already holds: a uvarint count (at most postree.MaxHave)
	// and that many 32-byte digests. Absent — a cold or older client —
	// the server ships the full proof.
	reqHave
	reqHeadHeld // the bit is the value (Request.HeadHeld)
)

// AppendRequest appends req's binary encoding.
func AppendRequest(dst []byte, req *Request) []byte {
	code := opCodes[req.Op]
	dst = append(dst, code)
	if code == 0 {
		dst = binenc.AppendString(dst, string(req.Op))
	}
	var bits uint64
	if req.Table != "" {
		bits |= reqTable
	}
	if req.Column != "" {
		bits |= reqColumn
	}
	if req.PK != nil {
		bits |= reqPK
	}
	if req.PKHi != nil {
		bits |= reqPKHi
	}
	if req.Value != nil {
		bits |= reqValue
	}
	if req.Puts != nil {
		bits |= reqPuts
	}
	if req.Statement != "" {
		bits |= reqStatement
	}
	if req.OldDigest != (ledger.Digest{}) {
		bits |= reqOldDigest
	}
	if req.OldDigest2 != nil {
		bits |= reqOldDigest2
	}
	if req.Audits != nil {
		bits |= reqAudits
	}
	if req.Snapshot != nil {
		bits |= reqSnapshot
	}
	if req.Shard != 0 {
		bits |= reqShard
	}
	if req.Height != 0 {
		bits |= reqHeight
	}
	if req.traceID != 0 {
		bits |= reqTrace
	}
	if req.Deferred {
		bits |= reqDeferred
	}
	if len(req.Have) != 0 {
		bits |= reqHave
	}
	if req.HeadHeld {
		bits |= reqHeadHeld
	}
	dst = binenc.AppendUvarint(dst, bits)
	if bits&reqTable != 0 {
		dst = binenc.AppendString(dst, req.Table)
	}
	if bits&reqColumn != 0 {
		dst = binenc.AppendString(dst, req.Column)
	}
	if bits&reqPK != 0 {
		dst = binenc.AppendBytes(dst, req.PK)
	}
	if bits&reqPKHi != 0 {
		dst = binenc.AppendBytes(dst, req.PKHi)
	}
	if bits&reqValue != 0 {
		dst = binenc.AppendBytes(dst, req.Value)
	}
	if bits&reqPuts != 0 {
		dst = binenc.AppendUvarint(dst, uint64(len(req.Puts)))
		for i := range req.Puts {
			dst = appendPut(dst, &req.Puts[i])
		}
	}
	if bits&reqStatement != 0 {
		dst = binenc.AppendString(dst, req.Statement)
	}
	if bits&reqOldDigest != 0 {
		dst = ledger.AppendDigest(dst, req.OldDigest)
	}
	if bits&reqOldDigest2 != 0 {
		dst = ledger.AppendDigest(dst, *req.OldDigest2)
	}
	if bits&reqAudits != 0 {
		dst = ledger.AppendBatchQueries(dst, req.Audits)
	}
	if bits&reqSnapshot != 0 {
		dst = binenc.AppendBytes(dst, req.Snapshot)
	}
	if bits&reqShard != 0 {
		dst = binenc.AppendUvarint(dst, uint64(req.Shard))
	}
	if bits&reqHeight != 0 {
		dst = binenc.AppendUvarint(dst, req.Height)
	}
	if bits&reqTrace != 0 {
		dst = binenc.AppendUint64(dst, req.traceID)
		dst = binenc.AppendUint64(dst, req.parentSpan)
	}
	if bits&reqHave != 0 {
		dst = binenc.AppendUvarint(dst, uint64(len(req.Have)))
		for i := range req.Have {
			dst = append(dst, req.Have[i][:]...)
		}
	}
	return dst
}

// DecodeRequest decodes a full request payload; trailing bytes are a
// protocol error.
func DecodeRequest(src []byte) (Request, error) {
	var req Request
	if len(src) < 1 {
		return req, binenc.ErrCorrupt
	}
	code := src[0]
	src = src[1:]
	var err error
	if code == 0 {
		var s string
		if s, src, err = binenc.ReadString(src); err != nil {
			return req, err
		}
		req.Op = Op(s)
	} else {
		if int(code) >= len(opFromCode) {
			return req, binenc.ErrCorrupt
		}
		req.Op = opFromCode[code]
	}
	bits, src, err := binenc.ReadUvarint(src)
	if err != nil {
		return req, err
	}
	req.Deferred, req.HeadHeld = bits&reqDeferred != 0, bits&reqHeadHeld != 0
	if bits&reqTable != 0 {
		if req.Table, src, err = binenc.ReadString(src); err != nil {
			return req, err
		}
	}
	if bits&reqColumn != 0 {
		if req.Column, src, err = binenc.ReadString(src); err != nil {
			return req, err
		}
	}
	if bits&reqPK != 0 {
		if req.PK, src, err = binenc.ReadBytes(src); err != nil {
			return req, err
		}
	}
	if bits&reqPKHi != 0 {
		if req.PKHi, src, err = binenc.ReadBytes(src); err != nil {
			return req, err
		}
	}
	if bits&reqValue != 0 {
		if req.Value, src, err = binenc.ReadBytes(src); err != nil {
			return req, err
		}
	}
	if bits&reqPuts != 0 {
		var n uint64
		if n, src, err = binenc.ReadUvarint(src); err != nil {
			return req, err
		}
		cnt, err := binenc.Count(n, src, 6)
		if err != nil {
			return req, err
		}
		req.Puts = make([]Put, cnt)
		for i := range req.Puts {
			if src, err = readPut(src, &req.Puts[i]); err != nil {
				return req, err
			}
		}
	}
	if bits&reqStatement != 0 {
		if req.Statement, src, err = binenc.ReadString(src); err != nil {
			return req, err
		}
	}
	if bits&reqOldDigest != 0 {
		if req.OldDigest, src, err = ledger.ReadDigest(src); err != nil {
			return req, err
		}
	}
	if bits&reqOldDigest2 != 0 {
		var d ledger.Digest
		if d, src, err = ledger.ReadDigest(src); err != nil {
			return req, err
		}
		req.OldDigest2 = &d
	}
	if bits&reqAudits != 0 {
		if req.Audits, src, err = ledger.ReadBatchQueries(src); err != nil {
			return req, err
		}
	}
	if bits&reqSnapshot != 0 {
		if req.Snapshot, src, err = binenc.ReadBytes(src); err != nil {
			return req, err
		}
	}
	if bits&reqShard != 0 {
		var v uint64
		if v, src, err = binenc.ReadUvarint(src); err != nil {
			return req, err
		}
		req.Shard = int(v)
	}
	if bits&reqHeight != 0 {
		if req.Height, src, err = binenc.ReadUvarint(src); err != nil {
			return req, err
		}
	}
	if bits&reqTrace != 0 {
		if req.traceID, src, err = binenc.ReadUint64(src); err != nil {
			return req, err
		}
		if req.parentSpan, src, err = binenc.ReadUint64(src); err != nil {
			return req, err
		}
	}
	if bits&reqHave != 0 {
		var n uint64
		if n, src, err = binenc.ReadUvarint(src); err != nil {
			return req, err
		}
		// Bounded before allocation: by postree.MaxHave and by the bytes actually
		// present. Zero is never encoded (the bit would be absent), so it
		// is rejected to keep encodings canonical.
		if n == 0 || n > postree.MaxHave || n > uint64(len(src))/hashutil.DigestSize {
			return req, binenc.ErrCorrupt
		}
		req.Have = make([]hashutil.Digest, n)
		for i := range req.Have {
			copy(req.Have[i][:], src)
			src = src[hashutil.DigestSize:]
		}
	}
	if len(src) != 0 {
		return req, binenc.ErrCorrupt
	}
	return req, nil
}

func appendPut(dst []byte, p *Put) []byte {
	dst = binenc.AppendString(dst, p.Table)
	dst = binenc.AppendString(dst, p.Column)
	dst = binenc.AppendBytes(dst, p.PK)
	dst = binenc.AppendBytes(dst, p.Value)
	return binenc.AppendBool(dst, p.Tombstone)
}

func readPut(src []byte, p *Put) ([]byte, error) {
	var err error
	if p.Table, src, err = binenc.ReadString(src); err != nil {
		return nil, err
	}
	if p.Column, src, err = binenc.ReadString(src); err != nil {
		return nil, err
	}
	if p.PK, src, err = binenc.ReadBytes(src); err != nil {
		return nil, err
	}
	if p.Value, src, err = binenc.ReadBytes(src); err != nil {
		return nil, err
	}
	p.Tombstone, src, err = binenc.ReadBool(src)
	return src, err
}

// Response presence bits, in field declaration order. respFound's bit is
// the value itself — a true Found costs zero payload bytes.
const (
	respErr = 1 << iota
	respFound
	respValue
	respCells
	respProof
	respBatchProof
	respDigest
	respConsistency
	respConsistency2
	respHeader
	respShardCount
	respShard
	respCluster
	respHeight
	respStats
	respRowsAffected
	// The bit is the value: Proof, BatchProof travels without its binding.
	respUnbound
	respBatchUnbound
)

// AppendResponse appends resp's binary encoding.
func AppendResponse(dst []byte, resp *Response) []byte {
	var bits uint64
	if resp.Err != "" {
		bits |= respErr
	}
	if resp.Found {
		bits |= respFound
	}
	if resp.Value != nil {
		bits |= respValue
	}
	if resp.Cells != nil {
		bits |= respCells
	}
	if resp.Proof != nil {
		bits |= respProof
	}
	if resp.BatchProof != nil {
		bits |= respBatchProof
	}
	if resp.Digest != (ledger.Digest{}) {
		bits |= respDigest
	}
	if resp.Consistency != nil {
		bits |= respConsistency
	}
	if resp.Consistency2 != nil {
		bits |= respConsistency2
	}
	if resp.Header != (ledger.BlockHeader{}) {
		bits |= respHeader
	}
	if resp.ShardCount != 0 {
		bits |= respShardCount
	}
	if resp.Shard != 0 {
		bits |= respShard
	}
	if resp.Cluster != nil {
		bits |= respCluster
	}
	if resp.Height != 0 {
		bits |= respHeight
	}
	if resp.Stats != nil {
		bits |= respStats
	}
	if resp.RowsAffected != 0 {
		bits |= respRowsAffected
	}
	if resp.Proof != nil && resp.Proof.Unbound {
		bits |= respUnbound
	}
	if resp.BatchProof != nil && resp.BatchProof.Unbound {
		bits |= respBatchUnbound
	}
	dst = binenc.AppendUvarint(dst, bits)
	if bits&respErr != 0 {
		dst = binenc.AppendString(dst, resp.Err)
	}
	if bits&respValue != 0 {
		dst = binenc.AppendBytes(dst, resp.Value)
	}
	if bits&respCells != 0 {
		dst = cellstore.AppendCells(dst, resp.Cells)
	}
	if bits&respProof != 0 {
		dst = ledger.AppendProof(dst, resp.Proof)
	}
	if bits&respBatchProof != 0 {
		dst = ledger.AppendBatchProof(dst, resp.BatchProof)
	}
	if bits&respDigest != 0 {
		dst = ledger.AppendDigest(dst, resp.Digest)
	}
	if bits&respConsistency != 0 {
		dst = mtree.AppendConsistencyProof(dst, *resp.Consistency)
	}
	if bits&respConsistency2 != 0 {
		dst = mtree.AppendConsistencyProof(dst, *resp.Consistency2)
	}
	if bits&respHeader != 0 {
		dst = ledger.AppendHeader(dst, resp.Header)
	}
	if bits&respShardCount != 0 {
		dst = binenc.AppendUvarint(dst, uint64(resp.ShardCount))
	}
	if bits&respShard != 0 {
		dst = binenc.AppendUvarint(dst, uint64(resp.Shard))
	}
	if bits&respCluster != 0 {
		dst = ledger.AppendClusterDigest(dst, resp.Cluster)
	}
	if bits&respHeight != 0 {
		dst = binenc.AppendUvarint(dst, resp.Height)
	}
	if bits&respStats != 0 {
		dst = appendStats(dst, resp.Stats)
	}
	if bits&respRowsAffected != 0 {
		dst = binenc.AppendUvarint(dst, uint64(resp.RowsAffected))
	}
	return dst
}

// DecodeResponse decodes a full response payload; trailing bytes are a
// protocol error.
func DecodeResponse(src []byte) (Response, error) {
	var resp Response
	bits, src, err := binenc.ReadUvarint(src)
	if err != nil {
		return resp, err
	}
	resp.Found = bits&respFound != 0
	if bits&respErr != 0 {
		if resp.Err, src, err = binenc.ReadString(src); err != nil {
			return resp, err
		}
	}
	if bits&respValue != 0 {
		if resp.Value, src, err = binenc.ReadBytes(src); err != nil {
			return resp, err
		}
	}
	if bits&respCells != 0 {
		if resp.Cells, src, err = cellstore.ReadCells(src); err != nil {
			return resp, err
		}
	}
	if bits&respProof != 0 {
		if resp.Proof, src, err = ledger.ReadProofAs(src, bits&respUnbound != 0); err != nil {
			return resp, err
		}
	}
	if bits&respBatchProof != 0 {
		if resp.BatchProof, src, err = ledger.ReadBatchProofAs(src, bits&respBatchUnbound != 0); err != nil {
			return resp, err
		}
	}
	if bits&respDigest != 0 {
		if resp.Digest, src, err = ledger.ReadDigest(src); err != nil {
			return resp, err
		}
	}
	if bits&respConsistency != 0 {
		var p mtree.ConsistencyProof
		if p, src, err = mtree.ReadConsistencyProof(src); err != nil {
			return resp, err
		}
		resp.Consistency = &p
	}
	if bits&respConsistency2 != 0 {
		var p mtree.ConsistencyProof
		if p, src, err = mtree.ReadConsistencyProof(src); err != nil {
			return resp, err
		}
		resp.Consistency2 = &p
	}
	if bits&respHeader != 0 {
		if resp.Header, src, err = ledger.ReadHeader(src); err != nil {
			return resp, err
		}
	}
	if bits&respShardCount != 0 {
		var v uint64
		if v, src, err = binenc.ReadUvarint(src); err != nil {
			return resp, err
		}
		resp.ShardCount = int(v)
	}
	if bits&respShard != 0 {
		var v uint64
		if v, src, err = binenc.ReadUvarint(src); err != nil {
			return resp, err
		}
		resp.Shard = int(v)
	}
	if bits&respCluster != 0 {
		if resp.Cluster, src, err = ledger.ReadClusterDigest(src); err != nil {
			return resp, err
		}
	}
	if bits&respHeight != 0 {
		if resp.Height, src, err = binenc.ReadUvarint(src); err != nil {
			return resp, err
		}
	}
	if bits&respStats != 0 {
		if resp.Stats, src, err = readStats(src); err != nil {
			return resp, err
		}
	}
	if bits&respRowsAffected != 0 {
		var v uint64
		if v, src, err = binenc.ReadUvarint(src); err != nil {
			return resp, err
		}
		resp.RowsAffected = int(v)
	}
	if len(src) != 0 {
		return resp, binenc.ErrCorrupt
	}
	return resp, nil
}

// ---------------------------------------------------------------------------
// Stats payload

func appendStats(dst []byte, st *Stats) []byte {
	dst = binenc.AppendString(dst, st.Protocol)
	dst = binenc.AppendUvarint(dst, uint64(len(st.Shards)))
	for i := range st.Shards {
		dst = appendShardStats(dst, &st.Shards[i])
	}
	dst = binenc.AppendUvarint(dst, uint64(len(st.Metrics)))
	for i := range st.Metrics {
		dst = binenc.AppendString(dst, st.Metrics[i].Name)
		var fb [8]byte
		bits := math.Float64bits(st.Metrics[i].Value)
		for j := 0; j < 8; j++ {
			fb[j] = byte(bits >> (56 - 8*j))
		}
		dst = append(dst, fb[:]...)
	}
	return dst
}

func readStats(src []byte) (*Stats, []byte, error) {
	st := new(Stats)
	var err error
	if st.Protocol, src, err = binenc.ReadString(src); err != nil {
		return nil, nil, err
	}
	n, src, err := binenc.ReadUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	cnt, err := binenc.Count(n, src, 3)
	if err != nil {
		return nil, nil, err
	}
	if cnt > 0 {
		st.Shards = make([]ShardStats, cnt)
		for i := range st.Shards {
			if src, err = readShardStats(src, &st.Shards[i]); err != nil {
				return nil, nil, err
			}
		}
	}
	if n, src, err = binenc.ReadUvarint(src); err != nil {
		return nil, nil, err
	}
	if cnt, err = binenc.Count(n, src, 9); err != nil {
		return nil, nil, err
	}
	if cnt > 0 {
		st.Metrics = make([]Metric, cnt)
		for i := range st.Metrics {
			if st.Metrics[i].Name, src, err = binenc.ReadString(src); err != nil {
				return nil, nil, err
			}
			if len(src) < 8 {
				return nil, nil, binenc.ErrCorrupt
			}
			var bits uint64
			for j := 0; j < 8; j++ {
				bits = bits<<8 | uint64(src[j])
			}
			st.Metrics[i].Value = math.Float64frombits(bits)
			src = src[8:]
		}
	}
	return st, src, nil
}

func appendShardStats(dst []byte, sh *ShardStats) []byte {
	dst = binenc.AppendUvarint(dst, sh.Height)
	dst = binenc.AppendUvarint(dst, sh.Blocks)
	dst = binenc.AppendUvarint(dst, sh.Txns)
	if sh.WAL != nil {
		dst = append(dst, 1)
		dst = binenc.AppendUvarint(dst, sh.WAL.DurableHeight)
		dst = binenc.AppendUvarint(dst, sh.WAL.LoggedHeight)
		dst = binenc.AppendUvarint(dst, sh.WAL.OldestRetainedHeight)
		dst = binenc.AppendUvarint(dst, uint64(sh.WAL.Segments))
		dst = binenc.AppendUvarint(dst, uint64(sh.WAL.RetainedBytes))
	} else {
		dst = append(dst, 0)
	}
	dst = binenc.AppendUvarint(dst, uint64(len(sh.Followers)))
	for i := range sh.Followers {
		f := &sh.Followers[i]
		dst = binenc.AppendString(dst, f.Remote)
		dst = binenc.AppendUvarint(dst, f.StartHeight)
		dst = binenc.AppendUvarint(dst, f.SentHeight)
		dst = binenc.AppendUvarint(dst, f.AckedHeight)
		dst = binenc.AppendUvarint(dst, f.SentBytes)
		dst = binenc.AppendUvarint(dst, f.LagBlocks)
		dst = binenc.AppendUvarint(dst, f.LagBytes)
	}
	if sh.Replica != nil {
		dst = append(dst, 1)
		r := sh.Replica
		dst = binenc.AppendUvarint(dst, r.Height)
		dst = binenc.AppendBool(dst, r.Connected)
		dst = binenc.AppendString(dst, r.LastError)
		dst = binenc.AppendUvarint(dst, r.AppliedBlocks)
		dst = binenc.AppendUvarint(dst, r.AppliedBytes)
		dst = binenc.AppendUvarint(dst, r.SnapshotLoads)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

func readShardStats(src []byte, sh *ShardStats) ([]byte, error) {
	var err error
	if sh.Height, src, err = binenc.ReadUvarint(src); err != nil {
		return nil, err
	}
	if sh.Blocks, src, err = binenc.ReadUvarint(src); err != nil {
		return nil, err
	}
	if sh.Txns, src, err = binenc.ReadUvarint(src); err != nil {
		return nil, err
	}
	var has bool
	if has, src, err = binenc.ReadBool(src); err != nil {
		return nil, err
	}
	if has {
		w := new(WALStats)
		if w.DurableHeight, src, err = binenc.ReadUvarint(src); err != nil {
			return nil, err
		}
		if w.LoggedHeight, src, err = binenc.ReadUvarint(src); err != nil {
			return nil, err
		}
		if w.OldestRetainedHeight, src, err = binenc.ReadUvarint(src); err != nil {
			return nil, err
		}
		var v uint64
		if v, src, err = binenc.ReadUvarint(src); err != nil {
			return nil, err
		}
		w.Segments = int(v)
		if v, src, err = binenc.ReadUvarint(src); err != nil {
			return nil, err
		}
		w.RetainedBytes = int64(v)
		sh.WAL = w
	}
	n, src, err := binenc.ReadUvarint(src)
	if err != nil {
		return nil, err
	}
	cnt, err := binenc.Count(n, src, 7)
	if err != nil {
		return nil, err
	}
	if cnt > 0 {
		sh.Followers = make([]FollowerStats, cnt)
		for i := range sh.Followers {
			f := &sh.Followers[i]
			if f.Remote, src, err = binenc.ReadString(src); err != nil {
				return nil, err
			}
			if f.StartHeight, src, err = binenc.ReadUvarint(src); err != nil {
				return nil, err
			}
			if f.SentHeight, src, err = binenc.ReadUvarint(src); err != nil {
				return nil, err
			}
			if f.AckedHeight, src, err = binenc.ReadUvarint(src); err != nil {
				return nil, err
			}
			if f.SentBytes, src, err = binenc.ReadUvarint(src); err != nil {
				return nil, err
			}
			if f.LagBlocks, src, err = binenc.ReadUvarint(src); err != nil {
				return nil, err
			}
			if f.LagBytes, src, err = binenc.ReadUvarint(src); err != nil {
				return nil, err
			}
		}
	}
	if has, src, err = binenc.ReadBool(src); err != nil {
		return nil, err
	}
	if has {
		r := new(ReplicaStats)
		if r.Height, src, err = binenc.ReadUvarint(src); err != nil {
			return nil, err
		}
		if r.Connected, src, err = binenc.ReadBool(src); err != nil {
			return nil, err
		}
		if r.LastError, src, err = binenc.ReadString(src); err != nil {
			return nil, err
		}
		if r.AppliedBlocks, src, err = binenc.ReadUvarint(src); err != nil {
			return nil, err
		}
		if r.AppliedBytes, src, err = binenc.ReadUvarint(src); err != nil {
			return nil, err
		}
		if r.SnapshotLoads, src, err = binenc.ReadUvarint(src); err != nil {
			return nil, err
		}
		sh.Replica = r
	}
	return src, nil
}
