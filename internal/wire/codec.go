package wire

// Hand-rolled binary codec for Request and Response, the payload layer
// of the v5 framing (see frame.go). Layout conventions come from
// internal/binenc; the proof types encode through their own packages'
// codecs so each layer owns its own wire layout.
//
// A Request is an opcode byte followed by a uvarint presence bitmap and
// the present fields in bit order; a bit no field defines is corrupt. A
// Response is the same minus the opcode. Absent fields cost zero bytes,
// and the fields of a read and its answer take the low seven bits, so a
// verified read's bitmaps are one byte each.

import (
	"encoding/binary"
	"math"
	"reflect"
	"spitz/internal/proof"

	"spitz/internal/binenc"
	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/postree"
)

// ops lists every op at its wire opcode. Opcode 0 is the empty op, which
// every handler refuses as unknown: an op this build does not know
// travels as it.
var ops = [...]Op{"", OpPut, OpGet, OpGetVerified, OpRange, OpRangeVer,
	OpHistory, OpDigest, OpConsistency, OpProveBatch, OpSnapshot, OpRestore,
	OpShardMap, OpClusterDigest, OpStats, OpReplStream, OpReplAck, OpQuery}

var opCodes = func() map[Op]byte {
	m := make(map[Op]byte, len(ops))
	for c, op := range ops {
		m[op] = byte(c)
	}
	return m
}()

// Request presence bits, in encoding order.
const (
	reqTable = 1 << iota
	reqColumn
	reqPK
	reqHeight
	reqHeadHeld // the bit is the value (Request.HeadHeld)
	// reqFingerprints carries the index nodes the client of a
	// proof-carrying read already holds: a uvarint count (at most
	// proof.MaxHave), then each digest's first postree.FingerprintSize
	// bytes. Absent — a cold client — the server ships the full proof.
	reqFingerprints
	reqShard
	reqPKHi
	reqPuts
	reqStatement
	// reqDeferred's bit is the value itself — a deferred OpQuery costs
	// zero payload bytes (like respFound).
	reqDeferred
	reqOldDigest
	reqOldDigest2
	reqAudits
	reqSnapshot
	// reqTrace carries distributed trace context (trace ID + parent span
	// ID, two fixed u64s). Absent on the unsampled majority, so the hot
	// path's encoding is byte-identical to a build without tracing.
	reqTrace

	// reqKnown is every bit a field defines.
	reqKnown = reqTrace<<1 - 1
)

// AppendRequest appends req's binary encoding.
func AppendRequest(dst []byte, req *Request) []byte {
	dst = append(dst, opCodes[req.Op])
	bits := binenc.Flag(req.Table != "", reqTable) | binenc.Flag(req.Column != "", reqColumn) |
		binenc.Flag(req.PK != nil, reqPK) | binenc.Flag(req.Height != 0, reqHeight) |
		binenc.Flag(req.HeadHeld, reqHeadHeld) | binenc.Flag(len(req.Have) != 0, reqFingerprints) |
		binenc.Flag(req.Shard != 0, reqShard) | binenc.Flag(req.PKHi != nil, reqPKHi) |
		binenc.Flag(req.Puts != nil, reqPuts) | binenc.Flag(req.Statement != "", reqStatement) |
		binenc.Flag(req.Deferred, reqDeferred) | binenc.Flag(req.OldDigest != (ledger.Digest{}), reqOldDigest) |
		binenc.Flag(req.OldDigest2 != nil, reqOldDigest2) | binenc.Flag(req.Audits != nil, reqAudits) |
		binenc.Flag(req.Snapshot != nil, reqSnapshot) | binenc.Flag(req.traceID != 0, reqTrace)
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
	if bits&reqHeight != 0 {
		dst = binenc.AppendUvarint(dst, req.Height)
	}
	if bits&reqFingerprints != 0 {
		dst = binenc.AppendUvarint(dst, uint64(len(req.Have)))
		for i := range req.Have {
			dst = append(dst, req.Have[i][:postree.FingerprintSize]...)
		}
	}
	if bits&reqShard != 0 {
		dst = binenc.AppendUvarint(dst, uint64(req.Shard))
	}
	if bits&reqPKHi != 0 {
		dst = binenc.AppendBytes(dst, req.PKHi)
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
	if bits&reqTrace != 0 {
		dst = binenc.AppendUint64(dst, req.traceID)
		dst = binenc.AppendUint64(dst, req.parentSpan)
	}
	return dst
}

// DecodeRequest decodes a full request payload; trailing bytes are a
// protocol error.
func DecodeRequest(src []byte) (Request, error) {
	var req Request
	if len(src) < 1 || int(src[0]) >= len(ops) {
		return req, binenc.ErrCorrupt
	}
	req.Op = ops[src[0]]
	d := binenc.Decoder{Src: src[1:]}
	bits := binenc.Read(&d, binenc.ReadUvarint)
	if bits&^reqKnown != 0 {
		return req, binenc.ErrCorrupt
	}
	req.Deferred, req.HeadHeld = bits&reqDeferred != 0, bits&reqHeadHeld != 0
	if bits&reqTable != 0 {
		req.Table = binenc.Read(&d, binenc.ReadString)
	}
	if bits&reqColumn != 0 {
		req.Column = binenc.Read(&d, binenc.ReadString)
	}
	if bits&reqPK != 0 {
		req.PK = binenc.Read(&d, binenc.ReadBytes)
	}
	if bits&reqHeight != 0 {
		req.Height = binenc.Read(&d, binenc.ReadUvarint)
	}
	if bits&reqFingerprints != 0 {
		const size = postree.FingerprintSize
		n := binenc.Read(&d, binenc.ReadUvarint)
		// Bounded before allocation: by proof.MaxHave and by the bytes
		// actually present. Zero is never encoded (the bit would be
		// absent), so it is rejected to keep encodings canonical. A
		// fingerprint fills its digest's first bytes.
		if d.Err == nil && (n == 0 || n > proof.MaxHave || n > uint64(len(d.Src)/size)) {
			d.Err = binenc.ErrCorrupt
		} else if d.Err == nil {
			req.Have = make([]hashutil.Digest, n)
			for i := range req.Have {
				copy(req.Have[i][:size], d.Src)
				d.Src = d.Src[size:]
			}
		}
	}
	if bits&reqShard != 0 {
		req.Shard = int(binenc.Read(&d, binenc.ReadUvarint))
	}
	if bits&reqPKHi != 0 {
		req.PKHi = binenc.Read(&d, binenc.ReadBytes)
	}
	if bits&reqPuts != 0 {
		var cnt int
		if n := binenc.Read(&d, binenc.ReadUvarint); d.Err == nil {
			cnt, d.Err = binenc.Count(n, d.Src, 6)
		}
		if d.Err == nil {
			req.Puts = make([]Put, cnt)
		}
		for i := range req.Puts {
			req.Puts[i] = binenc.Read(&d, readPut)
		}
	}
	if bits&reqStatement != 0 {
		req.Statement = binenc.Read(&d, binenc.ReadString)
	}
	if bits&reqOldDigest != 0 {
		req.OldDigest = binenc.Read(&d, proof.ReadDigest)
	}
	if bits&reqOldDigest2 != 0 {
		d2 := binenc.Read(&d, proof.ReadDigest)
		req.OldDigest2 = &d2
	}
	if bits&reqAudits != 0 {
		req.Audits = binenc.Read(&d, proof.ReadBatchQueries)
	}
	if bits&reqSnapshot != 0 {
		req.Snapshot = binenc.Read(&d, binenc.ReadBytes)
	}
	if bits&reqTrace != 0 {
		req.traceID, req.parentSpan = binenc.Read(&d, binenc.ReadUint64), binenc.Read(&d, binenc.ReadUint64)
	}
	if d.Err == nil && len(d.Src) != 0 {
		d.Err = binenc.ErrCorrupt
	}
	return req, d.Err
}

func appendPut(dst []byte, p *Put) []byte {
	dst = binenc.AppendString(dst, p.Table)
	dst = binenc.AppendString(dst, p.Column)
	dst = binenc.AppendBytes(dst, p.PK)
	dst = binenc.AppendBytes(dst, p.Value)
	return binenc.AppendBool(dst, p.Tombstone)
}

func readPut(src []byte) (Put, []byte, error) {
	d := binenc.Decoder{Src: src}
	p := Put{Table: binenc.Read(&d, binenc.ReadString), Column: binenc.Read(&d, binenc.ReadString),
		PK: binenc.Read(&d, binenc.ReadBytes), Value: binenc.Read(&d, binenc.ReadBytes), Tombstone: binenc.Read(&d, binenc.ReadBool)}
	return p, d.Src, d.Err
}

// Response presence bits, in encoding order. respFound's bit is the value
// itself — a true Found costs zero payload bytes — and so is respUnbound's:
// Proof travels without its binding.
const (
	respFound = 1 << iota
	respValue
	respCells
	respProof
	respUnbound
	respDigest
	respConsistency
	respConsistency2
	respHeight
	respVersion
	respErr
	respShardCount
	respCluster
	respStats
	respRowsAffected
	respChain

	// respKnown is every bit a field defines.
	respKnown = respChain<<1 - 1
)

// AppendResponse appends resp's binary encoding.
func AppendResponse(dst []byte, resp *Response) []byte {
	bits := binenc.Flag(resp.Found, respFound) | binenc.Flag(resp.Value != nil, respValue) |
		binenc.Flag(resp.Cells != nil, respCells) | binenc.Flag(resp.Proof != nil, respProof) |
		binenc.Flag(resp.Proof != nil && resp.Proof.Unbound, respUnbound) |
		binenc.Flag(resp.Digest != (ledger.Digest{}), respDigest) | binenc.Flag(resp.Consistency != nil, respConsistency) |
		binenc.Flag(resp.Consistency2 != nil, respConsistency2) | binenc.Flag(resp.Height != 0, respHeight) |
		binenc.Flag(resp.Version != 0, respVersion) | binenc.Flag(resp.Err != "", respErr) |
		binenc.Flag(resp.ShardCount != 0, respShardCount) | binenc.Flag(resp.Cluster != nil, respCluster) |
		binenc.Flag(resp.Stats != nil, respStats) | binenc.Flag(resp.RowsAffected != 0, respRowsAffected) |
		binenc.Flag(resp.Chain != nil, respChain)
	dst = binenc.AppendUvarint(dst, bits)
	if bits&respValue != 0 {
		dst = binenc.AppendBytes(dst, resp.Value)
	}
	if bits&respCells != 0 {
		dst = cellstore.AppendCells(dst, resp.Cells)
	}
	if bits&respProof != 0 {
		dst = ledger.AppendProof(dst, resp.Proof)
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
	if bits&respHeight != 0 {
		dst = binenc.AppendUvarint(dst, resp.Height)
	}
	if bits&respVersion != 0 {
		dst = binenc.AppendUvarint(dst, resp.Version)
	}
	if bits&respErr != 0 {
		dst = binenc.AppendString(dst, resp.Err)
	}
	if bits&respShardCount != 0 {
		dst = binenc.AppendUvarint(dst, uint64(resp.ShardCount))
	}
	if bits&respCluster != 0 {
		dst = ledger.AppendClusterDigest(dst, resp.Cluster)
	}
	if bits&respStats != 0 {
		dst = appendStats(dst, resp.Stats)
	}
	if bits&respRowsAffected != 0 {
		dst = binenc.AppendUvarint(dst, uint64(resp.RowsAffected))
	}
	if bits&respChain != 0 {
		dst = binenc.AppendByteSlices(dst, resp.Chain)
	}
	return dst
}

// DecodeResponse decodes a full response payload; trailing bytes are a
// protocol error. A proof's leaves arrive packed and leave unpacked
// (postree.AppendNodes, postree.Unpack).
func DecodeResponse(src []byte) (Response, error) {
	var resp Response
	d := binenc.Decoder{Src: src}
	bits := binenc.Read(&d, binenc.ReadUvarint)
	if bits&^respKnown != 0 || bits&(respProof|respUnbound) == respUnbound {
		return resp, binenc.ErrCorrupt
	}
	resp.Found = bits&respFound != 0
	if bits&respValue != 0 {
		resp.Value = binenc.Read(&d, binenc.ReadBytes)
	}
	if bits&respCells != 0 {
		resp.Cells = binenc.Read(&d, cellstore.ReadCells)
	}
	if bits&respProof != 0 {
		resp.Proof = binenc.Read(&d, func(b []byte) (*ledger.Proof, []byte, error) {
			return proof.ReadProofAs(b, bits&respUnbound != 0)
		})
	}
	if p := resp.Proof; p != nil {
		if p.Point != nil {
			postree.Unpack(p.Point.Nodes)
		}
		for i := range p.Ranges {
			postree.Unpack(p.Ranges[i].Nodes)
		}
	}
	if bits&respDigest != 0 {
		resp.Digest = binenc.Read(&d, proof.ReadDigest)
	}
	if bits&respConsistency != 0 {
		c := binenc.Read(&d, mtree.ReadConsistencyProof)
		resp.Consistency = &c
	}
	if bits&respConsistency2 != 0 {
		c := binenc.Read(&d, mtree.ReadConsistencyProof)
		resp.Consistency2 = &c
	}
	if bits&respHeight != 0 {
		resp.Height = binenc.Read(&d, binenc.ReadUvarint)
	}
	if bits&respVersion != 0 {
		resp.Version = binenc.Read(&d, binenc.ReadUvarint)
	}
	if bits&respErr != 0 {
		resp.Err = binenc.Read(&d, binenc.ReadString)
	}
	if bits&respShardCount != 0 {
		resp.ShardCount = int(binenc.Read(&d, binenc.ReadUvarint))
	}
	if bits&respCluster != 0 {
		resp.Cluster = binenc.Read(&d, proof.ReadClusterDigest)
	}
	if bits&respStats != 0 {
		resp.Stats = binenc.Read(&d, readStats)
	}
	if bits&respRowsAffected != 0 {
		resp.RowsAffected = int(binenc.Read(&d, binenc.ReadUvarint))
	}
	if bits&respChain != 0 {
		resp.Chain = binenc.Read(&d, binenc.ReadByteSlices)
	}
	if d.Err == nil && len(d.Src) != 0 {
		d.Err = binenc.ErrCorrupt
	}
	return resp, d.Err
}

// ---------------------------------------------------------------------------
// Stats payload

// appendStats appends the OpStats payload. Its layout follows the
// declaration order of the Stats types' fields: integers as uvarints, a
// float64 as its IEEE-754 bits big-endian, strings and bools as binenc
// writes them, a pointer as a presence byte and what it points to, a
// slice as a uvarint count and its elements.
func appendStats(dst []byte, st *Stats) []byte {
	return appendValue(dst, reflect.ValueOf(st).Elem())
}

func appendValue(dst []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Uint64:
		return binenc.AppendUvarint(dst, v.Uint())
	case reflect.Int, reflect.Int64:
		return binenc.AppendUvarint(dst, uint64(v.Int()))
	case reflect.Float64:
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case reflect.String:
		return binenc.AppendString(dst, v.String())
	case reflect.Bool:
		return binenc.AppendBool(dst, v.Bool())
	case reflect.Pointer:
		if v.IsNil() {
			return append(dst, 0)
		}
		return appendValue(append(dst, 1), v.Elem())
	case reflect.Slice:
		dst = binenc.AppendUvarint(dst, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			dst = appendValue(dst, v.Index(i))
		}
		return dst
	}
	for i := 0; i < v.NumField(); i++ {
		dst = appendValue(dst, v.Field(i))
	}
	return dst
}

// readStats decodes what appendStats appends. A count is bounded by the
// bytes left before anything is allocated: every element takes one at
// least.
func readStats(src []byte) (*Stats, []byte, error) {
	st := new(Stats)
	src, err := readValue(src, reflect.ValueOf(st).Elem())
	if err != nil {
		return nil, nil, err
	}
	return st, src, nil
}

func readValue(src []byte, v reflect.Value) ([]byte, error) {
	var err error
	switch v.Kind() {
	case reflect.Uint64, reflect.Int, reflect.Int64:
		var u uint64
		if u, src, err = binenc.ReadUvarint(src); err == nil && v.Kind() == reflect.Uint64 {
			v.SetUint(u)
		} else if err == nil {
			v.SetInt(int64(u))
		}
	case reflect.Float64:
		if len(src) < 8 {
			return nil, binenc.ErrCorrupt
		}
		v.SetFloat(math.Float64frombits(binary.BigEndian.Uint64(src)))
		src = src[8:]
	case reflect.String:
		var s string
		s, src, err = binenc.ReadString(src)
		v.SetString(s)
	case reflect.Bool:
		var b bool
		b, src, err = binenc.ReadBool(src)
		v.SetBool(b)
	case reflect.Pointer:
		var has bool
		if has, src, err = binenc.ReadBool(src); err == nil && has {
			v.Set(reflect.New(v.Type().Elem()))
			src, err = readValue(src, v.Elem())
		}
	case reflect.Slice:
		var n uint64
		var cnt int
		if n, src, err = binenc.ReadUvarint(src); err == nil {
			cnt, err = binenc.Count(n, src, 1)
		}
		if err == nil && cnt > 0 {
			v.Set(reflect.MakeSlice(v.Type(), cnt, cnt))
			for i := 0; i < cnt && err == nil; i++ {
				src, err = readValue(src, v.Index(i))
			}
		}
	default:
		for i := 0; i < v.NumField() && err == nil; i++ {
			src, err = readValue(src, v.Field(i))
		}
	}
	return src, err
}
