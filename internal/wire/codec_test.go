package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"spitz/internal/proof"
	"testing"

	"spitz/internal/binenc"
	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/posleaf"
	"spitz/internal/postree"
)

// ---------------------------------------------------------------------------
// Deterministic value generators. Every field a codec can carry gets
// exercised, including the nil/empty/zero boundaries the presence bitmap
// and nil-preserving slice encodings must not collapse.

func rndBytes(r *rand.Rand, max int) []byte {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, 1+r.Intn(max))
	r.Read(b)
	return b
}

func rndString(r *rand.Rand, max int) string {
	if r.Intn(3) == 0 {
		return ""
	}
	b := make([]byte, 1+r.Intn(max))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func rndDigest(r *rand.Rand) (d hashutil.Digest) {
	r.Read(d[:])
	return d
}

func rndLedgerDigest(r *rand.Rand) ledger.Digest {
	return ledger.Digest{Height: uint64(r.Intn(1 << 20)), Root: rndDigest(r)}
}

func rndHeader(r *rand.Rand) ledger.BlockHeader {
	return ledger.BlockHeader{
		Height:    r.Uint64(),
		Parent:    rndDigest(r),
		Version:   r.Uint64(),
		CellRoot:  rndDigest(r),
		CellCount: r.Uint64(),
		TxnCount:  r.Uint64(),
		BodyHash:  rndDigest(r),
	}
}

func rndDigests(r *rand.Rand, max int) []hashutil.Digest {
	// The digest-list encoding canonically maps empty to nil (the
	// distinction carries no meaning for proof paths), so the generator
	// never produces an empty non-nil slice.
	n := r.Intn(max)
	if n == 0 {
		return nil
	}
	ds := make([]hashutil.Digest, n)
	for i := range ds {
		ds[i] = rndDigest(r)
	}
	return ds
}

func rndNodes(r *rand.Rand) [][]byte {
	if r.Intn(4) == 0 {
		return nil
	}
	ns := make([][]byte, r.Intn(5))
	for i := range ns {
		ns[i] = rndBytes(r, 64)
	}
	return ns
}

// rndFound returns a one-entry leaf slot holding a value under key: a
// proven value travels only inside the leaf that proves it, and is read
// off the walk that verifies it, never decoded beside it.
func rndFound(r *rand.Rand, key []byte) (leaf []byte) {
	return posleaf.AppendEntry([]byte{0, 1, 0, 1}, key, append([]byte{}, rndBytes(r, 32)...)) // level | count | first | n
}

// rndKeyProof is the point part of a single read's proof: one key — none
// when it travels without it — and its leaf when found.
func rndKeyProof(r *rand.Rand) postree.BatchProof {
	key := rndBytes(r, 16)
	p := postree.BatchProof{Nodes: rndNodes(r)}
	if key != nil {
		p.Keys = [][]byte{key}
	}
	if r.Intn(2) == 0 {
		p.Nodes = append(p.Nodes, rndFound(r, key))
	}
	return p
}

func rndRangeProof(r *rand.Rand) postree.RangeProof {
	// No Entries: rows travel only inside the leaves, and Verify fills them.
	return postree.RangeProof{
		Start: rndBytes(r, 16),
		End:   rndBytes(r, 16),
		Nodes: rndNodes(r),
	}
}

// rndBatchPoints is the point part of a batch: its keys and, for each
// key found, a leaf holding it.
func rndBatchPoints(r *rand.Rand) postree.BatchProof {
	n := 1 + r.Intn(4)
	p := postree.BatchProof{Keys: make([][]byte, n), Nodes: rndNodes(r)}
	for i := 0; i < n; i++ {
		p.Keys[i] = append(rndBytes(r, 16), byte(i)) // distinct
		if r.Intn(2) == 0 {
			p.Nodes = append(p.Nodes, rndFound(r, p.Keys[i]))
		}
	}
	return p
}

// rndProof is a proof of any shape: a point part of one key (none when it
// travels without it) or of a batch's, and up to two range parts.
func rndProof(r *rand.Rand) *ledger.Proof {
	p := &ledger.Proof{
		Header: rndHeader(r),
		Inclusion: mtree.InclusionProof{
			Index: r.Intn(100), TreeSize: 100 + r.Intn(100), Path: rndDigests(r, 6),
		},
	}
	switch r.Intn(3) {
	case 0:
		pt := rndKeyProof(r)
		p.Point = &pt
	case 1:
		bp := rndBatchPoints(r)
		p.Point = &bp
	}
	for i := r.Intn(3); i > 0; i-- {
		p.Ranges = append(p.Ranges, rndRangeProof(r))
	}
	return p
}

func rndConsistency(r *rand.Rand) *mtree.ConsistencyProof {
	return &mtree.ConsistencyProof{
		OldSize: r.Intn(100), NewSize: 100 + r.Intn(100), Path: rndDigests(r, 6),
	}
}

var allOps = append(append([]Op{}, knownOps...), OpReplStream, OpReplAck)

func rndRequest(r *rand.Rand) Request {
	req := Request{
		Op:       allOps[r.Intn(len(allOps))],
		Table:    rndString(r, 12),
		Column:   rndString(r, 12),
		PK:       rndBytes(r, 16),
		PKHi:     rndBytes(r, 16),
		Shard:    r.Intn(4),
		Height:   uint64(r.Intn(1 << 30)),
		HeadHeld: r.Intn(2) == 0,
	}
	if r.Intn(2) == 0 {
		req.Statement = rndString(r, 20)
	}
	if r.Intn(2) == 0 {
		req.OldDigest = rndLedgerDigest(r)
	}
	if r.Intn(2) == 0 {
		d := rndLedgerDigest(r)
		req.OldDigest2 = &d
	}
	if r.Intn(2) == 0 {
		req.Puts = make([]Put, r.Intn(4))
		for i := range req.Puts {
			req.Puts[i] = Put{
				Table: rndString(r, 8), Column: rndString(r, 8),
				PK: rndBytes(r, 16), Value: rndBytes(r, 32),
				Tombstone: r.Intn(2) == 0,
			}
		}
	}
	if r.Intn(2) == 0 {
		req.Audits = make([]ledger.BatchQuery, r.Intn(4))
		for i := range req.Audits {
			req.Audits[i] = ledger.BatchQuery{
				Table: rndString(r, 8), Column: rndString(r, 8),
				PK: rndBytes(r, 16), PKHi: rndBytes(r, 16),
				Range: r.Intn(2) == 0,
			}
		}
	}
	if r.Intn(4) == 0 {
		req.Snapshot = rndBytes(r, 128)
	}
	if r.Intn(3) == 0 {
		req.Have = rndDigests(r, 5)
		for i := range req.Have {
			clear(req.Have[i][postree.FingerprintSize:]) // only the fingerprint travels
		}
	}
	return req
}

func rndResponse(r *rand.Rand) Response {
	resp := Response{
		Err:     rndString(r, 20),
		Found:   r.Intn(2) == 0,
		Value:   rndBytes(r, 32),
		Height:  uint64(r.Intn(1 << 30)),
		Version: uint64(r.Intn(1 << 30)),
	}
	if r.Intn(2) == 0 {
		resp.Cells = make([]cellstore.Cell, r.Intn(4))
		for i := range resp.Cells {
			resp.Cells[i] = cellstore.Cell{
				Table: rndString(r, 8), Column: rndString(r, 8),
				PK: rndBytes(r, 16), Version: r.Uint64(),
				Value: rndBytes(r, 32), Tombstone: r.Intn(2) == 0,
			}
		}
	}
	if r.Intn(3) == 0 {
		resp.Proof = rndProof(r)
	}
	if resp.Proof != nil && r.Intn(3) == 0 { // the binding left out
		*resp.Proof = ledger.Unbind(*resp.Proof)
	}
	if r.Intn(2) == 0 {
		resp.Digest = rndLedgerDigest(r)
	}
	if r.Intn(3) == 0 {
		resp.Consistency = rndConsistency(r)
	}
	if r.Intn(3) == 0 {
		resp.Consistency2 = rndConsistency(r)
	}
	if r.Intn(3) == 0 {
		resp.ShardCount = 1 + r.Intn(8)
	}
	if r.Intn(4) == 0 {
		cd := &proof.ClusterDigest{Root: rndDigest(r)}
		for i := 0; i < 1+r.Intn(4); i++ {
			cd.Shards = append(cd.Shards, rndLedgerDigest(r))
		}
		resp.Cluster = cd
	}
	if r.Intn(4) == 0 {
		st := &Stats{Protocol: ProtoBinary}
		for i := 0; i < 1+r.Intn(3); i++ {
			sh := ShardStats{Height: r.Uint64(), Blocks: r.Uint64(), Txns: r.Uint64()}
			if r.Intn(2) == 0 {
				sh.WAL = &WALStats{
					DurableHeight: r.Uint64(), LoggedHeight: r.Uint64(),
					OldestRetainedHeight: r.Uint64(),
					Segments:             r.Intn(100), RetainedBytes: int64(r.Intn(1 << 30)),
				}
			}
			if r.Intn(2) == 0 {
				sh.Followers = []FollowerStats{{
					Remote: rndString(r, 12), StartHeight: r.Uint64(),
					SentHeight: r.Uint64(), AckedHeight: r.Uint64(),
					SentBytes: r.Uint64(), LagBlocks: r.Uint64(), LagBytes: r.Uint64(),
				}}
			}
			if r.Intn(2) == 0 {
				sh.Replica = &ReplicaStats{
					Height: r.Uint64(), Connected: r.Intn(2) == 0,
					LastError:     rndString(r, 12),
					AppliedBlocks: r.Uint64(), AppliedBytes: r.Uint64(),
					SnapshotLoads: r.Uint64(),
				}
			}
			st.Shards = append(st.Shards, sh)
		}
		st.Metrics = []Metric{{Name: rndString(r, 16), Value: r.Float64() * 1e6}}
		resp.Stats = st
	}
	return resp
}

// ---------------------------------------------------------------------------
// Property tests: encode → decode → re-encode must reproduce the value
// and the bytes exactly, for every op and every field combination.

func TestRequestRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		req := rndRequest(r)
		enc := AppendRequest(nil, &req)
		dec, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(dec, req) {
			t.Fatalf("seed %d: round trip mismatch:\n in: %+v\nout: %+v", seed, req, dec)
		}
		re := AppendRequest(nil, &dec)
		if !bytes.Equal(re, enc) {
			t.Fatalf("seed %d: re-encode not byte-exact", seed)
		}
	}
}

// sameResponse is reflect.DeepEqual for responses, except that proofs are
// compared by what they carry: a ledger.Proof keeps a single read's parts
// inline, so a decoded proof holds them elsewhere than a built one.
func sameResponse(a, b Response) bool {
	ap, bp := a.Proof, b.Proof
	a.Proof, b.Proof = nil, nil
	return reflect.DeepEqual(a, b) && sameProof(ap, bp)
}

func sameProof(a, b *ledger.Proof) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Header == b.Header && reflect.DeepEqual(a.Inclusion, b.Inclusion) && a.Unbound == b.Unbound &&
		reflect.DeepEqual(a.Point, b.Point) && reflect.DeepEqual(a.Ranges, b.Ranges)
}

func TestResponseRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		resp := rndResponse(r)
		enc := AppendResponse(nil, &resp)
		dec, err := DecodeResponse(enc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !sameResponse(dec, resp) {
			t.Fatalf("seed %d: round trip mismatch:\n in: %+v\nout: %+v", seed, resp, dec)
		}
		re := AppendResponse(nil, &dec)
		if !bytes.Equal(re, enc) {
			t.Fatalf("seed %d: re-encode not byte-exact", seed)
		}
	}
}

// TestDecodeTruncated checks that every strict prefix of a valid
// encoding fails cleanly — no panic, no silent partial decode.
func TestDecodeTruncated(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		req := rndRequest(r)
		enc := AppendRequest(nil, &req)
		for i := 0; i < len(enc); i++ {
			if _, err := DecodeRequest(enc[:i]); err == nil {
				t.Fatalf("seed %d: truncated request at %d/%d decoded", seed, i, len(enc))
			}
		}
		resp := rndResponse(r)
		enc = AppendResponse(nil, &resp)
		for i := 1; i < len(enc); i++ {
			if _, err := DecodeResponse(enc[:i]); err == nil {
				// A prefix may happen to be a valid shorter encoding only
				// if it re-encodes to itself; anything else is a bug.
				dec, _ := DecodeResponse(enc[:i])
				if !bytes.Equal(AppendResponse(nil, &dec), enc[:i]) {
					t.Fatalf("seed %d: truncated response at %d/%d decoded", seed, i, len(enc))
				}
			}
		}
	}
}

// TestDecodeRejectsTrailing checks the strict end-of-payload rule.
func TestDecodeRejectsTrailing(t *testing.T) {
	req := Request{Op: OpGet, Table: "t", PK: []byte("k")}
	enc := AppendRequest(nil, &req)
	if _, err := DecodeRequest(append(enc, 0)); err == nil {
		t.Fatal("trailing byte accepted on request")
	}
	resp := Response{Found: true, Value: []byte("v")}
	enc = AppendResponse(nil, &resp)
	if _, err := DecodeResponse(append(enc, 0)); err == nil {
		t.Fatal("trailing byte accepted on response")
	}
}

// TestUndefinedPresenceBitsAreCorrupt: a presence bit that no field
// defines is corrupt, whatever follows it — the bits have no gaps, so
// these are the bits past the last field's — and so is a bit that is a
// value with a payload behind it, and an unbound proof that is not there.
func TestUndefinedPresenceBitsAreCorrupt(t *testing.T) {
	digest := opCodes[OpDigest]
	for _, enc := range [][]byte{
		binenc.AppendBytes(binenc.AppendUvarint([]byte{digest}, reqHeadHeld), []byte("v03")),
		binenc.AppendUvarint([]byte{digest}, reqKnown+1),
		binenc.AppendUvarint([]byte{digest}, 1<<18),
		binenc.AppendUvarint([]byte{digest}, 1<<25),
		binenc.AppendUvarint([]byte{digest}, 1<<63),
		{byte(len(ops))}, // an opcode past the last op's
	} {
		if _, err := DecodeRequest(enc); !errors.Is(err, binenc.ErrCorrupt) {
			t.Errorf("request % x: err = %v, want ErrCorrupt", enc, err)
		}
	}
	for _, enc := range [][]byte{
		binenc.AppendUvarint(nil, respKnown+1),
		append(binenc.AppendUvarint(nil, respFound), 3),
		binenc.AppendUvarint(nil, respUnbound),
		binenc.AppendUvarint(nil, 1<<18),
		binenc.AppendUvarint(nil, 1<<40),
	} {
		if _, err := DecodeResponse(enc); !errors.Is(err, binenc.ErrCorrupt) {
			t.Errorf("response % x: err = %v, want ErrCorrupt", enc, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Fuzzing: arbitrary bytes must never panic the decoders, and anything
// that decodes must re-encode and decode to the same value (stability).

func FuzzDecodeRequest(f *testing.F) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		req := rndRequest(r)
		f.Add(AppendRequest(nil, &req))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0xFF, 0xFF})
	for _, op := range ops { // every opcode, bare and with a read's fields
		f.Add(AppendRequest(nil, &Request{Op: op}))
		f.Add(AppendRequest(nil, &Request{Op: op, Table: "t", Column: "c", PK: []byte("k"), Height: 3, HeadHeld: true,
			Have: []hashutil.Digest{{1}}, Shard: 2}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		enc := AppendRequest(nil, &req)
		again, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("unstable round trip:\n in: %+v\nout: %+v", req, again)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		resp := rndResponse(r)
		f.Add(AppendResponse(nil, &resp))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	// Proofs of every shape uvarint from 0 (no cell part) to 5 (a point
	// part and two range parts), bound and unbound, and one whose range
	// count outruns its bytes; and a write ack.
	point := &postree.BatchProof{Keys: [][]byte{[]byte("k")}}
	for shape := 0; shape < 6; shape++ {
		var p ledger.Proof
		if shape&1 != 0 {
			p.Point = point
		}
		for i := 0; i < shape>>1; i++ {
			p.Ranges = append(p.Ranges, postree.RangeProof{Start: []byte("a")})
		}
		for _, unbound := range []bool{false, true} {
			p.Unbound = unbound
			f.Add(AppendResponse(nil, &Response{Proof: &p, Digest: ledger.Digest{Height: 1}}))
		}
	}
	f.Add(binenc.AppendUvarint(binenc.AppendUvarint(nil, respProof|respUnbound), 1<<40))
	f.Add(AppendResponse(nil, &Response{Height: 7, Version: 9}))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err != nil {
			return
		}
		enc := AppendResponse(nil, &resp)
		again, err := DecodeResponse(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("unstable round trip:\n in: %+v\nout: %+v", resp, again)
		}
	})
}
