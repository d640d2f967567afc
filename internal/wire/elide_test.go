package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"spitz/internal/proof"
	"testing"

	"spitz/internal/binenc"
	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/obs"
	"spitz/internal/posleaf"
	"spitz/internal/postree"
	"spitz/internal/query"
)

// elideEngine returns an engine whose tree has index levels (so proofs
// have something to elide) and a key in it.
func elideEngine(t testing.TB) (*core.Engine, []byte) {
	t.Helper()
	eng := core.New(core.Options{})
	for base := 0; base < 6000; base += 1000 {
		puts := make([]core.Put, 1000)
		for i := range puts {
			puts[i] = core.Put{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%05d", base+i)),
				Value: []byte(fmt.Sprintf("value-%05d", base+i))}
		}
		if _, err := eng.Apply("seed", puts); err != nil {
			t.Fatal(err)
		}
	}
	return eng, []byte("pk03210")
}

// heldNodes verifies resp's full proof (point, range or batch) and
// returns every index node it shipped.
func heldNodes(t testing.TB, resp Response) []*proof.Verified {
	t.Helper()
	got := new(proof.Path)
	if err := resp.Proof.VerifyPath(resp.Digest, got); err != nil {
		t.Fatalf("full proof: %v", err)
	}
	if len(got.Shipped) == 0 {
		t.Fatal("tree has no index level: nothing to elide")
	}
	return got.Shipped
}

// question is what req asked, as a verifier walks it: a point or range
// read's one query, an audit flush's receipts, a SELECT's plan over the
// cells resp returned.
func question(req Request, resp Response) ([]ledger.BatchQuery, error) {
	switch req.Op {
	case OpProveBatch:
		return req.Audits, nil
	case OpQuery:
		st, err := query.Parse(req.Statement)
		if err != nil {
			return nil, err
		}
		pl, err := query.PlanOf(st.(query.Select))
		if err != nil {
			return nil, err
		}
		return pl.Queries(resp.Cells), nil
	}
	return []ledger.BatchQuery{{Table: req.Table, Column: req.Column, PK: req.PK, PKHi: req.PKHi, Range: req.Op == OpRangeVer}}, nil
}

// answered is Dispatch's answer to req with the question put back into
// its proof — the point keys and range bounds fit leaves out — so that
// the proof verifies on its own (VerifyPath walks a proof's own keys), as
// a point or range read's does after Client.Do (asked).
func answered(t testing.TB, eng *core.Engine, req Request) Response {
	t.Helper()
	resp := Dispatch(eng, req)
	p := resp.Proof
	if p == nil {
		return resp
	}
	qs, err := question(req, resp)
	if err != nil {
		t.Fatal(err)
	}
	var keys [][]byte
	ranges := p.Ranges // fit's own copy, as is p.Point
	for _, q := range qs {
		if !q.Range {
			keys = append(keys, proof.CellPrefix(q.Table, q.Column, q.PK))
		} else if len(ranges) > 0 {
			ranges[0].Start, ranges[0].End = proof.RefRange(q.Table, q.Column, q.PK, q.PKHi)
			ranges = ranges[1:]
		}
	}
	if p.Point != nil {
		p.Point.Keys = keys
	}
	return resp
}

// proofCells checks resp's proof for the question req asked with a
// verifier that trusts resp's digest and holds path (nil: nothing), and
// returns the live cells its walk proves.
func proofCells(resp Response, req Request, path *proof.Path) ([]cellstore.Cell, error) {
	p := resp.Proof
	q, err := question(req, resp)
	if err != nil {
		return nil, err
	}
	v := proof.NewVerifier()
	if err := v.Advance(resp.Digest, mtree.ConsistencyProof{}); err != nil {
		return nil, err
	}
	live, err := v.Check(p, resp.Digest, q, len(q), &proof.Pin{Path: path})
	var cells []cellstore.Cell
	for _, cs := range live {
		cells = append(cells, cs...)
	}
	return cells, err
}

// pin returns a fresh path holding nodes; a path serves one verification.
func pin(nodes []*proof.Verified) *proof.Path {
	pa := proof.NewPath(len(nodes))
	for _, n := range nodes {
		pa.Pin(n)
	}
	return pa
}

// heldPath pins what heldNodes returns.
func heldPath(t testing.TB, resp Response) *proof.Path { return pin(heldNodes(t, resp)) }

// TestGetVerifiedResponseShape pins what Dispatch answers OpGetVerified
// with: the proof and Found, no Cells (the row travels in the proof
// only), and — without a hint — every node body.
func TestGetVerifiedResponseShape(t *testing.T) {
	eng, pk := elideEngine(t)
	req := Request{Op: OpGetVerified, Table: "t", Column: "c", PK: pk}
	resp := Dispatch(eng, req)
	if resp.Err != "" || !resp.Found || resp.Proof == nil {
		t.Fatalf("verified get: %+v", resp)
	}
	if resp.Cells != nil {
		t.Fatalf("OpGetVerified still ships %d cells beside the proof", len(resp.Cells))
	}
	// Byte for byte what the engine's own result encodes to, minus Cells
	// and the question.
	res, err := eng.GetVerified("t", "c", pk)
	if err != nil {
		t.Fatal(err)
	}
	sent := ledger.Cut(res.Proof, eng.Ledger().Held(nil))
	want := AppendResponse(nil, &Response{Found: res.Found, Proof: &sent, Digest: res.Digest})
	if got := AppendResponse(nil, &resp); !bytes.Equal(got, want) {
		t.Fatalf("hint-less response is not the full proof: %d bytes, want %d", len(got), len(want))
	}
	cells, err := proofCells(resp, req, nil)
	if err != nil || len(cells) != 1 || !bytes.Equal(cells[0].Value, res.Cells[0].Value) {
		t.Fatalf("row not recoverable from the proof: %v %v", cells, err)
	}
	// An absent key: Found false, still a proof, still no cells.
	resp = Dispatch(eng, Request{Op: OpGetVerified, Table: "t", Column: "c", PK: []byte("nope")})
	if resp.Err != "" || resp.Found || resp.Proof == nil || resp.Cells != nil {
		t.Fatalf("verified miss: %+v", resp)
	}
}

// TestDispatchElidesHeldNodes: a hinted request gets the same proof
// without the held bodies; the leaf always ships; a cold client asking
// for the same key at the same digest right after still gets the full
// proof (elision never writes into what the server holds).
func TestDispatchElidesHeldNodes(t *testing.T) {
	eng, pk := elideEngine(t)
	req := Request{Op: OpGetVerified, Table: "t", Column: "c", PK: pk}
	cold := answered(t, eng, req)
	coldBytes := AppendResponse(nil, &cold)
	held := heldNodes(t, cold)

	elidedBefore := obs.Default.Counter("spitz_proof_nodes_elided_total").Value()
	hinted := req
	hinted.Have = pin(held).Have()
	warm := answered(t, eng, hinted)
	if warm.Err != "" || warm.Digest != cold.Digest {
		t.Fatalf("hinted read: %+v", warm)
	}
	nodes := warm.Proof.Point.Nodes
	if len(nodes) != 1 || len(nodes[0]) == 0 || nodes[0][0] != 0 {
		t.Fatalf("a fully hinted read ships %d nodes, want the leaf alone", len(nodes))
	}
	index := len(cold.Proof.Point.Nodes) - 1
	if got := obs.Default.Counter("spitz_proof_nodes_elided_total").Value() - elidedBefore; got != uint64(index) {
		t.Fatalf("spitz_proof_nodes_elided_total moved by %d, want %d", got, index)
	}
	if err := warm.Proof.VerifyPath(warm.Digest, pin(held)); err != nil {
		t.Fatalf("elided proof: %v", err)
	}
	if err := warm.Proof.Verify(warm.Digest); !errors.Is(err, proof.ErrProofInvalid) {
		t.Fatalf("elided proof verified with nothing held: %v", err)
	}
	warmBytes := AppendResponse(nil, &warm)
	if len(warmBytes) >= len(coldBytes)*3/4 {
		t.Fatalf("elided response is %d bytes, full one %d", len(warmBytes), len(coldBytes))
	}

	// The cold client, same key, same digest.
	again := answered(t, eng, req)
	if again.Digest != cold.Digest {
		t.Fatal("digest moved")
	}
	if !bytes.Equal(AppendResponse(nil, &again), coldBytes) {
		t.Fatal("a cold client's proof changed after a warm client's elided read")
	}

	// The hint is a set: the leaf's digest in it is harmless, its order
	// and anything else in it irrelevant.
	leaf, err := posleaf.ParsePruned(nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	hinted.Have = append([]hashutil.Digest{leaf.Digest(), {}}, hinted.Have...)
	for i, j := 2, len(hinted.Have)-1; i < j; i, j = i+1, j-1 {
		hinted.Have[i], hinted.Have[j] = hinted.Have[j], hinted.Have[i]
	}
	if r := answered(t, eng, hinted); !bytes.Equal(AppendResponse(nil, &r), warmBytes) {
		t.Fatal("a reordered hint naming the leaf as well changed the response")
	}
}

// multiRow is one proof-carrying multi-row read: how to ask for it and
// how to read the rows back off the verified response.
type multiRow struct {
	name string
	req  Request
	rows func(t testing.TB, resp Response) []string // values, in proof order
	want []string
}

func multiRowReads(t testing.TB, eng *core.Engine) []multiRow {
	var want []string
	for i := 3190; i < 3260; i++ {
		want = append(want, fmt.Sprintf("value-%05d", i))
	}
	rangeRows := func(t testing.TB, resp Response) []string {
		if resp.Cells != nil {
			t.Fatalf("%d cells travel beside the proof", len(resp.Cells))
		}
		cells, err := proof.DecodeEntries(resp.Proof.Ranges[0].Entries)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range cells {
			out = append(out, string(c.Value))
		}
		return out
	}
	at := eng.Digest()
	audits := []ledger.BatchQuery{
		{Table: "t", Column: "c", PK: []byte("pk03210")},
		{Table: "t", Column: "c", PK: []byte("pk03190"), PKHi: []byte("pk03260"), Range: true},
		{Table: "t", Column: "c", PK: []byte("pk00007")},
		{Table: "t", Column: "c", PK: []byte("pk03210!")},
	}
	batchRows := func(t testing.TB, resp Response) []string {
		bp := resp.Proof
		var out []string
		if bp.Point != nil {
			for i := range bp.Point.Keys {
				if bp.Point.Found[i] {
					_, v, _, err := proof.DecodeVersion(bp.Point.Values[i])
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, string(v))
				}
			}
		}
		for i := range bp.Ranges {
			cells, err := proof.DecodeEntries(bp.Ranges[i].Entries)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				out = append(out, string(c.Value))
			}
		}
		return out
	}
	return []multiRow{
		{"range", Request{Op: OpRangeVer, Table: "t", Column: "c", PK: []byte("pk03190"), PKHi: []byte("pk03260")},
			rangeRows, want},
		{"prove-batch", Request{Op: OpProveBatch, OldDigest: at, OldDigest2: &at, Audits: audits},
			batchRows, append([]string{"value-03210", "value-00007"}, want...)},
		{"query", Request{Op: OpQuery, Statement: "SELECT c FROM t WHERE pk BETWEEN 'pk03190' AND 'pk03259'"},
			batchRows, want},
	}
}

func verifyMultiRow(resp Response, path *proof.Path) error {
	return resp.Proof.VerifyPath(resp.Digest, path)
}

func proofNodes(resp Response) (nodes [][]byte, entries int) {
	p := resp.Proof
	if p.Point != nil {
		nodes = append(nodes, p.Point.Nodes...)
	}
	for i := range p.Ranges {
		nodes = append(nodes, p.Ranges[i].Nodes...)
		entries += len(p.Ranges[i].Entries)
	}
	return nodes, entries
}

// TestDispatchMultiRowProofs: the range, batch and query reads follow
// the point read's rule. Without a hint the proof is complete — it
// verifies with nothing held — but its leaves are pruned and its rows
// travel once, inside them; with a hint no held index node travels
// either; and neither response touches what the engine hands anyone else.
func TestDispatchMultiRowProofs(t *testing.T) {
	eng, _ := elideEngine(t)
	for _, m := range multiRowReads(t, eng) {
		t.Run(m.name, func(t *testing.T) {
			cold := answered(t, eng, m.req)
			if cold.Err != "" {
				t.Fatal(cold.Err)
			}
			coldBytes := AppendResponse(nil, &cold)
			nodes, entries := proofNodes(cold)
			if entries != 0 {
				t.Fatalf("%d rows travel beside the leaves that hold them", entries)
			}
			// The edge leaves of a 70-row range hold rows outside it, and
			// the points' leaves ~30 rows each: whole, the leaves alone
			// would outweigh this.
			leafBytes := 0
			for _, body := range nodes {
				if body[0] == 0 {
					leafBytes += len(body)
				}
			}
			if perRow := leafBytes / len(m.want); perRow > 60 {
				t.Fatalf("%d leaf bytes for %d rows: leaves are not pruned", leafBytes, len(m.want))
			}
			held := heldNodes(t, cold) // verifies with nothing held, fills the rows
			if got := m.rows(t, cold); fmt.Sprint(got) != fmt.Sprint(m.want) {
				t.Fatalf("rows off the cold proof: %v", got)
			}

			elidedBefore := obs.Default.Counter("spitz_proof_nodes_elided_total").Value()
			hinted := m.req
			hinted.Have = pin(held).Have()
			warm := answered(t, eng, hinted)
			if warm.Err != "" || warm.Digest != cold.Digest {
				t.Fatalf("hinted read: %+v", warm)
			}
			warmNodes, _ := proofNodes(warm)
			for _, body := range warmNodes {
				if body[0] != 0 {
					t.Fatal("an index node travelled to a client that holds it")
				}
			}
			indexBytes := 0
			for _, body := range nodes {
				if body[0] != 0 {
					indexBytes += len(body)
				}
			}
			if warmBytes := AppendResponse(nil, &warm); len(coldBytes)-len(warmBytes) < indexBytes {
				t.Fatalf("elided response is %d bytes, full one %d with %d bytes of index nodes",
					len(warmBytes), len(coldBytes), indexBytes)
			}
			if got := obs.Default.Counter("spitz_proof_nodes_elided_total").Value() - elidedBefore; got != uint64(len(nodes)-len(warmNodes)) {
				t.Fatalf("spitz_proof_nodes_elided_total moved by %d, want %d", got, len(nodes)-len(warmNodes))
			}
			if err := verifyMultiRow(warm, nil); !errors.Is(err, proof.ErrProofInvalid) {
				t.Fatalf("elided proof verified with nothing held: %v", err)
			}
			if err := verifyMultiRow(warm, pin(held)); err != nil {
				t.Fatalf("elided proof: %v", err)
			}
			if got := m.rows(t, warm); fmt.Sprint(got) != fmt.Sprint(m.want) {
				t.Fatalf("rows off the warm proof: %v", got)
			}
			// The engine's own answer is still fully populated, and the
			// next cold client's response byte-identical.
			again := answered(t, eng, m.req)
			if !bytes.Equal(AppendResponse(nil, &again), coldBytes) {
				t.Fatal("a cold client's proof changed after a warm client's elided read")
			}
		})
	}
	res, err := eng.Verified(ledger.BatchQuery{Table: "t", Column: "c", PK: []byte("pk03190"), PKHi: []byte("pk03260"), Range: true}, 0, nil)
	if err != nil || len(res.Proof.Ranges[0].Entries) != 70 || len(res.Cells) != 70 {
		t.Fatalf("the engine's range result lost its rows: %d entries, %d cells, %v", len(res.Proof.Ranges[0].Entries), len(res.Cells), err)
	}
}

// TestElisionOverTheWire: the hint and the elided proof, of every
// shape, survive the framing.
func TestElisionOverTheWire(t *testing.T) {
	eng, pk := elideEngine(t)
	srv := NewHandlerServer(EngineHandler(eng))
	ln, _ := Listen()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := Connect(ln)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	req := Request{Op: OpGetVerified, Table: "t", Column: "c", PK: pk}
	cold, err := cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	path := heldPath(t, cold)
	req.Have = path.Have()
	warm, err := cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if nodes := warm.Proof.Point.Nodes; len(nodes) != 1 || nodes[0][0] != 0 {
		t.Fatalf("a fully hinted read ships %d nodes, want the leaf alone", len(nodes))
	}
	if err := warm.Proof.VerifyPath(warm.Digest, path); err != nil {
		t.Fatalf("elided proof: %v", err)
	}
	cells, err := proofCells(warm, req, heldPath(t, cold))
	if err != nil || len(cells) != 1 || string(cells[0].Value) != "value-03210" {
		t.Fatalf("%v %v", cells, err)
	}
	// The multi-row proofs travel without their question: each is checked
	// for the one its request asked and reads exactly the expected rows
	// (m.want lists a batch's point rows first, Check returns rows in
	// query order, so both are compared sorted), in the order the engine's
	// own full proof shows them.
	values := func(cells []cellstore.Cell) (out []string) {
		for _, c := range cells {
			out = append(out, string(c.Value))
		}
		return out
	}
	sorted := func(vs []string) []string {
		vs = slices.Clone(vs)
		slices.Sort(vs)
		return vs
	}
	for _, m := range multiRowReads(t, eng) {
		cold, err := cl.Do(m.req)
		if err != nil {
			t.Fatal(m.name, err)
		}
		coldPath := new(proof.Path)
		if _, err := proofCells(cold, m.req, coldPath); err != nil {
			t.Fatalf("%s: full proof: %v", m.name, err)
		}
		held := coldPath.Shipped
		hinted := m.req
		hinted.Have = pin(held).Have()
		warm, err := cl.Do(hinted)
		if err != nil {
			t.Fatal(m.name, err)
		}
		nodes, _ := proofNodes(warm)
		for _, body := range nodes {
			if body[0] != 0 {
				t.Fatalf("%s: an index node travelled to a client that holds it", m.name)
			}
		}
		got, err := proofCells(warm, m.req, pin(held))
		if err != nil {
			t.Fatalf("%s: elided proof: %v", m.name, err)
		}
		if fmt.Sprint(sorted(values(got))) != fmt.Sprint(sorted(m.want)) {
			t.Fatalf("%s: rows %v, want %v", m.name, values(got), m.want)
		}
		want, err := proofCells(Dispatch(eng, m.req), m.req, nil)
		if err != nil || fmt.Sprint(values(got)) != fmt.Sprint(values(want)) {
			t.Fatalf("%s: rows %v, want %v (%v)", m.name, values(got), values(want), err)
		}
	}
}

// TestDecodeRequestHaveBounds: the hint's length is checked against
// proof.MaxHave and the bytes present before anything is allocated; zero
// is never encoded, so it is refused too.
func TestDecodeRequestHaveBounds(t *testing.T) {
	ok := Request{Op: OpProveBatch, PK: []byte("k"), Have: make([]hashutil.Digest, proof.MaxHave)}
	if dec, err := DecodeRequest(AppendRequest(nil, &ok)); err != nil || len(dec.Have) != proof.MaxHave {
		t.Fatalf("maximal hint: %v", err)
	}
	// A one-node hint: the count is the byte before the fingerprint,
	// which ends the payload.
	one := Request{Op: OpGetVerified, PK: []byte("k"), Have: make([]hashutil.Digest, 1)}
	enc := AppendRequest(nil, &one)
	at := len(enc) - postree.FingerprintSize - 1
	if enc[at] != 1 {
		t.Fatalf("count byte not where expected: %d", enc[at])
	}
	for _, count := range []uint64{0, 2, proof.MaxHave + 1, 1 << 40} {
		bad := append([]byte(nil), enc[:at]...)
		bad = binenc.AppendUvarint(bad, count)
		bad = append(bad, enc[at+1:]...)
		if _, err := DecodeRequest(bad); !errors.Is(err, binenc.ErrCorrupt) {
			t.Fatalf("hint count %d: err = %v", count, err)
		}
	}
	// Over the bound with the bytes to back it.
	over := Request{Op: OpProveBatch, Have: make([]hashutil.Digest, proof.MaxHave+1)}
	if _, err := DecodeRequest(AppendRequest(nil, &over)); !errors.Is(err, binenc.ErrCorrupt) {
		t.Fatalf("hint of MaxHave+1 digests: err = %v", err)
	}
	if _, err := DecodeRequest(enc[:len(enc)-1]); !errors.Is(err, binenc.ErrCorrupt) {
		t.Fatalf("truncated hint: err = %v", err)
	}
}

// TestDecodeRequestFingerprintBounds: a hint travels as fingerprints —
// each digest's first postree.FingerprintSize bytes — and decodes to
// digests holding those, the rest zero, which encode back to its bytes.
func TestDecodeRequestFingerprintBounds(t *testing.T) {
	d := hashutil.Sum(hashutil.DomainValue, []byte("held"))
	enc := AppendRequest(nil, &Request{Op: OpGetVerified, PK: []byte("k"), Have: []hashutil.Digest{d}})
	dec, err := DecodeRequest(enc)
	var fp hashutil.Digest
	copy(fp[:postree.FingerprintSize], d[:])
	if err != nil || len(dec.Have) != 1 || dec.Have[0] != fp {
		t.Fatalf("hint decoded as %x, %v", dec.Have, err)
	}
	if again := AppendRequest(nil, &dec); !bytes.Equal(again, enc) {
		t.Fatal("a decoded hint does not encode back to its bytes")
	}
}

// prunedShape names what the pruned leaf of a verified point read ships.
func prunedShape(t testing.TB, resp Response) string {
	t.Helper()
	nodes := resp.Proof.Point.Nodes
	leaf, err := posleaf.ParsePruned(nodes[len(nodes)-1])
	if err != nil {
		return "no leaf" // beyond the largest key: an index node answers
	}
	if _, err := leaf.Verify(); err != nil {
		t.Fatal(err)
	}
	first, _, _, _ := posleaf.ReadEntry(leaf.Entries)
	switch {
	case resp.Found:
		return "hit"
	case leaf.First == 0 && bytes.Compare(resp.Proof.Point.Keys[0], first) < 0:
		return "miss below the leaf's first key"
	case leaf.N == 2:
		return "miss between two entries"
	}
	return "miss past the leaf's last key"
}

// FuzzElidedRead feeds arbitrary bytes to the two decoders an elided read
// crosses — the request with its hint field, the response with a point,
// range or batch proof any of whose nodes may be missing — and then to
// verification against an arbitrary pinned set: malformed input must
// error, never panic or allocate past what the input could hold.
func FuzzElidedRead(f *testing.F) {
	eng, pk := elideEngine(f)
	req := Request{Op: OpGetVerified, Table: "t", Column: "c", PK: pk}
	cold := answered(f, eng, req)
	held := heldNodes(f, cold)
	req.Have = pin(held).Have()
	warm := answered(f, eng, req)
	f.Add(AppendRequest(nil, &req))
	f.Add(AppendResponse(nil, &cold))
	f.Add(AppendResponse(nil, &warm))
	// Pruned leaves in each of their shapes, cold and warm: a hit (one
	// entry), a miss between two entries, a miss below a leaf's first key,
	// and the two ends of the tree. Rows are walked until one response of
	// each shape has been seen.
	seen := map[string]bool{}
	shapes := [][]byte{[]byte(""), []byte("zzzz")}
	for i := 3200; i < 3500; i++ {
		row := []byte(fmt.Sprintf("pk%05d", i))
		shapes = append(shapes, row, append(row, '!'))
	}
	for _, pk := range shapes {
		r := Request{Op: OpGetVerified, Table: "t", Column: "c", PK: pk}
		resp := answered(f, eng, r)
		shape := prunedShape(f, resp)
		if seen[shape] {
			continue
		}
		seen[shape] = true
		f.Add(AppendResponse(nil, &resp))
		r.Have = heldPath(f, resp).Have()
		resp = answered(f, eng, r)
		f.Add(AppendResponse(nil, &resp))
	}
	for _, shape := range []string{"hit", "miss between two entries", "miss below the leaf's first key"} {
		if !seen[shape] {
			f.Fatalf("no seed for a %s (have %v)", shape, seen)
		}
	}
	// The multi-row reads, cold and warm: pruned edge leaves, whole
	// interior ones, stripped rows, a batch with points and a range.
	for _, m := range multiRowReads(f, eng) {
		resp := answered(f, eng, m.req)
		f.Add(AppendRequest(nil, &m.req))
		f.Add(AppendResponse(nil, &resp))
		nodes := heldNodes(f, resp)
		held = append(held, nodes...)
		hinted := m.req
		hinted.Have = pin(nodes).Have()
		resp = answered(f, eng, hinted)
		f.Add(AppendRequest(nil, &hinted))
		f.Add(AppendResponse(nil, &resp))
	}
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		rr := rndRequest(r)
		rr.Have = rndDigests(r, 2*proof.MaxHeight)
		f.Add(AppendRequest(nil, &rr))
		resp := Response{Found: true, Proof: rndProof(r), Digest: rndLedgerDigest(r)}
		f.Add(AppendResponse(nil, &resp))
	}
	root := cold.Proof.Header.CellRoot
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err == nil {
			if len(req.Have) > proof.MaxHave {
				t.Fatalf("decoded a %d-digest hint", len(req.Have))
			}
			if again, err := DecodeRequest(AppendRequest(nil, &req)); err != nil || len(again.Have) != len(req.Have) {
				t.Fatalf("hint unstable across re-encode: %v", err)
			}
			// Any hint is safe to serve, on every read that takes one.
			switch req.Op {
			case OpGetVerified, OpRangeVer, OpProveBatch:
				Dispatch(eng, req)
			case OpQuery:
				if !query.Mutates(req.Statement) {
					Dispatch(eng, req)
				}
			}
		}
		resp, err := DecodeResponse(data)
		if err != nil {
			return
		}
		// Whatever decoded — nodes missing anywhere, leaves included, rows
		// claimed beside them — verification decides, with and without
		// pinned nodes.
		for _, p := range []*ledger.Proof{resp.Proof} {
			if p == nil {
				continue
			}
			_ = p.Verify(resp.Digest)
			_ = p.VerifyPath(resp.Digest, pin(held))
			if p.Point != nil {
				_ = p.Point.VerifyPath(root, pin(held))
			}
			for i := range p.Ranges {
				_ = p.Ranges[i].VerifyPath(root, pin(held))
			}
		}
	})
}

// patchMarker opens a node slot that carries an index node as a patch
// against a version the client holds (see internal/postree/patch.go).
const patchMarker = 0xFF

// churnEngine commits a new value for a neighbour of every row the reads
// of this file touch, so their paths — roots included — are rewritten.
func churnEngine(t testing.TB, eng *core.Engine, gen int) {
	t.Helper()
	var puts []core.Put
	for _, i := range []int{7, 3195, 3211} {
		puts = append(puts, core.Put{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%05d", i)),
			Value: []byte(fmt.Sprintf("value-%05d@%d", i, gen))})
	}
	if _, err := eng.Apply("churn", puts); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchPatchesStaleNodes: after a commit, a client that names the
// nodes it held before is sent the rewritten ones as patches against
// exactly those — for every proof shape — and the response verifies
// against its pins to the rows of the new state; the server counts nodes
// and bytes saved; and a client that names nothing gets, byte for byte, the
// whole proof it always got.
func TestDispatchPatchesStaleNodes(t *testing.T) {
	eng, pk := elideEngine(t)
	point := multiRow{name: "point", req: Request{Op: OpGetVerified, Table: "t", Column: "c", PK: pk}}
	for _, m := range append([]multiRow{point}, multiRowReads(t, eng)...) {
		t.Run(m.name, func(t *testing.T) {
			before := answered(t, eng, m.req)
			if before.Err != "" {
				t.Fatal(before.Err)
			}
			held := heldNodes(t, before)
			churnEngine(t, eng, 1)
			if m.req.Op == OpProveBatch {
				at := eng.Digest() // prove at the new head
				m.req.OldDigest, m.req.OldDigest2 = at, &at
			}
			cold := answered(t, eng, m.req)
			coldBytes := AppendResponse(nil, &cold)
			coldNodes, _ := proofNodes(cold)
			for _, slot := range coldNodes {
				if slot[0] == patchMarker {
					t.Fatal("a hint-less request was answered with a patch")
				}
			}
			if err := verifyMultiRow(cold, nil); err != nil {
				t.Fatalf("whole proof: %v", err)
			}

			nodesBefore := obs.Default.Counter("spitz_proof_nodes_patched_total").Value()
			savedBefore := obs.Default.Counter("spitz_proof_patch_bytes_saved_total").Value()
			hinted := m.req
			hinted.Have = pin(held).Have()
			warm := answered(t, eng, hinted)
			if warm.Err != "" || warm.Digest != cold.Digest {
				t.Fatalf("hinted read: %+v", warm)
			}
			named := map[hashutil.Digest]bool{}
			for _, d := range hinted.Have {
				named[d] = true
			}
			patched := 0
			warmNodes, _ := proofNodes(warm)
			for _, slot := range warmNodes {
				if slot[0] != patchMarker {
					continue
				}
				patched++
				if !named[hashutil.Digest(slot[1:1+hashutil.DigestSize])] {
					t.Fatal("a patch's base is not among the digests the request named")
				}
			}
			if patched == 0 {
				t.Fatal("no node of a path the commit rewrote travelled as a patch")
			}
			warmBytes := AppendResponse(nil, &warm)
			if got := obs.Default.Counter("spitz_proof_nodes_patched_total").Value() - nodesBefore; got != uint64(patched) {
				t.Fatalf("spitz_proof_nodes_patched_total moved by %d, want %d", got, patched)
			}
			saved := obs.Default.Counter("spitz_proof_patch_bytes_saved_total").Value() - savedBefore
			if saved == 0 || int(saved) > len(coldBytes)-len(warmBytes) {
				t.Fatalf("spitz_proof_patch_bytes_saved_total moved by %d; the response shrank by %d", saved, len(coldBytes)-len(warmBytes))
			}
			if err := verifyMultiRow(warm, nil); !errors.Is(err, proof.ErrProofInvalid) {
				t.Fatalf("patched proof verified with nothing held: %v", err)
			}
			path := pin(held)
			if err := verifyMultiRow(warm, path); err != nil {
				t.Fatalf("patched proof: %v", err)
			}
			if path.Patched != patched {
				t.Fatalf("verification counted %d patched nodes, %d travelled", path.Patched, patched)
			}
			if err := verifyMultiRow(cold, nil); err != nil {
				t.Fatal(err)
			}
			if m.rows != nil {
				if got, want := m.rows(t, warm), m.rows(t, cold); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("rows off the patched proof: %v, off the whole one: %v", got, want)
				}
			}
			// The next hint-less client is still answered in full.
			again := answered(t, eng, m.req)
			if !bytes.Equal(AppendResponse(nil, &again), coldBytes) {
				t.Fatal("a cold client's proof changed after a warm client's patched read")
			}
		})
	}
}

// FuzzPatchedRead is FuzzElidedRead for responses that carry patches: the
// seeds are the patched answers, of every proof shape, to a client one
// commit behind. Whatever decodes is verified against the nodes that
// client pinned; and the input is also read as the edits of a patch
// against each pinned node in turn, so the fuzzer reaches the edit reader
// without first having to grow a response around it. Malformed input must
// error — never panic, and never allocate past what the pinned base and
// the input's own length account for.
func FuzzPatchedRead(f *testing.F) {
	eng, pk := elideEngine(f)
	point := multiRow{name: "point", req: Request{Op: OpGetVerified, Table: "t", Column: "c", PK: pk}}
	reads := append([]multiRow{point}, multiRowReads(f, eng)...)
	var held []*proof.Verified
	for _, m := range reads {
		held = append(held, heldNodes(f, answered(f, eng, m.req))...)
	}
	churnEngine(f, eng, 1)
	var root hashutil.Digest
	for _, m := range reads {
		if m.req.Op == OpProveBatch {
			at := eng.Digest()
			m.req.OldDigest, m.req.OldDigest2 = at, &at
		}
		m.req.Have = pin(held).Have()
		resp := answered(f, eng, m.req)
		if err := verifyMultiRow(resp, pin(held)); err != nil {
			f.Fatalf("%s: patched seed: %v", m.name, err)
		}
		f.Add(AppendRequest(nil, &m.req))
		f.Add(AppendResponse(nil, &resp))
		nodes, _ := proofNodes(resp)
		for _, slot := range nodes {
			if slot[0] == patchMarker {
				f.Add(slot[1+hashutil.DigestSize:]) // the edits alone
			}
		}
		if resp.Proof != nil {
			root = resp.Proof.Header.CellRoot
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x02})                                     // delete the first entry
	f.Add([]byte{0x01, 0x01, 'k', 0x01, 'v'})               // insert before it
	f.Add([]byte{0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // a position past any base
	f.Add([]byte{0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 'k'})  // a key length past the input
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err == nil {
			switch req.Op {
			case OpGetVerified, OpRangeVer, OpProveBatch:
				Dispatch(eng, req)
			}
		}
		if resp, err := DecodeResponse(data); err == nil {
			for _, p := range []*ledger.Proof{resp.Proof} {
				if p == nil {
					continue
				}
				_ = p.VerifyPath(resp.Digest, pin(held))
				if p.Point != nil {
					_ = p.Point.VerifyPath(root, pin(held))
					_ = p.Point.Verify(root)
				}
				for i := range p.Ranges {
					_ = p.Ranges[i].VerifyPath(root, pin(held))
				}
			}
		}
		for _, base := range held {
			d := base.Digest()
			slot := append(append([]byte{patchMarker}, d[:]...), data...)
			p := postree.BatchProof{Keys: [][]byte{pk}, Values: [][]byte{nil}, Found: []bool{false}, Nodes: [][]byte{slot}}
			if err := p.VerifyPath(root, pin(held)); err == nil && len(data) > 0 {
				// A lone patched slot verifies only as the root itself,
				// proving pk beyond its largest key — which pk is not.
				t.Fatalf("a lone patched slot verified as a proof of %q", pk)
			}
		}
	})
}
