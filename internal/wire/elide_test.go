package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"spitz/internal/binenc"
	"spitz/internal/core"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/obs"
	"spitz/internal/posleaf"
	"spitz/internal/postree"
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

// heldPath verifies resp's full proof and returns a path holding every
// index node it shipped.
func heldPath(t testing.TB, resp Response) *postree.Path {
	t.Helper()
	got := new(postree.Path)
	if err := resp.Proof.VerifyPath(resp.Digest, got); err != nil {
		t.Fatalf("full proof: %v", err)
	}
	if len(got.Shipped) == 0 {
		t.Fatal("tree has no index level: nothing to elide")
	}
	return &postree.Path{Held: got.Shipped}
}

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
	// Byte for byte what the engine's own result encodes to, minus Cells.
	res, err := eng.GetVerified("t", "c", pk)
	if err != nil {
		t.Fatal(err)
	}
	want := AppendResponse(nil, &Response{Found: res.Found, Proof: &res.Proof, Digest: res.Digest})
	if got := AppendResponse(nil, &resp); !bytes.Equal(got, want) {
		t.Fatalf("hint-less response is not the full proof: %d bytes, want %d", len(got), len(want))
	}
	cells, err := resp.Proof.Cells()
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
// proof (elision never writes into the server's proof cache).
func TestDispatchElidesHeldNodes(t *testing.T) {
	eng, pk := elideEngine(t)
	req := Request{Op: OpGetVerified, Table: "t", Column: "c", PK: pk}
	cold := Dispatch(eng, req)
	coldBytes := AppendResponse(nil, &cold)
	path := heldPath(t, cold)

	elidedBefore := obs.Default.Counter("spitz_proof_nodes_elided_total").Value()
	hinted := req
	hinted.Have = path.Have()
	warm := Dispatch(eng, hinted)
	if warm.Err != "" || warm.Digest != cold.Digest {
		t.Fatalf("hinted read: %+v", warm)
	}
	nodes := warm.Proof.Point.Nodes
	if len(nodes) != len(cold.Proof.Point.Nodes) {
		t.Fatalf("elided proof has %d positions, full proof %d", len(nodes), len(cold.Proof.Point.Nodes))
	}
	for i, body := range nodes {
		if leaf := i == len(nodes)-1; (len(body) == 0) == leaf {
			t.Fatalf("position %d: elided=%v leaf=%v", i, len(body) == 0, leaf)
		}
	}
	if got := obs.Default.Counter("spitz_proof_nodes_elided_total").Value() - elidedBefore; got != uint64(len(nodes)-1) {
		t.Fatalf("spitz_proof_nodes_elided_total moved by %d, want %d", got, len(nodes)-1)
	}
	if err := warm.Proof.VerifyPath(warm.Digest, path); err != nil {
		t.Fatalf("elided proof: %v", err)
	}
	if err := warm.Proof.Verify(warm.Digest); !errors.Is(err, ledger.ErrProofInvalid) {
		t.Fatalf("elided proof verified with nothing held: %v", err)
	}
	warmBytes := AppendResponse(nil, &warm)
	if len(warmBytes) >= len(coldBytes)*3/4 {
		t.Fatalf("elided response is %d bytes, full one %d", len(warmBytes), len(coldBytes))
	}

	// The cold client, same key, same digest, served from the proof cache.
	again := Dispatch(eng, req)
	if again.Digest != cold.Digest {
		t.Fatal("digest moved")
	}
	if !bytes.Equal(AppendResponse(nil, &again), coldBytes) {
		t.Fatal("a cold client's proof changed after a warm client's elided read")
	}

	// The leaf's digest at the leaf's depth, a hint at the wrong depth and
	// an over-long hint are all harmless.
	leaf, err := posleaf.ParsePruned(nodes[len(nodes)-1])
	if err != nil {
		t.Fatal(err)
	}
	hinted.Have = append(path.Have(), leaf.Digest())
	if r := Dispatch(eng, hinted); len(r.Proof.Point.Nodes[len(nodes)-1]) == 0 {
		t.Fatal("leaf elided on request")
	}
	hinted.Have = append([]hashutil.Digest{{}}, path.Have()...)
	if r := Dispatch(eng, hinted); !bytes.Equal(AppendResponse(nil, &r), coldBytes) {
		t.Fatal("depth-shifted hint elided something")
	}
}

// TestElisionOverBothFramings: the hint and the elided proof survive
// binary/v2 and gob alike.
func TestElisionOverBothFramings(t *testing.T) {
	eng, pk := elideEngine(t)
	srv := NewServer(eng)
	ln, _ := Listen()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	for _, opts := range []ClientOptions{{}, {ForceGob: true}} {
		cl, err := ConnectOptions(ln, opts)
		if err != nil {
			t.Fatal(err)
		}
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
		nodes := warm.Proof.Point.Nodes
		for i, body := range nodes {
			if leaf := i == len(nodes)-1; (len(body) == 0) == leaf {
				t.Fatalf("%s position %d: elided=%v leaf=%v", cl.Proto(), i, len(body) == 0, leaf)
			}
		}
		if err := warm.Proof.VerifyPath(warm.Digest, path); err != nil {
			t.Fatalf("%s: elided proof: %v", cl.Proto(), err)
		}
		cells, err := warm.Proof.Cells()
		if err != nil || len(cells) != 1 || string(cells[0].Value) != "value-03210" {
			t.Fatalf("%s: %v %v", cl.Proto(), cells, err)
		}
		cl.Close()
	}
}

// TestDecodeRequestHaveBounds: the hint's length is checked against the
// tallest possible tree and the bytes present before anything is
// allocated.
func TestDecodeRequestHaveBounds(t *testing.T) {
	ok := Request{Op: OpGetVerified, PK: []byte("k"), Have: make([]hashutil.Digest, postree.MaxHeight)}
	enc := AppendRequest(nil, &ok)
	if dec, err := DecodeRequest(enc); err != nil || len(dec.Have) != postree.MaxHeight {
		t.Fatalf("maximal hint: %v", err)
	}
	// Locate the count (it precedes the digests, which end the payload).
	at := len(enc) - postree.MaxHeight*hashutil.DigestSize - 1
	if enc[at] != postree.MaxHeight {
		t.Fatalf("count byte not where expected: %d", enc[at])
	}
	for _, count := range []uint64{0, postree.MaxHeight + 1, 1 << 40} {
		bad := append([]byte(nil), enc[:at]...)
		bad = binenc.AppendUvarint(bad, count)
		bad = append(bad, enc[at+1:]...)
		if _, err := DecodeRequest(bad); !errors.Is(err, binenc.ErrCorrupt) {
			t.Fatalf("hint count %d: err = %v", count, err)
		}
	}
	if _, err := DecodeRequest(enc[:len(enc)-1]); !errors.Is(err, binenc.ErrCorrupt) {
		t.Fatalf("truncated hint: err = %v", err)
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
	_, present, err := leaf.Verify()
	if err != nil {
		t.Fatal(err)
	}
	first, _, _, _ := posleaf.ReadEntry(leaf.Entries)
	switch {
	case resp.Found:
		return "hit"
	case leaf.First == 0 && bytes.Compare(resp.Proof.Point.Key, first) < 0:
		return "miss below the leaf's first key"
	case present%2 == 0 && twoGroups(leaf, present):
		return "miss at a group edge"
	}
	return "miss inside a group"
}

// twoGroups reports whether the present entries span two full groups: the
// first half alone hashes to the slot after which the second half starts.
func twoGroups(leaf posleaf.Leaf, present int) bool {
	rest := leaf.Entries
	for i := 0; i < present/2; i++ {
		_, _, rest, _ = posleaf.ReadEntry(rest)
	}
	half := leaf
	half.Entries = leaf.Entries[:len(leaf.Entries)-len(rest)]
	_, n, err := half.Verify()
	return err == nil && n == present/2
}

// FuzzElidedRead feeds arbitrary bytes to the two decoders an elided read
// crosses — the request with its hint field, the response with a point
// proof whose positions may be empty — and then to verification against
// an arbitrary held path: malformed input must error, never panic or
// allocate past what the input could hold.
func FuzzElidedRead(f *testing.F) {
	eng, pk := elideEngine(f)
	req := Request{Op: OpGetVerified, Table: "t", Column: "c", PK: pk}
	cold := Dispatch(eng, req)
	path := heldPath(f, cold)
	req.Have = path.Have()
	warm := Dispatch(eng, req)
	f.Add(AppendRequest(nil, &req))
	f.Add(AppendResponse(nil, &cold))
	f.Add(AppendResponse(nil, &warm))
	// Pruned leaves in each of their shapes, cold and warm: a hit, a miss
	// inside a group, a miss at a group edge (two groups shipped), a miss
	// below a leaf's first key, and the two ends of the tree. Rows are
	// walked until one response of each shape has been seen.
	seen := map[string]bool{}
	shapes := [][]byte{[]byte(""), []byte("zzzz")}
	for i := 3200; i < 3500; i++ {
		row := []byte(fmt.Sprintf("pk%05d", i))
		shapes = append(shapes, row, append(row, '!'))
	}
	for _, pk := range shapes {
		r := Request{Op: OpGetVerified, Table: "t", Column: "c", PK: pk}
		resp := Dispatch(eng, r)
		shape := prunedShape(f, resp)
		if seen[shape] {
			continue
		}
		seen[shape] = true
		f.Add(AppendResponse(nil, &resp))
		r.Have = heldPath(f, resp).Have()
		resp = Dispatch(eng, r)
		f.Add(AppendResponse(nil, &resp))
	}
	for _, shape := range []string{"hit", "miss inside a group", "miss at a group edge", "miss below the leaf's first key"} {
		if !seen[shape] {
			f.Fatalf("no seed for a %s (have %v)", shape, seen)
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		rr := rndRequest(r)
		rr.Have = rndDigests(r, postree.MaxHeight+1)
		f.Add(AppendRequest(nil, &rr))
		resp := Response{Found: true, Proof: rndProof(r), Digest: rndLedgerDigest(r)}
		f.Add(AppendResponse(nil, &resp))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err == nil {
			if len(req.Have) > postree.MaxHeight {
				t.Fatalf("decoded a %d-digest hint", len(req.Have))
			}
			if again, err := DecodeRequest(AppendRequest(nil, &req)); err != nil || len(again.Have) != len(req.Have) {
				t.Fatalf("hint unstable across re-encode: %v", err)
			}
			if req.Op == OpGetVerified {
				Dispatch(eng, req) // any hint is safe to serve
			}
		}
		resp, err := DecodeResponse(data)
		if err != nil || resp.Proof == nil {
			return
		}
		// Whatever decoded — elided positions anywhere, leaf included —
		// verification decides, with and without held nodes.
		_ = resp.Proof.Verify(resp.Digest)
		_ = resp.Proof.VerifyPath(resp.Digest, &postree.Path{Held: path.Held})
		if resp.Proof.Point != nil {
			_ = resp.Proof.Point.VerifyPath(cold.Proof.Header.CellRoot, &postree.Path{Held: path.Held})
		}
	})
}
