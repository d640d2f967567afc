package wire

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"spitz/internal/core"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/postree"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/v3-responses.golden from the current encoder")

const goldenPath = "testdata/v3-responses.golden"

// goldenEngine is a fixed-seed engine: 4000 keys over four blocks, values
// drawn from a seeded source, so every proof it serves is the same bytes
// on every run.
func goldenEngine(t *testing.T) *core.Engine {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	eng := core.New(core.Options{})
	for base := 0; base < 4000; base += 1000 {
		puts := make([]core.Put, 1000)
		for i := range puts {
			puts[i] = core.Put{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%05d", base+i)),
				Value: []byte(fmt.Sprintf("v%d", r.Int63()))}
		}
		if _, err := eng.Apply("seed", puts); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// indexDigests returns the digests of the index nodes resp's point proof
// shipped: what a warm client holds after that read.
func indexDigests(t *testing.T, resp Response) []hashutil.Digest {
	t.Helper()
	if resp.Proof == nil || resp.Proof.Point == nil {
		t.Fatalf("no point proof: %+v", resp)
	}
	var have []hashutil.Digest
	for _, body := range resp.Proof.Point.Nodes {
		if len(body) > 0 && body[0] != 0 {
			have = append(have, hashutil.Sum(hashutil.DomainPOSIndex, body))
		}
	}
	if len(have) == 0 {
		t.Fatal("tree has no index level")
	}
	return have
}

// TestV3ResponseBytes pins the binary/v3 encoding of every proof-carrying
// response shape — a verified point read (hit, miss, key beyond the
// tree's max), a verified range, an audit flush and a point SELECT — cold,
// unbound, warm-elided and patched, against bytes captured from the
// encoder and checked in. A change to any proof type that alters what
// travels fails here; run with -update-golden only for a deliberate
// format change, which also bumps ProtoBinary. The rows not named
// "trimmed" or "patched" were captured when a peer could still ask for
// the untrimmed form: this build must send them as sent() cuts them.
func TestV3ResponseBytes(t *testing.T) {
	eng := goldenEngine(t)
	get := func(pk string) Request { return Request{Op: OpGetVerified, Table: "t", Column: "c", PK: []byte(pk)} }
	rng := Request{Op: OpRangeVer, Table: "t", Column: "c", PK: []byte("pk01190"), PKHi: []byte("pk01260")}
	d := eng.Digest()
	audits := []ledger.BatchQuery{
		{Table: "t", Column: "c", PK: []byte("pk01210")},
		{Table: "t", Column: "c", PK: []byte("pk00007x")},
		{Table: "t", Column: "c", PK: []byte("pk03100"), PKHi: []byte("pk03120"), Range: true},
		{Table: "t", Column: "c", PK: []byte("pk02999")},
	}
	batch := Request{Op: OpProveBatch, OldDigest: d, OldDigest2: &d, Audits: audits}
	query := Request{Op: OpQuery, Statement: "SELECT c FROM t WHERE pk = 'pk01210'"}
	have := indexDigests(t, Dispatch(eng, get("pk01210")))

	with := func(req Request, f func(*Request)) Request { f(&req); return req }
	warm := func(r *Request) { r.Have = have }
	unbound := func(r *Request) { r.Height, r.HeadHeld = d.Height, true }
	all := func(r *Request) { warm(r); unbound(r) }
	type row struct {
		name string
		req  Request
	}
	rows := []row{
		{"get-hit", get("pk01210")},
		{"get-miss", get("pk01210x")},
		{"get-beyond-max", Request{Op: OpGetVerified, Table: "zz", Column: "c", PK: []byte("k")}},
		{"get-first-miss", get("pk")},
		{"range", rng},
		{"range-to-end", Request{Op: OpRangeVer, Table: "t", Column: "c", PK: []byte("pk03990")}},
		{"prove-batch", batch},
		{"query-point", query},
		{"get-unbound", with(get("pk01210"), unbound)},
		{"range-unbound", with(rng, unbound)},
		{"query-unbound", with(query, unbound)},
		{"get-trimmed", get("pk01210")},
		{"get-miss-trimmed", get("pk01210x")},
		{"range-trimmed", rng},
		{"prove-batch-trimmed", batch},
		{"query-trimmed", query},
		{"get-warm", with(get("pk01210"), warm)},
		{"get-miss-warm", with(get("pk01211x"), warm)},
		{"range-warm", with(rng, warm)},
		{"prove-batch-warm", with(batch, warm)},
		{"query-warm", with(query, warm)},
		{"get-warm-unbound-trimmed", with(get("pk01210"), all)},
		{"range-warm-unbound-trimmed", with(rng, all)},
		{"query-warm-unbound-trimmed", with(query, all)},
	}
	encode := func(req Request) string {
		resp := Dispatch(eng, req)
		if resp.Err != "" {
			t.Fatalf("%+v: %s", req, resp.Err)
		}
		return hex.EncodeToString(AppendResponse(nil, &resp))
	}
	got := map[string]string{}
	var order []string
	for _, r := range rows {
		got[r.name], order = encode(r.req), append(order, r.name)
	}

	// Patched: one commit rewrites the path the warm client holds, so its
	// held index nodes are older versions the server patches against.
	if _, err := eng.Apply("churn", []core.Put{{Table: "t", Column: "c", PK: []byte("pk01210"), Value: []byte("changed")},
		{Table: "t", Column: "c", PK: []byte("pk01211a"), Value: []byte("new")}}); err != nil {
		t.Fatal(err)
	}
	d2 := eng.Digest()
	// An empty ledger answers a verified read with no history to prove it
	// against: the zero proof and the zero digest.
	empty := core.New(core.Options{})
	for _, r := range []row{{"get-empty", get("pk01210")}, {"range-empty", rng}} {
		resp := Dispatch(empty, r.req)
		got[r.name], order = hex.EncodeToString(AppendResponse(nil, &resp)), append(order, r.name)
	}
	patched := func(r *Request) { r.Have, r.Height = have, d.Height }
	batch2 := Request{Op: OpProveBatch, OldDigest: d2, OldDigest2: &d2, Audits: audits}
	for _, r := range []row{
		{"get-patched", with(get("pk01210"), patched)},
		{"range-patched", with(rng, patched)},
		{"prove-batch-patched", with(batch2, warm)},
		{"query-patched", with(query, patched)},
	} {
		got[r.name], order = encode(r.req), append(order, r.name)
	}

	if *updateGolden {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, enc, _ := strings.Cut(sc.Text(), " ")
		want[name] = enc
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(order) {
		t.Errorf("golden file has %d responses, the test encodes %d", len(want), len(order))
	}
	for _, name := range order {
		if w := sent(t, want[name]); got[name] != w {
			t.Errorf("%s: encoding changed\n got %s\nwant %s", name, got[name], w)
		}
	}
}

// sent is a hex-encoded response as this build sends it: every proof
// without the question it answers and, unbound, without the digest (fit).
// A response already in that form is returned as it is.
func sent(t *testing.T, enc string) string {
	t.Helper()
	b, err := hex.DecodeString(enc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [...]*ledger.Proof{resp.Proof, resp.BatchProof} {
		if p != nil {
			if *p = ledger.Cut(*p, postree.HeldSet{}); p.Unbound {
				resp.Digest = ledger.Digest{}
			}
		}
	}
	return hex.EncodeToString(AppendResponse(nil, &resp))
}
