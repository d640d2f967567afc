package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"spitz/internal/core"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/v5-responses.golden from the current encoder")

// goldenPath pins this build's bytes; v3Path and v4Path hold what a
// binary/v3 and a binary/v4 server sent for the same rows, the fixtures of
// their refusal.
const (
	goldenPath = "testdata/v5-responses.golden"
	v3Path     = "testdata/v3-responses.golden"
	v4Path     = "testdata/v4-responses.golden"
)

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

// goldenResponses encodes every proof-carrying response shape — a
// verified point read (hit, miss, key beyond the tree's max), a verified
// range, an audit flush, a point SELECT and a cell's history — cold,
// unbound, warm-elided and patched, in order, then a single engine's and
// a cluster's write ack.
func goldenResponses(t *testing.T) (order []string, got map[string]string) {
	t.Helper()
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
	got = map[string]string{}
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
	// against: no proof and the zero digest.
	empty := core.New(core.Options{})
	for _, r := range []row{{"get-empty", get("pk01210")}, {"range-empty", rng}} {
		resp := Dispatch(empty, r.req)
		got[r.name], order = hex.EncodeToString(AppendResponse(nil, &resp)), append(order, r.name)
	}
	patched := func(r *Request) { r.Have, r.Height = have, d.Height }
	batch2 := Request{Op: OpProveBatch, OldDigest: d2, OldDigest2: &d2, Audits: audits}
	history := func(pk string) Request { return Request{Op: OpHistory, Table: "t", Column: "c", PK: []byte(pk)} }
	for _, r := range []row{
		{"get-patched", with(get("pk01210"), patched)},
		{"range-patched", with(rng, patched)},
		{"prove-batch-patched", with(batch2, warm)},
		{"query-patched", with(query, patched)},
		{"history-linked", history("pk01210")}, // a head linking the version it replaced
		{"history-first", history("pk01211a")},
		{"history-miss", history("pk01210x")},
		{"history-warm-unbound", with(history("pk01210"), func(r *Request) { warm(r); r.Height, r.HeadHeld = d2.Height, true })},
	} {
		got[r.name], order = encode(r.req), append(order, r.name)
	}
	// A write ack: a single engine's names its block, a cluster's only the
	// commit's version (ClusterDB.write answers with it).
	got["put"], order = encode(Request{Op: OpPut, Statement: "put", Puts: []Put{{Table: "t", Column: "c", PK: []byte("pk01212"), Value: []byte("v")}}}), append(order, "put")
	got["put-cluster"], order = hex.EncodeToString(AppendResponse(nil, &Response{Version: 4321})), append(order, "put-cluster")
	return order, got
}

// readGolden reads a golden file: one "name hex" line per response.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
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
	return want
}

// TestV5ResponseBytes pins the binary/v5 encoding of every proof-carrying
// response shape and both write acks (goldenResponses) against bytes
// captured from the encoder and checked in. A change to any proof type
// that alters what travels fails here; run with -update-golden only for a
// deliberate format change, which also bumps ProtoBinary.
func TestV5ResponseBytes(t *testing.T) {
	order, got := goldenResponses(t)
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
	want := readGolden(t, goldenPath)
	if len(want) != len(order) {
		t.Errorf("golden file has %d responses, the test encodes %d", len(want), len(order))
	}
	for _, name := range order {
		if got[name] != want[name] {
			t.Errorf("%s: encoding changed\n got %s\nwant %s", name, got[name], want[name])
		}
	}
}

// TestV5NoLongerThanV4: v5 only deletes, so no response v4 also encoded
// is longer in v5; each row's change is logged. A write ack carries no
// header and no digest: its block's height and version, nothing else.
func TestV5NoLongerThanV4(t *testing.T) {
	v4, v5 := readGolden(t, v4Path), readGolden(t, goldenPath)
	order, _ := goldenResponses(t)
	for _, name := range order {
		if _, ok := v4[name]; !ok {
			continue // a write ack: no v4 row
		}
		was, is := len(v4[name])/2, len(v5[name])/2
		if _, ok := v5[name]; !ok || is > was {
			t.Errorf("%s: %d bytes in v4, %d in v5", name, was, is)
		}
		t.Logf("%-28s %6d -> %6d B (%+d)", name, was, is, is-was)
	}
	b, err := hex.DecodeString(v5["put"])
	if err != nil {
		t.Fatal(err)
	}
	ack, err := DecodeResponse(b)
	if err != nil || ack.Digest != (ledger.Digest{}) || ack.Proof != nil || ack.Height != 5 || ack.Version == 0 ||
		len(b) != len(AppendResponse(nil, &Response{Height: ack.Height, Version: ack.Version})) {
		t.Fatalf("write ack % x: %+v, %v; want its block's height and version alone", b, ack, err)
	}
}

// TestWarmReadBitmapsOneByte: a warm eager point read — its trusted
// height, the head's header held, index nodes hinted, a shard named — and
// its answer, unbound or bound with the consistency proof the head moved
// by, each spend one byte on their presence bits.
func TestWarmReadBitmapsOneByte(t *testing.T) {
	req := AppendRequest(nil, &Request{Op: OpGetVerified, Table: "t", Column: "c", PK: []byte("k"),
		Height: 9, HeadHeld: true, Have: []hashutil.Digest{{1}}, Shard: 2})
	if req[1] >= 0x80 {
		t.Errorf("warm read request bitmap starts % x: more than one byte", req[1:3])
	}
	v5 := readGolden(t, goldenPath)
	for _, name := range []string{"get-warm-unbound-trimmed", "get-patched"} {
		b, err := hex.DecodeString(v5[name])
		if err != nil || len(b) == 0 || b[0] >= 0x80 {
			t.Errorf("%s: response bitmap starts % x (%v): more than one byte", name, b[:min(len(b), 2)], err)
		}
	}
}

// refusedFixture serves the responses an older framing's server sent for
// three of the golden rows, behind its hello, and requires this build to
// refuse that server at its hello, by name, before a frame is read.
func refusedFixture(t *testing.T, version byte, path string) {
	t.Helper()
	old := readGolden(t, path)
	var frames bytes.Buffer
	hello := helloBytes(version)
	hello[5] = 2 // the flag v3 and v4 peers sent for the trimmed form
	frames.Write(hello[:])
	for tag, name := range []string{"get-hit", "range", "prove-batch"} {
		b, err := hex.DecodeString(old[name])
		if err != nil {
			t.Fatal(err)
		}
		(&frameWriter{w: &frames}).writeFrame(uint32(tag+1), b)
	}
	pl := NewPipeListener()
	helloStub(t, pl, frames.Bytes())
	want := fmt.Sprintf("server speaks framing v%d, this build speaks v%d", version, protoVersion)
	if _, err := Connect(pl); !errors.Is(err, ErrTransport) || !strings.Contains(err.Error(), want) {
		t.Fatalf("a v%d server's responses: %v, want the hello refused by name", version, err)
	}
}

// TestV4ResponseBytes: the binary/v4 responses are a refusal fixture. A
// v4 proof carries found flags and a batch layout v5 does not read, so a
// v4 server is refused at its hello, never decoded.
func TestV4ResponseBytes(t *testing.T) { refusedFixture(t, 4, v4Path) }

// TestV3ResponseBytes: so are the binary/v3 responses, whose leaves carry
// no version links and do not travel packed (postree.AppendNodes).
func TestV3ResponseBytes(t *testing.T) { refusedFixture(t, 3, v3Path) }
