package wire

import (
	"bytes"
	"fmt"
	"spitz/internal/proof"
	"testing"

	"spitz/internal/core"
	"spitz/internal/ledger"
)

// TestDispatchAnswersOnlyWhatChanged: an eager read that names the
// client's trusted height (Request.Height) is answered with what changed
// since and nothing else — the consistency proof from that height when
// the head moved, the proof without its block binding when it did not and
// the client holds that block's header (Request.HeadHeld) — for every
// eager proof-carrying op. A request that names neither gets, byte for
// byte, what it got before either field existed: the elided proof without
// its question and nothing beside it; and so does one that names the
// head's height but holds no header.
func TestDispatchAnswersOnlyWhatChanged(t *testing.T) {
	eng, pk := elideEngine(t)
	before := eng.Digest()
	// The commit writes the key read, a row of every range read: each
	// answer changed, so each is proven at the head.
	if _, err := eng.Apply("later", []core.Put{{Table: "t", Column: "c", PK: pk, Value: []byte("later")}}); err != nil {
		t.Fatal(err)
	}
	head := eng.Digest()
	for _, req := range []Request{
		{Op: OpGetVerified, Table: "t", Column: "c", PK: pk},
		{Op: OpRangeVer, Table: "t", Column: "c", PK: []byte("pk03200"), PKHi: []byte("pk03220")},
		{Op: OpQuery, Statement: "SELECT c FROM t WHERE pk BETWEEN 'pk03200' AND 'pk03219'"},
	} {
		t.Run(string(req.Op), func(t *testing.T) {
			ask := func(height uint64, held bool) (Response, []byte) {
				r := req
				r.Height, r.HeadHeld = height, held
				resp := Dispatch(eng, r)
				want := head
				if height == head.Height && held {
					want = ledger.Digest{} // unbound: its client supplies the digest
				}
				if resp.Err != "" || resp.Digest != want {
					t.Fatalf("height %d, held %v: %+v", height, held, resp)
				}
				return resp, AppendResponse(nil, &resp)
			}
			// As elision and trimming alone leave the response: what it
			// always was.
			old := dispatch(eng, req)
			if old.Proof != nil {
				*old.Proof = ledger.Trimmed(ledger.Elide(*old.Proof, eng.Ledger().Held(nil)))
			}
			if old.BatchProof != nil {
				*old.BatchProof = ledger.Trimmed(ledger.Elide(*old.BatchProof, eng.Ledger().Held(nil)))
			}
			want := AppendResponse(nil, &old)
			if _, got := ask(0, false); !bytes.Equal(got, want) {
				t.Fatalf("a request naming no height: %d bytes, want the %d it always got", len(got), len(want))
			}
			if _, got := ask(0, true); !bytes.Equal(got, want) {
				t.Fatalf("a header held at no height: %d bytes, want %d", len(got), len(want))
			}
			if _, got := ask(head.Height, false); !bytes.Equal(got, want) {
				t.Fatalf("the head's height, no header held: %d bytes, want %d", len(got), len(want))
			}

			// The head did not move, and the client holds its header.
			resp, got := ask(head.Height, true)
			bound, unbound := binding(resp)
			if !unbound || bound.Header != (ledger.BlockHeader{}) || resp.Consistency != nil {
				t.Fatalf("at the trusted height with its header held: unbound %v, header %+v, consistency %v",
					unbound, bound.Header, resp.Consistency)
			}
			if len(got) > len(want)-proof.HeaderWireLen {
				t.Fatalf("a response without its binding is %d bytes, the bound one %d", len(got), len(want))
			}
			if dec, err := DecodeResponse(got); err != nil || !bytes.Equal(AppendResponse(nil, &dec), got) {
				t.Fatalf("the unbound response does not round-trip: %v", err)
			}

			// The head moved past the trusted height: the consistency proof
			// from it rides along, and the binding with it.
			for _, held := range []bool{false, true} {
				resp, _ := ask(before.Height, held)
				if _, unbound := binding(resp); unbound || resp.Consistency == nil {
					t.Fatalf("head moved (held %v): unbound %v, consistency %v", held, unbound, resp.Consistency)
				}
				if c := resp.Consistency; c.OldSize != int(before.Height) || c.NewSize != int(head.Height) || c.Verify(before.Root, head.Root) != nil {
					t.Fatalf("head moved: consistency %d -> %d does not prove %d a prefix of %d", c.OldSize, c.NewSize, before.Height, head.Height)
				}
			}
		})
	}

	// An audit flush carries the heights it proves between itself: a
	// Height beside them changes nothing.
	flush := Request{Op: OpProveBatch, OldDigest: before, OldDigest2: &head,
		Audits: []ledger.BatchQuery{{Table: "t", Column: "c", PK: pk}}}
	plain := Dispatch(eng, flush)
	flush.Height, flush.HeadHeld = before.Height, true
	if named := Dispatch(eng, flush); !bytes.Equal(AppendResponse(nil, &named), AppendResponse(nil, &plain)) {
		t.Fatal("a prove-batch response changed with a Height beside it")
	}
}

// binding returns the block binding of resp's proof and whether it
// travels without it.
func binding(resp Response) (ledger.Proof, bool) {
	p := resp.Proof
	if p == nil {
		p = resp.BatchProof
	}
	return ledger.Proof{Header: p.Header, Inclusion: p.Inclusion}, p.Unbound
}

// TestUnchangedAnswerIsProvenAtTheTrustedHeight: an eager point or range
// read that names its trusted height with HeadHeld is answered at that
// height — the proof of the trusted block, unbound, with no digest (the
// client supplies the one it trusts) and no consistency proof — while
// every entry its answer covers is
// byte-identical there and at the head, however many commits elsewhere
// moved the head. Any change to those entries since, an update, an insert
// or a tombstone over a row already deleted (no live cell changes), gets
// the head's proof with the consistency proof from the trusted height; so
// does a request without HeadHeld.
func TestUnchangedAnswerIsProvenAtTheTrustedHeight(t *testing.T) {
	eng, pk := elideEngine(t)
	put := func(p core.Put) {
		t.Helper()
		p.Table, p.Column = "t", "c"
		if _, err := eng.Apply("churn", []core.Put{p}); err != nil {
			t.Fatal(err)
		}
	}
	put(core.Put{PK: []byte("pk03215"), Tombstone: true})
	trusted := eng.Digest()
	ask := func(req Request, held bool) Response {
		t.Helper()
		req.Table, req.Column, req.Height, req.HeadHeld = "t", "c", trusted.Height, held
		resp := Dispatch(eng, req)
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		return resp
	}
	atTrusted := func(what string, req Request) {
		t.Helper()
		resp := ask(req, true)
		if _, unbound := binding(resp); !unbound || resp.Consistency != nil || resp.Digest != (ledger.Digest{}) {
			t.Fatalf("%s: unbound %v, consistency %v, digest height %d; want the trusted height %d",
				what, unbound, resp.Consistency != nil, resp.Digest.Height, trusted.Height)
		}
		q := ledger.BatchQuery{Table: "t", Column: "c", PK: req.PK, PKHi: req.PKHi, Range: req.Op == OpRangeVer}
		p, err := eng.Ledger().Prove(trusted.Height-1, []ledger.BatchQuery{q})
		if err != nil {
			t.Fatal(err)
		}
		p = ledger.Trimmed(ledger.Unbind(ledger.Elide(p, eng.Ledger().Held(nil))))
		want := Response{Found: resp.Found, Proof: &p}
		if !bytes.Equal(AppendResponse(nil, &resp), AppendResponse(nil, &want)) {
			t.Fatalf("%s: the response is not the trusted block's proof", what)
		}
	}
	atHead := func(what string, req Request, held bool) {
		t.Helper()
		resp := ask(req, held)
		if _, unbound := binding(resp); unbound || resp.Consistency == nil || resp.Digest != eng.Digest() {
			t.Fatalf("%s: unbound %v, consistency %v, digest height %d; want the head %d",
				what, unbound, resp.Consistency != nil, resp.Digest.Height, eng.Digest().Height)
		}
	}
	point := Request{Op: OpGetVerified, PK: pk}
	absent := Request{Op: OpGetVerified, PK: []byte("pk03210~")}
	rows := Request{Op: OpRangeVer, PK: []byte("pk03200"), PKHi: []byte("pk03220")}

	for i := 0; i < 5; i++ { // commits on either side of the range, none in it
		put(core.Put{PK: []byte("pk03199"), Value: []byte(fmt.Sprint("left ", i))})
		put(core.Put{PK: []byte("pk03220"), Value: []byte(fmt.Sprint("right ", i))})
	}
	atTrusted("an unchanged key", point)
	atTrusted("an absent key", absent)
	atTrusted("an unchanged range", rows)
	atHead("an unchanged key without HeadHeld", point, false)
	atHead("an unchanged range without HeadHeld", rows, false)

	for _, c := range []struct {
		what string
		p    core.Put
	}{
		{"a row updated", core.Put{PK: []byte("pk03205"), Value: []byte("updated")}},
		{"a row inserted", core.Put{PK: []byte("pk03205~"), Value: []byte("inserted")}},
		{"a deleted row deleted again", core.Put{PK: []byte("pk03215"), Tombstone: true}},
	} {
		trusted = eng.Digest()
		put(c.p)
		atHead(c.what+" in the range", rows, true)
		atTrusted(c.what+" beside the key", point)
	}
	trusted = eng.Digest()
	put(core.Put{PK: pk, Value: []byte("changed")})
	atHead("the key changed", point, true)
}
