package spitz

import (
	"bytes"
	"fmt"
	"testing"

	"spitz/internal/wire"
)

// TestOneShardResponsesUnchanged: a database served as a one-shard
// deployment answers byte for byte what Dispatch on its engine answers,
// whichever of the two Shard values that address it a request names —
// the router adds nothing to a 1×0 response.
func TestOneShardResponsesUnchanged(t *testing.T) {
	served, direct := Open(Options{}), Open(Options{})
	puts := make([]wire.Put, 32)
	for i := range puts {
		puts[i] = wire.Put{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%02d", i)), Value: []byte("v")}
	}
	h := served.router()
	for _, req := range []wire.Request{
		{Op: wire.OpPut, Statement: "seed", Puts: puts},
		{Op: wire.OpGetVerified, Table: "t", Column: "c", PK: []byte("pk07")},
		{Op: wire.OpQuery, Statement: "SELECT c FROM t WHERE pk BETWEEN 'pk00' AND 'pk09'"},
		{Op: wire.OpQuery, Statement: "INSERT INTO t (pk, c) VALUES ('pk99', 'w')"},
	} {
		for _, shard := range []int{0, 1} {
			req.Shard = shard
			got, want := h.Handle(req), wire.Dispatch(direct.Engine(0), req)
			if got.Err != "" || !bytes.Equal(wire.AppendResponse(nil, &got), wire.AppendResponse(nil, &want)) {
				t.Fatalf("%s %q at shard %d: served %+v, engine answers %+v", req.Op, req.Statement, shard, got, want)
			}
		}
	}
}
