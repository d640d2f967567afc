package proof_test

import (
	"fmt"
	"testing"

	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/postree"
	"spitz/internal/proof"
)

// BenchmarkCheckAuditFlush is the cost of the one place a proof meets its
// question, on an audit flush of 1, 16 and 128 point receipts spread over
// a 40,000-row tree: the flush's proof decoded as a client receives it,
// then Check against the receipts. ns/key is linear when the 128-key
// figure is no higher than the 1-key one.
func BenchmarkCheckAuditFlush(b *testing.B) {
	const rows = 40000
	l := cacheLedger(b, rows)
	for _, n := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			queries := make([]ledger.BatchQuery, n)
			for i := range queries {
				queries[i] = ledger.BatchQuery{Table: "t", Column: "c", PK: cachePK(i * rows / n)}
			}
			d := l.Digest()
			res, err := l.ProveBatch(d, d, queries)
			if err != nil {
				b.Fatal(err)
			}
			trimmed := ledger.Cut(res.Proof, l.Held(nil))
			wire := ledger.AppendBatchProof(nil, &trimmed)
			v := proof.NewVerifier()
			if err := v.Advance(res.Digest, mtree.ConsistencyProof{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, _, err := proof.ReadBatchProofAs(wire, false)
				if err != nil {
					b.Fatal(err)
				}
				postree.Unpack(p.Point.Nodes)
				if _, err := v.Check(p, res.Digest, queries, n, &proof.Pin{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
		})
	}
}
