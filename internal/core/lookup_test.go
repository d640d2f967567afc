package core_test

import (
	"fmt"
	"testing"

	"spitz/internal/core"
	"spitz/internal/mtree"
	"spitz/internal/proof"
	"spitz/internal/query"
)

// TestLookupBetweenPublishAndIndex holds a commit between the ledger
// publishing its block and the engine indexing the block's cells, and runs
// a verified lookup in that window. The index is a block behind the ledger
// there: a lookup that took its candidates from it and read them at the
// new block left out the row the new block made match, and its proof
// verified. The rows must be exactly those the proven block holds for the
// predicate.
func TestLookupBetweenPublishAndIndex(t *testing.T) {
	eng := core.New(core.Options{MaintainInverted: true})
	put := func(pk, grp string) core.Put {
		return core.Put{Table: "t", Column: "grp", PK: []byte(pk), Value: []byte(grp)}
	}
	if _, err := eng.Apply("seed", []core.Put{put("a", "g1"), put("b", "g2"), put("c", "g1")}); err != nil {
		t.Fatal(err)
	}
	published, release := make(chan struct{}), make(chan struct{})
	core.SetPublishHook(func() {
		close(published)
		<-release
	})
	done := make(chan error, 1)
	go func() {
		_, err := eng.Apply("move b", []core.Put{put("b", "g1")})
		done <- err
	}()
	<-published
	stmt, err := query.Parse("SELECT grp FROM t WHERE grp = 'g1'")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(query.Select)
	vs, err := query.ExecVerifiedSelect(eng, sel, false)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	core.SetPublishHook(nil)
	if err != nil || vs.Proof == nil {
		t.Fatalf("lookup: %v, proof %v", err, vs.Proof != nil)
	}

	pl, err := query.PlanOf(sel)
	if err != nil {
		t.Fatal(err)
	}
	v := proof.NewVerifier()
	if err := v.Advance(vs.Digest, mtree.ConsistencyProof{}); err != nil {
		t.Fatal(err)
	}
	live, err := v.Check(vs.Proof, vs.Digest, pl.Queries(vs.Cells), 1, &proof.Pin{})
	if err != nil {
		t.Fatalf("the lookup's proof: %v", err)
	}
	var got []string
	for _, cs := range live {
		for _, c := range cs {
			got = append(got, string(c.PK))
		}
	}
	snap, at, err := eng.Ledger().Snapshot(vs.Proof.Header.Height)
	if err != nil {
		t.Fatal(err)
	}
	all, err := snap.RangePK("t", "grp", nil, nil, at.Version)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, c := range all {
		if string(c.Value) == "g1" {
			want = append(want, string(c.PK))
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the lookup at block %d proved rows %v; that block holds %v", at.Height, got, want)
	}
}
