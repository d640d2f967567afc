package spitz_test

import (
	"fmt"
	"sync"
	"testing"

	"spitz"
)

// TestEmbeddedSelectReadsOneSnapshot: an embedded SELECT reads every
// column of every row from one ledger snapshot per shard. A writer commits
// a and b of one row together, to the same value, while point and range
// SELECTs run beside it: a row whose a and b differ was read across two
// commits.
func TestEmbeddedSelectReadsOneSnapshot(t *testing.T) {
	db := spitz.Open(spitz.Options{})
	cluster, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for _, tc := range []struct {
		name  string
		apply func(puts []spitz.Put) error
		exec  func(statement string) (spitz.QueryResult, error)
	}{
		{"single engine", func(puts []spitz.Put) error { _, err := db.Apply("w", puts); return err }, db.Exec},
		{"2-shard cluster", func(puts []spitz.Put) error { _, err := cluster.Apply("w", puts); return err }, cluster.Exec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			write := func(i int) error {
				v := []byte(fmt.Sprint(i))
				return tc.apply([]spitz.Put{{Table: "t", Column: "a", PK: []byte("k"), Value: v},
					{Table: "t", Column: "b", PK: []byte("k"), Value: v}})
			}
			if err := write(0); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := write(i); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			torn := 0
			for i := 0; i < 3000; i++ {
				stmt := "SELECT a, b FROM t WHERE pk = 'k'"
				if i%2 == 1 {
					stmt = "SELECT a, b FROM t WHERE pk BETWEEN 'j' AND 'l'"
				}
				res, err := tc.exec(stmt)
				if err != nil || len(res.Rows) != 1 {
					close(stop)
					wg.Wait()
					t.Fatalf("%s: %+v, %v", stmt, res, err)
				}
				if row := res.Rows[0].Columns; string(row["a"]) != string(row["b"]) {
					torn++
				}
			}
			close(stop)
			wg.Wait()
			if torn > 0 {
				t.Fatalf("%d of 3000 SELECTs returned a row whose a and b come from different commits", torn)
			}
		})
	}
}

// TestEmbeddedSelectStarOnSparseShards: a cluster's `SELECT *` takes each
// shard's columns from that shard's snapshot, and a shard that holds no
// row of the table adds nothing — the table is unknown only when no shard
// has it.
func TestEmbeddedSelectStarOnSparseShards(t *testing.T) {
	cluster, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.Exec("INSERT INTO t (pk, c) VALUES ('a', 'v')"); err != nil {
		t.Fatal(err)
	}
	for stmt, rows := range map[string]int{
		"SELECT * FROM t WHERE pk BETWEEN 'a' AND 'z'": 1,
		"SELECT * FROM t WHERE pk = 'a'":               1,
		"SELECT * FROM t WHERE pk = 'b'":               0,
	} {
		if res, err := cluster.Exec(stmt); err != nil || len(res.Rows) != rows {
			t.Fatalf("%s: %d rows, %v; want %d", stmt, len(res.Rows), err, rows)
		}
	}
	if _, err := cluster.Exec("SELECT * FROM u WHERE pk = 'b'"); err == nil {
		t.Fatal("a SELECT * of a table no shard has succeeded")
	}
}
