package query_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"spitz"
	"spitz/internal/core"
	"spitz/internal/durable"
	"spitz/internal/query"
	"spitz/internal/wal"
	"spitz/internal/wire"
)

// abcRows is table t with columns a, b and c over enough rows that each
// column spans several leaves, beside a table whose name extends t's.
func abcRows() []core.Put {
	var puts []core.Put
	for i := 0; i < 300; i++ {
		pk := []byte(fmt.Sprintf("pk%04d", i))
		for _, col := range []string{"a", "b", "c"} {
			puts = append(puts, core.Put{Table: "t", Column: col, PK: pk, Value: []byte(col + string(pk))})
		}
	}
	return append(puts, core.Put{Table: "tt", Column: "z", PK: []byte("pk0000"), Value: []byte("z")})
}

func apply(t *testing.T, eng *core.Engine, puts ...core.Put) {
	t.Helper()
	if _, err := eng.Apply("seed", puts); err != nil {
		t.Fatal(err)
	}
}

// TestColumnsReadTheTree: a table's columns are the columns its keys in the
// authenticated tree name, however the engine came to hold that tree — and
// a verified SELECT * reads them from the snapshot it proves.
func TestColumnsReadTheTree(t *testing.T) {
	abc := []string{"a", "b", "c"}
	d := core.Put{Table: "t", Column: "d", PK: []byte("pk0007"), Value: []byte("d")}
	for _, tc := range []struct {
		name string
		want []string
		// columns builds the topology and reads t's columns from it.
		columns func(t *testing.T) ([]string, error)
	}{
		{"in-memory", abc, func(t *testing.T) ([]string, error) {
			eng := core.New(core.Options{})
			apply(t, eng, abcRows()...)
			return eng.Columns("t")
		}},
		{"durable reopen with a WAL tail", []string{"a", "b", "c", "d"}, func(t *testing.T) ([]string, error) {
			dir := t.TempDir()
			opts := durable.Options{Sync: wal.SyncAlways, CheckpointInterval: -1}
			m, err := durable.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			apply(t, m.Engine(), abcRows()...)
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			apply(t, m.Engine(), d) // only in the WAL
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if m, err = durable.Open(dir, opts); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			return m.Engine().Columns("t")
		}},
		{"Restore", abc, func(t *testing.T) ([]string, error) {
			src := core.New(core.Options{})
			apply(t, src, abcRows()...)
			var snap bytes.Buffer
			if err := src.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			eng, err := core.Restore(core.Options{}, &snap)
			if err != nil {
				t.Fatal(err)
			}
			return eng.Columns("t")
		}},
		{"replica", abc, func(t *testing.T) ([]string, error) {
			db, err := spitz.OpenDir(t.TempDir(), spitz.Options{Sync: spitz.SyncNever, CheckpointInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			if _, err := db.Apply("seed", abcRows()); err != nil {
				t.Fatal(err)
			}
			ln, _ := wire.Listen()
			t.Cleanup(func() { ln.Close() })
			go db.Serve(ln)
			rep, err := spitz.NewReplica(func() (*wire.Client, error) { return wire.Connect(ln) },
				spitz.ReplicaOptions{ReconnectDelay: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rep.Close)
			if err := rep.WaitForHeight(0, db.Height(), 10*time.Second); err != nil {
				t.Fatal(err)
			}
			return rep.Engine(0).Columns("t")
		}},
		{"4-shard cluster: the union over shards", []string{"a", "b", "c", "d"}, func(t *testing.T) ([]string, error) {
			c, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if _, err := c.Apply("seed", abcRows()); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Apply("one row", []core.Put{d}); err != nil {
				t.Fatal(err)
			}
			other := (c.ShardFor(d.PK) + 1) % c.Shards()
			if cols, err := c.Engine(other).Columns("t"); err != nil || !reflect.DeepEqual(cols, abc) {
				t.Fatalf("shard %d, which holds no d cell: %v %v", other, cols, err)
			}
			return c.Columns("t")
		}},
		{"a column whose cells are all tombstones", []string{"a", "b", "c", "d"}, func(t *testing.T) ([]string, error) {
			eng := core.New(core.Options{})
			apply(t, eng, abcRows()...)
			apply(t, eng, d)
			if _, err := query.Exec(eng, "DELETE FROM t WHERE pk = 'pk0007'"); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Get("t", "d", d.PK); err != core.ErrNotFound {
				t.Fatalf("deleted d cell: %v", err)
			}
			return eng.Columns("t")
		}},
		{"a verified SELECT * at a snapshot older than a new column", abc, func(t *testing.T) ([]string, error) {
			eng := core.New(core.Options{})
			apply(t, eng, abcRows()...)
			apply(t, eng, d)
			stmt, err := query.Parse("SELECT * FROM t WHERE pk BETWEEN 'pk0000' AND 'pk9999'")
			if err != nil {
				t.Fatal(err)
			}
			s := stmt.(query.Select)
			pl, err := query.PlanOf(s)
			if err != nil {
				t.Fatal(err)
			}
			covered := func(height uint64) []string {
				cells, err := query.SelectAt(eng, s, height)
				if err != nil {
					t.Fatal(err)
				}
				var cols []string
				for _, q := range pl.Queries(cells) {
					cols = append(cols, q.Column)
				}
				return cols
			}
			if head := covered(eng.Ledger().Height() - 1); !reflect.DeepEqual(head, []string{"a", "b", "c", "d"}) {
				t.Fatalf("SELECT * at the head covers %v", head)
			}
			return covered(eng.Ledger().Height() - 2), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.columns(t)
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("columns of t = %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}
