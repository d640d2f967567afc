package spitz_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"spitz"
	"spitz/internal/obs"
	"spitz/internal/twopc"
)

// txnBeginner is what DB and ClusterDB share: Begin returns the one Txn.
type txnBeginner interface {
	Begin() *spitz.Txn
	History(table, column string, pk []byte) ([]spitz.Cell, error)
}

// TestLostUpdateAgainstBlindWrites: transactions that increment one cell
// (read v, write v+"+") race blind overwrites of it; afterwards every
// increment in the cell's history must sit on the version it read. A
// blind write that lands between an increment's validation and its
// enqueue would leave an increment on a value it never saw. Three
// topologies: a DB, a 2-shard cluster written through ClusterDB.Apply,
// and a 2-shard cluster whose owning engine is written directly.
func TestLostUpdateAgainstBlindWrites(t *testing.T) {
	pk := []byte("counter")
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (txnBeginner, func(v []byte) error)
	}{
		{"DB", func(t *testing.T) (txnBeginner, func([]byte) error) {
			db := spitz.Open(spitz.Options{})
			return db, func(v []byte) error {
				_, err := db.Apply("blind", []spitz.Put{{Table: "t", Column: "c", PK: pk, Value: v}})
				return err
			}
		}},
		{"2-shard cluster", func(t *testing.T) (txnBeginner, func([]byte) error) {
			db := openMemCluster(t, 2)
			return db, func(v []byte) error {
				_, err := db.Apply("blind", []spitz.Put{{Table: "t", Column: "c", PK: pk, Value: v}})
				return err
			}
		}},
		{"cluster shard engine", func(t *testing.T) (txnBeginner, func([]byte) error) {
			db := openMemCluster(t, 2)
			eng := db.Engine(db.ShardFor(pk))
			return db, func(v []byte) error {
				_, err := eng.Apply("blind", []spitz.Put{{Table: "t", Column: "c", PK: pk, Value: v}})
				return err
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, blind := tc.open(t)
			if err := blind([]byte("b")); err != nil {
				t.Fatal(err)
			}
			const incrementers, increments, blinds = 2, 150, 300
			var wg sync.WaitGroup
			var mu sync.Mutex
			committed := 0
			for g := 0; g < incrementers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < increments; i++ {
						tx := db.Begin()
						v, _, err := tx.Get("t", "c", pk)
						if err == nil {
							err = tx.Put("t", "c", pk, append(v, '+'))
						}
						if err == nil {
							_, err = tx.Commit()
						}
						if errors.Is(err, spitz.ErrConflict) {
							continue
						}
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						committed++
						mu.Unlock()
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < blinds; i++ {
					err := blind([]byte(fmt.Sprintf("b%d", i)))
					if err != nil && !errors.Is(err, spitz.ErrConflict) {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			hist, err := db.History("t", "c", pk)
			if err != nil {
				t.Fatal(err)
			}
			lost, seen := 0, 0
			for i := 0; i+1 < len(hist); i++ { // newest first: hist[i+1] is what hist[i] replaced
				v := string(hist[i].Value)
				if !strings.HasSuffix(v, "+") {
					continue
				}
				seen++
				if read := v[:len(v)-1]; string(hist[i+1].Value) != read {
					lost++
					if lost <= 3 {
						t.Errorf("increment to %q committed on top of %q, which it never read", v, hist[i+1].Value)
					}
				}
			}
			if seen != committed {
				t.Errorf("history holds %d increments, %d were acknowledged", seen, committed)
			}
			if lost > 0 {
				t.Fatalf("%d of %d committed increments sit on a version they never read", lost, seen)
			}
		})
	}
}

// TestSQLUpdateDeleteNoPartialRow: an UPDATE of one column and a DELETE
// of the row race on a freshly inserted row (a, b). Either serial order
// leaves neither column live — the UPDATE of a deleted row affects
// nothing — and a conflict that aborts the DELETE leaves both; a live a
// beside a deleted b is what no order produces.
func TestSQLUpdateDeleteNoPartialRow(t *testing.T) {
	for _, tc := range []struct {
		name string
		exec func(t *testing.T) func(string) (spitz.QueryResult, error)
	}{
		{"DB", func(t *testing.T) func(string) (spitz.QueryResult, error) { return spitz.Open(spitz.Options{}).Exec }},
		{"2-shard cluster", func(t *testing.T) func(string) (spitz.QueryResult, error) { return openMemCluster(t, 2).Exec }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exec := tc.exec(t)
			const rounds = 200
			for r := 0; r < rounds; r++ {
				pk := fmt.Sprintf("row%03d", r)
				if _, err := exec(fmt.Sprintf("INSERT INTO t (pk, a, b) VALUES ('%s', 'a0', 'b0')", pk)); err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for _, stmt := range []string{
					fmt.Sprintf("UPDATE t SET a = 'a1' WHERE pk = '%s'", pk),
					fmt.Sprintf("DELETE FROM t WHERE pk = '%s'", pk),
				} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := exec(stmt); err != nil && !errors.Is(err, spitz.ErrConflict) {
							t.Error(err)
						}
					}()
				}
				wg.Wait()
				res, err := exec(fmt.Sprintf("SELECT a, b FROM t WHERE pk = '%s'", pk))
				if err != nil {
					t.Fatal(err)
				}
				var a, b bool
				for _, row := range res.Rows {
					_, a = row.Columns["a"]
					_, b = row.Columns["b"]
				}
				if a != b {
					t.Fatalf("round %d: a live=%v, b live=%v — a partial row no serial order leaves", r, a, b)
				}
			}
		})
	}
}

// TestConflictIsErrConflictOnEveryTopology: a transaction whose read went
// stale fails with an error that errors.Is ErrConflict, whether it ran on
// a DB, on one shard of a cluster (one gated commit) or across shards
// (two-phase commit, where it is also twopc.ErrAborted).
func TestConflictIsErrConflictOnEveryTopology(t *testing.T) {
	cluster := openMemCluster(t, 2)
	pkA, pkB := []byte("a"), []byte("b")
	for i := 0; cluster.ShardFor(pkA) == cluster.ShardFor(pkB); i++ {
		pkB = []byte(fmt.Sprintf("b%d", i))
	}
	for _, tc := range []struct {
		name   string
		begin  func() *spitz.Txn
		writes [][]byte
	}{
		{"DB", spitz.Open(spitz.Options{}).Begin, [][]byte{pkA}},
		{"one shard of a cluster", cluster.Begin, [][]byte{pkA}},
		{"across shards of a cluster", cluster.Begin, [][]byte{pkA, pkB}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tx := tc.begin()
			if _, _, err := tx.Get("t", "c", pkA); err != nil {
				t.Fatal(err)
			}
			for _, pk := range tc.writes {
				tx.Put("t", "c", pk, []byte("txn"))
			}
			// Another transaction writes what tx read, and commits first.
			other := tc.begin()
			other.Put("t", "c", pkA, []byte("other"))
			if _, err := other.Commit(); err != nil {
				t.Fatal(err)
			}
			_, err := tx.Commit()
			if !errors.Is(err, spitz.ErrConflict) {
				t.Fatalf("stale read: %v, want ErrConflict", err)
			}
			if len(tc.writes) > 1 && !errors.Is(err, twopc.ErrAborted) {
				t.Fatalf("cross-shard stale read: %v, want twopc.ErrAborted too", err)
			}
		})
	}
}

// TestOneShardWritesRunNo2PC: a ClusterDB.Apply whose keys one shard owns
// commits through that shard's gate and prepares nothing; a cross-shard
// one prepares once per shard it touches.
func TestOneShardWritesRunNo2PC(t *testing.T) {
	db := openMemCluster(t, 4)
	prepares := obs.Default.Counter("spitz_twopc_prepares_total")
	var one, all []spitz.Put
	shards := map[int]bool{}
	for i := 0; len(shards) < 3; i++ {
		pk := []byte(fmt.Sprintf("k%d", i))
		if db.ShardFor(pk) == db.ShardFor([]byte("k0")) {
			one = append(one, spitz.Put{Table: "t", Column: "c", PK: pk, Value: pk})
		}
		if !shards[db.ShardFor(pk)] {
			shards[db.ShardFor(pk)] = true
			all = append(all, spitz.Put{Table: "t", Column: "c", PK: pk, Value: pk})
		}
	}
	before := prepares.Value()
	if _, err := db.Apply("one shard", one); err != nil {
		t.Fatal(err)
	}
	if got := prepares.Value() - before; got != 0 {
		t.Fatalf("a one-shard Apply of %d puts prepared %d times, want 0", len(one), got)
	}
	before = prepares.Value()
	if _, err := db.Apply("three shards", all); err != nil {
		t.Fatal(err)
	}
	if got := prepares.Value() - before; got != 3 {
		t.Fatalf("a three-shard Apply prepared %d times, want 3", got)
	}
}

func openMemCluster(t *testing.T, shards int) *spitz.ClusterDB {
	t.Helper()
	db, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}
