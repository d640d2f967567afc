package bench

import (
	"errors"
	"fmt"
	"time"

	"spitz"
	"spitz/internal/core"
	"spitz/internal/wire"
)

// QuerySmoke is the verified-query workload CI runs: a 4-shard
// in-memory cluster served over the wire protocol, driven entirely
// through Client.Query — INSERT/UPDATE/DELETE statements commit
// through the coordinator, then, under concurrent write churn that
// keeps the shard digests advancing, range scans with boolean
// predicates, COUNT/SUM aggregates and inverted-index lookups fan out
// and are verified shard by shard against the client's pinned digests
// (the churn forces the consistency-proof path, not just same-digest
// re-checks). Every
// result is checked against expectations the smoke computes itself
// while driving the workload. A second phase serves an engine whose
// OpQuery batch proofs are corrupted in flight; both a range query and
// a lookup query must trip ErrTampered. It returns an error on any
// deviation, in either direction: an honest run that fails, or a
// tampered run that passes.
func QuerySmoke() error {
	db, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 4, Options: spitz.Options{MaintainInverted: true}})
	if err != nil {
		return err
	}
	defer db.Close()
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()
	sc, err := spitz.Connect(spitz.Topology{Primary: func() (*wire.Client, error) { return wire.Connect(ln) }})
	if err != nil {
		return err
	}
	defer sc.Close()

	// Workload: 48 orders, then close every fourth and delete the last
	// two, tracking the expected live state alongside.
	const n = 48
	type order struct {
		amount int
		region string
		status string
	}
	want := make(map[int]order, n)
	for i := 0; i < n; i++ {
		region := "east"
		if i%2 == 1 {
			region = "west"
		}
		stmt := fmt.Sprintf(
			"INSERT INTO orders (pk, amount, region, status) VALUES ('ord-%03d', '%d', '%s', 'open')",
			i, i+1, region)
		res, err := sc.Query(stmt)
		if err != nil {
			return fmt.Errorf("insert %d: %w", i, err)
		}
		if res.RowsAffected != 1 {
			return fmt.Errorf("insert %d: %d rows affected", i, res.RowsAffected)
		}
		want[i] = order{amount: i + 1, region: region, status: "open"}
	}
	for i := 0; i < n; i += 4 {
		stmt := fmt.Sprintf("UPDATE orders SET status = 'closed' WHERE pk = 'ord-%03d'", i)
		res, err := sc.Query(stmt)
		if err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
		if res.RowsAffected != 1 {
			return fmt.Errorf("update %d: %d rows affected", i, res.RowsAffected)
		}
		o := want[i]
		o.status = "closed"
		want[i] = o
	}
	for _, i := range []int{n - 2, n - 1} {
		stmt := fmt.Sprintf("DELETE FROM orders WHERE pk = 'ord-%03d'", i)
		res, err := sc.Query(stmt)
		if err != nil {
			return fmt.Errorf("delete %d: %w", i, err)
		}
		if res.RowsAffected != 1 {
			return fmt.Errorf("delete %d: %d rows affected", i, res.RowsAffected)
		}
		delete(want, i)
	}

	var liveCount, liveSum, open, east int
	for _, o := range want {
		liveCount++
		liveSum += o.amount
		if o.status == "open" {
			open++
		}
		if o.region == "east" {
			east++
		}
	}

	// Write churn for the read phase: the coordinator keeps committing
	// (to a column no query below covers), so the cluster digests
	// advance between queries and verification exercises the
	// consistency-proof path, not just same-digest re-checks.
	stop := churn(time.Millisecond, func(i int) error {
		_, err := db.Exec(fmt.Sprintf("UPDATE orders SET note = 'tick-%d' WHERE pk = 'ord-%03d'", i, i%(n-2)))
		return err
	})
	defer stop()

	for round := 0; round < 3; round++ {
		// Range scan with a boolean predicate: complete across shards,
		// every surfaced row proven, merged in pk order.
		res, err := sc.Query("SELECT amount FROM orders WHERE pk BETWEEN 'ord-000' AND 'ord-999' AND status = 'open'")
		if err != nil {
			return fmt.Errorf("range scan: %w", err)
		}
		if len(res.Rows) != open {
			return fmt.Errorf("range scan: %d rows, want %d", len(res.Rows), open)
		}
		for i := 1; i < len(res.Rows); i++ {
			if string(res.Rows[i-1].PK) >= string(res.Rows[i].PK) {
				return fmt.Errorf("range scan rows out of pk order at %d", i)
			}
		}

		// Verified aggregates, re-folded client-side from proven cells.
		res, err = sc.Query("SELECT COUNT(amount) FROM orders WHERE pk BETWEEN 'ord-000' AND 'ord-999'")
		if err != nil {
			return fmt.Errorf("count: %w", err)
		}
		if !res.HasAgg || res.AggValue != uint64(liveCount) {
			return fmt.Errorf("count = %d, want %d", res.AggValue, liveCount)
		}
		res, err = sc.Query("SELECT SUM(amount) FROM orders WHERE pk BETWEEN 'ord-000' AND 'ord-999'")
		if err != nil {
			return fmt.Errorf("sum: %w", err)
		}
		if !res.HasAgg || res.AggValue != uint64(liveSum) {
			return fmt.Errorf("sum = %d, want %d", res.AggValue, liveSum)
		}

		// Inverted-index lookup fanned out across every shard.
		res, err = sc.Query("SELECT amount FROM orders WHERE region = 'east'")
		if err != nil {
			return fmt.Errorf("lookup: %w", err)
		}
		if len(res.Rows) != east {
			return fmt.Errorf("lookup: %d rows, want %d", len(res.Rows), east)
		}
	}
	if _, err := stop(); err != nil {
		return fmt.Errorf("write churn: %w", err)
	}

	// Phase 2: tamper probe. An engine served through a handler that
	// flips one byte of every query batch proof — both the range-proof
	// and point-proof paths must reject with ErrTampered.
	eng := core.New(core.Options{MaintainInverted: true})
	for i := 0; i < 8; i++ {
		status := "live"
		if i%2 == 1 {
			status = "hold"
		}
		if _, err := eng.Apply("seed", []core.Put{
			{Table: "inv", Column: "stock", PK: []byte(fmt.Sprintf("it%02d", i)), Value: []byte(fmt.Sprintf("%d", i+1))},
			{Table: "inv", Column: "status", PK: []byte(fmt.Sprintf("it%02d", i)), Value: []byte(status)},
		}); err != nil {
			return err
		}
	}
	tamperLn, _ := wire.Listen()
	tampered := wire.NewHandlerServer(wire.MutateHandler(wire.EngineHandler(eng), flipFirstNode(wire.OpQuery)))
	go tampered.Serve(tamperLn)
	defer tampered.Close()

	twc, err := wire.Connect(tamperLn)
	if err != nil {
		return err
	}
	tcl := spitz.NewClient(twc)
	defer tcl.Close()
	if _, err := tcl.Query("SELECT stock FROM inv WHERE pk BETWEEN 'it00' AND 'it07'"); err == nil {
		return errors.New("tamper probe: corrupted range proof was accepted")
	} else if !errors.Is(err, spitz.ErrTampered) {
		return fmt.Errorf("tamper probe range misreported: %w", err)
	}
	if _, err := tcl.Query("SELECT stock FROM inv WHERE status = 'hold'"); err == nil {
		return errors.New("tamper probe: corrupted lookup proof was accepted")
	} else if !errors.Is(err, spitz.ErrTampered) {
		return fmt.Errorf("tamper probe lookup misreported: %w", err)
	}
	return nil
}
