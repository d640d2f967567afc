package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"spitz/internal/bench/mbt"
	"spitz/internal/bench/mpt"
	"spitz/internal/bench/workload"
	"spitz/internal/cas"
	"spitz/internal/core"
	"spitz/internal/ledger"
	"spitz/internal/postree"
	"spitz/internal/proof"
	"spitz/internal/txn"
	"spitz/internal/txn/hlc"
	"spitz/internal/txn/tso"
)

// ---------------------------------------------------------------------------
// Ablation: SIRI family (MPT vs MBT vs POS-tree) as the ledger index

// siriIndex is the common surface of the three SIRI instances.
type siriIndex interface {
	put(k, v []byte) error
	get(k []byte) error
	prove(k []byte) error
	root() [32]byte
	liveBytes() (int64, error)
}

type posAdapter struct{ t *postree.Tree }

func (a *posAdapter) put(k, v []byte) error {
	nt, err := a.t.Put(k, v)
	a.t = nt
	return err
}
func (a *posAdapter) get(k []byte) error { _, _, err := a.t.Get(k); return err }
func (a *posAdapter) prove(k []byte) error {
	p, err := a.t.ProveGet(k)
	if err != nil {
		return err
	}
	return p.Verify(a.t.Root())
}
func (a *posAdapter) root() [32]byte            { return a.t.Root() }
func (a *posAdapter) liveBytes() (int64, error) { return a.t.LiveBytes() }

type mptAdapter struct{ t *mpt.Trie }

func (a *mptAdapter) put(k, v []byte) error {
	nt, err := a.t.Put(k, v)
	a.t = nt
	return err
}
func (a *mptAdapter) get(k []byte) error { _, _, err := a.t.Get(k); return err }
func (a *mptAdapter) prove(k []byte) error {
	p, err := a.t.ProveGet(k)
	if err != nil {
		return err
	}
	return p.Verify(a.t.Root())
}
func (a *mptAdapter) root() [32]byte            { return a.t.Root() }
func (a *mptAdapter) liveBytes() (int64, error) { return a.t.LiveBytes() }

type mbtAdapter struct{ t *mbt.Tree }

func (a *mbtAdapter) put(k, v []byte) error {
	nt, err := a.t.Put(k, v)
	a.t = nt
	return err
}
func (a *mbtAdapter) get(k []byte) error { _, _, err := a.t.Get(k); return err }
func (a *mbtAdapter) prove(k []byte) error {
	p, err := a.t.ProveGet(k)
	if err != nil {
		return err
	}
	return p.Verify(a.t.Root())
}
func (a *mbtAdapter) root() [32]byte            { return a.t.Root() }
func (a *mbtAdapter) liveBytes() (int64, error) { return a.t.LiveBytes() }

// AblationSIRI compares the three SIRI instances as candidate ledger
// indexes (Section 3.1 cites [59]'s finding that "POS-tree has better
// overall performance"). Each structure loads through its natural write
// interface — the POS-tree in 1000-entry batches, as Spitz's group commit
// drives it; MPT and MBT per key. Storage is the live (reachable) size of
// the final instance, measured by rebuilding it canonically into a fresh
// store; superseded copy-on-write nodes are garbage-collectable and not
// charged.
func AblationSIRI(n int) (Result, error) {
	if n <= 0 {
		n = 100_000
	}
	records := workload.Records(n, 11)
	reads := workload.ReadSequence(records, 20_000, 12)

	res := Result{
		Title:  fmt.Sprintf("Ablation: SIRI family as ledger index (%d records)", n),
		XLabel: "metric (1=load ops/s, 2=get ops/s, 3=prove+verify ops/s, 4=live storage MB)",
		YLabel: "per metric",
	}

	// POS-tree: batched loads, canonical rebuild for live size.
	posSeries, err := siriMetrics("POS-tree", records, reads,
		func() siriIndex { return &posAdapter{t: postree.Empty(cas.NewMemory())} },
		func(idx siriIndex) error { // batched load
			a := idx.(*posAdapter)
			for _, batch := range workload.Batches(records, 1000) {
				edits := make([]postree.Edit, len(batch))
				for i, kv := range batch {
					edits[i] = postree.Edit{Key: kv.Key, Value: kv.Value}
				}
				nt, err := a.t.Apply(edits)
				if err != nil {
					return err
				}
				a.t = nt
			}
			return nil
		})
	if err != nil {
		return res, err
	}
	res.Series = append(res.Series, posSeries)

	// MPT and MBT: per-key loads, canonical rebuild for live size.
	mptSeries, err := siriMetrics("MPT", records, reads,
		func() siriIndex { return &mptAdapter{t: mpt.Empty(cas.NewMemory())} }, nil)
	if err != nil {
		return res, err
	}
	res.Series = append(res.Series, mptSeries)

	mbtSeries, err := siriMetrics("MBT", records, reads,
		func() siriIndex { return &mbtAdapter{t: mbt.New(cas.NewMemory(), 4096)} }, nil)
	if err != nil {
		return res, err
	}
	res.Series = append(res.Series, mbtSeries)
	return res, nil
}

// siriMetrics runs the four SIRI metrics for one candidate. loadFn, when
// non-nil, replaces the default per-key load.
func siriMetrics(name string, records []workload.KeyValue, reads [][]byte,
	mk func() siriIndex, loadFn func(siriIndex) error) (Series, error) {
	idx := mk()
	series := Series{Name: name}

	start := time.Now()
	if loadFn != nil {
		if err := loadFn(idx); err != nil {
			return series, err
		}
	} else {
		for _, r := range records {
			if err := idx.put(r.Key, r.Value); err != nil {
				return series, err
			}
		}
	}
	series.Points = append(series.Points,
		Point{X: 1, Y: float64(len(records)) / time.Since(start).Seconds()})

	getOps, err := measure(len(reads), func(i int) error { return idx.get(reads[i]) })
	if err != nil {
		return series, err
	}
	series.Points = append(series.Points, Point{X: 2, Y: getOps})

	proveOps, err := measure(len(reads)/4, func(i int) error { return idx.prove(reads[i]) })
	if err != nil {
		return series, err
	}
	series.Points = append(series.Points, Point{X: 3, Y: proveOps})
	mb := 0.0 // a failed walk charges nothing
	if n, err := idx.liveBytes(); err == nil {
		mb = float64(n) / (1 << 20)
	}
	series.Points = append(series.Points, Point{X: 4, Y: mb})
	return series, nil
}

// ---------------------------------------------------------------------------
// Ablation: online vs deferred verification

// deferredQueue is the figure's deferred verification: proofs held back
// and checked together at a batch boundary. (The product's deferred mode
// is spitz.Auditor, which proves a whole batch with one aggregated proof.)
type deferredQueue []ledger.Proof

// flush checks every queued proof against v's trusted digest and empties
// the queue. It returns how many verified; on a failure, the index of the
// proof that failed.
func (q *deferredQueue) flush(v *proof.Verifier) (int, error) {
	batch := *q
	*q = batch[:0]
	for i, p := range batch {
		if err := v.VerifyNow(p); err != nil {
			return i, fmt.Errorf("deferred proof %d: %w", i, err)
		}
	}
	return len(batch), nil
}

// AblationDeferred compares online verification (every proof checked as it
// arrives) against deferred batches (Section 3.2 / 5.3), sweeping the
// batch size.
func AblationDeferred(n int, batchSizes []int) (Result, error) {
	if n <= 0 {
		n = 100_000
	}
	if len(batchSizes) == 0 {
		batchSizes = []int{1, 10, 100, 1000}
	}
	records := workload.Records(n, 13)
	eng := core.New(core.Options{})
	for _, b := range workload.Batches(records, 1000) {
		puts := make([]core.Put, len(b))
		for i, kv := range b {
			puts[i] = core.Put{Table: benchTable, Column: benchColumn, PK: kv.Key, Value: kv.Value}
		}
		if _, err := eng.Apply("load", puts); err != nil {
			return Result{}, err
		}
	}
	reads := workload.ReadSequence(records, 4000, 14)

	res := Result{
		Title:  fmt.Sprintf("Ablation: online vs deferred verification (%d records)", n),
		XLabel: "verification batch size (1 = online)",
		YLabel: "verified reads/s",
	}
	series := Series{Name: "Spitz-verify"}
	for _, bs := range batchSizes {
		v := proof.NewVerifier()
		d := eng.Digest()
		cons, err := eng.ConsistencyProof(0, d.Height)
		if err != nil {
			return res, err
		}
		if err := v.Advance(d, cons); err != nil {
			return res, err
		}
		start := time.Now()
		var q deferredQueue
		for i, key := range reads {
			r, err := eng.GetVerified(benchTable, benchColumn, key)
			if err != nil {
				return res, err
			}
			q = append(q, r.Proof)
			if len(q) >= bs || i == len(reads)-1 {
				if _, err := q.flush(v); err != nil {
					return res, err
				}
			}
		}
		ops := float64(len(reads)) / time.Since(start).Seconds()
		series.Points = append(series.Points, Point{X: bs, Y: ops})
	}
	res.Series = append(res.Series, series)
	return res, nil
}

// ---------------------------------------------------------------------------
// Ablation: timestamp oracle vs hybrid logical clocks

// AblationTimestamps measures allocation throughput of the centralized
// oracle against per-node HLCs as contention grows (Section 5.2: "the
// timestamp allocation service can become the bottleneck").
func AblationTimestamps(goroutines []int, allocs int) (Result, error) {
	if len(goroutines) == 0 {
		goroutines = []int{1, 2, 4, 8, 16}
	}
	if allocs <= 0 {
		allocs = 200_000
	}
	res := Result{
		Title:  "Ablation: timestamp allocation (oracle vs HLC)",
		XLabel: "goroutines",
		YLabel: "timestamps/s",
	}
	oracleSeries := Series{Name: "Timestamp oracle (shared)"}
	hlcSeries := Series{Name: "HLC (per node)"}
	for _, g := range goroutines {
		// Shared oracle: all goroutines contend on one counter.
		oracle := tso.New(0)
		per := allocs / g
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < per; j++ {
					oracle.Next()
				}
			}()
		}
		wg.Wait()
		oracleSeries.Points = append(oracleSeries.Points,
			Point{X: g, Y: float64(per*g) / time.Since(start).Seconds()})

		// HLC: one clock per node (goroutine) — no shared state.
		start = time.Now()
		var wg2 sync.WaitGroup
		for i := 0; i < g; i++ {
			wg2.Add(1)
			go func() {
				defer wg2.Done()
				clock := hlc.New()
				for j := 0; j < per; j++ {
					clock.Now()
				}
			}()
		}
		wg2.Wait()
		hlcSeries.Points = append(hlcSeries.Points,
			Point{X: g, Y: float64(per*g) / time.Since(start).Seconds()})
	}
	res.Series = []Series{oracleSeries, hlcSeries}
	return res, nil
}

// ---------------------------------------------------------------------------
// Ablation: concurrency control modes and batched validation

// AblationCC compares OCC, T/O, and batched-OCC (with reordering) abort
// rates under increasing contention (Section 5.2: "dynamically adjusting
// the transaction order to reduce abort rates ... verifying the
// transactions in batch").
func AblationCC(txnsPerLevel int, skews []float64) (Result, error) {
	if txnsPerLevel <= 0 {
		txnsPerLevel = 4000
	}
	if len(skews) == 0 {
		skews = []float64{1.01, 1.2, 1.5, 2.0}
	}
	const keys = 1000
	res := Result{
		Title:  "Ablation: concurrency control abort rate under contention",
		XLabel: "zipf skew x100",
		YLabel: "aborts per 1000 txns",
	}
	occ := Series{Name: "MVCC-OCC"}
	to := Series{Name: "MVCC-TO"}
	batched := Series{Name: "Batched OCC (reordering)"}

	// Transactions execute in overlapping groups of 64 (as concurrent
	// clients would): every member reads and stages writes before any
	// member commits. Plain modes then commit one by one; the batched mode
	// validates the whole group with reordering.
	const group = 64
	run := func(mode txn.Mode, batched bool, skew float64) (float64, error) {
		ts := tso.New(0)
		store := txn.NewMemStore(ts)
		mgr := txn.NewManager(store, ts, mode)
		seedTx := mgr.Begin()
		for i := 0; i < keys; i++ {
			seedTx.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("0"))
		}
		if _, err := seedTx.Commit(); err != nil {
			return 0, err
		}
		hot := workload.Zipf(keys, txnsPerLevel*2, skew, int64(skew*1000))
		aborted := 0
		for base := 0; base < txnsPerLevel; base += group {
			var g []*txn.Txn
			for i := base; i < base+group && i < txnsPerLevel; i++ {
				t := mgr.Begin()
				r := []byte(fmt.Sprintf("k%04d", hot[2*i]))
				w := []byte(fmt.Sprintf("k%04d", hot[2*i+1]))
				if _, _, err := t.Get(r); err != nil {
					return 0, err
				}
				t.Put(w, []byte("x"))
				g = append(g, t)
			}
			if batched {
				for _, r := range mgr.CommitBatch(g) {
					if r.Err != nil {
						if !errors.Is(r.Err, txn.ErrConflict) {
							return 0, r.Err
						}
						aborted++
					}
				}
				continue
			}
			for _, t := range g {
				if _, err := t.Commit(); err != nil {
					if !errors.Is(err, txn.ErrConflict) {
						return 0, err
					}
					aborted++
				}
			}
		}
		return 1000 * float64(aborted) / float64(txnsPerLevel), nil
	}

	for _, skew := range skews {
		x := int(skew * 100)
		y, err := run(txn.ModeOCC, false, skew)
		if err != nil {
			return res, err
		}
		occ.Points = append(occ.Points, Point{X: x, Y: y})
		y, err = run(txn.ModeTO, false, skew)
		if err != nil {
			return res, err
		}
		to.Points = append(to.Points, Point{X: x, Y: y})
		y, err = run(txn.ModeOCC, true, skew)
		if err != nil {
			return res, err
		}
		batched.Points = append(batched.Points, Point{X: x, Y: y})
	}
	res.Series = []Series{occ, to, batched}
	return res, nil
}
