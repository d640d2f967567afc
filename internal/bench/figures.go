package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"spitz/internal/bench/chunk"
	"spitz/internal/bench/workload"
	"spitz/internal/cas"
)

// Config controls an experiment sweep.
type Config struct {
	// Sizes are the database sizes to sweep (defaults to the paper's 10k
	// to 1.28M doubling series).
	Sizes []int
	// Ops is the number of measured operations per size (reads, writes, or
	// range queries depending on the experiment).
	Ops int
	// Batch is the write batch / group-commit size.
	Batch int
	// Seed makes runs reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Sizes) == 0 {
		c.Sizes = workload.PaperSizes
	}
	if c.Ops == 0 {
		c.Ops = 20_000
	}
	if c.Batch == 0 {
		c.Batch = 1000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// measure times fn over n operations and returns operations per second.
// A short untimed warmup primes caches so small samples are stable.
func measure(n int, fn func(i int) error) (float64, error) {
	warm := n / 10
	if warm > 200 {
		warm = 200
	}
	for i := 0; i < warm; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(n) / elapsed.Seconds(), nil
}

// ---------------------------------------------------------------------------
// Figure 1: storage with and without deduplication

// Fig1 reproduces Figure 1: 10 wiki pages of 16 KB; one page is edited per
// version; the plot compares cumulative storage with ForkBase-style
// content-defined deduplication against full snapshots.
func Fig1(maxVersions int) (Result, error) {
	if maxVersions <= 0 {
		maxVersions = 60
	}
	const pages, pageSize = 10, 16 * 1024
	store := cas.NewMemory()
	blobs := chunk.NewBlobStore(store)
	ps := workload.WikiPages(pages, pageSize, 1)
	rng := rand.New(rand.NewSource(2))

	bodies := make([][]byte, pages)
	var naive int64
	for i, p := range ps {
		bodies[i] = p.Body
		blobs.PutBlob(p.Body)
		naive += int64(len(p.Body))
	}

	dedup := Series{Name: "Storage-ForkBase"}
	raw := Series{Name: "Storage"}
	for v := 1; v <= maxVersions; v++ {
		i := rng.Intn(pages)
		bodies[i] = workload.EditPage(bodies[i], rng)
		blobs.PutBlob(bodies[i])
		naive += int64(pageSize)
		if v%10 == 0 {
			dedup.Points = append(dedup.Points, Point{X: v, Y: float64(store.Stats().PhysicalBytes) / 1024})
			raw.Points = append(raw.Points, Point{X: v, Y: float64(naive) / 1024})
		}
	}
	return Result{
		Title:  "Figure 1: data storage improved by deduplication",
		XLabel: "#Versions",
		YLabel: "Storage (KB)",
		Series: []Series{dedup, raw},
	}, nil
}

// ---------------------------------------------------------------------------
// Figures 6(a)/6(b): basic operations, single thread

// systemSet builds the Figure 6/7 systems (fresh per size).
func systemSet() []system {
	return []system{newKVSSystem(), newSpitzSystem(), newBaselineSystem()}
}

// Fig6Read reproduces Figure 6(a): read-only throughput across database
// sizes for Immutable KVS, Spitz, Spitz-verify, Baseline, Baseline-verify.
func Fig6Read(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		Title:  "Figure 6(a): basic operations, read",
		XLabel: "#Records",
		YLabel: "ops/s",
	}
	series := map[string]*Series{}
	order := []string{"Immutable KVS", "Spitz", "Spitz-verify", "Baseline", "Baseline-verify"}
	for _, name := range order {
		series[name] = &Series{Name: name}
	}
	for _, size := range cfg.Sizes {
		records := workload.Records(size, cfg.Seed)
		reads := workload.ReadSequence(records, cfg.Ops, cfg.Seed+1)
		for _, sys := range systemSet() {
			if err := load(sys, records, cfg.Batch); err != nil {
				return res, fmt.Errorf("load %s at %d: %w", sys.Name(), size, err)
			}
			ops, err := measure(len(reads), func(i int) error { return sys.Read(reads[i]) })
			if err != nil {
				return res, err
			}
			series[sys.Name()].Points = append(series[sys.Name()].Points, Point{X: size, Y: ops})

			vname := sys.Name() + "-verify"
			if _, want := series[vname]; want {
				vops := cfg.Ops / verifyOpsDivisor(sys.Name())
				if vops < 100 {
					vops = 100
				}
				ops, err := measure(vops, func(i int) error { return sys.ReadVerified(reads[i%len(reads)]) })
				if err != nil {
					return res, err
				}
				series[vname].Points = append(series[vname].Points, Point{X: size, Y: ops})
			}
			sys.Close()
		}
	}
	for _, name := range order {
		res.Series = append(res.Series, *series[name])
	}
	return res, nil
}

// verifyOpsDivisor shrinks the measured-op count for slow verified paths
// so sweeps complete in reasonable time without changing the metric.
func verifyOpsDivisor(name string) int {
	if name == "Baseline" {
		return 20 // block-rehash per read: ~2 orders slower
	}
	return 4
}

// Fig6Write reproduces Figure 6(b): write-only throughput. The database is
// preloaded at each size, then updates run in group-commit batches.
func Fig6Write(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		Title:  "Figure 6(b): basic operations, write",
		XLabel: "#Records",
		YLabel: "ops/s",
	}
	series := map[string]*Series{}
	order := []string{"Immutable KVS", "Spitz", "Spitz-verify", "Baseline", "Baseline-verify"}
	for _, name := range order {
		series[name] = &Series{Name: name}
	}
	for _, size := range cfg.Sizes {
		records := workload.Records(size, cfg.Seed)
		for _, sys := range systemSet() {
			if err := load(sys, records, cfg.Batch); err != nil {
				return res, err
			}
			// One untimed batch warms the write path, then the timed run.
			warm := workload.UpdateSequence(records, cfg.Batch, cfg.Seed+9)
			if err := sys.Write(warm); err != nil {
				return res, err
			}
			updates := workload.UpdateSequence(records, cfg.Ops, cfg.Seed+2)
			batches := workload.Batches(updates, cfg.Batch)
			start := time.Now()
			for _, b := range batches {
				if err := sys.Write(b); err != nil {
					return res, err
				}
			}
			ops := float64(len(updates)) / time.Since(start).Seconds()
			series[sys.Name()].Points = append(series[sys.Name()].Points, Point{X: size, Y: ops})

			vname := sys.Name() + "-verify"
			if _, want := series[vname]; want {
				vu := workload.UpdateSequence(records, cfg.Ops/verifyOpsDivisor(sys.Name())+cfg.Batch, cfg.Seed+3)
				vb := workload.Batches(vu, cfg.Batch)
				start := time.Now()
				written := 0
				for _, b := range vb {
					if err := sys.WriteVerified(b); err != nil {
						return res, err
					}
					written += len(b)
				}
				ops := float64(written) / time.Since(start).Seconds()
				series[vname].Points = append(series[vname].Points, Point{X: size, Y: ops})
			}
			sys.Close()
		}
	}
	for _, name := range order {
		res.Series = append(res.Series, *series[name])
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 7: range queries at 0.1% selectivity

// Fig7 reproduces Figure 7: range-query throughput (queries per second,
// each covering 0.1% of the primary keys) across database sizes.
func Fig7(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Ops > 2000 {
		cfg.Ops = 2000 // range queries touch many records each
	}
	res := Result{
		Title:  "Figure 7: range query performance (selectivity 0.1%)",
		XLabel: "#Records",
		YLabel: "queries/s",
	}
	series := map[string]*Series{}
	order := []string{"Immutable KVS", "Spitz", "Spitz-verify", "Baseline", "Baseline-verify"}
	for _, name := range order {
		series[name] = &Series{Name: name}
	}
	for _, size := range cfg.Sizes {
		records := workload.Records(size, cfg.Seed)
		keys := make([][]byte, len(records))
		for i, r := range records {
			keys[i] = r.Key
		}
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		ranges := workload.Ranges(keys, 0.001, cfg.Ops, cfg.Seed+4)
		for _, sys := range systemSet() {
			if err := load(sys, records, cfg.Batch); err != nil {
				return res, err
			}
			qps, err := measure(len(ranges), func(i int) error {
				n, err := sys.Range(ranges[i].Lo, ranges[i].Hi)
				if err != nil {
					return err
				}
				if n != ranges[i].Count {
					return fmt.Errorf("%s: range returned %d, want %d", sys.Name(), n, ranges[i].Count)
				}
				return nil
			})
			if err != nil {
				return res, err
			}
			series[sys.Name()].Points = append(series[sys.Name()].Points, Point{X: size, Y: qps})

			vname := sys.Name() + "-verify"
			if _, want := series[vname]; want {
				vops := len(ranges) / verifyOpsDivisor(sys.Name())
				if vops < 10 {
					vops = 10
				}
				qps, err := measure(vops, func(i int) error {
					r := ranges[i%len(ranges)]
					n, err := sys.RangeVerified(r.Lo, r.Hi)
					if err != nil {
						return err
					}
					if n != r.Count {
						return fmt.Errorf("%s: verified range returned %d, want %d", sys.Name(), n, r.Count)
					}
					return nil
				})
				if err != nil {
					return res, err
				}
				series[vname].Points = append(series[vname].Points, Point{X: size, Y: qps})
			}
			sys.Close()
		}
	}
	for _, name := range order {
		res.Series = append(res.Series, *series[name])
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 8: non-intrusive design vs Spitz

// Fig8 reproduces Figure 8: Spitz (embedded) against the non-intrusive
// composition, read and write, with and without verification.
func Fig8(cfg Config) (Result, Result, error) {
	cfg = cfg.withDefaults()
	readRes := Result{Title: "Figure 8(a): non-intrusive vs Spitz, read",
		XLabel: "#Records", YLabel: "ops/s"}
	writeRes := Result{Title: "Figure 8(b): non-intrusive vs Spitz, write",
		XLabel: "#Records", YLabel: "ops/s"}
	order := []string{"Spitz", "Spitz-verify", "Non-intrusive", "Non-intrusive-verify"}
	readSeries := map[string]*Series{}
	writeSeries := map[string]*Series{}
	for _, name := range order {
		readSeries[name] = &Series{Name: name}
		writeSeries[name] = &Series{Name: name}
	}

	for _, size := range cfg.Sizes {
		records := workload.Records(size, cfg.Seed)
		reads := workload.ReadSequence(records, cfg.Ops, cfg.Seed+5)

		ni, err := newNonintrusiveSystem()
		if err != nil {
			return readRes, writeRes, err
		}
		systems := []system{newSpitzSystem(), ni}
		for _, sys := range systems {
			if err := load(sys, records, cfg.Batch); err != nil {
				return readRes, writeRes, err
			}
			// Reads. Network-bound systems measure fewer ops.
			rops := cfg.Ops
			if sys.Name() == "Non-intrusive" {
				rops = cfg.Ops / 4
			}
			ops, err := measure(rops, func(i int) error { return sys.Read(reads[i%len(reads)]) })
			if err != nil {
				return readRes, writeRes, err
			}
			readSeries[sys.Name()].Points = append(readSeries[sys.Name()].Points, Point{X: size, Y: ops})

			vops := rops / 4
			if vops < 100 {
				vops = 100
			}
			ops, err = measure(vops, func(i int) error { return sys.ReadVerified(reads[i%len(reads)]) })
			if err != nil {
				return readRes, writeRes, err
			}
			readSeries[sys.Name()+"-verify"].Points = append(readSeries[sys.Name()+"-verify"].Points, Point{X: size, Y: ops})

			// Writes.
			updates := workload.UpdateSequence(records, cfg.Ops/2+cfg.Batch, cfg.Seed+6)
			batches := workload.Batches(updates, cfg.Batch)
			start := time.Now()
			written := 0
			for _, b := range batches {
				if err := sys.Write(b); err != nil {
					return readRes, writeRes, err
				}
				written += len(b)
			}
			w := float64(written) / time.Since(start).Seconds()
			writeSeries[sys.Name()].Points = append(writeSeries[sys.Name()].Points, Point{X: size, Y: w})

			vu := workload.UpdateSequence(records, cfg.Ops/4+cfg.Batch, cfg.Seed+7)
			vb := workload.Batches(vu, cfg.Batch)
			start = time.Now()
			written = 0
			for _, b := range vb {
				if err := sys.WriteVerified(b); err != nil {
					return readRes, writeRes, err
				}
				written += len(b)
			}
			w = float64(written) / time.Since(start).Seconds()
			writeSeries[sys.Name()+"-verify"].Points = append(writeSeries[sys.Name()+"-verify"].Points, Point{X: size, Y: w})

			sys.Close()
		}
	}
	for _, name := range order {
		readRes.Series = append(readRes.Series, *readSeries[name])
		writeRes.Series = append(writeRes.Series, *writeSeries[name])
	}
	return readRes, writeRes, nil
}
