package bench

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"spitz"
	"spitz/internal/wire"
)

// replicaFarm is a primary plus n serving replicas, all in-process.
type replicaFarm struct {
	db       *spitz.DB
	pln      net.Listener
	replicas []*spitz.Replica
	rlns     []net.Listener
}

func startReplicaFarm(dir string, n, keys int) (*replicaFarm, error) {
	db, err := spitz.OpenDir(filepath.Join(dir, "primary"), spitz.Options{
		Sync:               spitz.SyncNever, // load fast; replication ships appended frames
		CheckpointInterval: -1,              // keep the whole log so replicas bootstrap from it
	})
	if err != nil {
		return nil, err
	}
	f := &replicaFarm{db: db}
	const batch = 200
	for lo := 0; lo < keys; lo += batch {
		hi := lo + batch
		if hi > keys {
			hi = keys
		}
		puts := make([]spitz.Put, 0, hi-lo)
		for i := lo; i < hi; i++ {
			puts = append(puts, spitz.Put{Table: "t", Column: "c",
				PK: benchKey(i), Value: []byte("value-00000000")})
		}
		if _, err := db.Apply("load", puts); err != nil {
			f.stop()
			return nil, err
		}
	}
	f.pln, _ = wire.Listen()
	go db.Serve(f.pln)
	for i := 0; i < n; i++ {
		rep, err := spitz.NewReplica(f.dialPrimary(), spitz.ReplicaOptions{ReconnectDelay: 10 * time.Millisecond})
		if err != nil {
			f.stop()
			return nil, err
		}
		if err := rep.WaitForHeight(0, db.Height(), 30*time.Second); err != nil {
			rep.Close()
			f.stop()
			return nil, err
		}
		rln, _ := wire.Listen()
		go rep.Serve(rln)
		f.replicas = append(f.replicas, rep)
		f.rlns = append(f.rlns, rln)
	}
	return f, nil
}

func (f *replicaFarm) dialPrimary() func() (*wire.Client, error) {
	ln := f.pln
	return func() (*wire.Client, error) { return wire.Connect(ln) }
}

// dialReplicas returns dial functions for the first n serving replicas
// (all of them when n < 0), so one farm serves every configuration of a
// sweep instead of being rebuilt — and reloaded — per replica count.
func (f *replicaFarm) dialReplicas(n int) []func() (*wire.Client, error) {
	if n < 0 || n > len(f.rlns) {
		n = len(f.rlns)
	}
	out := make([]func() (*wire.Client, error), n)
	for i, ln := range f.rlns[:n] {
		ln := ln
		out[i] = func() (*wire.Client, error) { return wire.Connect(ln) }
	}
	return out
}

func (f *replicaFarm) stop() {
	for _, rep := range f.replicas {
		rep.Close()
	}
	for _, ln := range f.rlns {
		ln.Close()
	}
	if f.pln != nil {
		f.pln.Close()
	}
	f.db.Close()
}

func benchKey(i int) []byte { return []byte(fmt.Sprintf("pk%06d", i)) }

// Replica measures verified-read throughput against a primary with a
// growing set of read replicas: `readers` concurrent clients issue
// verified point reads over uniformly random keys through
// spitz.Connect — so every read runs the full trust pipeline
// (replica proof + primary prefix proof when the digests diverge) — for
// 0 (primary-only baseline), 1 and 2 replicas. The scaling claim is that
// follower read throughput grows beyond the single-node baseline because
// proof generation fans out across replicas; on a single machine the
// curve flattens once all cores are busy, so treat same-host numbers as
// a lower bound (EXPERIMENTS.md records the caveats).
func Replica(baseDir string, replicaCounts []int, readers, ops, keys int) (Result, error) {
	res := Result{
		Title:  "Replication: verified read throughput vs replica count",
		XLabel: "replicas (0 = primary only)",
		YLabel: fmt.Sprintf("verified reads/s, %d concurrent readers, %d keys", readers, keys),
	}
	series := Series{Name: "verified point reads"}
	// One farm — loaded once — serves every configuration: setup
	// (dialing, loading, replica catch-up) stays out of the measured
	// runs, and smaller configurations simply use a prefix of the
	// replica fleet (the extras idle; no writes flow while measuring).
	maxN := 0
	for _, n := range replicaCounts {
		if n > maxN {
			maxN = n
		}
	}
	farm, err := startReplicaFarm(filepath.Join(baseDir, "farm"), maxN, keys)
	if err != nil {
		return Result{}, err
	}
	defer farm.stop()
	for _, n := range replicaCounts {
		tput, err := replicaRun(farm, n, readers, ops, keys)
		if err != nil {
			return Result{}, err
		}
		series.Points = append(series.Points, Point{X: n, Y: tput})
	}
	res.Series = append(res.Series, series)
	return res, nil
}

func replicaRun(farm *replicaFarm, replicas, readers, ops, keys int) (float64, error) {
	if readers < 1 {
		readers = 1
	}
	per := ops / readers
	if per < 1 {
		per = 1
	}
	clients := make([]*spitz.Client, readers)
	for i := range clients {
		// One client (and therefore one connection set) per reader keeps
		// the measurement about server capacity, not client-side
		// connection serialization; every connection is dialled here,
		// before the timed loop below.
		rc, err := spitz.Connect(spitz.Topology{Primary: farm.dialPrimary(), Replicas: farm.dialReplicas(replicas)})
		if err != nil {
			return 0, err
		}
		defer rc.Close()
		clients[i] = rc
	}
	rngs := make([]uint64, readers)
	for w := range rngs {
		rngs[w] = uint64(w)*2654435761 + 1
	}
	return parallelRate(readers, per, func(w, _ int) error {
		rngs[w] = rngs[w]*6364136223846793005 + 1442695040888963407
		key := benchKey(int(rngs[w] % uint64(keys)))
		_, found, err := clients[w].GetVerified("t", "c", key)
		if err == nil && !found {
			err = fmt.Errorf("key %s missing", key)
		}
		return err
	})
}

// ReplicaSmoke is the replication availability workload CI runs: a
// durable primary with two followers under continuous write load and
// verified reads distributed across the followers; one follower is
// killed mid-run and a replacement attached, and every verified read
// must keep passing throughout — each one proving, against the primary,
// that the serving follower's digest is a prefix of the primary's
// history.
func ReplicaSmoke(baseDir string) error {
	farm, err := startReplicaFarm(baseDir, 2, 100)
	if err != nil {
		return err
	}
	defer farm.stop()

	// Throttled: the point is concurrent write churn, not saturating the
	// box — an unthrottled writer starves the followers (and the reads
	// being smoked) on small CI machines.
	stop := churn(2*time.Millisecond, func(i int) error {
		_, err := farm.db.Apply("smoke", []spitz.Put{{
			Table: "t", Column: "c", PK: benchKey(i % 100),
			Value: []byte(fmt.Sprintf("value-%08d", i))}})
		return err
	})
	defer stop()

	readPhase := func(rc *spitz.Client, phase string, n int) error {
		for i := 0; i < n; i++ {
			key := benchKey(i % 100)
			if _, found, err := rc.GetVerified("t", "c", key); err != nil {
				return fmt.Errorf("%s: verified read %d: %w", phase, i, err)
			} else if !found {
				return fmt.Errorf("%s: key %s missing", phase, key)
			}
		}
		return nil
	}

	rc, err := spitz.Connect(spitz.Topology{Primary: farm.dialPrimary(), Replicas: farm.dialReplicas(-1)})
	if err != nil {
		return err
	}
	defer rc.Close()
	if err := readPhase(rc, "both followers up", 200); err != nil {
		return err
	}

	// Kill follower 0 (listener and stream) mid-load: reads must keep
	// passing by failing over to the surviving follower.
	farm.replicas[0].Close()
	farm.rlns[0].Close()
	if err := readPhase(rc, "one follower down", 200); err != nil {
		return err
	}
	if rc.Replicas() == 0 {
		return fmt.Errorf("client marked every replica down with one follower alive")
	}

	// Attach a replacement follower; a fresh client spreads reads across
	// the survivor and the replacement.
	rep, err := spitz.NewReplica(farm.dialPrimary(), spitz.ReplicaOptions{ReconnectDelay: 10 * time.Millisecond})
	if err != nil {
		return err
	}
	if err := rep.WaitForHeight(0, farm.db.Height(), 30*time.Second); err != nil {
		rep.Close()
		return err
	}
	rln, _ := wire.Listen()
	go rep.Serve(rln)
	farm.replicas[0] = rep
	farm.rlns[0] = rln
	rc2, err := spitz.Connect(spitz.Topology{Primary: farm.dialPrimary(), Replicas: farm.dialReplicas(-1)})
	if err != nil {
		return err
	}
	defer rc2.Close()
	if err := readPhase(rc2, "replacement follower attached", 200); err != nil {
		return err
	}

	wrote, err := stop()
	if err != nil {
		return fmt.Errorf("write load: %w", err)
	}
	if wrote == 0 {
		return fmt.Errorf("write load never committed")
	}
	return nil
}
