package bench

import (
	"bytes"
	"fmt"
	"time"

	"spitz"
	"spitz/internal/wire"
)

// DiskSmoke is the durable workload CI runs: a sharded cluster and a
// replicated primary, both with the minimum 1 MiB node-cache budget so
// nearly every proof path faults in from node-store segment files. It exercises write churn that links versions into chains, verified
// reads, an incremental checkpoint, a clean close, a kill without close,
// and requires digest continuity — the exact pre-shutdown cluster root —
// across both reopen paths, with every read proof-verified throughout.
func DiskSmoke(dir string) error {
	if err := diskSmokeCluster(dir + "/cluster"); err != nil {
		return fmt.Errorf("sharded: %w", err)
	}
	if err := diskSmokeReplica(dir + "/replicated"); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	return nil
}

func diskSmokeCluster(dir string) error {
	const keys = 300
	copts := spitz.ClusterOptions{Shards: 2, Options: spitz.Options{
		Sync:               spitz.SyncAlways,
		CheckpointInterval: -1,
		NodeCacheMB:        1,
	}}
	db, err := spitz.OpenCluster(dir, copts)
	if err != nil {
		return err
	}
	if err := diskSmokeLoad(db, "gen0", 0, keys); err != nil {
		db.Close()
		return err
	}
	// Overwrites link versions into chains, which a root-addressed
	// reopen must find in the node store.
	if err := diskSmokeLoad(db, "gen1", 0, keys/3); err != nil {
		db.Close()
		return err
	}
	want := db.ClusterDigest()
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}

	// Clean reopen: root-addressed, no WAL tail.
	db2, err := spitz.OpenCluster(dir, copts)
	if err != nil {
		return fmt.Errorf("reopen after close: %w", err)
	}
	if got := db2.ClusterDigest(); got.Root != want.Root {
		db2.Close()
		return fmt.Errorf("cluster root after clean reopen %s, want %s", got.Root, want.Root)
	}
	if err := diskSmokeVerify(db2, keys); err != nil {
		db2.Close()
		return err
	}
	// More churn, then a kill: no checkpoint, no close. The WAL tail is
	// the only record of gen2.
	if err := diskSmokeLoad(db2, "gen2", keys/3, 2*keys/3); err != nil {
		db2.Close()
		return err
	}
	want2 := db2.ClusterDigest()
	// Kill: abandon the handle.

	db3, err := spitz.OpenCluster(dir, copts)
	if err != nil {
		return fmt.Errorf("reopen after kill: %w", err)
	}
	defer db3.Close()
	if got := db3.ClusterDigest(); got.Root != want2.Root {
		return fmt.Errorf("cluster root after kill %s, want %s", got.Root, want2.Root)
	}
	if err := diskSmokeVerify(db3, keys); err != nil {
		return err
	}
	if hist, err := db3.History("t", "c", benchKey(0)); err != nil || len(hist) != 2 {
		return fmt.Errorf("history after two reopens: %d versions, err %v (want 2)", len(hist), err)
	}
	return nil
}

func diskSmokeLoad(db *spitz.ClusterDB, tag string, lo, hi int) error {
	const batch = 100
	for ; lo < hi; lo += batch {
		end := lo + batch
		if end > hi {
			end = hi
		}
		puts := make([]spitz.Put, 0, end-lo)
		for i := lo; i < end; i++ {
			puts = append(puts, spitz.Put{Table: "t", Column: "c",
				PK: benchKey(i), Value: []byte(tag)})
		}
		if _, err := db.Apply("smoke "+tag, puts); err != nil {
			return err
		}
	}
	return nil
}

// diskSmokeVerify reads every key with a proof, checking each against
// its shard's entry in the cluster digest — a node store serving a
// wrong or stale byte fails here, not silently.
func diskSmokeVerify(db *spitz.ClusterDB, keys int) error {
	d := db.ClusterDigest()
	for i := 0; i < keys; i++ {
		res, err := db.GetVerified("t", "c", benchKey(i))
		if err != nil || !res.Found {
			return fmt.Errorf("verified read %d: found=%v err=%v", i, res.Found, err)
		}
		if res.Digest != d.Shards[db.ShardFor(benchKey(i))] {
			return fmt.Errorf("key %d proved against stale shard digest", i)
		}
	}
	return nil
}

func diskSmokeReplica(dir string) error {
	const keys = 100
	db, err := spitz.OpenDir(dir, spitz.Options{
		Sync:               spitz.SyncAlways,
		CheckpointInterval: -1, // keep the whole log so the replica bootstraps from it
		NodeCacheMB:        1,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	for i := 0; i < keys; i++ {
		if _, err := db.Apply("smoke", []spitz.Put{{Table: "t", Column: "c",
			PK: benchKey(i), Value: []byte(fmt.Sprintf("value-%08d", i))}}); err != nil {
			return err
		}
	}
	ln, _ := wire.Listen()
	defer ln.Close()
	go db.Serve(ln)

	rep, err := spitz.NewReplica(func() (*wire.Client, error) { return wire.Connect(ln) },
		spitz.ReplicaOptions{ReconnectDelay: 10 * time.Millisecond})
	if err != nil {
		return err
	}
	defer rep.Close()
	if err := rep.WaitForHeight(0, db.Height(), 30*time.Second); err != nil {
		return err
	}
	rln, _ := wire.Listen()
	defer rln.Close()
	go rep.Serve(rln)

	rc, err := spitz.Connect(spitz.Topology{
		Primary:  func() (*wire.Client, error) { return wire.Connect(ln) },
		Replicas: []func() (*wire.Client, error){func() (*wire.Client, error) { return wire.Connect(rln) }}})
	if err != nil {
		return err
	}
	defer rc.Close()
	for i := 0; i < keys; i++ {
		v, found, err := rc.GetVerified("t", "c", benchKey(i))
		if err != nil || !found {
			return fmt.Errorf("replicated verified read %d: found=%v err=%v", i, found, err)
		}
		if !bytes.Equal(v, []byte(fmt.Sprintf("value-%08d", i))) {
			return fmt.Errorf("replicated read %d returned %q", i, v)
		}
	}
	return nil
}
