package spitz_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spitz"
	"spitz/internal/repl"
	"spitz/internal/wire"
)

// swappable is a listener holder whose dial function survives the
// listener being torn down and replaced (a restarted primary binds a new
// listener; replicas keep the same dial function).
type swappable struct {
	mu sync.Mutex
	ln net.Listener
}

func (s *swappable) set(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
}

func (s *swappable) dial() (*wire.Client, error) {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	return wire.Connect(ln)
}

func waitReplicaHeight(t *testing.T, rep *spitz.Replica, h uint64) {
	t.Helper()
	if err := rep.WaitForHeight(0, h, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestReplicationCrashRecoveryAcceptance is the replication acceptance
// test: a primary with two attached followers is killed (no clean
// shutdown) mid-write-load and restarted; both followers resume
// streaming and converge to the primary's recovered digest, and every
// verified read served by a follower — during and after the outage —
// carries a proof that checks against a digest proven to be a prefix of
// the primary's history.
func TestReplicationCrashRecoveryAcceptance(t *testing.T) {
	dir := t.TempDir()
	open := func() *spitz.DB {
		db, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	for i := 0; i < 20; i++ {
		if _, err := db.Apply("seed", []spitz.Put{{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("pk%04d", i)), Value: []byte(fmt.Sprintf("v%04d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	ln, _ := wire.Listen()
	sw := &swappable{ln: ln}
	serveDone := make(chan struct{})
	go func() { db.Serve(ln); close(serveDone) }()

	// Two followers, each serving reads on its own listener.
	opts := spitz.ReplicaOptions{ReconnectDelay: 10 * time.Millisecond}
	rep1, err := spitz.NewReplica(sw.dial, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rep1.Close()
	rep2, err := spitz.NewReplica(sw.dial, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	r1ln, _ := wire.Listen()
	go rep1.Serve(r1ln)
	r2ln, _ := wire.Listen()
	go rep2.Serve(r2ln)
	waitReplicaHeight(t, rep1, db.Height())
	waitReplicaHeight(t, rep2, db.Height())

	rc := connect(t, sw.dial, dialer(r1ln), dialer(r2ln))

	// Mid-write-load verified reads: each one is served by a follower and
	// proven — against the primary — to be a prefix of its history.
	stopW := make(chan struct{})
	var wrote int
	var writeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopW:
				return
			default:
			}
			if _, err := db.Apply("load", []spitz.Put{{Table: "t", Column: "c",
				PK: []byte(fmt.Sprintf("pk%04d", i%20)), Value: []byte(fmt.Sprintf("w%06d", i))}}); err != nil {
				writeErr = err
				return
			}
			wrote++
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 50; i++ {
		if _, found, err := rc.GetVerified("t", "c", []byte(fmt.Sprintf("pk%04d", i%20))); err != nil || !found {
			t.Fatalf("mid-load verified read %d: found=%v err=%v", i, found, err)
		}
	}

	// Let trust settle at the primary's digest just before the crash, so
	// during-outage reads verify offline against it.
	close(stopW)
	wg.Wait()
	if writeErr != nil {
		t.Fatalf("write load: %v", writeErr)
	}
	if wrote == 0 {
		t.Fatal("write load never committed")
	}
	waitReplicaHeight(t, rep1, db.Height())
	waitReplicaHeight(t, rep2, db.Height())
	if err := rc.SyncDigest(); err != nil {
		t.Fatal(err)
	}
	preCrash := db.Digest()

	// Crash: close the listener (the server shutdown kills every live
	// connection, streams included) and abandon the handle — no Close,
	// no flush beyond what SyncAlways guaranteed per commit.
	ln.Close()
	<-serveDone

	// During the outage both followers keep serving verified reads whose
	// proofs check against the pre-crash digest the client trusts — a
	// digest the primary itself served, i.e. a proven prefix of its
	// history.
	for i := 0; i < 20; i++ {
		v, found, err := rc.GetVerified("t", "c", []byte(fmt.Sprintf("pk%04d", i)))
		if err != nil || !found {
			t.Fatalf("during-outage verified read %d: found=%v err=%v", i, found, err)
		}
		if !strings.HasPrefix(string(v), "w") && !strings.HasPrefix(string(v), "v") {
			t.Fatalf("during-outage read %d returned %q", i, v)
		}
	}
	if got := rc.Verifier().Digest(); got != preCrash {
		t.Fatalf("outage reads moved trust to %+v, want pre-crash %+v", got, preCrash)
	}
	st1, st2 := rep1.Status()[0], rep2.Status()[0]

	// Restart the primary from its data directory: SyncAlways recovery
	// reproduces the exact pre-crash digest.
	db2 := open()
	defer db2.Close()
	if got := db2.Digest(); got != preCrash {
		t.Fatalf("recovered digest %+v, want pre-crash %+v", got, preCrash)
	}
	ln2, _ := wire.Listen()
	sw.set(ln2)
	go db2.Serve(ln2)

	// Both followers resume streaming — from their own height, over the
	// log, with no snapshot transfer — and converge to the recovered
	// primary's digest as new writes land.
	for i := 0; i < 30; i++ {
		if _, err := db2.Apply("after", []spitz.Put{{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("pk%04d", i%20)), Value: []byte(fmt.Sprintf("a%06d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	waitReplicaHeight(t, rep1, db2.Height())
	waitReplicaHeight(t, rep2, db2.Height())
	if got, want := rep1.Digest(0), db2.Digest(); got != want {
		t.Fatalf("follower 1 digest %+v, want recovered primary's %+v", got, want)
	}
	if got, want := rep2.Digest(0), db2.Digest(); got != want {
		t.Fatalf("follower 2 digest %+v, want recovered primary's %+v", got, want)
	}
	for i, st := range []spitz.ReplicaStatus{rep1.Status()[0], rep2.Status()[0]} {
		if st.SnapshotLoads != 0 {
			t.Fatalf("follower %d resumed via %d snapshot transfers, want log resume", i+1, st.SnapshotLoads)
		}
		if st.Poisoned {
			t.Fatalf("follower %d poisoned: %s", i+1, st.LastError)
		}
	}
	if rep1.Status()[0].AppliedBlocks <= st1.AppliedBlocks || rep2.Status()[0].AppliedBlocks <= st2.AppliedBlocks {
		t.Fatal("followers did not resume applying blocks after the restart")
	}

	// Post-outage verified reads through a client whose trust is anchored
	// at the restarted primary: follower-served proofs still verify, via
	// the primary's prefix proof over the follower digest.
	rc2 := connect(t, sw.dial, dialer(r1ln), dialer(r2ln))
	for i := 0; i < 20; i++ {
		v, found, err := rc2.GetVerified("t", "c", []byte(fmt.Sprintf("pk%04d", i)))
		if err != nil || !found {
			t.Fatalf("post-restart verified read %d: found=%v err=%v", i, found, err)
		}
		if !strings.HasPrefix(string(v), "a") {
			t.Fatalf("post-restart read %d returned stale %q", i, v)
		}
	}

	// The primary's stats see both resumed followers, caught up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fs := db2.Stats().Shards[0].Followers
		if len(fs) == 2 && fs[0].AckedHeight == db2.Height() && fs[1].AckedHeight == db2.Height() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stats never converged: %+v", fs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaTamperAndStaleness: a replica cannot serve a forged
// digest (its digest must prove to be a prefix of the primary's), and
// MaxLag bounds how stale a verifiably honest replica result may be —
// stale reads fall back to the primary instead of failing.
func TestReplicaTamperAndStaleness(t *testing.T) {
	dir := t.TempDir()
	db, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10; i++ {
		if _, err := db.Apply("seed", []spitz.Put{{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("pk%02d", i)), Value: []byte(fmt.Sprintf("v%02d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()
	dialPrimary := dialer(ln)

	rep, err := spitz.NewReplica(dialPrimary, spitz.ReplicaOptions{ReconnectDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	rln, _ := wire.Listen()
	go rep.Serve(rln)
	if err := rep.WaitForHeight(0, db.Height(), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// A "replica" that is actually an unrelated database: its digest can
	// never prove to be a prefix of the primary's, so its reads must be
	// rejected as tampered, not silently served.
	fake := spitz.Open(spitz.Options{})
	for i := 0; i < 10; i++ {
		if _, err := fake.Apply("forged", []spitz.Put{{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("pk%02d", i)), Value: []byte("FORGED")}}); err != nil {
			t.Fatal(err)
		}
	}
	fln, _ := wire.Listen()
	go fake.Serve(fln)
	defer fln.Close()

	rcForged := connect(t, dialPrimary, dialer(fln))
	if _, _, err := rcForged.GetVerified("t", "c", []byte("pk03")); !errors.Is(err, spitz.ErrTampered) {
		t.Fatalf("forged replica read: err = %v, want ErrTampered", err)
	}

	// Even against an EMPTY primary (nothing to pin at connect time),
	// the first read must bootstrap trust from the primary — a forged
	// replica cannot seed it with its own digest.
	eln, _ := wire.Listen()
	empty, err := spitz.OpenDir(t.TempDir(), spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	go empty.Serve(eln)
	defer eln.Close()
	rcEmpty := connect(t, dialer(eln), dialer(fln))
	if _, _, err := rcEmpty.GetVerified("t", "c", []byte("pk03")); !errors.Is(err, spitz.ErrTampered) {
		t.Fatalf("forged replica read against empty primary: err = %v, want ErrTampered", err)
	}
	if d := rcEmpty.Verifier().Digest(); d.Height != 0 {
		t.Fatalf("forged replica seeded trust at height %d", d.Height)
	}

	// Staleness bound: freeze the real replica (close it so it stops
	// applying), write past it, and require MaxLag to route the read to
	// the primary — the fresh value, not the stale one.
	rep.Close() // stops following; keeps serving height as of now
	frozen := rep.Height(0)
	for i := 0; i < 5; i++ {
		if _, err := db.Apply("ahead", []spitz.Put{{Table: "t", Column: "c",
			PK: []byte("pk03"), Value: []byte(fmt.Sprintf("fresh%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if db.Height() <= frozen+2 {
		t.Fatalf("primary %d not far enough past frozen replica %d", db.Height(), frozen)
	}
	rcLag, err := spitz.Connect(spitz.Topology{Primary: dialPrimary, Replicas: []dialFunc{dialer(rln)}, MaxLag: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rcLag.Close()
	v, found, err := rcLag.GetVerified("t", "c", []byte("pk03"))
	if err != nil || !found {
		t.Fatalf("bounded-staleness read: found=%v err=%v", found, err)
	}
	if string(v) != "fresh4" {
		t.Fatalf("bounded-staleness read returned %q, want the primary's fresh4", v)
	}

	// Without the bound the same read is served (verifiably) stale.
	rcAny := connect(t, dialPrimary, dialer(rln))
	v, found, err = rcAny.GetVerified("t", "c", []byte("pk03"))
	if err != nil || !found {
		t.Fatalf("unbounded read: found=%v err=%v", found, err)
	}
	if strings.HasPrefix(string(v), "fresh4") {
		t.Fatalf("unbounded read unexpectedly fresh: %q (replica should be frozen)", v)
	}
}

// TestBootstrappingReplica: a verified read served by an
// honest replica that has not caught up yet (height 0, e.g. mid
// snapshot transfer) silently falls back to the primary — it is neither
// a tamper alarm nor a failed read.
func TestBootstrappingReplica(t *testing.T) {
	dir := t.TempDir()
	db, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Apply("seed", []spitz.Put{{Table: "t", Column: "c",
		PK: []byte("pk"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()

	// A replica that can never reach its primary stays at height 0 but
	// serves — the bootstrap window, frozen open.
	frozen := repl.New(func() (*wire.Client, error) { return nil, errors.New("unreachable") },
		repl.Options{ReconnectDelay: time.Hour})
	defer frozen.Close()
	sln, _ := wire.Listen()
	srv := wire.NewHandlerServer(&wire.Router{Shards: []wire.Shard{frozen.Shard()}})
	go srv.Serve(sln)
	defer sln.Close()

	rc := connect(t, dialer(ln), dialer(sln))
	v, found, err := rc.GetVerified("t", "c", []byte("pk"))
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("read through bootstrapping replica: %q found=%v err=%v (want primary fallback)", v, found, err)
	}
	if rc.Replicas() != 1 {
		t.Fatalf("bootstrapping replica was marked down (%d healthy)", rc.Replicas())
	}
}

// TestClusterReplication: every shard of a durable cluster can have
// followers; a Replica mirrors the whole cluster shard by shard, a
// client reads from it with per-shard proofs, and the
// cluster digests match exactly.
func TestClusterReplication(t *testing.T) {
	dir := t.TempDir()
	db, err := spitz.OpenCluster(dir, spitz.ClusterOptions{Shards: 3, Options: spitz.Options{Sync: spitz.SyncAlways,
		CheckpointInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var puts []spitz.Put
	for i := 0; i < 24; i++ {
		puts = append(puts, spitz.Put{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("pk%03d", i)), Value: []byte(fmt.Sprintf("v%03d", i))})
	}
	if _, err := db.Apply("seed", puts); err != nil {
		t.Fatal(err)
	}
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()

	rep, err := spitz.NewReplica(func() (*wire.Client, error) { return wire.Connect(ln) },
		spitz.ReplicaOptions{ReconnectDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if rep.Shards() != 3 {
		t.Fatalf("replica mirrors %d shards, want 3", rep.Shards())
	}
	want := db.ClusterDigest()
	for i := 0; i < 3; i++ {
		if err := rep.WaitForHeight(i, want.Shards[i].Height, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	got := rep.ClusterDigest()
	if got.Root != want.Root {
		t.Fatalf("replica combined root %s, want %s", got.Root, want.Root)
	}

	// A client pointed at the replica set alone reads from it with
	// per-shard verified proofs.
	rln, _ := wire.Listen()
	go rep.Serve(rln)
	defer rln.Close()
	sc := connect(t, dialer(rln))
	if sc.Shards() != 3 {
		t.Fatalf("replica set reports %d shards", sc.Shards())
	}
	for i := 0; i < 24; i++ {
		pk := []byte(fmt.Sprintf("pk%03d", i))
		v, found, err := sc.GetVerified("t", "c", pk)
		if err != nil || !found || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("replica-set verified read %s: %q found=%v err=%v", pk, v, found, err)
		}
	}
	// Scans merge across mirrored shards (TestRoutingMatrix covers the
	// refused writes).
	cells, err := sc.RangePKVerified("t", "c", nil, nil)
	if err != nil || len(cells) != 24 {
		t.Fatalf("replica-set range: %d cells, err=%v", len(cells), err)
	}
}

// TestStatsObservability: DB.Stats exports the WAL span and per-follower
// lag, and the wire stats op carries them to clients.
func TestStatsObservability(t *testing.T) {
	dir := t.TempDir()
	db, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 7; i++ {
		if _, err := db.Apply("w", []spitz.Put{{Table: "t", Column: "c",
			PK: []byte{byte(i)}, Value: []byte{byte(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats().Shards[0]
	if st.WAL == nil {
		t.Fatal("durable DB reports no WAL stats")
	}
	if st.WAL.DurableHeight != 7 || st.WAL.LoggedHeight != 7 || st.WAL.OldestRetainedHeight != 0 {
		t.Fatalf("WAL stats: %+v", *st.WAL)
	}
	if len(st.Followers) != 0 {
		t.Fatalf("unexpected followers: %+v", st.Followers)
	}

	// In-memory databases have no WAL to report (and none to replicate).
	if mem := spitz.Open(spitz.Options{}); mem.Stats().Shards[0].WAL != nil {
		t.Fatal("in-memory DB reports WAL stats")
	}

	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()
	rep, err := spitz.NewReplica(func() (*wire.Client, error) { return wire.Connect(ln) },
		spitz.ReplicaOptions{ReconnectDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitReplicaHeight(t, rep, 7)

	deadline := time.Now().Add(5 * time.Second)
	for {
		st = db.Stats().Shards[0]
		if len(st.Followers) == 1 && st.Followers[0].AckedHeight == 7 && st.Followers[0].LagBlocks == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never showed up in stats: %+v", st.Followers)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The same numbers travel the wire (spitz-cli stats).
	wc, err := wire.Connect(ln)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	resp, err := wc.Do(wire.Request{Op: wire.OpStats})
	if err != nil || resp.Stats == nil {
		t.Fatalf("wire stats: %+v err=%v", resp, err)
	}
	sh := resp.Stats.Shards[0]
	if sh.Height != 7 || sh.WAL == nil || sh.WAL.DurableHeight != 7 || len(sh.Followers) != 1 {
		t.Fatalf("wire stats payload: %+v", sh)
	}
}

// TestTwoByOneFailoverAndTamper drives the read router on a 2-shard
// cluster with one replica set: a forged replica is caught, a replica
// beyond MaxLag is passed over for the shard's primary without being
// blamed, reads outlive the replica listener, and a primary outage is
// reported as such — never pinned on the replica that served the data.
func TestTwoByOneFailoverAndTamper(t *testing.T) {
	cdb, rep, ln, rln := openReplicatedCluster(t, 2)
	const keys = 16
	pk := func(i int) []byte { return []byte(fmt.Sprintf("pk%02d", i)) }
	write := func(cdb *spitz.ClusterDB, value string) {
		t.Helper()
		for i := 0; i < keys; i++ {
			if _, err := cdb.Apply("w", []spitz.Put{{Table: "t", Column: "c", PK: pk(i), Value: []byte(value)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// readAll reads every key (both shards) and returns the one value
	// they must all share.
	readAll := func(cl *spitz.Client) string {
		t.Helper()
		var first string
		for i := 0; i < keys; i++ {
			v, found, err := cl.GetVerified("t", "c", pk(i))
			if err != nil || !found {
				t.Fatalf("verified read %d: found=%v err=%v", i, found, err)
			}
			if i == 0 {
				first = string(v)
			} else if string(v) != first {
				t.Fatalf("read %d returned %q, others %q", i, v, first)
			}
		}
		return first
	}
	write(cdb, "old")
	waitClusterReplica(t, cdb, rep)

	// A "replica set" that is an unrelated cluster cannot prove its
	// digests prefixes of the primary's, on either shard.
	fake, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	write(fake, "FORGED")
	fln, dialFake := serveCluster(t, fake)
	defer fln.Close()
	forged := connect(t, dialer(ln), dialFake)
	for i := 0; i < keys; i++ {
		if _, _, err := forged.GetVerified("t", "c", pk(i)); !errors.Is(err, spitz.ErrTampered) {
			t.Fatalf("forged replica read %d: err = %v, want ErrTampered", i, err)
		}
	}

	// The same replica set behind a second listener, so one client can
	// lose its replica while another keeps it.
	rln2, _ := wire.Listen()
	go rep.Serve(rln2)
	defer rln2.Close()
	losing := connect(t, dialer(ln), dialer(rln))
	keeping := connect(t, dialer(ln), dialer(rln2))
	bounded, err := spitz.Connect(spitz.Topology{Primary: dialer(ln), Replicas: []dialFunc{dialer(rln2)}, MaxLag: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer bounded.Close()
	if got := readAll(losing); got != "old" {
		t.Fatalf("caught-up replica read %q", got)
	}

	// Freeze the replica (it stops following, keeps serving) and write
	// past it on both shards.
	rep.Close()
	write(cdb, "new")
	if got := readAll(bounded); got != "old" {
		t.Fatalf("before learning of the new head the bounded client read %q", got)
	}
	if err := bounded.SyncDigest(); err != nil { // staleness is measured from the trusted digest
		t.Fatal(err)
	}
	if got := readAll(bounded); got != "new" {
		t.Fatalf("MaxLag 2 served %q, want the primaries' value", got)
	}
	if err := keeping.SyncDigest(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(keeping); got != "old" {
		t.Fatalf("unbounded read returned %q, want the frozen replica's (verifiably stale) value", got)
	}
	if bounded.Replicas() != 1 || keeping.Replicas() != 1 {
		t.Fatalf("a stale replica was marked down (%d, %d healthy)", bounded.Replicas(), keeping.Replicas())
	}

	// The replica listener goes away mid-run: reads continue from the
	// shard primaries.
	rln.Close()
	for i, deadline := 0, time.Now().Add(10*time.Second); i < keys; {
		v, found, err := losing.GetVerified("t", "c", pk(i))
		if err != nil || !found {
			t.Fatalf("read %d after losing the replica: found=%v err=%v", i, found, err)
		}
		// Until its connections are torn down the frozen replica still
		// answers (verifiably stale); after that only a primary can.
		if string(v) == "new" {
			i++
		} else if time.Now().After(deadline) {
			t.Fatal("replica connections outlived their listener")
		}
	}
	if losing.Replicas() != 0 {
		t.Fatalf("dead replica still counted healthy (%d)", losing.Replicas())
	}

	// A primary outage: the replica serves, but its digest can no longer
	// be proven a prefix of the trusted one. That is the primary's
	// failure, so the replica stays in rotation.
	ln.Close()
	for i, deadline := 0, time.Now().Add(10*time.Second); i < keeping.Shards(); {
		// The server tears its connections down after the listener.
		if _, err := keeping.ShardDigest(i); err != nil {
			i++
		} else if time.Now().After(deadline) {
			t.Fatal("primary connections outlived the listener")
		}
	}
	for i := 0; i < keys; i++ {
		_, _, err := keeping.GetVerified("t", "c", pk(i))
		if err == nil || !strings.Contains(err.Error(), "digest authority unreachable") || errors.Is(err, spitz.ErrTampered) {
			t.Fatalf("read %d during primary outage: err = %v, want the digest authority reported unreachable", i, err)
		}
	}
	if keeping.Replicas() != 1 {
		t.Fatalf("primary outage marked the replica down (%d healthy)", keeping.Replicas())
	}
}
