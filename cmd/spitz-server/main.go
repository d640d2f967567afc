// Command spitz-server runs a standalone Spitz database server speaking
// the Spitz wire protocol.
//
// Usage:
//
//	spitz-server [-addr 127.0.0.1:7687] [-admin-addr 127.0.0.1:7688]
//	             [-inverted] [-mode occ|to]
//	             [-shards N] [-max-batch-txns 128]
//	             [-data-dir DIR] [-sync always|interval|never]
//	             [-sync-every 50ms] [-checkpoint-interval 1m]
//	             [-checkpoint-every-blocks 4096] [-node-cache-mb 64]
//	             [-replicate-from HOST:PORT]
//
// -admin-addr serves the operations endpoint over HTTP: /metrics
// (Prometheus text exposition of every internal counter, gauge and
// latency histogram), /healthz (JSON liveness plus shard heights, with
// its status driven by the health rules), /tracez (recent sampled spans
// stitched into cross-node timelines by trace ID), /slowz (requests
// over the slow-op threshold), /alertz (health-rule states: replication
// lag, audit tampering, WAL fsync latency, node-store health), and
// /debug/pprof. It is off by default; bind it to a loopback or
// operations network, not the client-facing address.
//
// Without -data-dir the database lives in memory and vanishes on exit.
// With it, every commit is written ahead to a log under DIR before it is
// acknowledged and the server recovers the full verifiable history after
// a crash or restart. -sync trades durability for throughput: "always"
// fsyncs every commit (group commit), "interval" fsyncs on a timer,
// "never" leaves persistence to the OS. The authenticated index lives in
// append-only node-store segment files under DIR behind a write-back
// cache bounded by -node-cache-mb (per shard); checkpoints flush only
// what changed, and a restart addresses the state by its root hash —
// recovery cost is O(height) header reads plus the WAL tail, not
// O(state). A directory written by an older build in a format this one
// does not read (an older node store, or a memory-store database) is
// refused by name and left untouched.
//
// -shards N > 1 serves a sharded cluster behind this one listener: the
// key space partitions across N full engines (each durable under
// DIR/shard-NNN with -data-dir), cross-shard writes commit with 2PC, and
// clients (spitz.Dial reads the shard map) route point operations to
// owning shards and verify proofs against per-shard digests. Reopening
// an existing sharded data directory adopts its recorded shard count;
// pass a conflicting -shards and the server refuses rather than
// misrouting keys.
//
// -mode selects the concurrency control scheme for transactions: "occ"
// (optimistic, validate reads at commit — the default) or "to"
// (timestamp ordering). -max-batch-txns caps how many concurrent commits
// the group-commit pipeline folds into one ledger block.
//
// -replicate-from HOST:PORT runs this server as a read replica of the
// given primary instead of owning data itself: it streams the primary's
// write-ahead log (every shard of it, for sharded primaries), applies
// each block through the verified-replay path — a corrupt or lying
// primary is detected at apply time — and serves verified reads, scans,
// history and consistency proofs against its own digest. Replicas are
// strictly read-only and reconnect automatically; the primary must run
// with -data-dir (replication ships the log).
//
// Whichever of the three it opens — a single engine, a cluster, or a
// replica of either — the server takes the same serve path: one listener
// in front of one shard router (a single engine is a one-shard
// deployment, a replica one with no writer), one ops endpoint, and a
// clean shutdown on SIGINT/SIGTERM.
//
// Connect with cmd/spitz-cli or spitz.Dial(network, primary, replicas...):
// reads go to the replicas, trust advances only against the primary.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spitz"
	"spitz/internal/obs"
	"spitz/internal/wal"
	"spitz/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7687", "listen address")
	adminAddr := flag.String("admin-addr", "", "ops HTTP endpoint (/metrics, /healthz, /tracez, /debug/pprof); empty disables")
	inverted := flag.Bool("inverted", false, "maintain the inverted index for value lookups")
	mode := flag.String("mode", "occ", "concurrency control scheme: occ or to")
	shards := flag.Int("shards", 1, "serve a sharded cluster of this many engines (1 = single engine)")
	maxBatchTxns := flag.Int("max-batch-txns", 0, "max transactions folded into one ledger block (0 = default 128)")
	dataDir := flag.String("data-dir", "", "data directory; empty serves an in-memory database")
	replicateFrom := flag.String("replicate-from", "", "run as a read replica of the primary at this address")
	syncMode := flag.String("sync", "always", "WAL sync policy: always, interval or never")
	syncEvery := flag.Duration("sync-every", 50*time.Millisecond, "fsync period under -sync interval")
	ckptInterval := flag.Duration("checkpoint-interval", time.Minute, "background checkpoint period")
	ckptBlocks := flag.Uint64("checkpoint-every-blocks", 4096, "checkpoint after this many commits")
	nodeCacheMB := flag.Int("node-cache-mb", 64, "node-store cache budget in MiB for -data-dir (per shard)")
	flag.Parse()

	opts := spitz.Options{
		MaintainInverted: *inverted,
		MaxBatchTxns:     *maxBatchTxns,
	}
	switch *mode {
	case "occ":
		opts.Mode = spitz.ModeOCC
	case "to":
		opts.Mode = spitz.ModeTO
	default:
		log.Fatalf("spitz-server: unknown -mode %q (want occ or to)", *mode)
	}

	// The open step: replica, cluster or single engine, as the flags say.
	var n node
	if *replicateFrom != "" {
		if *dataDir != "" {
			log.Fatalf("spitz-server: -replicate-from and -data-dir are mutually exclusive (a replica's state comes from its primary)")
		}
		n = openReplica(*replicateFrom, *inverted)
	} else {
		if *dataDir != "" {
			var err error
			if opts.Sync, err = wal.ParsePolicy(*syncMode); err != nil {
				log.Fatalf("spitz-server: %v", err)
			}
			opts.SyncEvery = *syncEvery
			opts.CheckpointInterval = *ckptInterval
			opts.CheckpointEveryBlocks = *ckptBlocks
			opts.NodeCacheMB = *nodeCacheMB
		}
		shardsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				shardsSet = true
			}
		})
		if !shardsSet && *dataDir != "" && spitz.IsClusterDir(*dataDir) {
			// An existing sharded data directory is served as a cluster even
			// without -shards: defaulting to a single engine would silently
			// ignore every shard's data.
			*shards = 0 // adopt the recorded shard count
		}
		if *shards != 1 {
			n = openCluster(*shards, *dataDir, opts)
		} else {
			n = openSingle(*dataDir, opts, *mode)
		}
	}

	// The one serve tail.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("spitz-server: listen: %v", err)
	}
	log.Printf("spitz-server: serving verifiable database on %s", ln.Addr())
	log.Printf("spitz-server: %s", n.digest())
	startAdmin(*adminAddr, n.stats, n.health)

	// A signal closes the listener so Serve returns, then close flushes
	// the WAL — acknowledged commits are never lost to a clean shutdown.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		log.Printf("spitz-server: %v: shutting down", s)
		ln.Close()
	}()

	err = n.serve(ln)
	if cerr := n.close(); cerr != nil {
		log.Printf("spitz-server: close: %v", cerr)
	}
	if err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatalf("spitz-server: %v", err)
	}
}

// node is what the open step hands the serve tail.
type node struct {
	serve  func(net.Listener) error
	stats  func() spitz.ServerStats // instance gauges for the ops endpoint
	health func() any               // the /healthz detail payload
	digest func() string            // logged once the listener is up
	close  func() error
}

// openSingle opens one engine, in memory or durable under dataDir.
func openSingle(dataDir string, opts spitz.Options, mode string) node {
	var db *spitz.DB
	if dataDir == "" {
		db = spitz.Open(opts)
		log.Printf("spitz-server: serving in-memory database, %s mode (no -data-dir; state is lost on exit)", mode)
	} else {
		var err error
		if db, err = spitz.OpenDir(dataDir, opts); err != nil {
			log.Fatalf("spitz-server: open %s: %v", dataDir, err)
		}
		log.Printf("spitz-server: durable database in %s (sync=%s, %s mode), recovered %d blocks",
			dataDir, opts.Sync, mode, db.Height())
	}
	return node{serve: db.Serve, stats: db.ServerStats, health: func() any { return db.ServerStats() },
		digest: func() string {
			d := db.Digest()
			return fmt.Sprintf("ledger digest height=%d root=%s", d.Height, d.Root.Short())
		},
		close: db.Close}
}

// openCluster opens N engines behind one listener, each durable under
// dataDir/shard-NNN when dataDir is set.
func openCluster(shards int, dataDir string, opts spitz.Options) node {
	db, err := spitz.OpenCluster(dataDir, spitz.ClusterOptions{Shards: shards, Options: opts})
	if err != nil {
		log.Fatalf("spitz-server: open cluster: %v", err)
	}
	if dataDir == "" {
		log.Printf("spitz-server: serving %d-shard in-memory cluster (no -data-dir; state is lost on exit)", db.Shards())
	} else {
		st := db.ClusterStats()
		heights := make([]uint64, len(st.Shards))
		for i, s := range st.Shards {
			heights[i] = s.Height
		}
		log.Printf("spitz-server: durable %d-shard cluster in %s, recovered shard heights %v", db.Shards(), dataDir, heights)
	}
	return node{serve: db.Serve, stats: db.ServerStats, health: func() any { return db.ServerStats() },
		digest: func() string { return "combined root " + db.ClusterDigest().Root.Short() },
		close:  db.Close}
}

// openReplica follows the primary at addr: stream its log (every shard),
// verified-replay every block, serve reads.
func openReplica(primary string, inverted bool) node {
	rep, err := spitz.DialReplica("tcp", primary, spitz.ReplicaOptions{
		MaintainInverted: inverted,
		Logf:             log.Printf,
	})
	if err != nil {
		log.Fatalf("spitz-server: replica of %s: %v", primary, err)
	}
	log.Printf("spitz-server: read replica of %s (%d shard(s))", primary, rep.Shards())
	return node{serve: rep.Serve, stats: rep.ServerStats, health: func() any { return rep.Status() },
		digest: func() string { return "combined root " + rep.ClusterDigest().Root.Short() },
		close: func() error {
			rep.Close()
			for i, st := range rep.Status() {
				log.Printf("spitz-server: replica shard %d stopped at height %d (%d blocks applied, %d snapshot loads)",
					i, st.Height, st.AppliedBlocks, st.SnapshotLoads)
			}
			return nil
		}}
}

// startAdmin serves the ops HTTP endpoint on adminAddr (no-op when
// empty). stats feeds the instance gauges — shard heights, WAL span,
// follower lag — into the metrics registry at scrape time; health is
// the /healthz detail payload. The standard health rules are started
// alongside it, so /alertz, spitz_alerts_firing and the rules-driven
// /healthz status work out of the box.
func startAdmin(adminAddr string, stats func() spitz.ServerStats, health func() any) {
	if adminAddr == "" {
		return
	}
	ln, err := net.Listen("tcp", adminAddr)
	if err != nil {
		log.Fatalf("spitz-server: admin listen: %v", err)
	}
	wire.PublishStats(obs.Default, stats)
	rules := obs.NewRules(obs.Default, obs.StandardRules(obs.StandardRuleOptions{}), 0)
	rules.Start()
	log.Printf("spitz-server: ops endpoint on http://%s/metrics", ln.Addr())
	go func() {
		if err := obs.ServeAdmin(ln, obs.AdminOptions{Health: health, Rules: rules}); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("spitz-server: admin: %v", err)
		}
	}()
}
