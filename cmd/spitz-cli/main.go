// Command spitz-cli is a one-shot client for a running spitz-server.
//
// Usage:
//
//	spitz-cli -addr HOST:PORT put   TABLE COLUMN PK VALUE
//	spitz-cli -addr HOST:PORT get   TABLE COLUMN PK     (verified read)
//	spitz-cli -addr HOST:PORT range TABLE COLUMN LO HI  (verified scan)
//	spitz-cli -addr HOST:PORT hist  TABLE COLUMN PK     (verified history)
//	spitz-cli -addr HOST:PORT query STATEMENT...  (rich queries; SELECTs are
//	                                               verified against per-shard
//	                                               digests before printing)
//	spitz-cli -addr HOST:PORT digest              (print the current digest)
//	spitz-cli -addr HOST:PORT digest save  FILE   (save it for later audits)
//	spitz-cli -addr HOST:PORT digest check FILE   (verify a saved digest is
//	                                               a consistent prefix)
//	spitz-cli -addr HOST:PORT stats               (WAL span, follower lag)
//	spitz-cli metrics -admin HOST:PORT [-watch 1s] [-filter SUBSTR]
//	                                              (scrape /metrics on the
//	                                               server's -admin-addr)
//	spitz-cli trace  -admin HOST:PORT [-follow]   (render /tracez stitched
//	                                               cross-node timelines)
//	spitz-cli alerts -admin HOST:PORT             (render /alertz rule
//	                                               states; exit 1 if not ok)
//	spitz-cli slow   -admin HOST:PORT             (render /slowz captures)
//	spitz-cli -addr HOST:PORT snapshot FILE   (save a checkpoint)
//	spitz-cli -addr HOST:PORT restore  FILE   (load a checkpoint)
//
// Every subcommand works against single-engine servers, sharded clusters
// and replicas alike: one client, dialled once, learns the shard map and
// verifies each shard's proofs against that shard's digest. digest
// prints (and saves) one digest per shard. check
// fetches a consistency proof per shard and verifies the saved digest is
// a prefix of the server's current ledger — the operator-facing form of
// the proof a replicated client runs before trusting a replica.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"spitz"
	"spitz/internal/hashutil"
	"spitz/internal/query"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7687", "server address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	// These talk HTTP to the admin endpoint, not the wire protocol.
	case "metrics":
		metricsCmd(args[1:])
		return
	case "trace":
		traceCmd(args[1:])
		return
	case "alerts":
		alertsCmd(args[1:])
		return
	case "slow":
		slowCmd(args[1:])
		return
	}

	cl, err := spitz.Dial("tcp", *addr)
	if err != nil {
		log.Fatalf("spitz-cli: %v", err)
	}
	defer cl.Close()

	switch args[0] {
	case "put":
		need(args, 5)
		h, err := cl.Apply("cli put", []spitz.Put{{
			Table: args[1], Column: args[2], PK: []byte(args[3]), Value: []byte(args[4])}})
		check(err)
		// One cell is on one shard, whose ack names the block it is in.
		fmt.Printf("committed block %d (version %d)\n", h.Height, h.Version)
	case "get":
		need(args, 4)
		v, found, err := cl.GetVerified(args[1], args[2], []byte(args[3]))
		check(err)
		if !found {
			fmt.Println("(verified: absent)")
			return
		}
		fmt.Printf("%s\t(verified against digest height %d)\n", v,
			cl.ShardVerifier(cl.ShardFor([]byte(args[3]))).Digest().Height)
	case "range":
		need(args, 5)
		cells, err := cl.RangePKVerified(args[1], args[2], []byte(args[3]), []byte(args[4]))
		check(err)
		for _, c := range cells {
			fmt.Printf("%s\t%s\t(v%d)\n", c.PK, c.Value, c.Version)
		}
		fmt.Printf("%d rows, verified\n", len(cells))
	case "hist":
		need(args, 4)
		cells, err := cl.History(args[1], args[2], []byte(args[3]))
		check(err)
		for _, c := range cells {
			if c.Tombstone {
				fmt.Printf("v%d\t(deleted)\n", c.Version)
			} else {
				fmt.Printf("v%d\t%s\n", c.Version, c.Value)
			}
		}
		fmt.Printf("%d versions, verified\n", len(cells))
	case "query":
		need(args, 2)
		queryCmd(cl, strings.Join(args[1:], " "))
	case "digest":
		digestCmd(cl, args[1:])
	case "stats":
		st, err := cl.Stats()
		check(err)
		printStats(st)
	case "snapshot":
		need(args, 2)
		var snap bytes.Buffer
		check(cl.Snapshot(&snap)) // checked before the file is created
		f, err := os.Create(args[1])
		check(err)
		_, err = f.Write(snap.Bytes())
		check(err)
		check(f.Sync())
		check(f.Close())
		st, err := os.Stat(args[1])
		check(err)
		fmt.Printf("snapshot written to %s (%d bytes)\n", args[1], st.Size())
	case "restore":
		need(args, 2)
		snap, err := os.ReadFile(args[1])
		check(err)
		d, err := cl.Restore(snap)
		check(err)
		fmt.Printf("restored: height=%d root=%s\n", d.Height, d.Root)
	default:
		usage()
	}
}

// queryCmd executes one statement. SELECT results are verified before
// printing: the client re-derives the proof obligations from the
// statement and checks each shard's batch proof against that shard's
// trusted digest. Mutations report rows affected and the block they
// committed in; HISTORY prints version rows, verified as hist verifies them.
func queryCmd(sc *spitz.Client, statement string) {
	res, err := sc.Query(statement)
	check(err)
	switch {
	case query.Mutates(statement):
		fmt.Printf("%d row(s) affected", res.RowsAffected)
		if res.RowsAffected > 0 { // a row is on one shard, the block on that shard
			fmt.Printf(", committed in block %d", res.Block)
		}
		fmt.Println()
	case res.HasAgg:
		fmt.Printf("%d\t(verified)\n", res.AggValue)
	default:
		for _, r := range res.Rows {
			cols := make([]string, 0, len(r.Columns))
			for c := range r.Columns {
				cols = append(cols, c)
			}
			sort.Strings(cols)
			parts := make([]string, 0, len(cols))
			for _, c := range cols {
				parts = append(parts, fmt.Sprintf("%s=%s", c, r.Columns[c]))
			}
			fmt.Printf("%s\t%s\n", r.PK, strings.Join(parts, "\t"))
		}
		fmt.Printf("%d row(s)\n", len(res.Rows))
	}
}

// digestCmd implements the digest subcommands, one digest per shard.
func digestCmd(sc *spitz.Client, args []string) {
	current := func() []spitz.Digest {
		ds := make([]spitz.Digest, sc.Shards())
		for i := range ds {
			d, err := sc.ShardDigest(i)
			check(err)
			ds[i] = d
		}
		return ds
	}
	switch {
	case len(args) == 0:
		printDigests(sc, current())
	case args[0] == "save" && len(args) == 2:
		ds := current()
		f, err := os.Create(args[1])
		check(err)
		fmt.Fprintln(f, digestFileMagic)
		for i, d := range ds {
			fmt.Fprintf(f, "shard %d height %d root %s\n", i, d.Height, d.Root)
		}
		check(f.Sync())
		check(f.Close())
		printDigests(sc, ds)
		fmt.Printf("saved to %s\n", args[1])
	case args[0] == "check" && len(args) == 2:
		saved, err := readDigestFile(args[1])
		check(err)
		if len(saved) != sc.Shards() {
			log.Fatalf("spitz-cli: %s holds %d shard digests, server has %d shards", args[1], len(saved), sc.Shards())
		}
		for i, old := range saved {
			cur, err := sc.VerifyShardPrefix(i, old)
			if err != nil {
				log.Fatalf("spitz-cli: shard %d: saved digest is NOT a prefix of the server's ledger: %v", i, err)
			}
			fmt.Printf("shard %d: OK — saved height %d is a verified prefix of current height %d (root %s)\n",
				i, old.Height, cur.Height, cur.Root.Short())
		}
	default:
		usage()
	}
}

const digestFileMagic = "spitz-digest-v1"

func readDigestFile(path string) ([]spitz.Digest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != digestFileMagic {
		return nil, fmt.Errorf("%s is not a spitz digest file", path)
	}
	var out []spitz.Digest
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var shard int
		var height uint64
		var root string
		if _, err := fmt.Sscanf(line, "shard %d height %d root %s", &shard, &height, &root); err != nil {
			return nil, fmt.Errorf("bad digest line %q: %v", line, err)
		}
		if shard != len(out) {
			return nil, fmt.Errorf("digest file shards out of order at %q", line)
		}
		h, err := hashutil.Parse(root)
		if err != nil {
			return nil, fmt.Errorf("bad root in %q: %v", line, err)
		}
		out = append(out, spitz.Digest{Height: height, Root: h})
	}
	return out, sc.Err()
}

func printDigests(sc *spitz.Client, ds []spitz.Digest) {
	for i, d := range ds {
		if len(ds) == 1 {
			fmt.Printf("height=%d root=%s\n", d.Height, d.Root)
			return
		}
		fmt.Printf("shard %d: height=%d root=%s\n", i, d.Height, d.Root)
	}
	if cd, err := sc.ClusterDigest(); err == nil {
		fmt.Printf("combined root: %s\n", cd.Root)
	}
}

func printStats(st spitz.ServerStats) {
	if st.Protocol != "" {
		fmt.Printf("protocol: %s\n", st.Protocol)
	}
	for i, sh := range st.Shards {
		prefix := ""
		if len(st.Shards) > 1 {
			prefix = fmt.Sprintf("shard %d: ", i)
		}
		fmt.Printf("%sheight=%d blocks=%d txns=%d\n", prefix, sh.Height, sh.Blocks, sh.Txns)
		if sh.WAL != nil {
			fmt.Printf("%swal: durable-height=%d logged-height=%d retained=[%d..%d) segments=%d bytes=%d\n",
				prefix, sh.WAL.DurableHeight, sh.WAL.LoggedHeight,
				sh.WAL.OldestRetainedHeight, sh.WAL.LoggedHeight, sh.WAL.Segments, sh.WAL.RetainedBytes)
		}
		for _, f := range sh.Followers {
			fmt.Printf("%sfollower %s: start=%d sent=%d acked=%d lag=%d blocks / %d bytes (%d bytes shipped)\n",
				prefix, f.Remote, f.StartHeight, f.SentHeight, f.AckedHeight, f.LagBlocks, f.LagBytes, f.SentBytes)
		}
		if len(sh.Followers) == 0 && sh.WAL != nil {
			fmt.Printf("%sno followers attached\n", prefix)
		}
		if r := sh.Replica; r != nil {
			state := "disconnected"
			if r.Connected {
				state = "connected"
			}
			fmt.Printf("%sreplica: %s height=%d applied=%d blocks / %d bytes snapshots=%d",
				prefix, state, r.Height, r.AppliedBlocks, r.AppliedBytes, r.SnapshotLoads)
			if r.LastError != "" {
				fmt.Printf(" last-error=%q", r.LastError)
			}
			fmt.Println()
		}
	}
	printProofTraffic(st.Metrics)
	printNodeStore(st.Metrics)
}

// printProofTraffic summarizes what the server's proofs were cut by for
// clients that hinted what they hold, and — where the serving process
// also verifies, as a replica's link to its primary does — what its own
// verifiers received. A half with no traffic yet prints nothing.
func printProofTraffic(metrics []spitz.Metric) {
	vals := map[string]float64{}
	for _, m := range metrics {
		if strings.HasPrefix(m.Name, "spitz_proof_") || strings.HasPrefix(m.Name, "spitz_client_proof_") {
			vals[m.Name] = m.Value
		}
	}
	if e, p := vals["spitz_proof_nodes_elided_total"], vals["spitz_proof_nodes_patched_total"]; e+p > 0 {
		fmt.Printf("proofs served: index nodes elided=%.0f patched=%.0f (%.1fKiB saved by patches)\n",
			e, p, vals["spitz_proof_patch_bytes_saved_total"]/(1<<10))
	}
	if s := vals["spitz_client_proof_nodes_shipped_total"]; s > 0 {
		fmt.Printf("proofs verified: nodes shipped=%.0f (patched=%.0f) elided=%.0f bytes=%.1fKiB\n",
			s, vals["spitz_client_proof_nodes_patched_total"],
			vals["spitz_client_proof_nodes_elided_total"], vals["spitz_client_proof_bytes_total"]/(1<<10))
	}
}

// printNodeStore summarizes the disk node store from the stats payload's
// metrics snapshot; databases on the memory store emit none of these
// series, so the line simply doesn't print for them.
func printNodeStore(metrics []spitz.Metric) {
	vals := map[string]float64{}
	var readB, writtenB float64
	for _, m := range metrics {
		if !strings.HasPrefix(m.Name, "spitz_nodestore_") {
			continue
		}
		switch {
		case strings.HasPrefix(m.Name, "spitz_nodestore_read_bytes_total"):
			readB += m.Value
		case strings.HasPrefix(m.Name, "spitz_nodestore_written_bytes_total"):
			writtenB += m.Value
		default:
			vals[strings.TrimPrefix(m.Name, "spitz_nodestore_")] = m.Value
		}
	}
	if len(vals) == 0 && readB == 0 && writtenB == 0 {
		return
	}
	hits, misses := vals["cache_hits_total"], vals["cache_misses_total"]
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * hits / (hits + misses)
	}
	// A cold leaf has its groups hashed as reads use them, not whole.
	leafMisses, groups := vals["leaf_misses_total"], vals["leaf_groups_checked_total"]
	perMiss := 0.0
	if leafMisses > 0 {
		perMiss = groups / leafMisses
	}
	fmt.Printf("node store: cached=%.1fMiB dirty=%.1fMiB hits=%.0f misses=%.0f (%.1f%% hit) leaf-misses=%.0f groups-checked=%.0f (%.2f/miss) evictions=%.0f flushes=%.0f spills=%.0f read=%.1fMiB written=%.1fMiB\n",
		vals["cache_bytes"]/(1<<20), vals["dirty_bytes"]/(1<<20),
		hits, misses, rate, leafMisses, groups, perMiss,
		vals["cache_evictions_total"], vals["flushes_total"], vals["spills_total"],
		readB/(1<<20), writtenB/(1<<20))
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func check(err error) {
	if err != nil {
		log.Fatalf("spitz-cli: %v", err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  spitz-cli [-addr HOST:PORT] put   TABLE COLUMN PK VALUE
  spitz-cli [-addr HOST:PORT] get   TABLE COLUMN PK      (verified read)
  spitz-cli [-addr HOST:PORT] range TABLE COLUMN LO HI   (verified scan)
  spitz-cli [-addr HOST:PORT] hist  TABLE COLUMN PK      (verified history)
  spitz-cli [-addr HOST:PORT] query STATEMENT...      (verified SELECTs)
  spitz-cli [-addr HOST:PORT] digest [save FILE | check FILE]
  spitz-cli [-addr HOST:PORT] stats
  spitz-cli [-addr HOST:PORT] snapshot FILE
  spitz-cli [-addr HOST:PORT] restore  FILE
  spitz-cli metrics [-admin HOST:PORT] [-watch 1s] [-filter SUBSTR]
  spitz-cli trace   [-admin HOST:PORT] [-follow] [-every 1s] [-n 10] [-stages]
  spitz-cli alerts  [-admin HOST:PORT]
  spitz-cli slow    [-admin HOST:PORT]`)
	os.Exit(2)
}
