package spitz

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"spitz/internal/core"
	"spitz/internal/durable"
	"spitz/internal/obs"
	"spitz/internal/proof"
	"spitz/internal/query"
	"spitz/internal/repl"
	"spitz/internal/twopc"
	"spitz/internal/txn/tso"
	"spitz/internal/wal"
	"spitz/internal/wire"
)

// ClusterDigest is the sharded deployment's commitment: one ledger
// digest per shard plus a combined root binding the vector.
type ClusterDigest = proof.ClusterDigest

// ClusterOptions configures OpenCluster.
type ClusterOptions struct {
	// Shards is the number of shards. When reopening an existing durable
	// cluster it may be 0 to adopt the recorded count; a conflicting
	// non-zero value is rejected rather than silently rerouting keys.
	Shards int

	// Options configures every shard exactly as it configures one
	// database (Open, or OpenDir when OpenCluster is given a directory).
	// NodeCacheMB bounds each shard's node cache, so a cluster's total
	// budget is Shards × NodeCacheMB.
	Options
}

// ClusterDB is a Spitz deployment of N ≥ 1 shards (Section 5.2), and the
// one implementation of every deployment: a DB is a ClusterDB of one
// shard. The key space is partitioned across shards by primary-key hash,
// every shard is a full engine with its own tamper-evident ledger (and,
// with a data directory, its own write-ahead log and checkpoints), and
// cross-shard writes commit with two-phase commit. Versions come from one
// counter (tso.Oracle) that the shards and the 2PC coordinator share, as a
// single engine draws from its own: they order commits, they do not tell
// the time. Every write is admitted by the owning shard engine's commit
// gate, which is also that shard's 2PC participant, so distributed read
// validation and local writes share one lock discipline; a write or
// transaction that touches one shard runs no 2PC.
//
// Reads that name a primary key (history included) route to the owning
// shard (ShardFor); range scans and value lookups merge parallel per-shard
// scans. A verified read returns the owning shard's proof, to be checked
// against that shard's entry in the ClusterDigest.
// Safe for concurrent use.
type ClusterDB struct {
	// engines holds every shard's engine in shard order. Only a restore
	// replaces it (restore), with a new slice: none is edited in place.
	engines atomic.Pointer[[]*core.Engine]
	shards  []clusterShard
	coord   *twopc.Coordinator // nil for one shard, which runs no 2PC
	opts    Options            // what a restore builds its engine with
	txns    txnCounts
}

type clusterShard struct {
	dur *durable.Manager // nil in memory
	// src is the shard's replication source over dur's WAL; nil in
	// memory, where there is no log to ship.
	src *repl.Source
}

const clusterManifest = durable.ClusterMarkerName
const clusterMagic = "spitz-cluster-v1"

// IsClusterDir reports whether dir holds a sharded cluster's data
// layout (as written by OpenCluster) rather than a single-engine one
// (OpenDir). Opening a directory with the wrong call fails loudly; this
// lets tools pick the right one up front.
func IsClusterDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, clusterManifest))
	return err == nil
}

// OpenCluster opens (creating if needed) a sharded verifiable database.
// With a non-empty dir every shard is durable under dir/shard-NNN —
// commits are written ahead to the shard's log before acknowledgement,
// and a crash recovers every shard to its exact pre-crash digest on the
// next OpenCluster: state addressed at its checkpointed root, WAL tail
// replayed with per-block hash verification, and the shared counter
// advanced past every recovered version. An empty dir serves a
// memory-only cluster. Call Close when done.
func OpenCluster(dir string, opts ClusterOptions) (*ClusterDB, error) {
	if dir != "" {
		recorded, have, err := readClusterManifest(dir)
		if err != nil {
			return nil, err
		}
		switch {
		case have && opts.Shards == 0:
			opts.Shards = recorded
		case have && opts.Shards != recorded:
			return nil, fmt.Errorf("spitz: cluster in %s has %d shards, not %d — rerouting keys would lose them",
				dir, recorded, opts.Shards)
		case !have:
			// A directory with a single-engine layout at the top level
			// must not be sharded in place: its data would be silently
			// ignored.
			for _, name := range []string{"MANIFEST", "wal"} {
				if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
					return nil, fmt.Errorf("spitz: %s holds a single-engine database (found %s); it cannot be opened as a cluster",
						dir, name)
				}
			}
		}
	}
	dirs := make([]string, max(opts.Shards, 1))
	for i := range dirs {
		if dir != "" {
			dirs[i] = filepath.Join(dir, shardDirName(i))
		}
	}
	db, err := openShards(opts.Options, dirs)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		if err := writeClusterManifest(dir, len(dirs)); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// openShards builds a deployment over its shards' data directories, one
// per shard, "" keeping a shard in memory: Open and OpenDir pass one,
// OpenCluster one per shard. Every deployment is built here.
func openShards(opts Options, dirs []string) (*ClusterDB, error) {
	source := tso.New(0)
	engOpts, durOpts := opts.engines(source)
	db := &ClusterDB{shards: make([]clusterShard, len(dirs)), opts: opts}
	engines := make([]*core.Engine, len(dirs))
	for i, dir := range dirs {
		if dir == "" {
			engines[i] = core.New(engOpts)
			continue
		}
		m, err := durable.Open(dir, durOpts)
		if err != nil {
			db.Close()
			if len(dirs) > 1 {
				err = fmt.Errorf("spitz: shard %d: %w", i, err)
			}
			return nil, err
		}
		db.shards[i] = clusterShard{dur: m, src: repl.NewSource(m)}
		engines[i] = m.Engine()
	}
	db.engines.Store(&engines)
	if len(dirs) > 1 {
		db.coord = twopc.NewCoordinator(source)
		for i, eng := range engines {
			db.coord.Register(wire.ShardName(i), eng)
		}
	}
	return db, nil
}

func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

func readClusterManifest(dir string) (shards int, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, clusterManifest))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 1 || lines[0] != clusterMagic {
		return 0, false, fmt.Errorf("spitz: bad cluster manifest magic in %s", dir)
	}
	for _, line := range lines[1:] {
		var n int
		if _, serr := fmt.Sscanf(line, "shards %d", &n); serr == nil && n > 0 {
			return n, true, nil
		}
	}
	return 0, false, fmt.Errorf("spitz: cluster manifest in %s names no shard count", dir)
}

func writeClusterManifest(dir string, shards int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body := fmt.Sprintf("%s\nshards %d\n", clusterMagic, shards)
	tmp := filepath.Join(dir, clusterManifest+".tmp")
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, clusterManifest)); err != nil {
		return err
	}
	return wal.SyncDir(dir)
}

// Close makes all acknowledged commits durable and releases every
// shard's data directory; a durable shard fails the commits issued after
// it. In memory it does nothing.
func (db *ClusterDB) Close() error {
	var first error
	for i := range db.shards {
		if d := db.shards[i].dur; d != nil {
			if err := d.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Checkpoint forces a checkpoint of every durable shard now instead of
// waiting for the background cadence, shrinking both recovery time and
// the write-ahead log. It is a no-op in memory.
func (db *ClusterDB) Checkpoint() error {
	for i := range db.shards {
		if d := db.shards[i].dur; d != nil {
			if err := d.Checkpoint(); err != nil {
				return fmt.Errorf("spitz: shard %d checkpoint: %w", i, err)
			}
		}
	}
	return nil
}

// Shards returns the number of shards.
func (db *ClusterDB) Shards() int { return len(db.shards) }

// ShardFor reports which shard owns a primary key (wire.ShardIndex, the
// shard map clients share).
func (db *ClusterDB) ShardFor(pk []byte) int { return wire.ShardIndex(pk, len(db.shards)) }

// Engine exposes shard i's engine for shard-local operations (per-shard
// verified range scans, snapshots, benchmarks).
func (db *ClusterDB) Engine(i int) *core.Engine { return (*db.engines.Load())[i] }

// ---------------------------------------------------------------------------
// Writes

// Apply commits a batch of writes atomically and returns its header;
// statement is recorded in the block for auditing. A batch on one shard
// is one commit through that shard's gate (respecting prepared
// transactions' keys), acked with the header of the block that carried
// it. A batch spanning shards commits with two-phase commit, so it is
// never half-applied; it is in no one block — each shard commits its part
// at a version its own engine draws — so its header carries only the
// coordinator's commit timestamp, as Version.
func (db *ClusterDB) Apply(statement string, puts []Put) (BlockHeader, error) {
	return db.apply(nil, statement, puts)
}

// apply is Apply threading the serving request's trace into the 2PC
// coordinator, so per-shard prepare/commit legs appear as child spans of
// the write that caused them.
func (db *ClusterDB) apply(tr *obs.Trace, statement string, puts []Put) (BlockHeader, error) {
	byShard := make(map[int][]Put)
	for _, p := range puts {
		si := db.ShardFor(p.PK)
		byShard[si] = append(byShard[si], p)
	}
	return commit(*db.engines.Load(), db.coord, tr, statement, nil, byShard)
}

// PutRow writes all columns of one row in a single block (one shard: rows
// never span shards).
func (db *ClusterDB) PutRow(table string, pk []byte, columns map[string][]byte) (BlockHeader, error) {
	puts := make([]Put, 0, len(columns))
	for col, val := range columns {
		puts = append(puts, Put{Table: table, Column: col, PK: pk, Value: val})
	}
	return db.Apply("PUT ROW "+table, puts)
}

// ---------------------------------------------------------------------------
// Reads

// Get returns the latest live value of a cell from its owning shard, or
// ErrNotFound.
func (db *ClusterDB) Get(table, column string, pk []byte) ([]byte, error) {
	return db.Engine(db.ShardFor(pk)).Get(table, column, pk)
}

// GetRow reads the given columns of one row; absent columns are omitted.
// All columns of a row live on the pk's shard and are read from one
// ledger snapshot, so a concurrent commit never interleaves old and new
// column values in the result.
func (db *ClusterDB) GetRow(table string, pk []byte, columns []string) (map[string][]byte, error) {
	return db.Engine(db.ShardFor(pk)).GetRow(table, pk, columns)
}

// GetVerified returns the latest version of a cell together with its
// integrity proof and the digest it verifies against: the owning shard's,
// ClusterDigest().Shards[ShardFor(pk)].
func (db *ClusterDB) GetVerified(table, column string, pk []byte) (VerifiedResult, error) {
	return db.Engine(db.ShardFor(pk)).GetVerified(table, column, pk)
}

// History returns every version of a cell from its owning shard, newest
// first, including tombstones.
func (db *ClusterDB) History(table, column string, pk []byte) ([]Cell, error) {
	return db.Engine(db.ShardFor(pk)).History(table, column, pk)
}

// RangePK scans the latest live cells of one column with primary keys in
// [pkLo, pkHi) across every shard in parallel, merged into one pk-ordered
// result; nil bounds are open.
func (db *ClusterDB) RangePK(table, column string, pkLo, pkHi []byte) ([]Cell, error) {
	engines := *db.engines.Load()
	return mergeByPK(fanOut(len(engines), func(i int) ([]Cell, error) {
		return engines[i].RangePK(table, column, pkLo, pkHi)
	}))
}

// Columns lists the columns ever written to a table, sorted: the union of
// what its keys in every shard's authenticated tree name — a table's rows
// spread across shards, so no single shard necessarily holds a key of
// every column.
func (db *ClusterDB) Columns(table string) ([]string, error) {
	seen := make(map[string]struct{})
	for i, eng := range *db.engines.Load() {
		cols, err := eng.Columns(table)
		if err != nil {
			return nil, fmt.Errorf("spitz: shard %d: %w", i, err)
		}
		for _, col := range cols {
			seen[col] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for col := range seen {
		out = append(out, col)
	}
	sort.Strings(out)
	return out, nil
}

// LookupEqual returns cells of one column whose latest value equals
// value, gathered from every shard's inverted index in parallel
// (requires Options.MaintainInverted).
func (db *ClusterDB) LookupEqual(table, column string, value []byte) ([]Cell, error) {
	engines := *db.engines.Load()
	return mergeByPK(fanOut(len(engines), func(i int) ([]Cell, error) {
		return engines[i].LookupEqual(table, column, value)
	}))
}

// ---------------------------------------------------------------------------
// Digests and stats

// ClusterDigest returns every shard's ledger digest plus the combined
// root — what a verifying client saves. Shards advance independently,
// so the vector is a per-shard snapshot, not an atomic cut — each entry
// is individually verifiable against that shard's proofs.
func (db *ClusterDB) ClusterDigest() ClusterDigest { return db.router().ClusterDigest() }

// Stats is a point-in-time snapshot of a deployment's counters.
type Stats struct {
	// Shards describes every shard, in shard order; a DB has one.
	Shards []ShardStats
	// Txns reports interactive transaction (Txn) outcomes.
	Txns TxnStats
}

// ShardStats describes one shard.
type ShardStats struct {
	// Height is the number of committed ledger blocks.
	Height uint64
	// Batch reports the group-commit pipeline: blocks cut, transactions
	// per block, and the batch-size distribution.
	Batch BatchStats
	// WAL reports the write-ahead log's durable height and retained
	// segment span; nil in memory.
	WAL *WALStats
	// Followers lists the replication followers currently streaming the
	// shard's log (populated while the deployment is served).
	Followers []FollowerStats
}

// Stats returns a snapshot of the deployment's runtime counters: each
// shard's ledger height, group-commit batching and — when durable — the
// write-ahead log's durable height and retained span plus every attached
// replication follower's progress, and the outcomes of its transactions.
func (db *ClusterDB) Stats() Stats {
	s := Stats{Shards: make([]ShardStats, len(db.shards)), Txns: db.txns.stats()}
	for i, eng := range *db.engines.Load() {
		s.Shards[i] = ShardStats{Height: eng.Ledger().Height(), Batch: eng.BatchStats()}
		if sh := db.shards[i]; sh.dur != nil {
			ws := sh.dur.WALStats()
			s.Shards[i].WAL, s.Shards[i].Followers = &ws, sh.src.Followers()
		}
	}
	return s
}

// Begin starts an interactive serializable transaction over the
// deployment's shards (Txn): one that touches one shard commits through
// its gate alone, one that touches several with two-phase commit.
func (db *ClusterDB) Begin() *Txn { return newTxn(*db.engines.Load(), db.coord, &db.txns) }

// ---------------------------------------------------------------------------
// Serving and SQL

// Serve exposes the deployment over one listener using the Spitz wire
// protocol; it blocks until the listener closes. Connect with Dial: the
// client learns the shard map and verifies per shard. Durable shards also
// serve replication streams, so each shard can have followers
// (DialReplica mirrors the whole deployment, shard by shard). An
// in-memory deployment of one shard also accepts the restore operation
// (Client.Restore, spitz-cli restore), which replaces its state from an
// operator-supplied snapshot; every other refuses it.
func (db *ClusterDB) Serve(ln net.Listener) error { return serve(ln, db.router(), "primary") }

// serve runs one wire server over a deployment until ln closes; node
// labels its spans in stitched traces ("primary", "replica").
func serve(ln net.Listener, d *wire.Router, node string) error {
	srv := wire.NewHandlerServer(d)
	srv.Node = node
	srv.Repl = d.Repl
	return srv.Serve(ln)
}

// router is the deployment as one listener serves it: each shard read at
// its current engine on every request, so a restore takes effect on the
// next one, and written through write.
func (db *ClusterDB) router() *wire.Router {
	d := &wire.Router{Shards: make([]wire.Shard, len(db.shards)), Write: db.write}
	for i := range d.Shards {
		d.Shards[i].Engine = func() *core.Engine { return db.Engine(i) }
		if src := db.shards[i].src; src != nil {
			d.Shards[i].Source = src
		}
	}
	return d
}

// ServerStats returns the observability payload the deployment serves to
// OpStats clients: per-shard heights, WAL spans and attached followers.
// Use it to publish instance gauges on an admin endpoint
// (wire.PublishStats).
func (db *ClusterDB) ServerStats() ServerStats { return db.router().Stats() }

// write is the served deployment's writer (wire.Router.Write): OpPut and
// INSERT/UPDATE/DELETE go to the shards that own their keys whatever the
// request's Shard says — a client-chosen shard must not bypass routing.
// A one-shard write is acked with its block's height and version; a
// cross-shard OpPut commits with 2PC, the request's trace threaded into
// the per-shard prepare and commit legs, and is acked with the
// coordinator's version alone. OpRestore replaces the state (restore).
func (db *ClusterDB) write(req wire.Request) wire.Response {
	switch req.Op {
	case wire.OpPut:
		h, err := db.apply(req.Trace(), req.Statement, req.Puts)
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{Height: h.Height, Version: h.Version}
	case wire.OpQuery:
		out, err := db.Exec(req.Statement)
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{RowsAffected: out.RowsAffected, Height: out.Block}
	}
	eng, err := db.restore(bytes.NewReader(req.Snapshot))
	if err != nil {
		return wire.Response{Err: fmt.Sprintf("wire: restore: %v", err)}
	}
	return wire.Response{Digest: eng.Digest()}
}

// errRestored is what a commit meets on an engine a restore replaced.
var errRestored = fmt.Errorf("%w: the engine was replaced by a restore", ErrConflict)

// restore replaces the state of an in-memory deployment of one shard
// with a snapshot stream's, validated as Restore validates it — the one
// place a shard's engine is replaced. Reads in flight finish on the old
// engine. The old engine is retired before it is replaced, so a write or
// transaction that loaded it fails with errRestored instead of landing
// where no read looks. A durable deployment's state is owned by its data
// directory, and one of several shards has no one engine to replace:
// both refuse.
func (db *ClusterDB) restore(r io.Reader) (*core.Engine, error) {
	if len(db.shards) > 1 || db.shards[0].dur != nil {
		return nil, errors.New("spitz: restore is not supported by a durable deployment or one of several shards; a durable one recovers from its data directory")
	}
	opts, _ := db.opts.engines(nil)
	eng, err := core.Restore(opts, r)
	if err != nil {
		return nil, err
	}
	for {
		old := db.engines.Load()
		(*old)[0].Retire(errRestored)
		if db.engines.CompareAndSwap(old, &[]*core.Engine{eng}) {
			return eng, nil
		}
	}
}

// QueryResult is the outcome of Exec: rows for SELECT/HISTORY, an affected
// count and block height for mutations.
type QueryResult = query.Result

// QueryRow is one result row.
type QueryRow = query.Row

// Exec parses and executes one SQL statement (the paper's SQL interface):
//
//	INSERT INTO t (pk, col, ...) VALUES ('k', 'v', ...)
//	SELECT col, ... | * FROM t WHERE pk = 'k' | pk BETWEEN 'a' AND 'b'
//	UPDATE t SET col = 'v' WHERE pk = 'k'
//	DELETE FROM t WHERE pk = 'k'
//	HISTORY t.col WHERE pk = 'k'
//
// A SELECT reads one ledger snapshot of every shard and merges their
// results; a mutation touches one row, which it reads and commits on the
// shard that owns it, recording the statement verbatim in its block. The
// embedded, unverified form of the query surface — see Client.Query for
// verified execution.
func (db *ClusterDB) Exec(statement string) (QueryResult, error) {
	return query.ExecStore(clusterStore{db}, statement)
}

// clusterStore adapts the deployment to query.Store.
type clusterStore struct{ db *ClusterDB }

func (s clusterStore) Columns(table string) ([]string, error) { return s.db.Columns(table) }

func (s clusterStore) Engines() []*core.Engine { return *s.db.engines.Load() }

func (s clusterStore) ShardFor(pk []byte) int { return s.db.ShardFor(pk) }
