package spitz

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"spitz/internal/proof"
	"strings"

	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/durable"
	"spitz/internal/obs"
	"spitz/internal/query"
	"spitz/internal/repl"
	"spitz/internal/twopc"
	"spitz/internal/txn"
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

// ClusterDB is a sharded Spitz deployment (Section 5.2): the key space
// is partitioned across shards by primary-key hash, every shard is a
// full engine with its own tamper-evident ledger (and, with a data
// directory, its own write-ahead log and checkpoints under
// <dir>/shard-NNN/), and cross-shard writes commit with two-phase
// commit. Versions come from one counter (tso.Oracle) that the shards
// and the 2PC coordinator share, as a single engine draws from its own:
// they order commits, they do not tell the time. Every write routes
// through the owning shard's 2PC participant, so distributed read
// validation and local writes share one lock discipline.
//
// Reads that name a primary key (history included) route to the owning
// shard; range scans and value lookups merge parallel per-shard scans. Verified
// reads return the owning shard's proof together with the shard index,
// to be checked against that shard's entry in the ClusterDigest.
// Safe for concurrent use.
type ClusterDB struct {
	coord  *twopc.Coordinator
	shards []clusterShard
}

type clusterShard struct {
	eng  *core.Engine
	dur  *durable.Manager // nil for memory-only clusters
	part *twopc.ShardParticipant
	// src is the shard's replication source over dur's WAL; nil for
	// memory-only clusters, which have no log to ship.
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
// With a non-empty dir every shard is durable — commits are written
// ahead to the shard's log before acknowledgement, and a crash recovers
// every shard to its exact pre-crash digest on the next OpenCluster:
// state addressed at its checkpointed root, WAL tail replayed with
// per-block hash verification, and the shared counter advanced past every
// recovered version. An empty dir serves a memory-only cluster. Call
// Close when done.
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
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	source := tso.New(0)
	engOpts, durOpts := opts.engines(source)
	db := &ClusterDB{coord: twopc.NewCoordinator(source)}
	for i := 0; i < opts.Shards; i++ {
		var sh clusterShard
		if dir == "" {
			sh.eng = core.New(engOpts)
		} else {
			m, err := durable.Open(filepath.Join(dir, shardDirName(i)), durOpts)
			if err != nil {
				db.Close()
				return nil, fmt.Errorf("spitz: shard %d: %w", i, err)
			}
			sh.dur, sh.eng, sh.src = m, m.Engine(), repl.NewSource(m)
		}
		sh.part = twopc.NewShardParticipant(sh.eng.TxnStore())
		db.coord.Register(wire.ShardName(i), sh.part)
		db.shards = append(db.shards, sh)
	}
	if dir != "" {
		if err := writeClusterManifest(dir, opts.Shards); err != nil {
			db.Close()
			return nil, err
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
// shard's data directory. Memory-only clusters release nothing.
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

// Checkpoint forces a durable snapshot of every shard now.
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
func (db *ClusterDB) Engine(i int) *core.Engine { return db.shards[i].eng }

// ---------------------------------------------------------------------------
// Writes

// Apply commits a batch of writes atomically. Writes grouped on one
// shard commit through that shard's 2PC participant (respecting prepared
// transactions' locks); writes spanning shards commit with full
// two-phase commit, so a batch is never half-applied. It returns the
// coordinator's commit timestamp, which no block records: each shard
// enqueues its part at a version its own engine draws, so the blocks of
// one cross-shard write carry different versions, none of them this one.
func (db *ClusterDB) Apply(statement string, puts []Put) (uint64, error) {
	return db.applyTraced(nil, statement, puts)
}

// applyTraced is Apply threading the serving request's trace into the
// 2PC coordinator, so per-shard prepare/commit legs appear as child
// spans of the write that caused them.
func (db *ClusterDB) applyTraced(tr *obs.Trace, statement string, puts []Put) (uint64, error) {
	byShard := make(map[int][]txn.Write)
	for _, p := range puts {
		si := db.ShardFor(p.PK)
		byShard[si] = append(byShard[si], txn.Write{
			Key:    cellstore.CellPrefix(p.Table, p.Column, p.PK),
			Value:  p.Value,
			Delete: p.Tombstone,
		})
	}
	return db.coord.ExecuteTraced(tr, requests(statement, nil, byShard))
}

// requests builds a transaction's 2PC requests, one per shard it reads or
// writes, in ascending shard order rather than map iteration order, so
// prepare order (and therefore conflict behaviour) is reproducible run to
// run.
func requests(statement string, reads map[int]map[string]uint64, writes map[int][]txn.Write) []twopc.Request {
	touched := make([]int, 0, len(reads)+len(writes))
	for si := range reads {
		touched = append(touched, si)
	}
	for si := range writes {
		if _, ok := reads[si]; !ok {
			touched = append(touched, si)
		}
	}
	sort.Ints(touched)
	reqs := make([]twopc.Request, len(touched))
	for i, si := range touched {
		reqs[i] = twopc.Request{
			Shard:     wire.ShardName(si),
			Statement: statement,
			Reads:     reads[si],
			Writes:    writes[si],
		}
	}
	return reqs
}

// PutRow writes all columns of one row atomically (one shard: rows never
// span shards).
func (db *ClusterDB) PutRow(table string, pk []byte, columns map[string][]byte) (uint64, error) {
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
	return db.shards[db.ShardFor(pk)].eng.Get(table, column, pk)
}

// GetRow reads the given columns of one row (all columns of a row live
// on the pk's shard) from a single ledger snapshot.
func (db *ClusterDB) GetRow(table string, pk []byte, columns []string) (map[string][]byte, error) {
	return db.shards[db.ShardFor(pk)].eng.GetRow(table, pk, columns)
}

// GetVerified returns the latest version of a cell with its integrity
// proof and the owning shard's index: the proof verifies against that
// shard's digest (ClusterDigest().Shards[shard]).
func (db *ClusterDB) GetVerified(table, column string, pk []byte) (VerifiedResult, int, error) {
	si := db.ShardFor(pk)
	res, err := db.shards[si].eng.GetVerified(table, column, pk)
	return res, si, err
}

// History returns every version of a cell from its owning shard, newest
// first.
func (db *ClusterDB) History(table, column string, pk []byte) ([]Cell, error) {
	return db.shards[db.ShardFor(pk)].eng.History(table, column, pk)
}

// RangePK scans the latest live cells with primary keys in [pkLo, pkHi)
// across every shard in parallel, merged into one pk-ordered result.
func (db *ClusterDB) RangePK(table, column string, pkLo, pkHi []byte) ([]Cell, error) {
	return mergeByPK(fanOut(len(db.shards), func(i int) ([]Cell, error) {
		return db.shards[i].eng.RangePK(table, column, pkLo, pkHi)
	}))
}

// Columns returns the union of every shard's columns for a table, sorted
// — a table's rows spread across shards, so no single shard necessarily
// holds a key of every column.
func (db *ClusterDB) Columns(table string) ([]string, error) {
	seen := make(map[string]struct{})
	for i := range db.shards {
		cols, err := db.shards[i].eng.Columns(table)
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
	return mergeByPK(fanOut(len(db.shards), func(i int) ([]Cell, error) {
		return db.shards[i].eng.LookupEqual(table, column, value)
	}))
}

// ---------------------------------------------------------------------------
// Digests and stats

// ClusterDigest returns every shard's ledger digest plus the combined
// root — what a verifying client saves. Shards advance independently,
// so the vector is a per-shard snapshot, not an atomic cut — each entry
// is individually verifiable against that shard's proofs.
func (db *ClusterDB) ClusterDigest() ClusterDigest {
	shards := make([]Digest, len(db.shards))
	for i := range db.shards {
		shards[i] = db.shards[i].eng.Digest()
	}
	return proof.NewClusterDigest(shards)
}

// ShardStats describes one shard's engine.
type ShardStats struct {
	Height uint64     // committed ledger blocks
	Batch  BatchStats // group-commit pipeline behaviour
}

// ClusterStats is a point-in-time snapshot of cluster counters.
type ClusterStats struct {
	Shards  []ShardStats
	Commits int64 // 2PC transactions committed
	Aborts  int64 // 2PC transactions aborted
}

// ClusterStats returns per-shard ledger heights and batching behaviour
// plus the 2PC coordinator's commit/abort counters.
func (db *ClusterDB) ClusterStats() ClusterStats {
	s := ClusterStats{Shards: make([]ShardStats, len(db.shards))}
	for i := range db.shards {
		s.Shards[i] = ShardStats{
			Height: db.shards[i].eng.Ledger().Height(),
			Batch:  db.shards[i].eng.BatchStats(),
		}
	}
	s.Commits, s.Aborts = db.coord.Stats()
	return s
}

// ---------------------------------------------------------------------------
// Cross-shard transactions

// ClusterTxn is an interactive cross-shard transaction: reads collect
// the versions to validate, writes stage, and Commit runs two-phase
// commit across every touched shard. Unlike a single-engine transaction
// it has no snapshot timestamp — reads observe each shard's latest state
// and 2PC validates them at prepare (OCC backward validation with
// read/write locks held to the commit point).
type ClusterTxn struct {
	db       *ClusterDB
	reads    map[int]map[string]uint64 // shard -> ref -> version observed
	writes   map[int][]txn.Write       // shard -> staged writes, in stage order
	writeIdx map[string]writeLoc       // ref -> location of its staged write
	done     bool
}

type writeLoc struct {
	shard int
	index int
}

// Begin starts an interactive cross-shard transaction.
func (db *ClusterDB) Begin() *ClusterTxn {
	return &ClusterTxn{
		db:       db,
		reads:    make(map[int]map[string]uint64),
		writes:   make(map[int][]txn.Write),
		writeIdx: make(map[string]writeLoc),
	}
}

// Get reads a cell: own staged writes first, then the owning shard's
// latest state, recording the observed version for commit validation.
func (t *ClusterTxn) Get(table, column string, pk []byte) ([]byte, bool, error) {
	if t.done {
		return nil, false, txn.ErrDone
	}
	ref := cellstore.CellPrefix(table, column, pk)
	if loc, ok := t.writeIdx[string(ref)]; ok {
		w := t.writes[loc.shard][loc.index]
		if w.Delete {
			return nil, false, nil
		}
		return w.Value, true, nil
	}
	si := t.db.ShardFor(pk)
	val, ver, found, err := t.db.shards[si].part.ReadLatest(ref, ^uint64(0))
	if err != nil {
		return nil, false, err
	}
	m := t.reads[si]
	if m == nil {
		m = make(map[string]uint64)
		t.reads[si] = m
	}
	m[string(ref)] = ver // 0 when absent: "observed absent"
	if !found {
		return nil, false, nil
	}
	return val, true, nil
}

// Put stages a cell write.
func (t *ClusterTxn) Put(table, column string, pk, value []byte) error {
	return t.stage(table, column, pk, txn.Write{Value: value})
}

// Delete stages a cell deletion (tombstone).
func (t *ClusterTxn) Delete(table, column string, pk []byte) error {
	return t.stage(table, column, pk, txn.Write{Delete: true})
}

func (t *ClusterTxn) stage(table, column string, pk []byte, w txn.Write) error {
	if t.done {
		return txn.ErrDone
	}
	ref := cellstore.CellPrefix(table, column, pk)
	w.Key = ref
	if loc, ok := t.writeIdx[string(ref)]; ok {
		t.writes[loc.shard][loc.index] = w
		return nil
	}
	si := t.db.ShardFor(pk)
	t.writeIdx[string(ref)] = writeLoc{shard: si, index: len(t.writes[si])}
	t.writes[si] = append(t.writes[si], w)
	return nil
}

// Commit validates and applies the transaction across its shards via
// two-phase commit, returning the coordinator's commit timestamp. On
// txn.ErrConflict (wrapped in twopc.ErrAborted) the transaction rolled
// back everywhere and may be retried.
func (t *ClusterTxn) Commit() (uint64, error) {
	if t.done {
		return 0, txn.ErrDone
	}
	t.done = true
	reqs := requests("TXN", t.reads, t.writes)
	if len(reqs) == 0 {
		return 0, nil // read-free, write-free transaction
	}
	return t.db.coord.Execute(reqs)
}

// Abort discards the transaction. Nothing was prepared, so there is
// nothing to roll back.
func (t *ClusterTxn) Abort() {
	t.done = true
}

// ---------------------------------------------------------------------------
// Serving and SQL

// Serve exposes the whole cluster over one listener using the Spitz wire
// protocol; it blocks until the listener closes. Connect with Dial: the
// client learns the shard map and verifies per shard. Durable clusters
// also serve per-shard replication streams, so each shard can have
// followers (DialReplica mirrors the whole cluster, shard by shard).
func (db *ClusterDB) Serve(ln net.Listener) error { return serve(ln, db.router(), "primary") }

// router is the cluster as one listener serves it: N fixed shard engines
// written through the 2PC coordinator.
func (db *ClusterDB) router() *wire.Router {
	d := &wire.Router{Shards: make([]wire.Shard, len(db.shards)), Write: db.write}
	for i := range d.Shards {
		sh := db.shards[i]
		d.Shards[i].Engine = func() *core.Engine { return sh.eng }
		if sh.src != nil {
			d.Shards[i].Source = sh.src
		}
	}
	return d
}

// ServerStats returns the observability payload this cluster serves to
// OpStats clients: per-shard heights, WAL spans and attached followers.
// Use it to publish instance gauges on an admin endpoint
// (wire.PublishStats).
func (db *ClusterDB) ServerStats() ServerStats { return db.router().Stats() }

// write is the served cluster's writer (wire.Router.Write): OpPut and
// INSERT/UPDATE/DELETE group their writes by key ownership and commit
// through the 2PC coordinator whatever the request's Shard says — a
// client-chosen shard must not bypass routing — with the request's trace
// threaded into the per-shard prepare and commit legs.
func (db *ClusterDB) write(req wire.Request) wire.Response {
	switch req.Op {
	case wire.OpPut:
		version, err := db.applyTraced(req.Trace(), req.Statement, req.Puts)
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{Version: version}
	case wire.OpQuery:
		out, err := query.ExecStore(clusterStore{db: db, tr: req.Trace()}, req.Statement)
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{RowsAffected: out.RowsAffected, Height: out.Block}
	}
	return wire.Response{Err: "wire: a cluster's state is owned by its shards; restore is not supported"}
}

// Exec parses and executes one statement against the cluster: a SELECT
// reads one ledger snapshot of every shard and merges their results;
// mutations group by key ownership and commit with two-phase commit. The
// embedded, unverified form of the query surface — see Client.Query for
// verified execution.
func (db *ClusterDB) Exec(statement string) (QueryResult, error) {
	return query.ExecStore(clusterStore{db: db}, statement)
}

// clusterStore adapts the cluster to query.Store, threading a served
// request's trace into the 2PC legs.
type clusterStore struct {
	db *ClusterDB
	tr *obs.Trace
}

func (s clusterStore) Apply(statement string, puts []Put) (uint64, error) {
	return s.db.applyTraced(s.tr, statement, puts)
}

func (s clusterStore) Get(table, column string, pk []byte) ([]byte, error) {
	return s.db.Get(table, column, pk)
}

func (s clusterStore) Columns(table string) ([]string, error) { return s.db.Columns(table) }

func (s clusterStore) Engines() []*core.Engine {
	out := make([]*core.Engine, len(s.db.shards))
	for i := range s.db.shards {
		out[i] = s.db.shards[i].eng
	}
	return out
}

func (s clusterStore) ShardFor(pk []byte) int { return s.db.ShardFor(pk) }
