// Package server implements Spitz's control layer (Section 5, Figure 5):
// a Cluster shards data across processor nodes, each owning its own
// durable engine and ledger, with two-phase commit for cross-shard
// transactions (Section 5.2).
package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/durable"
	"spitz/internal/ledger"
	"spitz/internal/obs"
	"spitz/internal/query"
	"spitz/internal/twopc"
	"spitz/internal/txn"
	"spitz/internal/txn/hlc"
	"spitz/internal/wal"
	"spitz/internal/wire"
)

// Options configures a Cluster.
type Options struct {
	// Shards is the number of shards (processor nodes). When opening an
	// existing durable cluster it may be left 0 to adopt the recorded
	// count; a non-zero value that disagrees with the recorded count is
	// an error, because FNV routing silently misplaces every key
	// otherwise.
	Shards int
	// Dir, when non-empty, makes every shard durable: shard i keeps its
	// write-ahead log and checkpoints under <Dir>/shard-NNN/ (the
	// internal/durable layout), and <Dir>/CLUSTER records the shard
	// count. Empty means a memory-only cluster.
	Dir string

	// Engine options, applied to every shard (see core.Options).
	Mode             txn.Mode
	MaintainInverted bool
	MaxBatchTxns     int
	MaxBatchDelay    time.Duration

	// Durability options, applied per shard (see durable.Options);
	// ignored without Dir.
	Sync                  wal.SyncPolicy
	SyncInterval          time.Duration
	SegmentSize           int64
	CheckpointInterval    time.Duration
	CheckpointEveryBlocks uint64
	// NodeCacheMB bounds each shard's node-store cache (see
	// durable.Options).
	NodeCacheMB int
}

// Cluster shards the key space across processor nodes, each with its own
// full engine — its own ledger, group-commit pipeline and (optionally)
// durable data directory. Cross-shard transactions commit with 2PC;
// timestamps come from a hybrid logical clock so no global oracle
// bottleneck exists (Section 5.2). Every write routes through the
// shard's 2PC participant, so distributed read validation and local
// writes share one lock discipline.
type Cluster struct {
	opts   Options
	clock  *hlc.Clock
	shards []clusterShard
	coord  *twopc.Coordinator
}

type clusterShard struct {
	eng  *core.Engine
	dur  *durable.Manager // nil for memory-only clusters
	part *twopc.ShardParticipant
}

const clusterManifest = durable.ClusterMarkerName
const clusterMagic = "spitz-cluster-v1"

// IsClusterDir reports whether dir holds a sharded cluster layout (the
// CLUSTER manifest is present). Tools use it to decide between the
// single-engine and cluster open paths instead of hardcoding the name.
func IsClusterDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, clusterManifest))
	return err == nil
}

// Open creates or reopens a cluster. For durable clusters every shard
// recovers independently: state addressed at its checkpointed root, WAL
// tail replayed with per-block hash verification, and the shared clock
// advanced past every replayed version.
func Open(opts Options) (*Cluster, error) {
	if opts.Dir != "" {
		recorded, have, err := readClusterManifest(opts.Dir)
		if err != nil {
			return nil, err
		}
		switch {
		case have && opts.Shards == 0:
			opts.Shards = recorded
		case have && opts.Shards != recorded:
			return nil, fmt.Errorf("server: cluster in %s has %d shards, not %d — rerouting keys would lose them",
				opts.Dir, recorded, opts.Shards)
		case !have:
			// A directory with a single-engine layout at the top level
			// must not be sharded in place: its data would be silently
			// ignored.
			for _, name := range []string{"MANIFEST", "wal"} {
				if _, err := os.Stat(filepath.Join(opts.Dir, name)); err == nil {
					return nil, fmt.Errorf("server: %s holds a single-engine database (found %s); it cannot be opened as a cluster",
						opts.Dir, name)
				}
			}
		}
	}
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	clock := hlc.New()
	source := txn.ClockSource{Clock: clock}
	c := &Cluster{
		opts:  opts,
		clock: clock,
		coord: twopc.NewCoordinator(source),
	}
	for i := 0; i < opts.Shards; i++ {
		var sh clusterShard
		if opts.Dir == "" {
			sh.eng = core.New(core.Options{
				Mode:             opts.Mode,
				MaintainInverted: opts.MaintainInverted,
				Timestamps:       source,
				MaxBatchTxns:     opts.MaxBatchTxns,
				MaxBatchDelay:    opts.MaxBatchDelay,
			})
		} else {
			m, err := durable.Open(filepath.Join(opts.Dir, shardDirName(i)), durable.Options{
				Mode:                  opts.Mode,
				Timestamps:            source,
				MaintainInverted:      opts.MaintainInverted,
				MaxBatchTxns:          opts.MaxBatchTxns,
				MaxBatchDelay:         opts.MaxBatchDelay,
				Sync:                  opts.Sync,
				SyncInterval:          opts.SyncInterval,
				SegmentSize:           opts.SegmentSize,
				CheckpointInterval:    opts.CheckpointInterval,
				CheckpointEveryBlocks: opts.CheckpointEveryBlocks,
				NodeCacheMB:           opts.NodeCacheMB,
			})
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("server: shard %d: %w", i, err)
			}
			sh.dur = m
			sh.eng = m.Engine()
		}
		sh.part = twopc.NewShardParticipant(sh.eng.TxnStore())
		c.coord.Register(wire.ShardName(i), sh.part)
		c.shards = append(c.shards, sh)
	}
	if opts.Dir != "" {
		if err := writeClusterManifest(opts.Dir, opts.Shards); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
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
		return 0, false, fmt.Errorf("server: bad cluster manifest magic in %s", dir)
	}
	for _, line := range lines[1:] {
		var n int
		if _, serr := fmt.Sscanf(line, "shards %d", &n); serr == nil && n > 0 {
			return n, true, nil
		}
	}
	return 0, false, fmt.Errorf("server: cluster manifest in %s names no shard count", dir)
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

// ShardFor routes a primary key to its shard index (wire.ShardIndex, the
// shard map clients share).
func (c *Cluster) ShardFor(pk []byte) int { return wire.ShardIndex(pk, len(c.shards)) }

// Shards returns the number of shards.
func (c *Cluster) Shards() int { return len(c.shards) }

// Engine returns the engine owning shard i, for shard-local queries and
// per-shard verified reads.
func (c *Cluster) Engine(i int) *core.Engine { return c.shards[i].eng }

// Durable returns shard i's durability manager, or nil for memory-only
// clusters. The replication layer builds per-shard sources from it.
func (c *Cluster) Durable(i int) *durable.Manager { return c.shards[i].dur }

// Close stops background work and releases every shard's data
// directory. Memory-only clusters release nothing.
func (c *Cluster) Close() error {
	var first error
	for i := range c.shards {
		if d := c.shards[i].dur; d != nil {
			if err := d.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Checkpoint forces a durable snapshot of every shard now.
func (c *Cluster) Checkpoint() error {
	for i := range c.shards {
		if d := c.shards[i].dur; d != nil {
			if err := d.Checkpoint(); err != nil {
				return fmt.Errorf("server: shard %d checkpoint: %w", i, err)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Writes

// Apply commits a batch of cell writes atomically. Writes grouped on one
// shard commit through that shard's 2PC participant (respecting prepared
// transactions' locks); writes spanning shards commit with full
// two-phase commit, so a batch is never half-applied. It returns the
// coordinator's commit timestamp.
func (c *Cluster) Apply(statement string, puts []core.Put) (uint64, error) {
	return c.applyTraced(nil, statement, puts)
}

// applyTraced is Apply threading the serving request's trace into the
// 2PC coordinator, so per-shard prepare/commit legs appear as child
// spans of the write that caused them.
func (c *Cluster) applyTraced(tr *obs.Trace, statement string, puts []core.Put) (uint64, error) {
	if len(puts) == 0 {
		return 0, errors.New("server: empty write batch")
	}
	byShard := make(map[int][]txn.Write)
	for _, p := range puts {
		si := c.ShardFor(p.PK)
		byShard[si] = append(byShard[si], txn.Write{
			Key:    cellstore.CellPrefix(p.Table, p.Column, p.PK),
			Value:  p.Value,
			Delete: p.Tombstone,
		})
	}
	reqs := make([]twopc.Request, 0, len(byShard))
	for _, si := range sortedShards(byShard) {
		reqs = append(reqs, twopc.Request{
			Shard:     wire.ShardName(si),
			Statement: statement,
			Writes:    byShard[si],
		})
	}
	return c.coord.ExecuteTraced(tr, reqs)
}

// sortedShards returns the map's shard indices in ascending order: 2PC
// requests must be built deterministically, not in map iteration order,
// so prepare order (and therefore conflict behaviour) is reproducible
// run to run.
func sortedShards[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for si := range m {
		out = append(out, si)
	}
	sort.Ints(out)
	return out
}

// ---------------------------------------------------------------------------
// Reads

// Get reads a cell from its owning shard.
func (c *Cluster) Get(table, column string, pk []byte) ([]byte, error) {
	return c.shards[c.ShardFor(pk)].eng.Get(table, column, pk)
}

// GetRow reads several columns of one row (all columns of a row live on
// the pk's shard) from a single ledger snapshot.
func (c *Cluster) GetRow(table string, pk []byte, columns []string) (map[string][]byte, error) {
	return c.shards[c.ShardFor(pk)].eng.GetRow(table, pk, columns)
}

// GetVerified serves a verified point read at the cluster level: the
// owning shard produces the proof, and the returned shard index tells
// the client which entry of the ClusterDigest (or which per-shard
// verifier) the proof must be checked against.
func (c *Cluster) GetVerified(table, column string, pk []byte) (int, core.VerifiedResult, error) {
	si := c.ShardFor(pk)
	res, err := c.shards[si].eng.GetVerified(table, column, pk)
	return si, res, err
}

// History returns every version of a cell from its owning shard, newest
// first.
func (c *Cluster) History(table, column string, pk []byte) ([]cellstore.Cell, error) {
	return c.shards[c.ShardFor(pk)].eng.History(table, column, pk)
}

// RangePK scans the latest live cells of one column with primary keys in
// [pkLo, pkHi) across every shard in parallel, merging the per-shard
// results into one pk-ordered scan.
func (c *Cluster) RangePK(table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, error) {
	return c.rangePKTraced(nil, table, column, pkLo, pkHi)
}

func (c *Cluster) rangePKTraced(tr *obs.Trace, table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, error) {
	return wire.ScatterCells(tr, "scatter.range", len(c.shards), func(i int) ([]cellstore.Cell, error) {
		return c.shards[i].eng.RangePK(table, column, pkLo, pkHi)
	})
}

// Columns returns the union of every shard's observed columns for a
// table, sorted — a table's rows spread across shards, so no single
// shard necessarily sees the whole schema.
func (c *Cluster) Columns(table string) []string {
	seen := make(map[string]struct{})
	for i := range c.shards {
		for _, col := range c.shards[i].eng.Columns(table) {
			seen[col] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for col := range seen {
		out = append(out, col)
	}
	sort.Strings(out)
	return out
}

// LookupEqual returns cells of one column whose latest value equals
// value, gathered from every shard's inverted index in parallel
// (requires Options.MaintainInverted).
func (c *Cluster) LookupEqual(table, column string, value []byte) ([]cellstore.Cell, error) {
	return c.lookupEqualTraced(nil, table, column, value)
}

func (c *Cluster) lookupEqualTraced(tr *obs.Trace, table, column string, value []byte) ([]cellstore.Cell, error) {
	return wire.ScatterCells(tr, "scatter.lookup-eq", len(c.shards), func(i int) ([]cellstore.Cell, error) {
		return c.shards[i].eng.LookupEqual(table, column, value)
	})
}

// ---------------------------------------------------------------------------
// Digests

// Digest returns the cluster digest: every shard's ledger digest plus
// the combined root. Shards advance independently, so the vector is a
// per-shard snapshot, not an atomic cut — each entry is individually
// verifiable against that shard's proofs.
func (c *Cluster) Digest() ledger.ClusterDigest {
	shards := make([]ledger.Digest, len(c.shards))
	for i := range c.shards {
		shards[i] = c.shards[i].eng.Digest()
	}
	return ledger.NewClusterDigest(shards)
}

// ---------------------------------------------------------------------------
// Cross-shard transactions

// Txn is an interactive cluster transaction: reads collect the versions
// to validate, writes stage, and Commit runs two-phase commit across
// every touched shard. Unlike a single-engine transaction it has no
// snapshot timestamp — reads observe each shard's latest state and 2PC
// validates them at prepare (OCC backward validation with read/write
// locks held to the commit point).
type Txn struct {
	c        *Cluster
	reads    map[int]map[string]uint64 // shard -> ref -> version observed
	writes   map[int][]txn.Write       // shard -> staged writes, in stage order
	writeIdx map[string]writeLoc       // ref -> location of its staged write
	done     bool
}

type writeLoc struct {
	shard int
	index int
}

// Begin starts a cluster transaction.
func (c *Cluster) Begin() *Txn {
	return &Txn{
		c:        c,
		reads:    make(map[int]map[string]uint64),
		writes:   make(map[int][]txn.Write),
		writeIdx: make(map[string]writeLoc),
	}
}

// Get reads a cell: own staged writes first, then the owning shard's
// latest state, recording the observed version for commit validation.
func (t *Txn) Get(table, column string, pk []byte) ([]byte, bool, error) {
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
	si := t.c.ShardFor(pk)
	val, ver, found, err := t.c.shards[si].part.ReadLatest(ref, ^uint64(0))
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
func (t *Txn) Put(table, column string, pk, value []byte) error {
	return t.stage(table, column, pk, txn.Write{Value: value})
}

// Delete stages a cell deletion (tombstone).
func (t *Txn) Delete(table, column string, pk []byte) error {
	return t.stage(table, column, pk, txn.Write{Delete: true})
}

func (t *Txn) stage(table, column string, pk []byte, w txn.Write) error {
	if t.done {
		return txn.ErrDone
	}
	ref := cellstore.CellPrefix(table, column, pk)
	w.Key = ref
	if loc, ok := t.writeIdx[string(ref)]; ok {
		t.writes[loc.shard][loc.index] = w
		return nil
	}
	si := t.c.ShardFor(pk)
	t.writeIdx[string(ref)] = writeLoc{shard: si, index: len(t.writes[si])}
	t.writes[si] = append(t.writes[si], w)
	return nil
}

// requests assembles the per-shard 2PC requests, sorted by shard index
// so the prepare order is deterministic.
func (t *Txn) requests(statement string) []twopc.Request {
	touched := make(map[int]struct{}, len(t.reads)+len(t.writes))
	for si := range t.reads {
		touched[si] = struct{}{}
	}
	for si := range t.writes {
		touched[si] = struct{}{}
	}
	reqs := make([]twopc.Request, 0, len(touched))
	for _, si := range sortedShards(touched) {
		reqs = append(reqs, twopc.Request{
			Shard:     wire.ShardName(si),
			Statement: statement,
			Reads:     t.reads[si],
			Writes:    t.writes[si],
		})
	}
	return reqs
}

// Commit validates and applies the transaction across its shards via
// two-phase commit, returning the coordinator's commit timestamp. On
// txn.ErrConflict (wrapped in twopc.ErrAborted) the transaction rolled
// back everywhere and may be retried.
func (t *Txn) Commit() (uint64, error) {
	if t.done {
		return 0, txn.ErrDone
	}
	t.done = true
	reqs := t.requests("TXN")
	if len(reqs) == 0 {
		return 0, nil // read-free, write-free transaction
	}
	return t.c.coord.Execute(reqs)
}

// Abort discards the transaction. Nothing was prepared, so there is
// nothing to roll back.
func (t *Txn) Abort() {
	t.done = true
}

// ---------------------------------------------------------------------------
// Stats

// ShardStats describes one shard's engine.
type ShardStats struct {
	Height uint64          // committed ledger blocks
	Batch  core.BatchStats // group-commit pipeline behaviour
}

// Stats is a point-in-time snapshot of cluster counters.
type Stats struct {
	Shards  []ShardStats
	Commits int64 // 2PC transactions committed
	Aborts  int64 // 2PC transactions aborted
}

// Stats returns per-shard and coordinator counters.
func (c *Cluster) Stats() Stats {
	s := Stats{Shards: make([]ShardStats, len(c.shards))}
	for i := range c.shards {
		s.Shards[i] = ShardStats{
			Height: c.shards[i].eng.Ledger().Height(),
			Batch:  c.shards[i].eng.BatchStats(),
		}
	}
	s.Commits, s.Aborts = c.coord.Stats()
	return s
}

// ---------------------------------------------------------------------------
// Wire protocol

// Write is the served cluster's writer (wire.Router.Write): OpPut and
// INSERT/UPDATE/DELETE group their writes by key ownership and commit
// through the 2PC coordinator whatever the request's Shard says — a
// client-chosen shard must not bypass routing — with the request's trace
// threaded into the per-shard prepare and commit legs.
func (c *Cluster) Write(req wire.Request) wire.Response {
	switch req.Op {
	case wire.OpPut:
		puts := make([]core.Put, len(req.Puts))
		for i, p := range req.Puts {
			puts[i] = core.Put{Table: p.Table, Column: p.Column, PK: p.PK,
				Value: p.Value, Tombstone: p.Tombstone}
		}
		version, err := c.applyTraced(req.Trace(), req.Statement, puts)
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{Found: true, Header: ledger.BlockHeader{Version: version}}
	case wire.OpQuery:
		out, err := query.ExecStore(clusterStore{c: c, tr: req.Trace()}, req.Statement)
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{RowsAffected: out.RowsAffected, Height: out.Block}
	}
	return wire.Response{Err: "wire: a cluster's state is owned by its shards; restore is not supported"}
}

// Exec parses and executes one statement against the whole cluster, in
// process (the embedded form of OpQuery): mutations group by key
// ownership and commit with 2PC, reads scatter-gather across the
// shards. No proofs are produced — in-process callers trust their own
// memory; verified queries are a client concern.
func (c *Cluster) Exec(statement string) (query.Result, error) {
	return query.ExecStore(clusterStore{c: c}, statement)
}

// clusterStore adapts the cluster to query.Store for mutations arriving
// over the wire, threading the request's trace into the 2PC legs.
type clusterStore struct {
	c  *Cluster
	tr *obs.Trace
}

func (s clusterStore) Apply(statement string, puts []core.Put) (uint64, error) {
	return s.c.applyTraced(s.tr, statement, puts)
}

func (s clusterStore) Get(table, column string, pk []byte) ([]byte, error) {
	return s.c.Get(table, column, pk)
}

func (s clusterStore) Columns(table string) []string { return s.c.Columns(table) }

func (s clusterStore) History(table, column string, pk []byte) ([]cellstore.Cell, error) {
	return s.c.History(table, column, pk)
}

func (s clusterStore) RangePK(table, column string, pkLo, pkHi []byte) ([]cellstore.Cell, error) {
	return s.c.rangePKTraced(s.tr, table, column, pkLo, pkHi)
}

func (s clusterStore) LookupEqual(table, column string, value []byte) ([]cellstore.Cell, error) {
	return s.c.lookupEqualTraced(s.tr, table, column, value)
}
