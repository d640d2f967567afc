package main

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"spitz"
	"spitz/internal/wire"
)

// opKind is one operation type of a workload mix.
type opKind uint8

const (
	opGet opKind = iota
	opRange
	opQuery
	opApply
	opApply2PC
	nKinds
)

var kindNames = [nKinds]string{"get", "range", "query", "apply", "apply2pc"}

// rangeRows is the width of every multi-row read: a pk range of 50 rows.
const rangeRows = 50

// groups is the cardinality of replica-query's text column, chosen so an
// index lookup `WHERE grp = v` returns rangeRows rows like the pk ranges.
const groups = 1000

// spec is one workload: topology, data, mix and the reason it exists.
type spec struct {
	Name string
	Why  string

	rows      int
	valSize   int
	theta     float64     // Zipf skew of the key distribution; 0 = uniform
	mix       [nKinds]int // percentage of each op kind
	headline  opKind      // the op main_op_p50_us reports
	second    opKind      // the op second_op_p50_us reports; the headline again where the mix has one op type
	updates   int         // rows updated per Apply
	insert    bool        // each Apply also inserts one new row
	numeric   bool        // values are decimal strings (SQL aggregates)
	table     string
	column    string
	warmOps   int // warm-up ops per client, part of set-up
	tracedOps int // ops in the traced pass
	open      func(sp *spec, e *env) (*topology, error)
}

var workloads = []*spec{
	{
		Name: "point-read-mem",
		Why: "eager verified reads: wire, ledger proof build, postree prove and client verify do the work; " +
			"200k uniform keys bypass the 8192-entry proof cache; wal, disk store, 2PC, repl, query idle",
		rows: 200000, valSize: 100, mix: [nKinds]int{opGet: 100}, headline: opGet, second: opGet,
		table: "bench", column: "v", warmOps: 5000, tracedOps: 20000, open: openPointReadMem,
	},
	{
		Name: "durable-write-disk",
		Why: "SyncAlways commits on the disk store: core batching, ledger commit, postree apply, wal fsync, node cache (1 MiB, " +
			"smaller than the working set) and checkpoints do the work; ends with a verified reopen",
		rows: 200000, valSize: 100, theta: 0.99, mix: [nKinds]int{opApply: 100}, headline: opApply, second: opApply,
		updates: 3, insert: true,
		table: "bench", column: "v", warmOps: 500, tracedOps: 4000, open: openDurableWriteDisk,
	},
	{
		Name: "sharded-mixed",
		Why: "point-read-mem's read path with writes beside it: commits invalidate the proof cache and move the digest clients re-sync; " +
			"only workload with shard routing, 2PC and range fan-out",
		rows: 100000, valSize: 100, theta: 0.99,
		mix:      [nKinds]int{opGet: 50, opRange: 10, opApply: 30, opApply2PC: 10},
		headline: opGet, second: opApply, updates: 1,
		table: "bench", column: "v", warmOps: 3000, tracedOps: 10000, open: openShardedMixed,
	},
	{
		Name: "replica-query",
		Why: "deferred-audit reads and SQL served by a replica: Auditor batches instead of eager verify, log shipping and apply, " +
			"query plan/exec, inverted-index upkeep on writes; wal without fsync, no 2PC",
		rows: 50000, theta: 0.99, numeric: true,
		mix:      [nKinds]int{opGet: 60, opQuery: 20, opApply: 20},
		headline: opGet, second: opApply, updates: 1,
		table: "acct", column: "bal", warmOps: 3000, tracedOps: 10000, open: openReplicaQuery,
	},
}

func findWorkload(name string) *spec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// benchClient is the surface the closed loop drives; Client, ShardedClient
// and ReplicatedClient satisfy it through the adapters below.
type benchClient interface {
	GetVerified(table, column string, pk []byte) ([]byte, bool, error)
	RangePKVerified(table, column string, pkLo, pkHi []byte) ([]spitz.Cell, error)
	Query(statement string) (spitz.QueryResult, error)
	Apply(statement string, puts []spitz.Put) error
	// verified reports how many reads this client has verified or audited
	// and how many are still pending; finish flushes deferred work first.
	verified() (done, pending int64)
	finish() error
	Close() error
}

type singleClient struct {
	*spitz.Client
}

func (c singleClient) Apply(st string, puts []spitz.Put) error {
	_, err := c.Client.Apply(st, puts)
	return err
}
func (c singleClient) verified() (int64, int64) {
	v, _ := c.Verifier().Stats()
	return v, 0
}
func (c singleClient) finish() error { return nil }

type shardedClient struct {
	*spitz.ShardedClient
}

func (c shardedClient) Apply(st string, puts []spitz.Put) error {
	_, err := c.ShardedClient.Apply(st, puts)
	return err
}
func (c shardedClient) verified() (int64, int64) {
	var n int64
	for i := 0; i < c.Shards(); i++ {
		v, _ := c.ShardVerifier(i).Stats()
		n += v
	}
	return n, 0
}
func (c shardedClient) finish() error { return nil }

type replicatedClient struct {
	*spitz.ReplicatedClient
	aud *spitz.Auditor
}

func (c replicatedClient) Apply(st string, puts []spitz.Put) error {
	_, err := c.ReplicatedClient.Apply(st, puts)
	return err
}
func (c replicatedClient) verified() (int64, int64) {
	st := c.aud.Stats()
	return int64(st.Audited), int64(st.Receipts-st.Audited) + int64(c.aud.Pending())
}
func (c replicatedClient) finish() error {
	if err := c.aud.Flush(); err != nil {
		return err
	}
	return c.aud.Err()
}

// connCounters totals the bytes and frames of a group of connections.
type connCounters struct {
	rx, tx, writes atomic.Int64
}

// countConn counts what crosses one TCP connection, from outside the
// program under test.
type countConn struct {
	net.Conn
	c *connCounters
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.rx.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.tx.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}

// dialer returns a wire dial function over TCP whose connections feed the
// given counters. The binary framing is negotiated eagerly; anything else
// (a pipe fallback, a gob downgrade) aborts the run.
func dialer(addr string, counters ...*connCounters) func() (*wire.Client, error) {
	return func() (*wire.Client, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		for _, c := range counters {
			conn = countConn{Conn: conn, c: c}
		}
		wc := wire.NewClient(conn)
		if err := wc.Handshake(); err != nil {
			conn.Close()
			return nil, err
		}
		if p := wc.Proto(); p != wire.ProtoBinary {
			conn.Close()
			return nil, fmt.Errorf("negotiated %q framing, want %q", p, wire.ProtoBinary)
		}
		return wc, nil
	}
}

// listenTCP opens a loopback listener; the benchmark never falls back to
// the in-process pipe transport.
func listenTCP() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport must be tcp: %w", err)
	}
	return ln, nil
}

// topology is one opened deployment plus what the harness needs to drive
// and observe it.
type topology struct {
	sp    *spec
	model *model

	// Exactly one of db / cluster is the write-serving instance.
	db      *spitz.DB
	cluster *spitz.ClusterDB
	replica *spitz.Replica
	dir     string // data directory ("" for memory topologies)
	dbOpts  spitz.Options

	addr        string // where clients connect for reads and writes
	replicaAddr string
	all         connCounters // every bench-client connection
	replicaConn connCounters // the replica-facing subset

	newClient func() (benchClient, error)
	closers   []func() error
}

// close tears the topology down in reverse order of construction and
// waits for the Serve goroutines to return.
func (t *topology) close() error {
	var first error
	for i := len(t.closers) - 1; i >= 0; i-- {
		if err := t.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	t.closers = nil
	return first
}

// serve runs fn(ln) in a goroutine; close() closes the listener and waits
// for it.
func (t *topology) serve(ln net.Listener, fn func(net.Listener) error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = fn(ln) // returns the listener-closed error on shutdown
	}()
	t.closers = append(t.closers, func() error {
		err := ln.Close()
		<-done
		return err
	})
}

// preloadBatch is how many rows one preload commit carries.
const preloadBatch = 2000

// preloadRows streams the initial rows (sequence 0 of every row) through
// apply in batches, in idx order.
func preloadRows(sp *spec, m *model, apply func(puts []spitz.Put) error) error {
	for lo := 0; lo < sp.rows; lo += preloadBatch {
		hi := lo + preloadBatch
		if hi > sp.rows {
			hi = sp.rows
		}
		puts := make([]spitz.Put, 0, (hi-lo)*2)
		for i := lo; i < hi; i++ {
			pk := pkOf(i)
			puts = append(puts, spitz.Put{Table: sp.table, Column: sp.column, PK: pk, Value: m.value(i, 0)})
			if sp.numeric {
				puts = append(puts, spitz.Put{Table: sp.table, Column: "grp", PK: pk, Value: groupOf(i)})
			}
		}
		if err := apply(puts); err != nil {
			return fmt.Errorf("preload rows %d-%d: %w", lo, hi, err)
		}
	}
	return nil
}

func groupOf(idx int) []byte { return []byte("g" + strconv.Itoa(10000+idx%groups)) }

// spareRows bounds how many rows a run may insert beyond the preload.
const spareRows = 1 << 20

func newTopology(sp *spec) *topology {
	return &topology{sp: sp, model: newModel(sp.rows, spareRows, sp.valSize, sp.numeric)}
}

func openPointReadMem(sp *spec, e *env) (*topology, error) {
	t := newTopology(sp)
	t.db = spitz.Open(spitz.Options{})
	if err := preloadRows(sp, t.model, func(p []spitz.Put) error { _, err := t.db.Apply("preload", p); return err }); err != nil {
		return nil, err
	}
	return t, t.serveSingle()
}

// serveSingle serves t.db on loopback TCP and wires plain Client adapters.
func (t *topology) serveSingle() error {
	ln, err := listenTCP()
	if err != nil {
		return err
	}
	t.addr = ln.Addr().String()
	t.serve(ln, t.db.Serve)
	dial := dialer(t.addr, &t.all)
	t.newClient = func() (benchClient, error) {
		wc, err := dial()
		if err != nil {
			return nil, err
		}
		return singleClient{spitz.NewClient(wc)}, nil
	}
	return nil
}

// checkpointEveryBlocks sizes durable-write-disk's block-count checkpoint
// trigger so several checkpoints complete inside one window at this host's
// commit rate (~700 blocks/s); there is no checkpoint timer.
const checkpointEveryBlocks = 1000

func openDurableWriteDisk(sp *spec, e *env) (*topology, error) {
	t := newTopology(sp)
	dir, err := e.dataDir(sp.Name)
	if err != nil {
		return nil, err
	}
	t.dir = dir
	t.dbOpts = spitz.Options{Store: spitz.StoreDisk, NodeCacheMB: 1, Sync: spitz.SyncAlways,
		CheckpointEveryBlocks: checkpointEveryBlocks}
	t.db, err = spitz.OpenDir(dir, t.dbOpts)
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, t.db.Close)
	if err := preloadRows(sp, t.model, func(p []spitz.Put) error { _, err := t.db.Apply("preload", p); return err }); err != nil {
		return nil, err
	}
	// Start the window from a settled checkpoint: the preload's dirty
	// nodes are flushed and the WAL pruned.
	if err := t.db.Checkpoint(); err != nil {
		return nil, err
	}
	return t, t.serveSingle()
}

const shards = 4

func openShardedMixed(sp *spec, e *env) (*topology, error) {
	t := newTopology(sp)
	var err error
	t.cluster, err = spitz.OpenCluster("", spitz.ClusterOptions{Shards: shards})
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, t.cluster.Close)
	// Preload shard by shard, so set-up commits take the single-shard path
	// and leave the 2PC counters to the workload.
	err = preloadRows(sp, t.model, func(p []spitz.Put) error {
		by := make([][]spitz.Put, shards)
		for _, put := range p {
			s := t.cluster.ShardFor(put.PK)
			by[s] = append(by[s], put)
		}
		for _, puts := range by {
			if len(puts) == 0 {
				continue
			}
			if _, err := t.cluster.Apply("preload", puts); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ln, err := listenTCP()
	if err != nil {
		return nil, err
	}
	t.addr = ln.Addr().String()
	t.serve(ln, t.cluster.Serve)
	dial := dialer(t.addr, &t.all)
	t.newClient = func() (benchClient, error) {
		sc, err := spitz.NewShardedClient(dial)
		if err != nil {
			return nil, err
		}
		return shardedClient{sc}, nil
	}
	return t, nil
}

func openReplicaQuery(sp *spec, e *env) (*topology, error) {
	t := newTopology(sp)
	dir, err := e.dataDir(sp.Name)
	if err != nil {
		return nil, err
	}
	t.dir = dir
	// Memory CAS, WAL without fsync. Automatic checkpoints are off: a
	// memory-store checkpoint streams the whole state, and a timer- or
	// count-triggered one inside the window would be noise this workload
	// does not exist to measure.
	t.dbOpts = spitz.Options{Sync: spitz.SyncNever, MaintainInverted: true, CheckpointInterval: -1}
	t.db, err = spitz.OpenDir(dir, t.dbOpts)
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, t.db.Close)
	if err := preloadRows(sp, t.model, func(p []spitz.Put) error { _, err := t.db.Apply("preload", p); return err }); err != nil {
		return nil, err
	}
	ln, err := listenTCP()
	if err != nil {
		return nil, err
	}
	t.addr = ln.Addr().String()
	t.serve(ln, t.db.Serve)

	t.replica, err = spitz.NewReplica(dialer(t.addr), spitz.ReplicaOptions{MaintainInverted: true})
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, func() error { t.replica.Close(); return nil })
	if err := t.replica.WaitForHeight(0, t.db.Height(), 60*time.Second); err != nil {
		return nil, err
	}
	rln, err := listenTCP()
	if err != nil {
		return nil, err
	}
	t.replicaAddr = rln.Addr().String()
	t.serve(rln, t.replica.Serve)

	dialPrimary := dialer(t.addr, &t.all)
	dialReplica := dialer(t.replicaAddr, &t.all, &t.replicaConn)
	t.newClient = func() (benchClient, error) {
		rc, err := spitz.NewReplicatedClient(dialPrimary, []func() (*wire.Client, error){dialReplica}, spitz.ReplicatedOptions{})
		if err != nil {
			return nil, err
		}
		if rc.Replicas() != 1 {
			rc.Close()
			return nil, errors.New("replica unreachable at connect time")
		}
		aud, err := rc.StartAudit(spitz.AuditMode{})
		if err != nil {
			rc.Close()
			return nil, err
		}
		return replicatedClient{rc, aud}, nil
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Op generation

// op is one generated operation. Writes carry the sequence number each
// row's new value encodes.
type op struct {
	kind  opKind
	rows  [4]int // rows read or written (reads: rows[0] is the first row)
	seqs  [4]uint32
	nrows int
	query int    // opQuery: 0 range select, 1 COUNT, 2 SUM, 3 index lookup
	stmt  string // opQuery
	bytes int    // writes: pk+value payload, set when the op is executed
}

// generator produces one client's op stream. It depends only on the seed,
// the client id and that client's own earlier writes, never on timing.
type generator struct {
	sp      *spec
	m       *model
	r       *rng
	z       *zipf
	client  int
	clients int
	inserts int
	nq      int
	shardOf func(pk []byte) int // non-nil when the mix has 2PC writes
	// stale says reads may lag acknowledged writes (replica-served): the
	// oracle then accepts any genuine value of the row, however old.
	stale bool
}

func newGenerator(sp *spec, m *model, seed uint64, client, clients int, shardOf func([]byte) int) *generator {
	g := &generator{sp: sp, m: m, r: newRNG(seed*1000003 + uint64(client)*7919 + 1), client: client, clients: clients, shardOf: shardOf}
	if sp.theta > 0 {
		g.z = newZipf(sp.rows, sp.theta)
	}
	return g
}

// row draws a row from the workload's key distribution.
func (g *generator) row() int {
	if g.z == nil {
		return g.r.intn(g.sp.rows)
	}
	return g.z.rank(g.r.float()) * scatter % g.sp.rows
}

// ownRow draws a row this client may write: the drawn row moved to the
// nearest row of the client's residue class.
func (g *generator) ownRow() int {
	i := g.row()
	i = i - i%g.clients + g.client
	if i >= g.sp.rows {
		i -= g.clients
	}
	return i
}

func (g *generator) kind() opKind {
	p := g.r.intn(100)
	for k, w := range g.sp.mix {
		if p < w {
			return opKind(k)
		}
		p -= w
	}
	return g.sp.headline
}

// next generates the next op of the mix.
func (g *generator) next() op { return g.nextOf(g.kind()) }

// nextOf generates the next op of one kind (the ladder asks for ops of
// the kind it is descending).
func (g *generator) nextOf(k opKind) op {
	o := op{kind: k}
	switch k {
	case opGet:
		o.rows[0], o.nrows = g.row(), 1
	case opRange:
		o.rows[0], o.nrows = g.rangeStart(), 1
	case opQuery:
		g.nq++
		o.nrows = 1
		if g.nq%4 == 0 {
			o.query = 3
			o.rows[0] = g.row() % groups
			o.stmt = "SELECT bal FROM acct WHERE grp = '" + string(groupOf(o.rows[0])) + "'"
			break
		}
		o.query = g.nq % 4 // 1 COUNT, 2 SUM
		if o.query == 3 {
			o.query = 0 // rows of the range
		}
		o.rows[0] = g.rangeStart()
		what := [3]string{"bal", "COUNT(bal)", "SUM(bal)"}[o.query]
		o.stmt = "SELECT " + what + " FROM acct WHERE pk BETWEEN '" + string(pkOf(o.rows[0])) +
			"' AND '" + string(pkOf(o.rows[0]+rangeRows-1)) + "'"
	case opApply:
		for o.nrows < g.sp.updates {
			r := g.ownRow()
			if !o.has(r) {
				o.rows[o.nrows] = r
				o.nrows++
			}
		}
		if g.sp.insert && g.sp.rows+g.client+g.clients*g.inserts < len(g.m.issued) {
			o.rows[o.nrows] = g.sp.rows + g.client + g.clients*g.inserts
			g.inserts++
			o.nrows++
		}
	case opApply2PC:
		a := g.ownRow()
		b := a
		for {
			b += g.clients
			if b >= g.sp.rows {
				b = g.client
			}
			if g.shardOf(pkOf(b)) != g.shardOf(pkOf(a)) {
				break
			}
		}
		o.rows[0], o.rows[1], o.nrows = a, b, 2
	}
	if k == opApply || k == opApply2PC {
		for i := 0; i < o.nrows; i++ {
			o.seqs[i] = g.m.nextWrite(o.rows[i])
		}
	}
	return o
}

func (o *op) has(row int) bool {
	for i := 0; i < o.nrows; i++ {
		if o.rows[i] == row {
			return true
		}
	}
	return false
}

// rangeStart draws the first row of a rangeRows-wide pk range that lies
// inside the preloaded rows.
func (g *generator) rangeStart() int {
	r := g.row()
	if r > g.sp.rows-rangeRows {
		r = g.sp.rows - rangeRows
	}
	return r
}

// puts materialises a write op.
func (g *generator) puts(o *op) []spitz.Put {
	puts := make([]spitz.Put, o.nrows)
	for i := range puts {
		puts[i] = spitz.Put{Table: g.sp.table, Column: g.sp.column, PK: pkOf(o.rows[i]), Value: g.m.value(o.rows[i], o.seqs[i])}
	}
	return puts
}

// ack records a write op's acknowledgement in the model.
func (g *generator) ack(o *op) {
	for i := 0; i < o.nrows; i++ {
		g.m.ack(o.rows[i], o.seqs[i])
	}
}

// errMismatch marks a result the oracle rejects: never a mere failed op.
var errMismatch = errors.New("result contradicts the model")

// exec runs one op through the client and checks the result against the
// model.
func (g *generator) exec(c benchClient, o *op) error {
	sp := g.sp
	switch o.kind {
	case opGet:
		lo := g.lo(o.rows[0])
		v, found, err := c.GetVerified(sp.table, sp.column, pkOf(o.rows[0]))
		if err != nil {
			return err
		}
		if !found || !g.m.check(o.rows[0], v, lo) {
			return fmt.Errorf("%w: get row %d found=%v", errMismatch, o.rows[0], found)
		}
	case opRange:
		los := g.los(o.rows[0])
		cells, err := c.RangePKVerified(sp.table, sp.column, pkOf(o.rows[0]), pkOf(o.rows[0]+rangeRows))
		if err != nil {
			return err
		}
		if len(cells) != rangeRows {
			return fmt.Errorf("%w: range at row %d returned %d rows", errMismatch, o.rows[0], len(cells))
		}
		for i, cell := range cells {
			if string(cell.PK) != string(pkOf(o.rows[0]+i)) || !g.m.check(o.rows[0]+i, cell.Value, los[i]) {
				return fmt.Errorf("%w: range row %d", errMismatch, o.rows[0]+i)
			}
		}
	case opQuery:
		return g.execQuery(c, o)
	case opApply, opApply2PC:
		puts := g.puts(o)
		for _, p := range puts {
			o.bytes += len(p.PK) + len(p.Value)
		}
		if err := c.Apply(kindNames[o.kind], puts); err != nil {
			return err
		}
		g.ack(o)
	}
	return nil
}

func (g *generator) lo(row int) uint32 {
	if g.stale {
		return 0
	}
	return g.m.acked[row].Load()
}

func (g *generator) los(first int) [rangeRows]uint32 {
	var los [rangeRows]uint32
	for i := range los {
		los[i] = g.lo(first + i)
	}
	return los
}

func (g *generator) execQuery(c benchClient, o *op) error {
	first := o.rows[0]
	var los [rangeRows]uint32
	if o.query != 3 {
		los = g.los(first)
	}
	res, err := c.Query(o.stmt)
	if err != nil {
		return err
	}
	switch o.query {
	case 0: // rows of a pk range
		if len(res.Rows) != rangeRows {
			return fmt.Errorf("%w: %q returned %d rows", errMismatch, o.stmt, len(res.Rows))
		}
		for i, row := range res.Rows {
			if string(row.PK) != string(pkOf(first+i)) || !g.m.check(first+i, row.Columns["bal"], los[i]) {
				return fmt.Errorf("%w: %q row %d", errMismatch, o.stmt, first+i)
			}
		}
	case 1:
		if !res.HasAgg || res.AggValue != rangeRows {
			return fmt.Errorf("%w: %q = %d", errMismatch, o.stmt, res.AggValue)
		}
	case 2:
		// SUM = sum(seq_i)*numericBase + sum(idx_i % numericBase): the tag
		// part is fixed, the sequence part is bounded by what was issued.
		var tags, loSeq, hiSeq uint64
		for i := 0; i < rangeRows; i++ {
			tags += uint64((first + i) % numericBase)
			loSeq += uint64(los[i])
			hiSeq += uint64(g.m.issued[first+i].Load())
		}
		seqs := (res.AggValue - tags) / numericBase
		if !res.HasAgg || res.AggValue < tags || (res.AggValue-tags)%numericBase != 0 || seqs < loSeq || seqs > hiSeq {
			return fmt.Errorf("%w: %q = %d", errMismatch, o.stmt, res.AggValue)
		}
	case 3: // every row of one group, located through the inverted index
		if len(res.Rows) != g.sp.rows/groups {
			return fmt.Errorf("%w: %q returned %d rows", errMismatch, o.stmt, len(res.Rows))
		}
		for i, row := range res.Rows {
			idx := first + i*groups
			if string(row.PK) != string(pkOf(idx)) || !g.m.check(idx, row.Columns["bal"], g.lo(idx)) {
				return fmt.Errorf("%w: %q row %d", errMismatch, o.stmt, idx)
			}
		}
	}
	return nil
}

// isRead reports whether an op kind is a GetVerified; isMulti whether it
// is a verified multi-row read; isWrite whether it commits.
func (k opKind) isRead() bool  { return k == opGet }
func (k opKind) isMulti() bool { return k == opRange || k == opQuery }
func (k opKind) isWrite() bool { return k == opApply || k == opApply2PC }
