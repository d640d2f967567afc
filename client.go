package spitz

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"spitz/internal/cas"
	"spitz/internal/ledger"
	"spitz/internal/obs"
	"spitz/internal/proof"
	"spitz/internal/twopc"
	"spitz/internal/wire"
)

// Topology describes the deployment a Client connects to: one primary
// listener serving N shards (DB.Serve, ClusterDB.Serve, spitz-server; N
// is read off the server's shard map) and 0..R read-replica listeners,
// each mirroring every shard of that primary (Replica.Serve,
// spitz-server -replicate-from). A single server is the 1 × 0 case.
type Topology struct {
	// Primary dials the primary listener. The client opens one
	// connection per shard through it, so fan-out requests run in
	// parallel.
	Primary func() (*wire.Client, error)
	// Replicas dial the read replicas; each is dialled once per shard. A
	// replica that is down at connect time is skipped.
	Replicas []func() (*wire.Client, error)
	// MaxLag, when non-zero, bounds how many blocks behind the trusted
	// primary digest a replica-served result may be: a verifiably honest
	// but older result is not served and the read is retried on the
	// shard's primary. Zero accepts any verified
	// prefix, however stale.
	MaxLag uint64
}

// Client is the network client for a served Spitz deployment of any
// shape. Per shard it holds a connection to the primary, a Verifier of
// its own, and connections to that shard's replicas.
//
// Writes, and every decision to advance trust, go to the primary. Reads
// go to the owning shard's replicas in round-robin order and fall back
// to its primary; range, lookup and aggregate reads scatter across the
// shards and merge. Every read it offers is proven against a digest it
// trusts, or deferred to an audit receipt under AuditMode (History is
// always proven at once). Verification stays client-side and per shard: a
// proof produced for shard i is only ever checked against shard i's
// trusted digest, and that digest only ever advances against shard i's
// primary — a proof a replica serves at digest d is accepted only after
// the primary proves d a prefix of the trusted history. A tampering
// replica is therefore caught exactly like a tampering server, and a
// lagging one serves verifiably stale data, bounded by Topology.MaxLag.
// Replicas that stop answering are skipped and not redialled — reconnect
// by building a new client.
//
// Safe for concurrent use.
type Client struct {
	shards []*shard
	maxLag uint64

	audMu sync.Mutex
	aud   *Auditor
}

// shard is one shard's slice of the topology.
type shard struct {
	id      int                      // wire shard id: index+1, or 0 on a connection adopted without a shard map (NewClient)
	primary *wire.Client             // writes, the digest authority, and the read fallback
	v       atomic.Pointer[Verifier] // swapped whole by Client.Restore while reads load it
	syncMu  sync.Mutex               // serializes digest refreshes (see shardLink.syncAndVerifyWith)

	mu       sync.Mutex // guards the replicas' down flags and rr
	replicas []*replicaConn
	rr       int // round-robin cursor
}

type replicaConn struct {
	c    *wire.Client
	down bool
}

// Dial connects to the Spitz server at addr (DB.Serve, ClusterDB.Serve,
// cmd/spitz-server) and to any read replicas of it.
func Dial(network, addr string, replicaAddrs ...string) (*Client, error) {
	dialer := func(addr string) func() (*wire.Client, error) {
		return func() (*wire.Client, error) { return wire.Dial(network, addr) }
	}
	t := Topology{Primary: dialer(addr)}
	for _, a := range replicaAddrs {
		t.Replicas = append(t.Replicas, dialer(a))
	}
	return Connect(t)
}

// Connect builds a client for a topology: it fetches the primary's shard
// map, opens the per-shard connections and — when there are replicas to
// read from — pins each shard's trust to the primary's digest, so even
// the very first replica-served read must prove its digest a prefix of
// the primary's history. (A shard still at height 0 stays unpinned; its
// first verified read then takes trust from the primary, never from the
// replica.)
func Connect(t Topology) (*Client, error) {
	first, err := t.Primary()
	if err != nil {
		return nil, err
	}
	cl := &Client{maxLag: t.MaxLag, shards: []*shard{newShard(1, first)}}
	resp, err := first.Do(wire.Request{Op: wire.OpShardMap})
	if err == nil && resp.ShardCount < 1 {
		err = fmt.Errorf("server reported %d shards", resp.ShardCount)
	}
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("spitz: shard map: %w", err)
	}
	for i := 1; i < resp.ShardCount; i++ {
		c, err := t.Primary()
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.shards = append(cl.shards, newShard(i+1, c))
	}
	if len(t.Replicas) == 0 {
		return cl, nil
	}
	for _, s := range cl.shards {
		resp, err := s.primary.Do(wire.Request{Op: wire.OpDigest, Shard: s.id})
		if err == nil && resp.Digest.Height > 0 {
			err = s.v.Load().Advance(resp.Digest, ConsistencyProof{})
		}
		if err != nil {
			cl.Close()
			return nil, err
		}
		for _, dial := range t.Replicas {
			// A replica that is down now is exactly what failover is
			// for: run on the survivors.
			if c, err := dial(); err == nil {
				s.replicas = append(s.replicas, &replicaConn{c: c})
			}
		}
	}
	return cl, nil
}

// NewClient adopts one established connection to a single-engine server
// as a 1 × 0 topology. Unlike Connect it asks the server nothing — no
// shard map, so its requests carry no shard id, and a server of several
// shards refuses every read it sends (see wire.Router). Tests and
// benchmarks use it to own the connection and every frame on it.
func NewClient(c *wire.Client) *Client {
	return &Client{shards: []*shard{newShard(0, c)}}
}

// newShard is shard id served by primary, with a fresh verifier.
func newShard(id int, primary *wire.Client) *shard {
	s := &shard{id: id, primary: primary}
	s.v.Store(NewVerifier())
	return s
}

// Deprecated: a sharded deployment is an ordinary Topology and its client
// a Client; the name stays for the frozen benchmark module.
type ShardedClient = Client

// Deprecated: a replicated deployment is an ordinary Topology and its
// client a Client; the name stays for the frozen benchmark module.
type ReplicatedClient = Client

// Deprecated: MaxLag is a Topology field.
type ReplicatedOptions struct{ MaxLag uint64 }

// NewShardedClient is Connect without replicas.
//
// Deprecated: a sharded deployment is an ordinary Topology; use Connect.
func NewShardedClient(dial func() (*wire.Client, error)) (*Client, error) {
	return Connect(Topology{Primary: dial})
}

// NewReplicatedClient is Connect with its arguments spread out.
//
// Deprecated: a replicated deployment is an ordinary Topology; use Connect.
func NewReplicatedClient(primary func() (*wire.Client, error), replicas []func() (*wire.Client, error), opts ReplicatedOptions) (*Client, error) {
	return Connect(Topology{Primary: primary, Replicas: replicas, MaxLag: opts.MaxLag})
}

// Close releases every connection. If AuditMode is active the auditor is
// closed first; its final flush error (unverified receipts are a failure)
// is returned when nothing else fails.
func (cl *Client) Close() error {
	var auditErr, err error
	if a := cl.auditor(); a != nil {
		auditErr = a.Close()
	}
	for _, s := range cl.shards {
		if cerr := s.primary.Close(); err == nil {
			err = cerr
		}
		for _, r := range s.replicas {
			if cerr := r.c.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return err
	}
	return auditErr
}

// StartAudit switches the client into deferred verification: verified
// reads are accepted optimistically — from replicas too — and
// batch-audited in the background against each shard's primary (see
// AuditMode). The returned Auditor owns the audit channel and the flush
// barrier. Audit can be started once per client.
func (cl *Client) StartAudit(mode AuditMode) (*Auditor, error) {
	cl.audMu.Lock()
	defer cl.audMu.Unlock()
	if cl.aud != nil {
		return nil, errors.New("spitz: audit already started")
	}
	cl.aud = newAuditor(mode, cl)
	return cl.aud, nil
}

// auditor returns the active auditor, or nil in eager mode.
func (cl *Client) auditor() *Auditor {
	cl.audMu.Lock()
	defer cl.audMu.Unlock()
	return cl.aud
}

// Shards returns the deployment's shard count.
func (cl *Client) Shards() int { return len(cl.shards) }

// ShardFor reports which shard owns a primary key (the client-side shard
// map).
func (cl *Client) ShardFor(pk []byte) int {
	if len(cl.shards) == 1 {
		return 0
	}
	return wire.ShardIndex(pk, len(cl.shards))
}

// ShardVerifier exposes shard i's proof verifier (for inspecting the
// trusted digest or proof statistics).
func (cl *Client) ShardVerifier(i int) *Verifier { return cl.shards[i].v.Load() }

// Verifier is ShardVerifier(0): the verifier of a one-shard deployment.
func (cl *Client) Verifier() *Verifier { return cl.shards[0].v.Load() }

// Replicas returns how many replicas every shard can still read from.
func (cl *Client) Replicas() int {
	least := -1
	for _, s := range cl.shards {
		s.mu.Lock()
		n := 0
		for _, r := range s.replicas {
			if !r.down {
				n++
			}
		}
		s.mu.Unlock()
		if least < 0 || n < least {
			least = n
		}
	}
	return least
}

// ---------------------------------------------------------------------------
// Routing: which connection serves a request, and which digest authority
// may advance trust, is decided here and nowhere else.

// link binds shard i's verifier to the connection c that will serve one
// request. When c is a replica, trust still advances only against the
// shard's primary and the staleness bound applies.
func (cl *Client) link(i int, c *wire.Client, tr *obs.Trace) shardLink {
	s := cl.shards[i]
	l := shardLink{c: c, v: s.v.Load(), mu: &s.syncMu, shard: s.id, index: i, tr: tr}
	if c != s.primary {
		l.syncC, l.maxLag = s.primary, cl.maxLag
	}
	return l
}

// primaryLink is the link for writes, digest syncs and audits of shard i.
func (cl *Client) primaryLink(i int, tr *obs.Trace) shardLink {
	return cl.link(i, cl.shards[i].primary, tr)
}

// nextReplicas snapshots the shard's healthy replicas in round-robin
// order.
func (s *shard) nextReplicas() []*replicaConn {
	if len(s.replicas) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*replicaConn, 0, len(s.replicas))
	for i := range s.replicas {
		if r := s.replicas[(s.rr+i)%len(s.replicas)]; !r.down {
			out = append(out, r)
		}
	}
	s.rr++
	return out
}

// read runs fn against shard i: on its replicas in round-robin order,
// failing over on transport errors, and on its primary when no replica
// can serve (none configured, all down, or the result was too stale).
func read[T any](cl *Client, i int, tr *obs.Trace, fn func(l shardLink) (T, error)) (T, error) {
	s := cl.shards[i]
	for _, r := range s.nextReplicas() {
		out, err := fn(cl.link(i, r.c, tr))
		switch {
		case errors.Is(err, errPrimarySync):
			// The digest authority failed, not the replica that served
			// the data: blaming the replica would mark the whole fleet
			// down over a primary outage.
			return out, err
		case errors.Is(err, wire.ErrTransport):
			s.mu.Lock()
			r.down = true // dead replica: fail over
			s.mu.Unlock()
		case errors.Is(err, errStale):
			return fn(cl.primaryLink(i, tr)) // verifiably honest but too old
		default:
			return out, err // the answer, or an error that is one
		}
	}
	return fn(cl.primaryLink(i, tr))
}

// scatter runs fn for every shard concurrently (fanOut) and returns the
// per-shard results in shard order. Across several shards one root span
// named op owns the scatter and each shard's read becomes a child leg, so
// the whole fan-out stitches under a single trace ID; a single shard's
// read mints its own root.
func scatter[T any](cl *Client, op string, fn func(i int, tr *obs.Trace) (T, error)) ([]T, error) {
	if len(cl.shards) == 1 {
		out, err := fn(0, nil)
		return []T{out}, err
	}
	tr := obs.DefaultTracer.Root(op, "client")
	defer tr.Finish()
	return fanOut(len(cl.shards), func(i int) (T, error) { return fn(i, tr) })
}

// fanOut runs fn for each of n shards concurrently (twopc.FanOut) and
// returns the results in shard order, or the first shard's error.
func fanOut[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	parts := make([]T, n)
	errs := make([]error, n)
	twopc.FanOut(n, func(i int) { parts[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// mergeByPK merges a fan-out's per-shard cell lists into one list ordered
// by (table, column, pk) — each shard's list is already ordered, and
// shards hold disjoint keys — and passes the fan-out's error through.
func mergeByPK(parts [][]Cell, err error) ([]Cell, error) {
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	out := slices.Concat(parts...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return string(a.PK) < string(b.PK)
	})
	return out, nil
}

// ---------------------------------------------------------------------------
// Operations

// Apply commits a batch of writes atomically on the primary and returns
// the height and version of the block it committed in, the rest of the
// header zero. A sharded server groups the writes by owning shard and
// commits cross-shard batches with two-phase commit; its ack names no
// block, only the coordinator's commit timestamp, in Version, which is in
// no block: each shard commits its part at a version its own engine draws
// (see ClusterDB.Apply).
func (cl *Client) Apply(statement string, puts []Put) (BlockHeader, error) {
	// A sampled root here stitches the server's commit — and a
	// coordinator's per-shard 2PC prepare/commit legs — under the client's
	// trace ID.
	tr := obs.DefaultTracer.Root("client.apply", "client")
	defer tr.Finish()
	req := wire.Request{Op: wire.OpPut, Statement: statement, Puts: puts}
	req.SetTrace(tr)
	resp, err := cl.shards[0].primary.Do(req)
	if err != nil {
		return BlockHeader{}, err
	}
	return BlockHeader{Height: resp.Height, Version: resp.Version}, nil
}

// GetVerified performs a verified point read against the owning shard:
// the proof is fetched, checked against the shard's trusted digest, and
// the value is returned only if everything verifies. Trust advances (with
// a consistency proof from the primary) only when the key's entry changed
// since the trusted digest; an unchanged one is proven at that digest, so
// the value is current as of the head all the same. SyncDigest moves trust
// to the head on demand. Under AuditMode (StartAudit) the read is instead
// accepted optimistically and verified in batch before the receipt
// horizon; tampering then surfaces on the audit channel.
func (cl *Client) GetVerified(table, column string, pk []byte) ([]byte, bool, error) {
	r := pointRead(cl.auditor(), table, column, pk)
	cells, err := read(cl, cl.ShardFor(pk), nil, r.run)
	if err != nil || len(cells) == 0 {
		return nil, false, err
	}
	return cells[0].Value, true, nil
}

// RangePKVerified scans a primary-key range across every shard
// concurrently, verifying each shard's proof against that shard's trusted
// digest before merging (optimistically under AuditMode, with one receipt
// per shard). As for GetVerified, a shard's trust advances only when a row
// of the range changed since its trusted digest.
func (cl *Client) RangePKVerified(table, column string, pkLo, pkHi []byte) ([]Cell, error) {
	r := rangeRead(cl.auditor(), table, column, pkLo, pkHi)
	return mergeByPK(scatter(cl, "client.range-verified", func(i int, tr *obs.Trace) ([]Cell, error) {
		return read(cl, i, tr, r.run)
	}))
}

// History returns every version of a cell from its owning shard, newest
// first, tombstones included, verified before it is returned: the head is
// proven as GetVerified proves it, and each older version hashes to the
// link of the one after it, down to the cell's first, so none can be
// dropped, reordered, rewritten or added. It is always verified eagerly,
// AuditMode or not.
func (cl *Client) History(table, column string, pk []byte) ([]Cell, error) {
	r := historyRead(table, column, pk)
	return read(cl, cl.ShardFor(pk), nil, r.run)
}

// Snapshot streams a full snapshot of a single-engine server's database
// to w — the operator-facing way to take a checkpoint by hand (spitz-cli
// snapshot). The stream is WriteSnapshot's format and can be loaded with
// Restore, ResetFromSnapshot, or Client.Restore. It is checked before a
// byte is written: loaded into a scratch ledger (every object hashed, the
// block chain, the head's tree and every cell's version chain walked), it
// must reach the digest the server sent it with and, when this client
// trusts a digest, pass through exactly that digest; otherwise the error
// is ErrTampered.
func (cl *Client) Snapshot(w io.Writer) error {
	resp, err := cl.shards[0].primary.Do(wire.Request{Op: wire.OpSnapshot})
	if err != nil {
		return err
	}
	l, err := ledger.LoadSnapshot(cas.NewMemory(), bytes.NewReader(resp.Value))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTampered, err)
	}
	if d := l.Digest(); d != resp.Digest {
		return fmt.Errorf("%w: snapshot restores to digest %d, sent as %d", ErrTampered, d.Height, resp.Digest.Height)
	}
	if trusted := cl.Verifier().Digest(); trusted.Height > 0 {
		if d, err := l.DigestAt(trusted.Height); err != nil || d != trusted {
			return fmt.Errorf("%w: snapshot does not extend the trusted digest at height %d", ErrTampered, trusted.Height)
		}
	}
	_, err = w.Write(resp.Value)
	return err
}

// Restore replaces a single-engine server's entire state with the given
// snapshot stream (a file written by Snapshot or WriteSnapshot). The
// server validates the snapshot exactly like a local Restore — a tampered
// file is rejected. Only in-memory servers accept restores; durable
// servers and clusters own their state. The returned digest is the
// restored ledger's; any previously saved digests refer to the replaced
// history and must be discarded, so this client's verifier is reset to
// trust-on-first-use.
func (cl *Client) Restore(snapshot []byte) (Digest, error) {
	resp, err := cl.shards[0].primary.Do(wire.Request{Op: wire.OpRestore, Snapshot: snapshot})
	if err != nil {
		return Digest{}, err
	}
	cl.shards[0].v.Store(NewVerifier()) // reads in flight finish on the old one
	return resp.Digest, nil
}

// Stats fetches the primary's observability counters: per-shard heights,
// group-commit totals, WAL durable height and retained span, attached
// replication followers with their lag, and — when the "primary" is
// itself a replica — its replication status.
func (cl *Client) Stats() (ServerStats, error) {
	resp, err := cl.shards[0].primary.Do(wire.Request{Op: wire.OpStats})
	if err != nil {
		return ServerStats{}, err
	}
	if resp.Stats == nil {
		return ServerStats{}, errors.New("spitz: server omitted stats")
	}
	return *resp.Stats, nil
}

// ShardDigest fetches shard i's current ledger digest from its primary
// (unverified; use SyncDigest to advance trust safely).
func (cl *Client) ShardDigest(i int) (Digest, error) {
	s := cl.shards[i]
	resp, err := s.primary.Do(wire.Request{Op: wire.OpDigest, Shard: s.id})
	if err != nil {
		return Digest{}, err
	}
	return resp.Digest, nil
}

// VerifyShardPrefix proves that old is a prefix of shard i's current
// ledger: it fetches the current digest together with a consistency
// proof over old and checks the proof. It returns the current digest
// without touching the client's trusted digests — the operator-facing
// form of the replication trust check (spitz-cli digest check).
func (cl *Client) VerifyShardPrefix(i int, old Digest) (Digest, error) {
	d, cons, err := cl.prefixOf(i, old)
	if err == nil {
		err = proof.CheckPrefix(old, d, cons)
	}
	if err != nil {
		return Digest{}, err
	}
	return d, nil
}

// prefixOf fetches shard i's current digest with the primary's proof
// that old is a prefix of it: one OpConsistency round trip.
func (cl *Client) prefixOf(i int, old Digest) (Digest, *ConsistencyProof, error) {
	s := cl.shards[i]
	resp, err := s.primary.Do(wire.Request{Op: wire.OpConsistency, OldDigest: old, Shard: s.id})
	return resp.Digest, resp.Consistency, err
}

// ClusterDigest fetches the cluster digest — every shard's ledger digest
// bound under one combined root — and checks the binding.
func (cl *Client) ClusterDigest() (ClusterDigest, error) {
	resp, err := cl.shards[0].primary.Do(wire.Request{Op: wire.OpClusterDigest})
	if err != nil {
		return ClusterDigest{}, err
	}
	if resp.Cluster == nil {
		return ClusterDigest{}, errors.New("spitz: server omitted cluster digest")
	}
	if err := resp.Cluster.Check(); err != nil {
		return ClusterDigest{}, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	if len(resp.Cluster.Shards) != len(cl.shards) {
		return ClusterDigest{}, fmt.Errorf("%w: cluster digest names %d shards, client connected to %d",
			ErrTampered, len(resp.Cluster.Shards), len(cl.shards))
	}
	return *resp.Cluster, nil
}

// SyncDigest advances every shard's trusted digest to its primary's
// current one — VerifyShardPrefix's one round trip, from the trusted
// digest — so a rewritten history on any shard is rejected; a shard that
// trusts nothing yet takes the primary's digest on first use.
func (cl *Client) SyncDigest() error {
	_, err := scatter(cl, "client.sync-digest", func(i int, _ *obs.Trace) (struct{}, error) {
		s := cl.shards[i]
		s.syncMu.Lock()
		v := s.v.Load()
		d, cons, err := cl.prefixOf(i, v.Digest())
		if err == nil {
			err = v.AdvanceWith(d, cons, nil)
		}
		s.syncMu.Unlock()
		if err != nil && len(cl.shards) > 1 {
			err = fmt.Errorf("spitz: shard %d digest sync: %w", i, err)
		}
		return struct{}{}, err
	})
	return err
}
