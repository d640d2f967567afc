package spitz

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"spitz/internal/cellstore"
	"spitz/internal/ledger"
	"spitz/internal/obs"
	"spitz/internal/server"
	"spitz/internal/wire"
)

// Client is a network client for a served Spitz database. It embeds a
// Verifier so that verified reads check proofs against the client's own
// trusted digest — the server is never trusted with verification.
type Client struct {
	c        *wire.Client
	verifier *Verifier
	syncMu   sync.Mutex // serializes digest refreshes (see shardLink.syncDigest)
	auditHolder
}

// Dial connects to a Spitz server (e.g. started with DB.Serve or
// cmd/spitz-server).
func Dial(network, addr string) (*Client, error) {
	c, err := wire.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// NewClient wraps an established wire connection (wire.Connect over a
// listener, wire.Dial, or an in-process pipe) — the transport-agnostic
// form Dial wraps.
func NewClient(c *wire.Client) *Client {
	return &Client{c: c, verifier: NewVerifier()}
}

// Close releases the connection. If AuditMode is active the auditor is
// closed first; its final flush error (unverified receipts are a
// failure) is returned.
func (cl *Client) Close() error {
	auditErr := cl.closeAudit()
	if err := cl.c.Close(); err != nil {
		return err
	}
	return auditErr
}

// StartAudit switches the client into deferred verification: verified
// reads are accepted optimistically and batch-audited in the background
// (see AuditMode). The returned Auditor owns the audit channel and the
// flush barrier. Audit can be started once per client.
func (cl *Client) StartAudit(mode AuditMode) (*Auditor, error) {
	return cl.startAudit(mode, func(int) shardLink { return cl.link() })
}

// Verifier exposes the client's proof verifier (for inspecting the
// trusted digest or deferring verification).
func (cl *Client) Verifier() *Verifier { return cl.verifier }

// link binds the client's connection and verifier into the shared
// verified-read flows.
func (cl *Client) link() shardLink {
	return shardLink{c: cl.c, v: cl.verifier, mu: &cl.syncMu}
}

// Apply commits a batch of writes and returns the new block header.
func (cl *Client) Apply(statement string, puts []Put) (BlockHeader, error) {
	tr := obs.DefaultTracer.Root("client.apply", "client")
	defer tr.Finish()
	req := wire.Request{Op: wire.OpPut, Statement: statement, Puts: encodePuts(puts)}
	req.SetTrace(tr)
	resp, err := cl.c.Do(req)
	if err != nil {
		return BlockHeader{}, err
	}
	return resp.Header, nil
}

// Get performs an unverified point read.
func (cl *Client) Get(table, column string, pk []byte) ([]byte, error) {
	resp, err := cl.c.Do(wire.Request{Op: wire.OpGet, Table: table, Column: column, PK: pk})
	if err != nil {
		return nil, err
	}
	if !resp.Found {
		return nil, ErrNotFound
	}
	return resp.Value, nil
}

// GetVerified performs a verified point read: the proof is fetched,
// checked against the client's trusted digest (advancing it with a
// consistency proof when the ledger has grown), and the value is returned
// only if everything verifies. Under AuditMode (StartAudit) the read is
// instead accepted optimistically and verified in batch before the
// receipt horizon; tampering then surfaces on the audit channel.
func (cl *Client) GetVerified(table, column string, pk []byte) ([]byte, bool, error) {
	if a := cl.auditor(); a != nil {
		return cl.link().getOptimistic(a, 0, table, column, pk)
	}
	return cl.link().getVerified(table, column, pk)
}

// RangePKVerified performs a verified range scan, returning the proven
// cells (optimistically under AuditMode, see GetVerified).
func (cl *Client) RangePKVerified(table, column string, pkLo, pkHi []byte) ([]Cell, error) {
	if a := cl.auditor(); a != nil {
		return cl.link().rangeOptimistic(a, 0, table, column, pkLo, pkHi)
	}
	return cl.link().rangeVerified(table, column, pkLo, pkHi)
}

// History returns all versions of a cell, newest first.
func (cl *Client) History(table, column string, pk []byte) ([]Cell, error) {
	resp, err := cl.c.Do(wire.Request{Op: wire.OpHistory, Table: table, Column: column, PK: pk})
	if err != nil {
		return nil, err
	}
	return resp.Cells, nil
}

// LookupEqual returns cells of one column whose latest value equals
// value (the server must maintain the inverted index).
func (cl *Client) LookupEqual(table, column string, value []byte) ([]Cell, error) {
	resp, err := cl.c.Do(wire.Request{Op: wire.OpLookupEq, Table: table, Column: column, Value: value})
	if err != nil {
		return nil, err
	}
	return resp.Cells, nil
}

// Snapshot streams a full snapshot of the server's database to w — the
// operator-facing way to take a checkpoint by hand (spitz-cli snapshot).
// The stream is WriteSnapshot's format and can be loaded with Restore,
// ResetFromSnapshot, or Client.Restore.
func (cl *Client) Snapshot(w io.Writer) error {
	resp, err := cl.c.Do(wire.Request{Op: wire.OpSnapshot})
	if err != nil {
		return err
	}
	_, err = w.Write(resp.Value)
	return err
}

// Restore replaces the server's entire state with the given snapshot
// stream (a file written by Snapshot or WriteSnapshot). The server
// validates the snapshot exactly like a local Restore — a tampered file
// is rejected. Only in-memory servers accept restores; durable servers
// own their state. The returned digest is the restored ledger's; any
// previously saved digests refer to the replaced history and must be
// discarded, so this client's verifier is reset to trust-on-first-use.
func (cl *Client) Restore(snapshot []byte) (Digest, error) {
	resp, err := cl.c.Do(wire.Request{Op: wire.OpRestore, Snapshot: snapshot})
	if err != nil {
		return Digest{}, err
	}
	cl.verifier = NewVerifier()
	return resp.Digest, nil
}

// Stats fetches the server's observability counters: per-shard heights,
// group-commit totals, WAL durable height and retained span, attached
// replication followers with their lag, and — on a replica — its
// replication status.
func (cl *Client) Stats() (ServerStats, error) {
	resp, err := cl.c.Do(wire.Request{Op: wire.OpStats})
	if err != nil {
		return ServerStats{}, err
	}
	if resp.Stats == nil {
		return ServerStats{}, errors.New("spitz: server omitted stats")
	}
	return *resp.Stats, nil
}

// Proto reports the wire framing this client negotiated with the
// server (wire.ProtoBinary) — empty if the connection failed before
// negotiation finished.
func (cl *Client) Proto() string { return cl.c.Proto() }

// Digest fetches the server's current ledger digest (unverified; use
// SyncDigest to advance trust safely).
func (cl *Client) Digest() (Digest, error) {
	resp, err := cl.c.Do(wire.Request{Op: wire.OpDigest})
	if err != nil {
		return Digest{}, err
	}
	return resp.Digest, nil
}

// SyncDigest advances the client's trusted digest to the server's current
// one, verifying a consistency proof so a rewritten history is rejected.
func (cl *Client) SyncDigest() error {
	d, err := cl.Digest()
	if err != nil {
		return err
	}
	return cl.link().syncDigest(d)
}

func encodePuts(puts []Put) []wire.Put {
	wp := make([]wire.Put, len(puts))
	for i, p := range puts {
		wp[i] = wire.Put{Table: p.Table, Column: p.Column, PK: p.PK,
			Value: p.Value, Tombstone: p.Tombstone}
	}
	return wp
}

// ---------------------------------------------------------------------------
// Shared verified-read flows

// shardLink is one (connection, verifier, shard) triple. A plain Client
// holds one with shard 0 (unsharded); a ShardedClient holds one per
// shard, so each shard's proofs verify against that shard's own trusted
// digest; a ReplicatedClient points c at a replica and syncC at the
// primary, so data comes from the replica but trust only ever advances
// against the primary's digest.
type shardLink struct {
	c     *wire.Client
	v     *Verifier
	mu    *sync.Mutex // serializes syncDigest's check-fetch-advance
	shard int         // wire shard id: 0 unsharded, i+1 for shard i

	// syncC, when non-nil, serves the consistency-proof traffic instead
	// of c: the digest authority the verifier trusts (the primary of a
	// replicated deployment).
	syncC *wire.Client
	// maxLag, when non-zero, bounds how many blocks behind the trusted
	// digest a served result may be before ErrStale is returned.
	maxLag uint64

	// tr, when non-nil, is the parent span this link's requests record
	// under (a sharded fan-out or an audit flush owns the root span);
	// when nil, verified-read flows mint their own client root.
	tr *obs.Trace
}

// span opens the span one verified-read flow records under: a child of
// the link's parent when one is set, a sampled client root otherwise.
// The caller finishes it; nil (unsampled) is safe everywhere.
func (l shardLink) span(op string) *obs.Trace {
	if l.tr != nil {
		return l.tr.Child(op)
	}
	return obs.DefaultTracer.Root(op, "client")
}

// errPrimarySync marks a failure of the digest-authority round trip
// (the primary of a replicated deployment): the replica that served the
// data is not at fault, so failover logic must not blame it.
var errPrimarySync = errors.New("spitz: digest authority unreachable")

// syncConn returns the connection trust advances against.
func (l shardLink) syncConn() *wire.Client {
	if l.syncC != nil {
		return l.syncC
	}
	return l.c
}

// checkLag enforces the link's staleness bound: d is the digest the
// result was served at, cur the trusted digest it was proven a prefix
// of.
func (l shardLink) checkLag(d, cur Digest) error {
	if l.maxLag > 0 && cur.Height > d.Height && cur.Height-d.Height > l.maxLag {
		return fmt.Errorf("%w: result is %d blocks behind the trusted digest (max %d)",
			ErrStale, cur.Height-d.Height, l.maxLag)
	}
	return nil
}

// syncAndVerifyWith is the digest-advance flow every proof-carrying read
// shares; verify performs the final proof check against d, which by the
// time it runs is the trusted digest or a proven prefix of it — a
// point/range Proof and an aggregated BatchProof differ only there
// (Verifier.VerifyPoint, Verifier.VerifyBatch). The whole flow runs under
// the link's mutex so
// concurrent verified reads cannot interleave digest refreshes and
// report tampering the honest server never committed.
//
// When the trusted digest has already moved past d (a concurrent read
// synced a newer state), the proof cannot verify against the trusted
// digest — but it is still an honest statement about an older ledger
// state. One atomic server call returns two consistency proofs: trusted
// digest → current (advancing trust) and d → current (showing d is a
// genuine prefix of the same history); with both verified, the proof is
// checked against d itself. This converges in one round trip under any
// write churn, where refetch-until-current would livelock.
func (l shardLink) syncAndVerifyWith(tr *obs.Trace, d Digest, verify func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.v.Digest()
	if cur == d {
		return verify()
	}
	if cur.Height == 0 && cur.Root.IsZero() {
		if l.syncC == nil {
			if err := l.v.Advance(d, ConsistencyProof{}); err != nil {
				return err
			}
			return verify()
		}
		// Trust bootstraps from the digest authority, never from the
		// replica being read: pin the primary's digest (trust on first
		// use, exactly as a direct client would) and fall through to
		// prove d is a prefix of it.
		dreq := wire.Request{Op: wire.OpDigest, Shard: l.shard}
		pin := tr.Child("client.trust-pin")
		dreq.SetTrace(pin)
		dresp, err := l.syncC.Do(dreq)
		pin.Finish()
		if err != nil {
			return fmt.Errorf("%w: %v", errPrimarySync, err)
		}
		if err := l.v.Advance(dresp.Digest, ConsistencyProof{}); err != nil {
			return err
		}
		cur = l.v.Digest()
		if cur == d {
			return verify()
		}
	}
	// The prefix-proof leg: against the digest authority (the primary of
	// a replicated deployment) when the link carries one, the serving
	// connection otherwise. Its span is a child of the read's root, so a
	// replica-served read shows both legs under one trace ID.
	creq := wire.Request{Op: wire.OpConsistency, OldDigest: cur, OldDigest2: &d,
		Shard: l.shard}
	leg := tr.Child("client.prefix-proof")
	creq.SetTrace(leg)
	resp, err := l.syncConn().Do(creq)
	leg.Finish()
	if err != nil {
		if l.syncC != nil {
			if errors.Is(err, wire.ErrTransport) {
				return fmt.Errorf("%w: %v", errPrimarySync, err)
			}
			// The digest authority itself refused to produce a prefix
			// proof over the replica's digest (e.g. the replica claims a
			// taller ledger than the primary has): the replica's chain is
			// not part of the primary's history.
			return fmt.Errorf("%w: %v", ErrTampered, err)
		}
		return err
	}
	if resp.Consistency == nil || resp.Consistency2 == nil {
		return errors.New("spitz: server omitted consistency proof")
	}
	if err := l.v.Advance(resp.Digest, *resp.Consistency); err != nil {
		return err
	}
	if l.v.Digest() == d {
		return verify()
	}
	// Trust is now ahead of d: require the second proof to show d is a
	// prefix of the same (now trusted) state, then verify against d.
	// For a replica-served result this is exactly the replication trust
	// argument: the proof came from the replica's digest d, and the
	// digest authority (syncConn — the primary) has just proven d to be
	// a prefix of the trusted history, so a tampering replica is caught
	// here and a lagging one is served as verifiably stale data.
	cons2 := *resp.Consistency2
	if cons2.OldSize != int(d.Height) || cons2.NewSize != int(resp.Digest.Height) {
		return fmt.Errorf("%w: prefix proof sizes %d/%d do not match digests %d/%d",
			ErrTampered, cons2.OldSize, cons2.NewSize, d.Height, resp.Digest.Height)
	}
	if err := cons2.Verify(d.Root, resp.Digest.Root); err != nil {
		return fmt.Errorf("%w: response digest is not a prefix of the ledger: %v", ErrTampered, err)
	}
	if err := l.checkLag(d, resp.Digest); err != nil {
		return err
	}
	return verify()
}

func (l shardLink) getVerified(table, column string, pk []byte) ([]byte, bool, error) {
	tr := l.span("client.get-verified")
	defer tr.Finish()
	// Tell the server which index nodes of the key's search path this
	// verifier already holds, so the proof ships only the rest. The path
	// pins those nodes: the response is verified against them even if the
	// cache evicts in between.
	key := cellstore.CellPrefix(table, column, pk)
	path := l.v.PathTo(key)
	req := wire.Request{Op: wire.OpGetVerified, Table: table, Column: column,
		PK: pk, Shard: l.shard, Have: path.Have()}
	req.SetTrace(tr)
	resp, err := l.c.Do(req)
	if err != nil {
		return nil, false, err
	}
	if err := l.checkEmptyReplica(resp.Digest); err != nil {
		return nil, false, err
	}
	if resp.Proof == nil {
		if resp.Found {
			return nil, false, fmt.Errorf("%w: server omitted proof", ErrTampered)
		}
		return nil, false, nil // empty database
	}
	// The proof must answer the question that was asked: a valid proof
	// for some other key would otherwise smuggle in that key's value.
	// Checked before verification, so an answer to another question never
	// reaches the node cache either.
	if resp.Proof.Point == nil || !bytes.Equal(resp.Proof.Point.Key, key) {
		return nil, false, fmt.Errorf("%w: proof answers a different key", ErrTampered)
	}
	verify := func() error { return l.v.VerifyPoint(*resp.Proof, resp.Digest, path) }
	if err := l.syncAndVerifyWith(tr, resp.Digest, verify); err != nil {
		return nil, false, err
	}
	cells, err := resp.Proof.Cells()
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	if len(cells) == 0 || cells[0].Tombstone {
		if resp.Found {
			return nil, false, fmt.Errorf("%w: result contradicts proof", ErrTampered)
		}
		return nil, false, nil
	}
	return cells[0].Value, true, nil
}

// checkEmptyReplica flags a replica that has no history yet — a fresh
// follower mid-bootstrap. That is the extreme form of staleness, not
// tampering: callers fail over to the primary instead of alarming.
func (l shardLink) checkEmptyReplica(d Digest) error {
	if l.syncC != nil && d.Height == 0 {
		return fmt.Errorf("%w: replica has no history yet (still bootstrapping)", ErrStale)
	}
	return nil
}

func (l shardLink) rangeVerified(table, column string, pkLo, pkHi []byte) ([]Cell, error) {
	tr := l.span("client.range-verified")
	defer tr.Finish()
	// As in getVerified: hint the index nodes held where the scan will
	// walk, pinned until the response has been verified against them.
	path := l.v.PathFor([]ledger.BatchQuery{{Table: table, Column: column, PK: pkLo, PKHi: pkHi, Range: true}})
	req := wire.Request{Op: wire.OpRangeVer, Table: table, Column: column,
		PK: pkLo, PKHi: pkHi, Shard: l.shard, Have: path.Have()}
	req.SetTrace(tr)
	resp, err := l.c.Do(req)
	if err != nil {
		return nil, err
	}
	if err := l.checkEmptyReplica(resp.Digest); err != nil {
		return nil, err
	}
	if resp.Proof == nil {
		if resp.Found || len(resp.Cells) > 0 {
			return nil, fmt.Errorf("%w: server omitted proof", ErrTampered)
		}
		return nil, nil
	}
	// The proof must cover exactly the requested range: a valid proof of
	// a narrower range would otherwise silently omit rows. Checked before
	// verification, like getVerified's key.
	wantStart, wantEnd := cellstore.RefRange(table, column, pkLo, pkHi)
	if resp.Proof.Range == nil ||
		!bytes.Equal(resp.Proof.Range.Start, wantStart) || !bytes.Equal(resp.Proof.Range.End, wantEnd) {
		return nil, fmt.Errorf("%w: proof covers a different range", ErrTampered)
	}
	verify := func() error { return l.v.VerifyPoint(*resp.Proof, resp.Digest, path) }
	if err := l.syncAndVerifyWith(tr, resp.Digest, verify); err != nil {
		return nil, err
	}
	// The rows are the ones verification read off the proven leaves.
	cells, err := resp.Proof.Cells()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	live := cells[:0]
	for _, c := range cells {
		if !c.Tombstone {
			live = append(live, c)
		}
	}
	return live, nil
}

// syncDigest advances the link's trusted digest to d, fetching and
// verifying a consistency proof from the link's shard when trust was
// already pinned. The whole check-fetch-advance runs under the link's
// mutex: two concurrent verified reads would otherwise both fetch a
// proof for the same stale digest, and the loser's Advance would report
// tampering the honest server never committed.
func (l shardLink) syncDigest(d Digest) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.v.Digest()
	if cur == d || d.Height < cur.Height {
		// Already there — or a response raced an even newer refresh; the
		// proof check against the newer trusted digest still stands.
		return nil
	}
	if cur.Height == 0 && cur.Root.IsZero() {
		return l.v.Advance(d, ConsistencyProof{})
	}
	resp, err := l.syncConn().Do(wire.Request{Op: wire.OpConsistency, OldDigest: cur, Shard: l.shard})
	if err != nil {
		return err
	}
	if resp.Consistency == nil {
		return errors.New("spitz: server omitted consistency proof")
	}
	return l.v.Advance(resp.Digest, *resp.Consistency)
}

// ---------------------------------------------------------------------------
// Sharded client

// ShardedClient is a network client for a sharded Spitz deployment
// served behind one listener (OpenCluster + ClusterDB.Serve, or
// spitz-server -shards N). At connect time it fetches the shard map;
// afterwards point operations route directly to the owning shard and
// range, lookup and digest operations fan out across every shard
// concurrently. Verification stays client-side and per shard: the client
// keeps one Verifier per shard, so a proof produced by shard i is only
// ever checked against shard i's trusted digest.
//
// A ShardedClient also works against an unsharded server, which reports
// a one-shard map. Safe for concurrent use.
type ShardedClient struct {
	conns     []*wire.Client // conns[i] carries shard i's traffic; conns[0] also cluster-level ops
	verifiers []*Verifier
	syncMus   []sync.Mutex // one per shard, serializing digest refreshes
	auditHolder

	// anchor, when non-nil, is the digest authority every shard's trust
	// advances against (see AnchorTrust); anchorLag bounds replica
	// staleness exactly like ReplicatedOptions.MaxLag.
	anchor    *wire.Client
	anchorLag uint64
}

// DialSharded connects to a sharded Spitz server, fetching the shard map
// and opening one connection per shard so fan-out requests proceed in
// parallel.
func DialSharded(network, addr string) (*ShardedClient, error) {
	return NewShardedClient(func() (*wire.Client, error) { return wire.Dial(network, addr) })
}

// NewShardedClient builds a sharded client from a dialling function —
// the transport-agnostic form DialSharded wraps (tests use it with
// in-process pipe listeners).
func NewShardedClient(dial func() (*wire.Client, error)) (*ShardedClient, error) {
	first, err := dial()
	if err != nil {
		return nil, err
	}
	resp, err := first.Do(wire.Request{Op: wire.OpShardMap})
	if err != nil {
		first.Close()
		return nil, fmt.Errorf("spitz: shard map: %w", err)
	}
	n := resp.ShardCount
	if n < 1 {
		first.Close()
		return nil, fmt.Errorf("spitz: server reported %d shards", n)
	}
	sc := &ShardedClient{conns: make([]*wire.Client, n), verifiers: make([]*Verifier, n),
		syncMus: make([]sync.Mutex, n)}
	sc.conns[0] = first
	sc.verifiers[0] = NewVerifier()
	for i := 1; i < n; i++ {
		c, err := dial()
		if err != nil {
			sc.Close()
			return nil, err
		}
		sc.conns[i] = c
		sc.verifiers[i] = NewVerifier()
	}
	return sc, nil
}

// Close releases every connection (closing the auditor first when
// AuditMode is active; its final flush error is returned if nothing else
// fails).
func (sc *ShardedClient) Close() error {
	auditErr := sc.closeAudit()
	var first error
	for _, c := range sc.conns {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	if sc.anchor != nil {
		if err := sc.anchor.Close(); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	return auditErr
}

// AnchorTrust points every shard's trust decisions at a separate digest
// authority — the primary of a replicated deployment — so this client
// can read from a replica (DialSharded against Replica.Serve) while
// trust only ever advances against the primary: a proof served by the
// replica at digest d is accepted only after the authority proves d a
// prefix of the trusted history, per shard. This is the sharded form of
// DialReplicated's anchoring. maxLag, when non-zero, bounds how many
// blocks behind the trusted digest a replica-served result may be
// before ErrStale is returned.
//
// Call it once, right after connecting and before issuing reads. The
// anchor connection is owned by the client and released by Close.
func (sc *ShardedClient) AnchorTrust(dial func() (*wire.Client, error), maxLag uint64) error {
	if sc.anchor != nil {
		return errors.New("spitz: trust anchor already set")
	}
	c, err := dial()
	if err != nil {
		return err
	}
	sc.anchor = c
	sc.anchorLag = maxLag
	return nil
}

// StartAudit switches the sharded client into deferred verification (see
// AuditMode): receipts carry their owning shard and are audited against
// that shard's own trusted digest, one batch round trip per (shard,
// digest) group.
func (sc *ShardedClient) StartAudit(mode AuditMode) (*Auditor, error) {
	return sc.startAudit(mode, sc.link)
}

// Shards returns the cluster's shard count.
func (sc *ShardedClient) Shards() int { return len(sc.conns) }

// ShardFor reports which shard owns a primary key (the client-side shard
// map).
func (sc *ShardedClient) ShardFor(pk []byte) int {
	return server.ShardIndex(pk, len(sc.conns))
}

// ShardVerifier exposes shard i's proof verifier.
func (sc *ShardedClient) ShardVerifier(i int) *Verifier { return sc.verifiers[i] }

func (sc *ShardedClient) linkFor(pk []byte) shardLink { return sc.link(sc.ShardFor(pk)) }

// link builds shard i's (connection, verifier, mutex) triple, routing
// consistency traffic to the trust anchor when one is set.
func (sc *ShardedClient) link(i int) shardLink {
	return shardLink{c: sc.conns[i], v: sc.verifiers[i], mu: &sc.syncMus[i], shard: i + 1,
		syncC: sc.anchor, maxLag: sc.anchorLag}
}

// Apply commits a batch of writes atomically: the server groups them by
// owning shard and commits cross-shard batches with two-phase commit. It
// returns the cluster commit timestamp.
func (sc *ShardedClient) Apply(statement string, puts []Put) (uint64, error) {
	// A sampled root here stitches the coordinator's per-shard 2PC
	// prepare/commit legs under the client's trace ID.
	tr := obs.DefaultTracer.Root("client.apply", "client")
	defer tr.Finish()
	req := wire.Request{Op: wire.OpPut, Statement: statement, Puts: encodePuts(puts)}
	req.SetTrace(tr)
	resp, err := sc.conns[0].Do(req)
	if err != nil {
		return 0, err
	}
	return resp.Header.Version, nil
}

// Get performs an unverified point read against the owning shard.
func (sc *ShardedClient) Get(table, column string, pk []byte) ([]byte, error) {
	l := sc.linkFor(pk)
	resp, err := l.c.Do(wire.Request{Op: wire.OpGet, Table: table, Column: column, PK: pk, Shard: l.shard})
	if err != nil {
		return nil, err
	}
	if !resp.Found {
		return nil, ErrNotFound
	}
	return resp.Value, nil
}

// GetVerified performs a verified point read: the request routes to the
// owning shard and the proof is checked against that shard's trusted
// digest (optimistically under AuditMode, see Client.GetVerified).
func (sc *ShardedClient) GetVerified(table, column string, pk []byte) ([]byte, bool, error) {
	si := sc.ShardFor(pk)
	if a := sc.auditor(); a != nil {
		return sc.link(si).getOptimistic(a, si, table, column, pk)
	}
	return sc.link(si).getVerified(table, column, pk)
}

// History returns all versions of a cell from its owning shard, newest
// first.
func (sc *ShardedClient) History(table, column string, pk []byte) ([]Cell, error) {
	l := sc.linkFor(pk)
	resp, err := l.c.Do(wire.Request{Op: wire.OpHistory, Table: table, Column: column, PK: pk, Shard: l.shard})
	if err != nil {
		return nil, err
	}
	return resp.Cells, nil
}

// fanOut runs fn for every shard concurrently and merges the per-shard
// cell lists into pk order (the same merge the server uses, so
// client-side and server-side scans agree on result order).
func (sc *ShardedClient) fanOut(fn func(i int) ([]Cell, error)) ([]Cell, error) {
	parts := make([][]Cell, len(sc.conns))
	errs := make([]error, len(sc.conns))
	var wg sync.WaitGroup
	for i := range sc.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return server.MergeCellsByPK(parts), nil
}

// RangePK scans a primary-key range across every shard concurrently
// (unverified), merging the results into one pk-ordered scan.
func (sc *ShardedClient) RangePK(table, column string, pkLo, pkHi []byte) ([]Cell, error) {
	return sc.fanOut(func(i int) ([]Cell, error) {
		resp, err := sc.conns[i].Do(wire.Request{Op: wire.OpRange, Table: table, Column: column,
			PK: pkLo, PKHi: pkHi, Shard: i + 1})
		if err != nil {
			return nil, err
		}
		return resp.Cells, nil
	})
}

// RangePKVerified scans a primary-key range across every shard
// concurrently, verifying each shard's proof against that shard's
// trusted digest before merging (optimistically under AuditMode, with
// one receipt per shard).
func (sc *ShardedClient) RangePKVerified(table, column string, pkLo, pkHi []byte) ([]Cell, error) {
	if a := sc.auditor(); a != nil {
		return sc.fanOut(func(i int) ([]Cell, error) {
			return sc.link(i).rangeOptimistic(a, i, table, column, pkLo, pkHi)
		})
	}
	// One root span owns the scatter; each shard's read becomes a child
	// leg, so the whole fan-out stitches under a single trace ID.
	tr := obs.DefaultTracer.Root("client.range-verified", "client")
	defer tr.Finish()
	return sc.fanOut(func(i int) ([]Cell, error) {
		l := sc.link(i)
		l.tr = tr
		return l.rangeVerified(table, column, pkLo, pkHi)
	})
}

// LookupEqual fans an inverted-index equality lookup out across every
// shard concurrently (the cluster must maintain the inverted index).
func (sc *ShardedClient) LookupEqual(table, column string, value []byte) ([]Cell, error) {
	return sc.fanOut(func(i int) ([]Cell, error) {
		resp, err := sc.conns[i].Do(wire.Request{Op: wire.OpLookupEq, Table: table, Column: column,
			Value: value, Shard: i + 1})
		if err != nil {
			return nil, err
		}
		return resp.Cells, nil
	})
}

// ShardDigest fetches shard i's current ledger digest (unverified).
func (sc *ShardedClient) ShardDigest(i int) (Digest, error) {
	resp, err := sc.conns[i].Do(wire.Request{Op: wire.OpDigest, Shard: i + 1})
	if err != nil {
		return Digest{}, err
	}
	return resp.Digest, nil
}

// VerifyShardPrefix proves that old is a prefix of shard i's current
// ledger: it fetches the current digest together with a consistency
// proof over old (captured atomically) and checks the proof. It returns
// the current digest without touching the client's trusted digests —
// the operator-facing form of the replication trust check (spitz-cli
// digest check).
func (sc *ShardedClient) VerifyShardPrefix(i int, old Digest) (Digest, error) {
	if old.Height == 0 && old.Root.IsZero() {
		return sc.ShardDigest(i) // the empty ledger is a prefix of everything
	}
	resp, err := sc.conns[i].Do(wire.Request{Op: wire.OpConsistency, OldDigest: old, Shard: i + 1})
	if err != nil {
		return Digest{}, err
	}
	if resp.Consistency == nil {
		return Digest{}, errors.New("spitz: server omitted consistency proof")
	}
	cons := *resp.Consistency
	if cons.OldSize != int(old.Height) || cons.NewSize != int(resp.Digest.Height) {
		return Digest{}, fmt.Errorf("%w: consistency proof sizes %d/%d do not match digests %d/%d",
			ErrTampered, cons.OldSize, cons.NewSize, old.Height, resp.Digest.Height)
	}
	if err := cons.Verify(old.Root, resp.Digest.Root); err != nil {
		return Digest{}, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	return resp.Digest, nil
}

// ClusterDigest fetches the cluster digest — every shard's ledger digest
// bound under one combined root — and checks the binding.
func (sc *ShardedClient) ClusterDigest() (ClusterDigest, error) {
	resp, err := sc.conns[0].Do(wire.Request{Op: wire.OpClusterDigest})
	if err != nil {
		return ClusterDigest{}, err
	}
	if resp.Cluster == nil {
		return ClusterDigest{}, errors.New("spitz: server omitted cluster digest")
	}
	if err := resp.Cluster.Check(); err != nil {
		return ClusterDigest{}, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	if len(resp.Cluster.Shards) != len(sc.conns) {
		return ClusterDigest{}, fmt.Errorf("%w: cluster digest names %d shards, client connected to %d",
			ErrTampered, len(resp.Cluster.Shards), len(sc.conns))
	}
	return *resp.Cluster, nil
}

// SyncDigests advances every shard's trusted digest to the cluster's
// current state, verifying a per-shard consistency proof so a rewritten
// history on any shard is rejected.
func (sc *ShardedClient) SyncDigests() error {
	d, err := sc.ClusterDigest()
	if err != nil {
		return err
	}
	errs := make([]error, len(sc.conns))
	var wg sync.WaitGroup
	for i := range sc.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = sc.link(i).syncDigest(d.Shards[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("spitz: shard %d digest sync: %w", i, err)
		}
	}
	return nil
}
