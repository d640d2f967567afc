package spitz

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"spitz/internal/cellstore"
	"spitz/internal/ledger"
	"spitz/internal/obs"
	"spitz/internal/wire"
)

// shardLink is what one request runs on: a connection, the verifier and
// digest-sync mutex of the shard it addresses, and — when the connection
// is a replica — the primary that trust advances against. Client.link
// builds it; the verified-read, audit and query flows are its methods, so
// they are written once for every topology.
type shardLink struct {
	c     *wire.Client
	v     *Verifier
	mu    *sync.Mutex // serializes syncDigest's check-fetch-advance
	shard int         // wire shard id: 0 unsharded, i+1 for shard i
	index int         // client-side shard index (audit receipts carry it)

	// syncC, when non-nil, serves the consistency-proof traffic instead
	// of c: the digest authority the verifier trusts (the primary of a
	// replicated deployment).
	syncC *wire.Client
	// maxLag, when non-zero, bounds how many blocks behind the trusted
	// digest a served result may be before errStale is returned.
	maxLag uint64

	// tr, when non-nil, is the parent span this link's requests record
	// under (a scatter or an audit flush owns the root span);
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

// The two verdicts on a replica-served read that the read router
// (Client, read) acts on instead of returning.
var (
	// errPrimarySync marks a failure of the digest-authority round trip
	// (the shard's primary): the replica that served the data is not at
	// fault, so failover must not blame it.
	errPrimarySync = errors.New("spitz: digest authority unreachable")
	// errStale marks a replica-served result that is verifiably honest
	// but further behind the trusted digest than Topology.MaxLag allows,
	// or a replica with no history yet: the read is retried on the primary.
	errStale = errors.New("spitz: result verifiably stale beyond the configured bound")
)

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
			errStale, cur.Height-d.Height, l.maxLag)
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
		return fmt.Errorf("%w: replica has no history yet (still bootstrapping)", errStale)
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
