package spitz

import (
	"bytes"
	"errors"
	"fmt"
	"spitz/internal/proof"
	"sync"
	"time"

	"spitz/internal/hashutil"
	"spitz/internal/obs"
	"spitz/internal/wire"
)

// Client-side auditor metrics, aggregated across every auditor in the
// process. Pending is a gauge of receipts awaiting their batch proof;
// the RTT histogram times the whole verification round trip (transport
// + server proof construction + client-side checking); failures count
// flushes that reported — ErrTampered or transport — and should be zero
// against an honest, reachable server.
var (
	mAuditReceipts  = obs.Default.Counter("spitz_audit_receipts_total")
	mAuditAudited   = obs.Default.Counter("spitz_audit_audited_total")
	mAuditBatches   = obs.Default.Counter("spitz_audit_batches_total")
	mAuditFailures  = obs.Default.Counter("spitz_audit_failures_total")
	mAuditPending   = obs.Default.Gauge("spitz_audit_pending")
	mAuditBatchSize = obs.Default.Histogram("spitz_audit_batch_size")
	mAuditRTT       = obs.Default.Histogram("spitz_audit_rtt_ns")
)

// AuditMode configures deferred verification (Client.StartAudit): verified
// reads are accepted optimistically — the server does no proof work on the hot
// path and the client does no verification — and a background auditor
// batch-verifies the accumulated receipts, one aggregated multi-proof
// round trip per digest. Tampering is therefore detected within the
// receipt horizon (MaxPending receipts or MaxDelay of age, whichever
// comes first) instead of per read, trading detection latency — never
// detection itself — for throughput: nothing is ever counted verified
// until its batch proof checks, exactly as in eager mode.
type AuditMode struct {
	// MaxPending is the receipt horizon by count: a flush starts as soon
	// as this many receipts are pending (default 128).
	MaxPending int
	// MaxDelay is the receipt horizon by age: receipts are audited at
	// most this long after the read (default 100ms).
	MaxDelay time.Duration
}

func (m AuditMode) withDefaults() AuditMode {
	if m.MaxPending <= 0 {
		m.MaxPending = 128
	}
	if m.MaxDelay <= 0 {
		m.MaxDelay = 100 * time.Millisecond
	}
	return m
}

// auditReceipt is one optimistically accepted read awaiting its batch
// proof: what was asked, what the server answered (as a hash), and the
// digest the answer claimed to be read at.
type auditReceipt struct {
	shard  int // client-side shard index
	digest Digest
	query  proof.BatchQuery
	found  bool
	hash   hashutil.Digest
}

// AuditStats counts an auditor's work.
type AuditStats struct {
	Receipts uint64 // reads accepted optimistically
	Audited  uint64 // receipts whose batch proof has verified
	Batches  uint64 // ProveBatch round trips
}

// Auditor is the background verifier behind a client's AuditMode. Every
// optimistic read enqueues a receipt; the auditor groups receipts by the
// digest they were accepted at and verifies each group with one
// aggregated proof round trip. Any mismatch — a flipped value, an
// invented digest, a forged proof — surfaces as ErrTampered on the
// Errors channel, and the first tampering poisons the client: further
// optimistic reads fail immediately rather than keep accepting data from
// a server already caught lying.
type Auditor struct {
	mode AuditMode
	cl   *Client // flushes audit each shard against its primary

	errs chan error

	mu         sync.Mutex
	pending    []auditReceipt
	sticky     error
	stats      AuditStats
	closed     bool
	errsClosed bool

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	flushMu sync.Mutex // serializes background, Flush and Close flushes
}

func newAuditor(mode AuditMode, cl *Client) *Auditor {
	a := &Auditor{
		mode: mode.withDefaults(),
		cl:   cl,
		errs: make(chan error, 16), // Errors: full, it drops; Err keeps the first failure
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go a.run()
	return a
}

// Errors is the per-client audit channel: every audit failure —
// ErrTampered on any mismatch, transport errors when a flush could not
// reach the server — is delivered here (dropped if the channel is full;
// Err retains the first failure regardless).
func (a *Auditor) Errors() <-chan error { return a.errs }

// Err returns the first audit failure, or nil.
func (a *Auditor) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sticky
}

// Pending returns the number of receipts not yet audited.
func (a *Auditor) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// Stats returns a snapshot of the auditor's counters.
func (a *Auditor) Stats() AuditStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Flush audits every pending receipt now and returns the first failure
// (also delivered on Errors). Callers that need a hard verification
// barrier — end of a batch job, process shutdown — call this instead of
// waiting out the horizon.
func (a *Auditor) Flush() error { return a.flush() }

// Close stops the auditor after a final flush and closes the Errors
// channel. The final flush's error is returned: receipts that could not
// be verified are a failure, never a silent pass.
func (a *Auditor) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return a.Err()
	}
	a.closed = true
	a.mu.Unlock()
	close(a.stop)
	<-a.done
	err := a.flush()
	a.mu.Lock()
	a.errsClosed = true
	close(a.errs) // under a.mu, mutually exclusive with report's send
	a.mu.Unlock()
	return err
}

// poisoned fails optimistic reads once tampering has been detected.
func (a *Auditor) poisoned() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sticky != nil && errors.Is(a.sticky, ErrTampered) {
		return a.sticky
	}
	return nil
}

// errAuditClosed fails an optimistic read whose receipt can no longer
// be audited: after Close, accepting the value would mean verification
// silently never happens.
var errAuditClosed = errors.New("spitz: auditor closed; optimistic read cannot be audited")

// add enqueues a receipt, kicking a flush when the horizon is reached.
// It reports false once the auditor is closed — the read racing Close
// must fail loudly instead of leaving a receipt nothing will ever
// verify.
func (a *Auditor) add(r auditReceipt) bool {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return false
	}
	a.pending = append(a.pending, r)
	a.stats.Receipts++
	mAuditReceipts.Inc()
	mAuditPending.Add(1)
	n := len(a.pending)
	a.mu.Unlock()
	if n >= a.mode.MaxPending {
		select {
		case a.kick <- struct{}{}:
		default:
		}
	}
	return true
}

// run is the background audit loop: flush on horizon kicks and on the
// MaxDelay ticker, so no receipt outlives its horizon unaudited.
func (a *Auditor) run() {
	defer close(a.done)
	t := time.NewTicker(a.mode.MaxDelay)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-a.kick:
		case <-t.C:
		}
		a.flush()
	}
}

// report records a failure (first one sticks) and delivers it on the
// audit channel without ever blocking the auditor.
func (a *Auditor) report(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sticky == nil {
		a.sticky = err
	}
	if a.errsClosed {
		return // Err() retains the failure; the channel is gone
	}
	// The non-blocking send happens under a.mu — the same lock Close
	// holds while closing the channel — so a late report can never race
	// the close into a send-on-closed-channel panic.
	select {
	case a.errs <- err:
	default:
	}
}

// flush audits everything pending: receipts group by (shard, digest) and
// each group is verified with one ProveBatch round trip. Receipts whose
// round trip failed at the transport level are requeued (unverified is
// not verified — they must eventually pass or fail); every failure is
// reported.
func (a *Auditor) flush() error {
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	a.mu.Lock()
	batch := a.pending
	a.pending = nil
	a.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	mAuditPending.Add(-int64(len(batch)))
	// The flush owns a root span; every (shard, digest) group's ProveBatch
	// round trip records as a child leg carrying the trace to the server.
	tr := obs.DefaultTracer.Root("audit.flush", "client")
	defer tr.Finish()
	type groupKey struct {
		shard  int
		digest Digest
	}
	groups := make(map[groupKey][]auditReceipt)
	var order []groupKey
	for _, r := range batch {
		k := groupKey{shard: r.shard, digest: r.digest}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	var firstErr error
	for _, k := range order {
		rs := groups[k]
		rttStart := time.Now()
		err := a.cl.primaryLink(k.shard, tr).auditBatch(k.digest, rs)
		mAuditRTT.ObserveSince(rttStart)
		mAuditBatchSize.Observe(uint64(len(rs)))
		if err == nil {
			mAuditAudited.Add(uint64(len(rs)))
			mAuditBatches.Inc()
			a.mu.Lock()
			a.stats.Audited += uint64(len(rs))
			a.stats.Batches++
			a.mu.Unlock()
			continue
		}
		mAuditFailures.Inc()
		if errors.Is(err, wire.ErrTransport) || errors.Is(err, errPrimarySync) {
			// The server was unreachable: these receipts are unverified,
			// not disproven. Keep them for the next flush so they can
			// never silently pass.
			a.mu.Lock()
			a.pending = append(a.pending, rs...)
			a.mu.Unlock()
			mAuditPending.Add(int64(len(rs)))
		}
		a.report(err)
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ---------------------------------------------------------------------------
// Receipt hashing

// auditValueHash commits a point read's answer into its receipt.
func auditValueHash(value []byte) hashutil.Digest {
	return hashutil.Sum(hashutil.DomainValue, value)
}

// auditCellsHash commits a range read's full result set into its
// receipt: every live cell's universal key (which itself commits to the
// version and the value) in scan order.
func auditCellsHash(cells []Cell) hashutil.Digest {
	h := hashutil.NewStream(hashutil.DomainValue)
	for _, c := range cells {
		h.Part(proof.EncodeKey(proof.UniversalKey(c)))
	}
	return h.Sum()
}

// queryReceipt shapes one proof obligation and the cells that answer it
// into an audit receipt, and reports how many of the cells the receipt
// commits to: a range obligation commits its column's full result slice
// (scan order), a point obligation one value (or its absence) — the last
// of its cells, as a query result reads them. The optimistic flow shapes
// what the server said this way, the flush what the proof says, and the
// two are compared.
func queryReceipt(shard int, d Digest, q proof.BatchQuery, cells []Cell) (auditReceipt, int) {
	rc := auditReceipt{shard: shard, digest: d, query: q}
	if q.Range {
		var colCells []Cell
		for _, c := range cells {
			if c.Table == q.Table && c.Column == q.Column {
				colCells = append(colCells, c)
			}
		}
		rc.found, rc.hash = len(colCells) > 0, auditCellsHash(colCells)
		return rc, len(colCells)
	}
	var value []byte
	for _, c := range cells {
		if c.Table == q.Table && c.Column == q.Column && bytes.Equal(c.PK, q.PK) {
			value, rc.found = c.Value, true
		}
	}
	rc.hash = auditValueHash(value)
	if rc.found {
		return rc, 1
	}
	return rc, 0
}

// ---------------------------------------------------------------------------
// The audit round trip

// auditBatch verifies one digest group of receipts with a single
// ProveBatch round trip against the link's digest authority: the
// receipts' digest is proven a prefix of the authority's current one, the
// aggregated proof is bound, verified and read (check), and only then is
// trust advanced to that digest (adopt); finally every receipt is
// compared against the proven state. Nothing in the group counts as
// verified unless all of it passes.
func (l shardLink) auditBatch(at Digest, rs []auditReceipt) error {
	// Receipts for the same query at the same digest need only one proof
	// entry: dedup before the round trip (hot keys repeat inside a
	// horizon), keeping a receipt -> query mapping for the comparison.
	uniq := make(map[string]int, len(rs))
	var queries []proof.BatchQuery
	qidx := make([]int, len(rs))
	for i, r := range rs {
		k := auditQueryKey(r.query)
		j, ok := uniq[k]
		if !ok {
			j = len(queries)
			queries = append(queries, r.query)
			uniq[k] = j
		}
		qidx[i] = j
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// As for an eager read: say which index nodes on the receipts' paths
	// this verifier already holds, so the proof ships only the rest.
	pin := l.v.PinFor(queries)
	resp, err := l.ask(l.span("audit.prove-batch"), wire.Request{Op: wire.OpProveBatch,
		OldDigest: pin.Trusted, OldDigest2: &at, Audits: queries, Shard: l.shard, Have: pin.Have()})
	if err != nil {
		return err
	}
	// The proof must be anchored at the block the receipts were read at
	// (the head block of digest `at`). Without this, a server that lied
	// at read time could commit the forged values afterwards and prove
	// the receipts against that *later* block — self-consistent
	// inclusion, honest prefix proof, matching values — and the lie
	// would survive the audit.
	if bp := resp.Proof; bp != nil && bp.Header.Height != at.Height-1 {
		return fmt.Errorf("%w: audit proof is for block %d, receipts were read at block %d",
			ErrTampered, bp.Header.Height, at.Height-1)
	}
	var live [][]Cell // a digest invented at read time fails adopt first
	if err := l.adopt(resp, at, func() (err error) {
		live, err = l.v.Check(resp.Proof, resp.Digest, queries, len(rs), pin)
		return err
	}); err != nil {
		return err
	}
	// The proof binds the answers to the ledger; this binds them to what
	// the client was told at read time. Every receipt is checked — two
	// reads of one key inside a horizon must both match the single proven
	// value, so a server that answered them differently is caught even
	// though the proof entry is shared.
	proven := make([]auditReceipt, len(queries))
	for j, q := range queries {
		proven[j], _ = queryReceipt(l.index, at, q, live[j])
	}
	for i, r := range rs {
		if p := proven[qidx[i]]; p.found != r.found || p.hash != r.hash {
			return fmt.Errorf("%w: read of %s.%s does not match its audited receipt",
				ErrTampered, r.query.Table, r.query.Column)
		}
	}
	return nil
}

// auditQueryKey canonicalizes a query for deduplication. Segment
// encoding via CellPrefix keeps it injective.
func auditQueryKey(q proof.BatchQuery) string {
	k := string(proof.CellPrefix(q.Table, q.Column, q.PK))
	if !q.Range {
		return "p" + k
	}
	if q.PKHi == nil {
		return "r" + k + "open" // nil bound: scan to the end of the column
	}
	return "r" + k + "hi" + string(q.PKHi)
}
