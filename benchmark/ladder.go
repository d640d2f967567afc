package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strconv"
	"time"

	"spitz"
	"spitz/internal/cas"
	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/durable"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/proof"
	"spitz/internal/query"
	"spitz/internal/wal"
	"spitz/internal/wire"
)

// frameHeader is the wire framing's fixed per-frame cost (length, tag,
// flags, CRC), added to payload sizes so the echo floor moves the same
// number of bytes a real request does.
const frameHeader = 13

// echoPeer is the transport floor: a TCP peer that reads n bytes and
// answers m, with n and m carried in the request's first eight bytes.
type echoPeer struct {
	ln   net.Listener
	conn net.Conn
	done chan struct{}
	buf  []byte
}

func newEchoPeer() (*echoPeer, error) {
	ln, err := listenTCP()
	if err != nil {
		return nil, err
	}
	p := &echoPeer{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var hdr [8]byte
		buf := make([]byte, 1<<16)
		for {
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return
			}
			n, m := int(binary.BigEndian.Uint32(hdr[:])), int(binary.BigEndian.Uint32(hdr[4:]))
			if n > len(buf) || m > len(buf) {
				buf = make([]byte, max(n, m))
			}
			if _, err := io.ReadFull(c, buf[:n-8]); err != nil {
				return
			}
			if _, err := c.Write(buf[:m]); err != nil {
				return
			}
		}
	}()
	p.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-p.done
		return nil, err
	}
	return p, nil
}

// roundTrip sends reqLen bytes and waits for respLen back.
func (p *echoPeer) roundTrip(reqLen, respLen int) error {
	reqLen, respLen = max(reqLen, 8), max(respLen, 1)
	if need := max(reqLen, respLen); need > len(p.buf) {
		p.buf = make([]byte, need)
	}
	binary.BigEndian.PutUint32(p.buf, uint32(reqLen))
	binary.BigEndian.PutUint32(p.buf[4:], uint32(respLen))
	if _, err := p.conn.Write(p.buf[:reqLen]); err != nil {
		return err
	}
	_, err := io.ReadFull(p.conn, p.buf[:respLen])
	return err
}

func (p *echoPeer) close() {
	p.conn.Close()
	p.ln.Close()
	<-p.done
}

// layerScratch is a stand-alone copy of the layers under the durable
// engine, built from the same seeded rows: a ledger over a counting disk
// node store (1 MiB cache, like the served one) and a SyncAlways WAL. The
// served instance does not expose these layers, so the ladder's deepest
// write levels run here.
type layerScratch struct {
	disk    *cas.Disk
	store   *cas.Counting
	led     *ledger.Ledger
	log     *wal.Log
	version uint64
	txnID   uint64

	// Exact-count baselines taken after the preload, and the cells the
	// ladder has pushed through the counting store since.
	puts0, bytes0 int64
	cellsApplied  int64
}

func newLayerScratch(dir string, sp *spec, m *model) (*layerScratch, error) {
	disk, err := cas.OpenDisk(filepath.Join(dir, "nodes"), cas.DiskOptions{CacheBytes: 1 << 20})
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		disk.Close()
		return nil, err
	}
	ls := &layerScratch{disk: disk, store: cas.NewCounting(disk), log: log}
	ls.led = ledger.New(ls.store)
	err = preloadRows(sp, m, func(puts []spitz.Put) error {
		_, err := ls.commit(puts)
		return err
	})
	if err == nil {
		err = disk.Flush()
	}
	if err != nil {
		ls.close()
		return nil, err
	}
	ls.puts0, _ = ls.store.Ops()
	ls.bytes0 = writtenBytes(ls.store)
	ls.cellsApplied = 0
	return ls, nil
}

// writtenBytes is every byte a counting store has been asked to hash and
// keep, over all domains.
func writtenBytes(c *cas.Counting) int64 {
	per, _ := c.PerDomain()
	var b int64
	for _, d := range per {
		b += d.Written
	}
	return b
}

// cells stamps puts with the next commit version.
func (ls *layerScratch) cells(puts []spitz.Put) []cellstore.Cell {
	ls.version++
	ls.cellsApplied += int64(len(puts))
	cells := make([]cellstore.Cell, len(puts))
	for i, p := range puts {
		cells[i] = cellstore.Cell{Table: p.Table, Column: p.Column, PK: p.PK, Value: p.Value, Version: ls.version}
	}
	return cells
}

func (ls *layerScratch) commit(puts []spitz.Put) (ledger.BlockHeader, error) {
	cells := ls.cells(puts)
	ls.txnID++
	return ls.led.Commit(ls.version, []ledger.TxnSummary{{ID: ls.txnID, Statement: "apply",
		WriteHash: ledger.WriteSetHash(cells)}}, cells)
}

func (ls *layerScratch) close() {
	ls.log.Close()
	ls.disk.Close()
}

// ladders holds what the traced pass descends through.
type ladders struct {
	s  *session
	g  *generator // the traced client's generator (served-instance levels)
	gs *generator // scratch-instance write levels: own model, same rows
	tr *tracer

	raw      *wire.Client // reads: the connection GetVerified/Query ride
	rawW     *wire.Client // writes: the primary
	echo     *echoPeer
	deferred bool // reads are attested and audited later (AuditMode)

	// engFor resolves the engine that serves a row's reads below the wire:
	// a served shard, the served replica, or the scratch engine.
	engFor func(pk []byte) *core.Engine
	// Scratch instances (nil when the served one exposes the layer).
	scratchEng   *core.Engine     // point-read-mem
	scratchStore *cas.Counting    // under scratchEng
	scratchDur   *durable.Manager // durable-write-disk
	layer        *layerScratch    // durable-write-disk
	closers      []func()

	// Exact counts gathered along the way.
	reqBytes, respBytes, dos   int64
	proofBytes, proofs         int64
	proofNodes                 int64
	qCells, qRows, qProofBytes int64
	fanout                     []float64 // per range ladder: slowest/median shard dispatch
	plain                      []float64 // headline-op latencies (µs) of the untraced blocks
	reqBuf, respBuf, proofBuf  []byte    // reused by the codec levels, as the wire's pooled buffers are
}

func (l *ladders) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
}

// newLadders connects the raw wire clients and builds the scratch
// instances a workload needs. It runs after the timed window, so nothing
// it does shows in the window's registry deltas.
func newLadders(s *session, e *env, seed uint64) (*ladders, error) {
	t, sp := s.t, s.t.sp
	l := &ladders{s: s, g: s.gens[0], tr: newTracer(), deferred: t.replica != nil}
	fail := func(err error) (*ladders, error) { l.close(); return nil, err }
	var err error
	if l.echo, err = newEchoPeer(); err != nil {
		return fail(err)
	}
	l.closers = append(l.closers, l.echo.close)
	if l.rawW, err = dialer(t.addr)(); err != nil {
		return fail(err)
	}
	l.closers = append(l.closers, func() { l.rawW.Close() })
	l.raw = l.rawW
	if t.replica != nil {
		if l.raw, err = dialer(t.replicaAddr)(); err != nil {
			return fail(err)
		}
		l.closers = append(l.closers, func() { l.raw.Close() })
	}
	switch {
	case t.cluster != nil:
		l.engFor = func(pk []byte) *core.Engine { return t.cluster.Engine(t.cluster.ShardFor(pk)) }
	case t.replica != nil:
		l.engFor = func([]byte) *core.Engine { return t.replica.Engine(0) }
	case t.dir == "": // point-read-mem: spitz.DB keeps its engine private
		l.scratchStore = cas.NewCounting(cas.NewMemory())
		l.scratchEng = core.New(core.Options{Store: l.scratchStore})
		if err := preloadRows(sp, t.model, func(p []spitz.Put) error { _, err := l.scratchEng.Apply("preload", p); return err }); err != nil {
			return fail(err)
		}
		l.engFor = func([]byte) *core.Engine { return l.scratchEng }
	default: // durable-write-disk
		scratchModel := newModel(sp.rows, spareRows, sp.valSize, sp.numeric)
		l.gs = newGenerator(sp, scratchModel, seed+1, 0, 1, nil)
		dir, err := e.dataDir("scratch-durable")
		if err != nil {
			return fail(err)
		}
		l.scratchDur, err = durable.Open(dir, durable.Options{Store: durable.StoreDisk, NodeCacheMB: 1,
			Sync: wal.SyncAlways, CheckpointEveryBlocks: checkpointEveryBlocks})
		if err != nil {
			return fail(err)
		}
		l.closers = append(l.closers, func() { l.scratchDur.Close() })
		eng := l.scratchDur.Engine()
		if err := preloadRows(sp, scratchModel, func(p []spitz.Put) error { _, err := eng.Apply("preload", p); return err }); err != nil {
			return fail(err)
		}
		if err := l.scratchDur.Checkpoint(); err != nil {
			return fail(err)
		}
		ldir, err := e.dataDir("scratch-layers")
		if err != nil {
			return fail(err)
		}
		if l.layer, err = newLayerScratch(ldir, sp, scratchModel); err != nil {
			return fail(err)
		}
		l.closers = append(l.closers, l.layer.close)
	}
	return l, nil
}

func respErr(resp wire.Response) error {
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

func wirePuts(puts []spitz.Put) []wire.Put {
	out := make([]wire.Put, len(puts))
	for i, p := range puts {
		out[i] = wire.Put{Table: p.Table, Column: p.Column, PK: p.PK, Value: p.Value}
	}
	return out
}

// do times one raw wire round trip under parent and then, beneath it, the
// codec work for that exact request/response pair and the echo floor for
// the same frame sizes.
func (l *ladders) do(parent uint64, op, name string, c *wire.Client, req wire.Request) (uint64, wire.Response, error) {
	var resp wire.Response
	id, err := l.tr.timed(parent, op, name, func() (err error) {
		resp, err = c.Do(req)
		return err
	})
	return id, resp, err
}

func (l *ladders) wireLevels(do uint64, op string, req *wire.Request, resp *wire.Response) error {
	var reqLen, respLen int
	codec, err := l.tr.timed(do, op, "wire.codec", func() error {
		l.reqBuf = wire.AppendRequest(l.reqBuf[:0], req)
		if _, err := wire.DecodeRequest(l.reqBuf); err != nil {
			return err
		}
		l.respBuf = wire.AppendResponse(l.respBuf[:0], resp)
		if _, err := wire.DecodeResponse(l.respBuf); err != nil {
			return err
		}
		reqLen, respLen = len(l.reqBuf)+frameHeader, len(l.respBuf)+frameHeader
		return nil
	})
	if err != nil {
		return err
	}
	l.reqBytes += int64(reqLen)
	l.respBytes += int64(respLen)
	l.dos++
	if resp.Proof != nil {
		var n int
		_, err := l.tr.timed(codec, op, "ledger.proof_codec", func() error {
			l.proofBuf = ledger.AppendProof(l.proofBuf[:0], resp.Proof)
			n = len(l.proofBuf)
			_, _, err := ledger.ReadProof(l.proofBuf)
			return err
		})
		if err != nil {
			return err
		}
		if resp.Proof.Point != nil {
			l.proofBytes += int64(n)
			l.proofNodes += int64(len(resp.Proof.Point.Nodes))
			l.proofs++
		}
	}
	_, err = l.tr.timed(do, op, "wire.rtt_floor", func() error { return l.echo.roundTrip(reqLen, respLen) })
	return err
}

// verifyLevels times client-side verification of one proof under parent.
func (l *ladders) verifyLevels(parent uint64, op, name string, resp *wire.Response) error {
	v := proof.NewVerifier()
	if err := v.Advance(resp.Digest, spitz.ConsistencyProof{}); err != nil {
		return err
	}
	ver, err := l.tr.timed(parent, op, name, func() error { return v.VerifyNow(*resp.Proof) })
	if err != nil || resp.Proof.Point == nil {
		return err
	}
	_, err = l.tr.timed(ver, op, "postree.verify", func() error { return resp.Proof.Point.Verify(resp.Proof.Header.CellRoot) })
	return err
}

// get descends a verified point read. Every level executes the next get
// of the seeded stream, so each level meets the proof cache in the state
// real traffic leaves it in.
func (l *ladders) get(op string, root uint64) error {
	sp := l.s.t.sp
	next := func() []byte { o := l.g.nextOf(opGet); return pkOf(o.rows[0]) }
	request := func(pk []byte) wire.Request {
		r := wire.Request{Op: wire.OpGetVerified, Table: sp.table, Column: sp.column, PK: pk}
		if l.deferred {
			r.Op = wire.OpGet
		}
		if l.s.t.cluster != nil {
			r.Shard = l.s.t.cluster.ShardFor(pk) + 1
		}
		return r
	}
	req := request(next())
	do, resp, err := l.do(root, op, "wire.Client.Do", l.raw, req)
	if err != nil {
		return err
	}
	if err := l.wireLevels(do, op, &req, &resp); err != nil {
		return err
	}
	if !l.deferred {
		if err := l.verifyLevels(root, op, "client.verify", &resp); err != nil {
			return err
		}
	}
	pk := next()
	eng := l.engFor(pk)
	disp, err := l.tr.timed(do, op, "server.dispatch", func() error { return respErr(wire.Dispatch(eng, request(pk))) })
	if err != nil {
		return err
	}
	pk = next()
	eng = l.engFor(pk)
	if l.deferred {
		att, err := l.tr.timed(disp, op, "core.GetAttested", func() error { _, _, _, err := eng.GetAttested(sp.table, sp.column, pk); return err })
		if err != nil {
			return err
		}
		return l.unverifiedLevels(att, op, next)
	}
	gv, err := l.tr.timed(disp, op, "core.GetVerified", func() error { _, err := eng.GetVerified(sp.table, sp.column, pk); return err })
	if err != nil {
		return err
	}
	pk = next()
	eng = l.engFor(pk)
	led, err := l.tr.timed(gv, op, "ledger.ProveGetHead", func() error { _, _, _, _, err := eng.Ledger().ProveGetHead(sp.table, sp.column, pk); return err })
	if err != nil {
		return err
	}
	pk = next()
	snap, _, _ := l.engFor(pk).Ledger().Latest()
	cs, err := l.tr.timed(led, op, "cellstore.ProveGetHead", func() error { _, _, _, err := snap.ProveGetHead(sp.table, sp.column, pk); return err })
	if err != nil {
		return err
	}
	pk = next()
	snap, _, _ = l.engFor(pk).Ledger().Latest()
	_, err = l.tr.timed(cs, op, "postree.ProveGet", func() error { _, err := snap.Tree.ProveGet(cellstore.CellPrefix(sp.table, sp.column, pk)); return err })
	return err
}

// unverifiedLevels descends the proof-free read path under parent:
// cellstore head lookup, then the bare tree get.
func (l *ladders) unverifiedLevels(parent uint64, op string, next func() []byte) error {
	sp := l.s.t.sp
	pk := next()
	snap, _, _ := l.engFor(pk).Ledger().Latest()
	cs, err := l.tr.timed(parent, op, "cellstore.GetHead", func() error { _, _, err := snap.GetHead(sp.table, sp.column, pk); return err })
	if err != nil {
		return err
	}
	pk = next()
	snap, _, _ = l.engFor(pk).Ledger().Latest()
	_, err = l.tr.timed(cs, op, "postree.Get", func() error { _, _, err := snap.Tree.Get(cellstore.CellPrefix(sp.table, sp.column, pk)); return err })
	return err
}

// getRaw descends the unverified read (Engine.Get and below), which the
// verified path does not pass through.
func (l *ladders) getRaw(op string) error {
	sp := l.s.t.sp
	next := func() []byte { o := l.g.nextOf(opGet); return pkOf(o.rows[0]) }
	pk := next()
	eng := l.engFor(pk)
	root, err := l.tr.timed(0, op, "core.Get", func() error { _, err := eng.Get(sp.table, sp.column, pk); return err })
	if err != nil {
		return err
	}
	return l.unverifiedLevels(root, op, next)
}

// rangeScan descends a sharded verified range: the client call fans out to
// every shard in parallel, so the per-shard legs share a span name.
func (l *ladders) rangeScan(op string, root uint64) error {
	sp, cl := l.s.t.sp, l.s.t.cluster
	bounds := func() (lo, hi []byte) {
		o := l.g.nextOf(opRange)
		return pkOf(o.rows[0]), pkOf(o.rows[0] + rangeRows)
	}
	lo, hi := bounds()
	var disp []float64
	for i := 0; i < cl.Shards(); i++ {
		req := wire.Request{Op: wire.OpRangeVer, Table: sp.table, Column: sp.column, PK: lo, PKHi: hi, Shard: i + 1}
		do, resp, err := l.do(root, op, "wire.Client.Do[shard]", l.raw, req)
		if err != nil {
			return err
		}
		if i == 0 {
			if err := l.wireLevels(do, op, &req, &resp); err != nil {
				return err
			}
		}
		if err := l.verifyLevels(root, op, "client.verify[shard]", &resp); err != nil {
			return err
		}
	}
	lo, hi = bounds()
	var first uint64
	for i := 0; i < cl.Shards(); i++ {
		eng := cl.Engine(i)
		req := wire.Request{Op: wire.OpRangeVer, Table: sp.table, Column: sp.column, PK: lo, PKHi: hi, Shard: i + 1}
		t0 := time.Now()
		id, err := l.tr.timed(root, op, "server.dispatch[shard]", func() error { return respErr(wire.Dispatch(eng, req)) })
		if err != nil {
			return err
		}
		disp = append(disp, float64(time.Since(t0).Nanoseconds()))
		if i == 0 {
			first = id
		}
	}
	l.fanout = append(l.fanout, ratio(maxOf(disp), median(disp)))
	lo, hi = bounds()
	led, err := l.tr.timed(first, op, "ledger.ProveRangePKHead", func() error {
		_, _, _, err := cl.Engine(0).Ledger().ProveRangePKHead(sp.table, sp.column, lo, hi)
		return err
	})
	if err != nil {
		return err
	}
	lo, hi = bounds()
	snap, _, _ := cl.Engine(0).Ledger().Latest()
	_, err = l.tr.timed(led, op, "cellstore.ProveRangePK", func() error { _, _, err := snap.ProveRangePK(sp.table, sp.column, lo, hi); return err })
	return err
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// queryLadder descends a deferred-audit SELECT served by the replica, and
// beside it (op type "queryeager") the eager, proof-carrying execution of
// the same kind of statement at engine level.
func (l *ladders) queryLadder(op string, root uint64, n int) error {
	eng := l.s.t.replica.Engine(0)
	next := func() string { o := l.g.nextOf(opQuery); return o.stmt }
	stmt := next()
	_, err := l.tr.timed(root, op, "query.parse_plan", func() error {
		st, err := query.Parse(stmt)
		if err != nil {
			return err
		}
		_, err = query.PlanOf(st.(query.Select))
		return err
	})
	if err != nil {
		return err
	}
	req := wire.Request{Op: wire.OpQuery, Statement: next(), Deferred: true}
	do, resp, err := l.do(root, op, "wire.Client.Do", l.raw, req)
	if err != nil {
		return err
	}
	if err := l.wireLevels(do, op, &req, &resp); err != nil {
		return err
	}
	pl, err := planOf(req.Statement)
	if err != nil {
		return err
	}
	if _, err := l.tr.timed(root, op, "query.ResultFromCells", func() error { _, err := pl.ResultFromCells(resp.Cells); return err }); err != nil {
		return err
	}
	dreq := wire.Request{Op: wire.OpQuery, Statement: next(), Deferred: true}
	disp, err := l.tr.timed(do, op, "server.dispatch", func() error { return respErr(wire.Dispatch(eng, dreq)) })
	if err != nil {
		return err
	}
	pl, err = planOf(next())
	if err != nil {
		return err
	}
	if _, err := l.tr.timed(disp, op, "query.ExecVerifiedSelect(deferred)", func() error {
		_, err := query.ExecVerifiedSelect(eng, pl.Sel, true)
		return err
	}); err != nil {
		return err
	}

	eager := "queryeager/" + strconv.Itoa(n)
	pl, err = planOf(next())
	if err != nil {
		return err
	}
	var vs query.VerifiedSelect
	if _, err := l.tr.timed(0, eager, "query.ExecVerifiedSelect", func() (err error) {
		vs, err = query.ExecVerifiedSelect(eng, pl.Sel, false)
		return err
	}); err != nil {
		return err
	}
	if vs.Proof == nil {
		return fmt.Errorf("%s: no proof for %+v", eager, pl.Sel)
	}
	var res query.Result
	if _, err := l.tr.timed(0, eager, "query.ResultFromProof", func() (err error) {
		res, err = pl.ResultFromProof(vs.Cells, vs.Proof)
		return err
	}); err != nil {
		return err
	}
	rows := len(res.Rows)
	if res.HasAgg {
		rows = rangeRows // an aggregate folds the range's rows into one value
	}
	l.qCells += int64(len(vs.Cells))
	l.qRows += int64(rows)
	l.qProofBytes += int64(len(ledger.AppendBatchProof(nil, vs.Proof)))
	return nil
}

func planOf(stmt string) (query.Plan, error) {
	st, err := query.Parse(stmt)
	if err != nil {
		return query.Plan{}, err
	}
	sel, ok := st.(query.Select)
	if !ok {
		return query.Plan{}, fmt.Errorf("%q is not a SELECT", stmt)
	}
	return query.PlanOf(sel)
}

// apply descends a write. Levels on the served instance take their ops
// from the traced client's stream (and acknowledge them to its model);
// levels on scratch instances take theirs from the scratch stream.
func (l *ladders) apply(op string, root uint64) error {
	t := l.s.t
	o := l.g.nextOf(opApply)
	req := wire.Request{Op: wire.OpPut, Statement: "apply", Puts: wirePuts(l.g.puts(&o))}
	do, resp, err := l.do(root, op, "wire.Client.Do", l.rawW, req)
	if err != nil {
		return err
	}
	l.g.ack(&o)
	if err := l.wireLevels(do, op, &req, &resp); err != nil {
		return err
	}
	switch {
	case t.cluster != nil:
		o = l.g.nextOf(opApply)
		ca, err := l.tr.timed(do, op, "cluster.Apply", func() error { _, err := t.cluster.Apply("apply", l.g.puts(&o)); return err })
		if err != nil {
			return err
		}
		l.g.ack(&o)
		o = l.g.nextOf(opApply)
		eng := t.cluster.Engine(t.cluster.ShardFor(pkOf(o.rows[0])))
		_, err = l.tr.timed(ca, op, "core.Apply", func() error { _, err := eng.Apply("apply", l.g.puts(&o)); return err })
		if err != nil {
			return err
		}
		l.g.ack(&o)
	case l.scratchDur != nil:
		eng := l.scratchDur.Engine()
		so := l.gs.nextOf(opApply)
		sreq := wire.Request{Op: wire.OpPut, Statement: "apply", Puts: wirePuts(l.gs.puts(&so))}
		disp, err := l.tr.timed(do, op, "server.dispatch", func() error { return respErr(wire.Dispatch(eng, sreq)) })
		if err != nil {
			return err
		}
		so = l.gs.nextOf(opApply)
		ca, err := l.tr.timed(disp, op, "core.Apply", func() error { _, err := eng.Apply("apply", l.gs.puts(&so)); return err })
		if err != nil {
			return err
		}
		so = l.gs.nextOf(opApply)
		puts := l.gs.puts(&so)
		led, err := l.tr.timed(ca, op, "ledger.Commit", func() error { _, err := l.layer.commit(puts); return err })
		if err != nil {
			return err
		}
		so = l.gs.nextOf(opApply)
		cells := l.layer.cells(l.gs.puts(&so))
		snap, _, _ := l.layer.led.Latest()
		if _, err := l.tr.timed(led, op, "cellstore.Apply", func() error { _, _, err := snap.Apply(cells); return err }); err != nil {
			return err
		}
		rec := durable.EncodeRecord(core.CommitRecord{Height: l.layer.led.Height(), Version: l.layer.version,
			Txns: []core.TxnCommit{{ID: l.layer.txnID, Version: l.layer.version, Statement: "apply", Cells: cells}}})
		if _, err := l.tr.timed(ca, op, "wal.Append", func() error { _, err := l.layer.log.Append(rec); return err }); err != nil {
			return err
		}
		// The node-store flush a checkpoint would do for this one commit.
		if _, err := l.tr.timed(0, "cas/"+op, "cas.Flush", l.layer.disk.Flush); err != nil {
			return err
		}
	}
	return nil
}

// apply2PC descends a cross-shard write: the cluster call, and under it
// two single-shard applies, so the parent's self time is what two-phase
// commit adds.
func (l *ladders) apply2PC(op string, root uint64) error {
	cl := l.s.t.cluster
	o := l.g.nextOf(opApply2PC)
	req := wire.Request{Op: wire.OpPut, Statement: "apply2pc", Puts: wirePuts(l.g.puts(&o))}
	do, resp, err := l.do(root, op, "wire.Client.Do", l.rawW, req)
	if err != nil {
		return err
	}
	l.g.ack(&o)
	if err := l.wireLevels(do, op, &req, &resp); err != nil {
		return err
	}
	o = l.g.nextOf(opApply2PC)
	cross, err := l.tr.timed(do, op, "cluster.Apply(2pc)", func() error { _, err := cl.Apply("apply2pc", l.g.puts(&o)); return err })
	if err != nil {
		return err
	}
	l.g.ack(&o)
	for _, name := range []string{"cluster.Apply(single)#1", "cluster.Apply(single)#2"} {
		o = l.g.nextOf(opApply)
		if _, err := l.tr.timed(cross, op, name, func() error { _, err := cl.Apply("apply", l.g.puts(&o)); return err }); err != nil {
			return err
		}
		l.g.ack(&o)
	}
	return nil
}

// plainBlock is the calibration for harness.trace_overhead_ratio: of every
// six blocks of 100 ops in the traced pass, the last records no spans and
// descends no ladders, so traced and untraced ops of one kind are compared
// over the same stretch of time and state.
func plainBlock(i int) bool { return i/100%6 == 5 }

// tracedPass runs n ops of the mix through one client with spans on. Every
// op gets a root span; a seeded one in ten is also descended level by
// level. No timers are involved, so the counts repeat for a given seed.
func (l *ladders) tracedPass(n int, seed uint64) error {
	s, c, g := l.s, l.s.clients[0], l.g
	pick := newRNG(seed ^ 0x1adde5)
	for i := 0; i < n; i++ {
		o := g.next()
		if plainBlock(i) {
			t0 := time.Now()
			if err := g.exec(c, &o); err != nil {
				return fmt.Errorf("untraced op %d (%s): %w", i, kindNames[o.kind], err)
			}
			if o.kind == s.t.sp.headline {
				l.plain = append(l.plain, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			continue
		}
		sampled := pick.intn(10) == 0
		if s.t.replica != nil && sampled {
			// Descend against a caught-up replica so proof sizes and row
			// counts do not depend on replication timing.
			if err := s.t.replica.WaitForHeight(0, s.t.db.Height(), 30*time.Second); err != nil {
				return err
			}
		}
		t0 := time.Now()
		err := g.exec(c, &o)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("traced op %d (%s): %w", i, kindNames[o.kind], err)
		}
		if q := n / 4; s.t.dir != "" && s.t.replica == nil && q > 0 && (i+1)%q == q/2 {
			if _, err := l.tr.timed(0, "checkpoint/"+strconv.Itoa(i), "durable.Checkpoint", s.t.db.Checkpoint); err != nil {
				return err
			}
		}
		kind := kindNames[o.kind]
		if !sampled {
			l.tr.add(0, "loop/"+strconv.Itoa(i), "client."+kind, t0, t1)
			continue
		}
		op := kind + "/" + strconv.Itoa(i)
		switch o.kind {
		case opGet:
			root := l.tr.add(0, op, "client.GetVerified", t0, t1)
			if err = l.get(op, root); err == nil && !l.deferred {
				err = l.getRaw("getraw/" + strconv.Itoa(i))
			}
		case opRange:
			err = l.rangeScan(op, l.tr.add(0, op, "client.RangePKVerified", t0, t1))
		case opQuery:
			err = l.queryLadder(op, l.tr.add(0, op, "client.Query", t0, t1), i)
		case opApply:
			err = l.apply(op, l.tr.add(0, op, "client.Apply", t0, t1))
		case opApply2PC:
			err = l.apply2PC(op, l.tr.add(0, op, "client.Apply(2pc)", t0, t1))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// auditLadder times deferred verification: 128 optimistic reads, then an
// explicit Auditor.Flush, and the server half of it — one ProveBatch of
// 128 point reads — at engine level.
func (l *ladders) auditLadder(rounds int) error {
	rc, ok := l.s.clients[0].(replicatedClient)
	if !ok {
		return nil
	}
	sp, eng := l.s.t.sp, l.s.t.replica.Engine(0)
	for r := 0; r < rounds; r++ {
		op := "audit/" + strconv.Itoa(r)
		if err := rc.aud.Flush(); err != nil {
			return err
		}
		qs := make([]ledger.BatchQuery, 0, 128)
		for i := 0; i < 128; i++ {
			o := l.g.nextOf(opGet)
			if err := l.g.exec(rc, &o); err != nil {
				return err
			}
			qs = append(qs, ledger.BatchQuery{Table: sp.table, Column: sp.column, PK: pkOf(o.rows[0])})
		}
		flush, err := l.tr.timed(0, op, "client.Auditor.Flush", rc.aud.Flush)
		if err != nil {
			return err
		}
		d := eng.Digest()
		if _, err := l.tr.timed(flush, op, "ledger.ProveBatch", func() error { _, err := eng.ProveBatch(d, d, qs); return err }); err != nil {
			return err
		}
	}
	return nil
}

// casLadder times the disk node store's two read outcomes on the layer
// scratch: bodies are written and flushed until the 1 MiB cache has turned
// over, then the oldest is read (evicted: segment read and re-hash) and
// read again (resident).
func (l *ladders) casLadder(rounds int) error {
	if l.layer == nil {
		return nil
	}
	disk := l.layer.disk
	body := make([]byte, 4096)
	var ids []hashutil.Digest
	r := newRNG(42)
	put := func() {
		for i := 0; i < len(body); i += 8 {
			binary.LittleEndian.PutUint64(body[i:], r.next())
		}
		ids = append(ids, disk.Put(hashutil.DomainChunk, body))
	}
	for i := 0; i < 512; i++ { // 2 MiB: twice the cache
		put()
	}
	if err := disk.Flush(); err != nil {
		return err
	}
	for i := 0; i < rounds; i++ {
		op := "cas/" + strconv.Itoa(i)
		put() // keep the cache turning so ids[i] stays evicted
		if err := disk.Flush(); err != nil {
			return err
		}
		for _, name := range []string{"cas.Get(miss)", "cas.Get(hit)"} {
			if _, err := l.tr.timed(0, op, name, func() error { _, err := disk.Get(ids[i]); return err }); err != nil {
				return err
			}
		}
	}
	return nil
}

// invertedLadder times Engine.Apply on two scratch engines holding the
// same rows, one maintaining the inverted index.
func (l *ladders) invertedLadder(rounds int) error {
	sp := l.s.t.sp
	if !sp.numeric {
		return nil
	}
	for _, v := range []struct {
		name string
		inv  bool
	}{{"core.Apply(plain)", false}, {"core.Apply(inverted)", true}} {
		m := newModel(4000, 0, 0, true)
		small := *sp
		small.rows = 4000
		eng := core.New(core.Options{MaintainInverted: v.inv})
		if err := preloadRows(&small, m, func(p []spitz.Put) error { _, err := eng.Apply("preload", p); return err }); err != nil {
			return err
		}
		g := newGenerator(&small, m, 1, 0, 1, nil)
		for i := 0; i < rounds; i++ {
			o := g.nextOf(opApply)
			if _, err := l.tr.timed(0, "inverted/"+strconv.Itoa(i), v.name, func() error { _, err := eng.Apply("apply", g.puts(&o)); return err }); err != nil {
				return err
			}
		}
	}
	return nil
}

// countMetrics fills the C metrics: exact counts from the wrappers.
func (l *ladders) countMetrics(ms *metricSet) error {
	t, sp := l.s.t, l.s.t.sp
	if l.dos > 0 {
		ms.set("wire.req_bytes_per_op", float64(l.reqBytes)/float64(l.dos), int(l.dos))
		ms.set("wire.resp_bytes_per_op", float64(l.respBytes)/float64(l.dos), int(l.dos))
	}
	if l.proofs > 0 {
		ms.set("wire.proof_bytes_per_read", float64(l.proofBytes)/float64(l.proofs), int(l.proofs))
		ms.set("postree.proof_nodes_per_get", float64(l.proofNodes)/float64(l.proofs), int(l.proofs))
	}
	if sp.mix[opRange] > 0 && t.cluster != nil {
		ms.set("server.fanout_shards_per_query", float64(t.cluster.Shards()), len(l.fanout))
		ms.set("server.fanout_slowest_over_median", median(l.fanout), len(l.fanout))
	} else if sp.mix[opQuery] > 0 {
		ms.set("server.fanout_shards_per_query", 1, int(l.qRows))
	}
	if l.qRows > 0 {
		ms.set("query.cells_examined_per_row", float64(l.qCells)/float64(l.qRows), int(l.qRows))
		ms.set("query.proof_bytes_per_row", float64(l.qProofBytes)/float64(l.qRows), int(l.qRows))
	}
	const n = 1000
	if l.scratchEng != nil {
		// Reads: n seeded tree gets against the counting store.
		snap, _, _ := l.scratchEng.Ledger().Latest()
		r := newRNG(7)
		_, g0 := l.scratchStore.Ops()
		for i := 0; i < n; i++ {
			if _, _, err := snap.Tree.Get(cellstore.CellPrefix(sp.table, sp.column, pkOf(r.intn(sp.rows)))); err != nil {
				return err
			}
		}
		_, g1 := l.scratchStore.Ops()
		ms.set("postree.nodes_read_per_get", float64(g1-g0)/n, n)
		// Writes: n single-cell commits.
		p0, _ := l.scratchStore.Ops()
		b0 := writtenBytes(l.scratchStore)
		for i := 0; i < n; i++ {
			row := r.intn(sp.rows)
			if _, err := l.scratchEng.Apply("count", []core.Put{{Table: sp.table, Column: sp.column, PK: pkOf(row), Value: t.model.value(row, uint32(i+1))}}); err != nil {
				return err
			}
		}
		p1, _ := l.scratchStore.Ops()
		ms.set("postree.nodes_written_per_put", float64(p1-p0)/n, n)
		ms.set("postree.hash_bytes_per_put", float64(writtenBytes(l.scratchStore)-b0)/n, n)
	}
	if l.layer != nil {
		// The ladder's ledger commits ran on a counting store: everything
		// it put after the preload belongs to them.
		if cells := float64(l.layer.cellsApplied); cells > 0 {
			p, _ := l.layer.store.Ops()
			ms.set("postree.nodes_written_per_put", float64(p-l.layer.puts0)/cells, int(cells))
			ms.set("postree.hash_bytes_per_put", float64(writtenBytes(l.layer.store)-l.layer.bytes0)/cells, int(cells))
		}
		snap, _, _ := l.scratchDur.Engine().Ledger().Latest()
		live, err := snap.Tree.LiveBytes()
		if err != nil {
			return err
		}
		seg := dirBytes(filepath.Join(l.scratchDur.Dir(), "nodes"))
		ms.set("cas.segment_bytes_per_live_byte", ratio(float64(seg), float64(live)), 1)
	}
	return nil
}
