package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"spitz"
	"spitz/internal/core"
	"spitz/internal/postree"
	"spitz/internal/wire"
)

// churn calls write(0), write(1), … once per tick of every on a goroutine
// of its own until stop is called, which returns how many writes
// succeeded and the error that ended the churn early, if one did. stop
// may be called again.
func churn(every time.Duration, write func(i int) error) (stop func() (int, error)) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var n int
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for ; ; n++ {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if err = write(n); err != nil {
				return
			}
		}
	}()
	var once sync.Once
	return func() (int, error) {
		once.Do(func() { close(done); wg.Wait() })
		return n, err
	}
}

// VerifyAuditSmoke is the deferred-verification workload CI runs: an
// AuditMode client against a live served engine under concurrent write
// churn — every optimistic read must batch-verify — followed by a
// tamper probe against a second server whose batch proofs are corrupted
// in flight, which must trip ErrTampered (and poison further reads).
// It returns an error on any deviation, in either direction: a verified
// honest run that fails, or a tampered run that passes.
func VerifyAuditSmoke() error {
	eng := core.New(core.Options{})
	const keys = 500
	for lo := 0; lo < keys; lo += 100 {
		puts := make([]core.Put, 0, 100)
		for i := lo; i < lo+100; i++ {
			puts = append(puts, core.Put{Table: "t", Column: "c",
				PK: benchKey(i), Value: []byte(fmt.Sprintf("value-%08d", i))})
		}
		if _, err := eng.Apply("load", puts); err != nil {
			return err
		}
	}

	// Phase 1: honest server, audited reads under write churn.
	honestLn, _ := wire.Listen()
	honest := wire.NewHandlerServer(wire.EngineHandler(eng))
	go honest.Serve(honestLn)
	defer honest.Close()

	wc, err := wire.Connect(honestLn)
	if err != nil {
		return err
	}
	cl := spitz.NewClient(wc)
	aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 64, MaxDelay: 20 * time.Millisecond})
	if err != nil {
		return err
	}

	stop := churn(time.Millisecond, func(i int) error {
		_, err := eng.Apply("churn", []core.Put{{Table: "t", Column: "c",
			PK: benchKey(i % keys), Value: []byte(fmt.Sprintf("churn-%08d", i))}})
		return err
	})
	defer stop()

	rng := uint64(1)
	for i := 0; i < 500; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		if _, found, err := cl.GetVerified("t", "c", benchKey(int(rng%keys))); err != nil {
			return fmt.Errorf("audited read %d: %w", i, err)
		} else if !found {
			return fmt.Errorf("audited read %d: key missing", i)
		}
		if i%50 == 0 {
			if _, err := cl.RangePKVerified("t", "c", benchKey(10), benchKey(20)); err != nil {
				return fmt.Errorf("audited range %d: %w", i, err)
			}
		}
	}
	if _, err := stop(); err != nil {
		return fmt.Errorf("write churn: %w", err)
	}
	if err := aud.Flush(); err != nil {
		return fmt.Errorf("final audit flush: %w", err)
	}
	st := aud.Stats()
	if st.Audited != st.Receipts || st.Receipts == 0 {
		return fmt.Errorf("audit incomplete: %+v", st)
	}
	if err := cl.Close(); err != nil {
		return fmt.Errorf("audited client close: %w", err)
	}

	// Phase 2: tamper probe. The same engine served through a handler
	// that flips one byte of every batch proof — the audit must trip.
	tamperLn, _ := wire.Listen()
	tampered := wire.NewHandlerServer(wire.MutateHandler(wire.EngineHandler(eng), flipFirstNode(wire.OpProveBatch)))
	go tampered.Serve(tamperLn)
	defer tampered.Close()

	twc, err := wire.Connect(tamperLn)
	if err != nil {
		return err
	}
	tcl := spitz.NewClient(twc)
	defer tcl.Close()
	taud, err := tcl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		if _, _, err := tcl.GetVerified("t", "c", benchKey(i)); err != nil {
			return fmt.Errorf("tamper probe optimistic read %d failed early: %w", i, err)
		}
	}
	err = taud.Flush()
	if err == nil {
		return errors.New("tamper probe: corrupted batch proof was accepted")
	}
	if !errors.Is(err, spitz.ErrTampered) {
		return fmt.Errorf("tamper probe misreported: %w", err)
	}
	if _, _, err := tcl.GetVerified("t", "c", benchKey(0)); !errors.Is(err, spitz.ErrTampered) {
		return fmt.Errorf("tamper probe: poisoned client kept reading: %v", err)
	}
	return nil
}

// flipFirstNode is a MutateHandler hook that flips one byte of the first
// node of every op response's batch-layout proof — its point part's, or
// else its first range's. It copies what it changes: served node bodies
// alias the engine's store.
func flipFirstNode(op wire.Op) func(wire.Request, *wire.Response) {
	return func(req wire.Request, resp *wire.Response) {
		if req.Op != op || resp.BatchProof == nil {
			return
		}
		p := *resp.BatchProof
		var nodes *[][]byte
		switch {
		case p.Point != nil && len(p.Point.Nodes) > 0:
			pt := *p.Point
			p.Point, nodes = &pt, &pt.Nodes
		case len(p.Ranges) > 0 && len(p.Ranges[0].Nodes) > 0:
			p.Ranges = append([]postree.RangeProof(nil), p.Ranges...)
			nodes = &p.Ranges[0].Nodes
		default:
			return
		}
		*nodes = append([][]byte(nil), *nodes...)
		n := append([]byte(nil), (*nodes)[0]...)
		n[len(n)/2] ^= 0x01
		(*nodes)[0] = n
		resp.BatchProof = &p
	}
}
