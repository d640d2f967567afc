// Package nonintrusive implements the paper's non-intrusive VDB design
// (Figure 3, evaluated in Section 6.2.3): an unmodified underlying
// database plus a *separate* ledger service. "In the case of read
// workloads, the client obtains the queried results from the underlying
// database and the proofs from the ledger as responses, while in the case
// of write workloads, the submitted data are committed in both the
// underlying and ledger database atomically."
//
// The underlying database is the immutable KVS; the ledger database is a
// Spitz engine "deployed on the same server as the Ledger database" (per
// Section 6.2.3, Spitz can serve as a standalone ledger by waking only its
// auditor). Both sit behind the wire protocol, so every operation pays the
// cross-system communication the paper measures.
package nonintrusive

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"

	"spitz/internal/bench/kvs"
	"spitz/internal/core"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/proof"
	"spitz/internal/wire"
)

// KV is one write.
type KV struct {
	PK    []byte
	Value []byte
}

// ErrMismatch is returned by verified reads when the underlying database
// and the ledger disagree — the tamper-detection case.
var ErrMismatch = errors.New("nonintrusive: underlying database and ledger disagree")

// ---------------------------------------------------------------------------
// Underlying database service (KVS behind its own protocol)

type kvsRequest struct {
	Op    string // "get", "put", "scan"
	Key   []byte
	KeyHi []byte
	Batch []KV
}

type kvsResponse struct {
	Err    string
	Found  bool
	Value  []byte
	Keys   [][]byte
	Values [][]byte
}

// kvsServer serves a kvs.Store over a listener.
type kvsServer struct {
	store *kvs.Store
	ln    net.Listener
	mu    sync.Mutex
	done  bool
}

func (s *kvsServer) serve() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.handle(conn)
	}
}

func (s *kvsServer) handle(conn net.Conn) {
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req kvsRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		var resp kvsResponse
		switch req.Op {
		case "put":
			batch := make([]kvs.KV, len(req.Batch))
			for i, kv := range req.Batch {
				batch[i] = kvs.KV{Key: kv.PK, Value: kv.Value}
			}
			if err := s.store.Apply(batch); err != nil {
				resp.Err = err.Error()
			}
		case "get":
			v, found, err := s.store.Get(req.Key)
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.Found, resp.Value = found, v
			}
		case "scan":
			err := s.store.Scan(req.Key, req.KeyHi, func(k, v []byte) bool {
				resp.Keys = append(resp.Keys, append([]byte(nil), k...))
				resp.Values = append(resp.Values, append([]byte(nil), v...))
				return true
			})
			if err != nil {
				resp.Err = err.Error()
			}
			resp.Found = len(resp.Keys) > 0
		default:
			resp.Err = "nonintrusive: unknown kvs op"
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

type kvsClient struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func (c *kvsClient) do(req kvsRequest) (kvsResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return kvsResponse{}, err
	}
	var resp kvsResponse
	if err := c.dec.Decode(&resp); err != nil {
		return kvsResponse{}, err
	}
	if resp.Err != "" {
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// ---------------------------------------------------------------------------
// The composed system

// System is the client-side coordinator of the non-intrusive deployment.
// Every operation crosses the wire to one or both services.
type System struct {
	kvs      *kvsClient
	ledger   *wire.Client
	verifier *proof.Verifier

	kvsSrv    *kvsServer
	ledgerSrv *wire.Server

	table, column string
}

// Deploy starts both services (loopback TCP when available, in-process
// pipes otherwise) and returns a connected System. Close releases
// everything.
func Deploy() (*System, error) {
	// Underlying database service.
	kvsLn, _ := wire.Listen()
	ks := &kvsServer{store: kvs.New(nil), ln: kvsLn}
	go ks.serve()
	kvsConn, err := dialListener(kvsLn)
	if err != nil {
		return nil, err
	}

	// Ledger database service: a Spitz engine in auditor-only duty.
	eng := core.New(core.Options{})
	ledgerSrv := wire.NewHandlerServer(wire.EngineHandler(eng))
	ledgerLn, _ := wire.Listen()
	go ledgerSrv.Serve(ledgerLn)
	ledgerCl, err := wire.Connect(ledgerLn)
	if err != nil {
		return nil, err
	}

	return &System{
		kvs:       &kvsClient{conn: kvsConn, enc: gob.NewEncoder(kvsConn), dec: gob.NewDecoder(kvsConn)},
		ledger:    ledgerCl,
		verifier:  proof.NewVerifier(),
		kvsSrv:    ks,
		ledgerSrv: ledgerSrv,
		table:     "kv",
		column:    "v",
	}, nil
}

func dialListener(ln net.Listener) (net.Conn, error) {
	if pl, ok := ln.(*wire.PipeListener); ok {
		return pl.DialPipe()
	}
	return net.Dial(ln.Addr().Network(), ln.Addr().String())
}

// Close shuts down both services.
func (s *System) Close() {
	s.kvsSrv.ln.Close()
	s.ledgerSrv.Close()
	s.ledger.Close()
	s.kvs.conn.Close()
}

// Write commits a batch in both systems: first the underlying database,
// then the ledger. A ledger failure is surfaced so the caller can retry;
// the underlying KVS being ahead is detectable (and detected) by verified
// reads.
func (s *System) Write(batch []KV) error {
	if _, err := s.kvs.do(kvsRequest{Op: "put", Batch: batch}); err != nil {
		return fmt.Errorf("nonintrusive: underlying write: %w", err)
	}
	puts := make([]wire.Put, len(batch))
	for i, kv := range batch {
		puts[i] = wire.Put{Table: s.table, Column: s.column, PK: kv.PK, Value: kv.Value}
	}
	if _, err := s.ledger.Do(wire.Request{Op: wire.OpPut, Statement: "nonintrusive write", Puts: puts}); err != nil {
		return fmt.Errorf("nonintrusive: ledger write: %w", err)
	}
	return nil
}

// Read serves an unverified read from the underlying database only.
func (s *System) Read(pk []byte) ([]byte, bool, error) {
	resp, err := s.kvs.do(kvsRequest{Op: "get", Key: pk})
	if err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Found, nil
}

// ReadVerified reads from the underlying database, fetches the proof from
// the ledger service, cross-checks the two results and verifies the proof
// against the client digest — the full Figure 3 read path.
func (s *System) ReadVerified(pk []byte) ([]byte, bool, error) {
	resp, err := s.kvs.do(kvsRequest{Op: "get", Key: pk})
	if err != nil {
		return nil, false, err
	}
	lresp, err := s.ledger.Do(wire.Request{Op: wire.OpGetVerified,
		Table: s.table, Column: s.column, PK: pk})
	if err != nil {
		return nil, false, err
	}
	if err := s.syncDigest(lresp.Digest); err != nil {
		return nil, false, err
	}
	var live [][]proof.Cell
	if lresp.Proof != nil {
		q := []ledger.BatchQuery{{Table: s.table, Column: s.column, PK: pk}}
		if live, err = s.verifier.Check(lresp.Proof, lresp.Digest, q, 1, nil); err != nil {
			return nil, false, err
		}
	}
	if resp.Found != lresp.Found {
		return nil, false, ErrMismatch
	}
	if resp.Found && (live == nil || len(live[0]) != 1 || !bytes.Equal(live[0][0].Value, resp.Value)) {
		return nil, false, ErrMismatch
	}
	return resp.Value, resp.Found, nil
}

// Scan serves an unverified range query from the underlying database.
func (s *System) Scan(lo, hi []byte) ([][]byte, [][]byte, error) {
	resp, err := s.kvs.do(kvsRequest{Op: "scan", Key: lo, KeyHi: hi})
	if err != nil {
		return nil, nil, err
	}
	return resp.Keys, resp.Values, nil
}

// syncDigest advances the client's trusted digest to the ledger's, with a
// consistency proof when moving forward from a pinned digest.
func (s *System) syncDigest(d ledger.Digest) error {
	cur := s.verifier.Digest()
	if cur == d {
		return nil
	}
	if cur.Height == 0 && cur.Root.IsZero() {
		return s.verifier.Advance(d, mtree.ConsistencyProof{})
	}
	resp, err := s.ledger.Do(wire.Request{Op: wire.OpConsistency, OldDigest: cur})
	if err != nil {
		return err
	}
	return s.verifier.Advance(resp.Digest, *resp.Consistency)
}
