package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spitz/internal/cas"
	"spitz/internal/core"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/txn/tso"
	"spitz/internal/wal"
)

// StoreKind selects the node-store backend for a durable database.
type StoreKind int

const (
	// StoreMemory keeps the CAS in RAM; durability comes from the WAL
	// plus full-snapshot checkpoints. The default, and the right choice
	// while the working set fits in memory.
	StoreMemory StoreKind = iota
	// StoreDisk backs the CAS with append-only segment files behind a
	// bounded write-back cache. Checkpoints flush only dirty nodes and a
	// root pointer (incremental commit), and reopen addresses state by
	// root hash instead of replaying it — restart cost is O(height)
	// headers + O(path) per first read, not O(state).
	StoreDisk
)

// String implements fmt.Stringer.
func (k StoreKind) String() string {
	if k == StoreDisk {
		return "disk"
	}
	return "mem"
}

// ParseStoreKind parses the -store flag values "mem" and "disk".
func ParseStoreKind(s string) (StoreKind, error) {
	switch s {
	case "mem", "memory", "":
		return StoreMemory, nil
	case "disk":
		return StoreDisk, nil
	}
	return 0, fmt.Errorf("durable: unknown store kind %q (want mem or disk)", s)
}

// ErrStoreVersion is returned when a data directory's node store was
// written in an older on-disk format.
var ErrStoreVersion = errors.New("durable: unsupported node-store format version")

var errCkptCrashed = fmt.Errorf("durable: simulated checkpoint crash")

const (
	storeMarkerName = "STORE"
	// v3: a POS-tree leaf is addressed by its count and the root of a
	// binary hash tree over its entries (internal/posleaf). A v1 store's
	// leaves hash whole and a v2 store's by a flat table of group digests,
	// so either is refused by name instead of being read to other digests.
	storeMarkerBody = "spitz-store-v3\ndisk\n"
	nodesDirName    = "nodes"
	vlogName        = "VLOG"
)

// olderStoreMarkers are the STORE bodies of the formats this build refuses.
var olderStoreMarkers = map[string]string{
	"spitz-store-v1\ndisk\n": "spitz-store-v1",
	"spitz-store-v2\ndisk\n": "spitz-store-v2",
}

// resolveStoreKind decides which backend a directory uses. The STORE
// marker (written once at creation) is authoritative: a disk-store
// database reopens as disk no matter what the caller asked for, and a
// directory holding memory-store state refuses a disk request instead of
// silently abandoning the data.
func resolveStoreKind(dir string, req StoreKind) (StoreKind, error) {
	data, err := os.ReadFile(filepath.Join(dir, storeMarkerName))
	if err == nil {
		if string(data) == storeMarkerBody {
			return StoreDisk, nil
		}
		if old, ok := olderStoreMarkers[string(data)]; ok {
			return 0, fmt.Errorf("%w: %s holds a %s node store, this build reads spitz-store-v3 (its tree leaves hash differently; reload the data)",
				ErrStoreVersion, dir, old)
		}
		return 0, fmt.Errorf("durable: unrecognized STORE marker in %s", dir)
	}
	if !os.IsNotExist(err) {
		return 0, err
	}
	if req != StoreDisk {
		return StoreMemory, nil
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return 0, fmt.Errorf("durable: %s already holds a memory-store database; it cannot reopen with -store disk", dir)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, walDirName)); err == nil && len(ents) > 0 {
		return 0, fmt.Errorf("durable: %s already holds a memory-store database; it cannot reopen with -store disk", dir)
	}
	if err := writeStoreMarker(dir); err != nil {
		return 0, err
	}
	return StoreDisk, nil
}

func writeStoreMarker(dir string) error {
	path := filepath.Join(dir, storeMarkerName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(storeMarkerBody); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return wal.SyncDir(dir)
}

// diskManifest is the parsed disk-mode MANIFEST: the root address of the
// durable state. height blocks are durable; head is the hash of block
// height-1 (the header chain walks backward from it through the CAS);
// maxtxn is a transaction-ID floor for recovered engines.
type diskManifest struct {
	height uint64
	head   hashutil.Digest
	maxTxn uint64
	ok     bool
}

func readDiskManifest(dir string) (diskManifest, error) {
	var m diskManifest
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return m, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 1 || lines[0] != manifestMagic {
		return m, fmt.Errorf("durable: bad manifest magic in %s", dir)
	}
	var store, headHex string
	for _, line := range lines[1:] {
		var key, val string
		if n, _ := fmt.Sscanf(line, "%s %s", &key, &val); n != 2 {
			continue
		}
		switch key {
		case "store":
			store = val
		case "height":
			fmt.Sscanf(val, "%d", &m.height)
		case "head":
			headHex = val
		case "maxtxn":
			fmt.Sscanf(val, "%d", &m.maxTxn)
		}
	}
	if store != "disk" {
		return m, fmt.Errorf("durable: manifest in %s is not a disk-store manifest", dir)
	}
	if m.height > 0 {
		d, err := hashutil.Parse(headHex)
		if err != nil {
			return m, fmt.Errorf("durable: manifest head: %w", err)
		}
		m.head = d
	}
	m.ok = true
	return m, nil
}

func writeDiskManifest(dir string, height uint64, head hashutil.Digest, maxTxn uint64) error {
	body := fmt.Sprintf("%s\nstore disk\nheight %d\nhead %s\nmaxtxn %d\n",
		manifestMagic, height, head.String(), maxTxn)
	return writeManifestBody(dir, body)
}

// walkHeaders recovers the block-header chain by following parent hashes
// backward from the head: a header's hash is its CAS address (both are
// Sum(DomainBlock, Encode())), so the chain needs no index of its own.
// Each hop is an O(1) store read of an ~140-byte object, and every
// header is verified to hash to the address it was fetched from.
func walkHeaders(store cas.Store, head hashutil.Digest, height uint64) ([]ledger.BlockHeader, error) {
	headers := make([]ledger.BlockHeader, height)
	want := head
	for i := height; i > 0; i-- {
		if want.IsZero() {
			return nil, fmt.Errorf("durable: header chain ends at height %d of %d", i, height)
		}
		body, err := store.Get(want)
		if err != nil {
			return nil, fmt.Errorf("durable: block %d header: %w", i-1, err)
		}
		h, err := ledger.DecodeHeader(body)
		if err != nil {
			return nil, fmt.Errorf("durable: block %d header: %w", i-1, err)
		}
		if h.Hash() != want {
			return nil, fmt.Errorf("durable: block %d header does not hash to its address", i-1)
		}
		if h.Height != i-1 {
			return nil, fmt.Errorf("durable: header at address %s carries height %d, want %d",
				want.Short(), h.Height, i-1)
		}
		headers[i-1] = h
		want = h.Parent
	}
	if !want.IsZero() {
		return nil, fmt.Errorf("durable: genesis parent is not zero")
	}
	return headers, nil
}

// openDisk is the disk-store recovery path: open the node store, walk the
// header chain from the manifest's head hash, load the VLOG version
// index, rebuild the ledger lazily at its cell root, and replay the WAL
// tail on top. No snapshot is read and no state is scanned — the first
// verified read after this faults in only the O(log n) proof path.
func openDisk(dir string, opts Options) (*Manager, error) {
	if err := os.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
		return nil, err
	}
	man, err := readDiskManifest(dir)
	if err != nil {
		return nil, err
	}
	nodes, err := cas.OpenDisk(filepath.Join(dir, nodesDirName), cas.DiskOptions{
		CacheBytes: int64(opts.NodeCacheMB) << 20,
	})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Manager, error) {
		nodes.Close()
		return nil, err
	}

	log, err := wal.Open(filepath.Join(dir, walDirName), wal.Options{
		Policy:      opts.Sync,
		Interval:    opts.SyncInterval,
		SegmentSize: opts.SegmentSize,
	})
	if err != nil {
		return fail(err)
	}
	failLog := func(err error) (*Manager, error) {
		log.Close()
		return fail(err)
	}
	var recs []core.CommitRecord
	if err := log.Replay(func(seq uint64, payload []byte) error {
		// Records the manifest already covers replay as no-ops; peeking
		// the height skips their body decode entirely, keeping a clean
		// restart's WAL cost proportional to the tail, not the log.
		if h, err := DecodeRecordHeight(payload); err == nil && h < man.height {
			return nil
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return fmt.Errorf("wal record %d: %w", seq, err)
		}
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return failLog(fmt.Errorf("durable: %w", err))
	}

	vl, demos, err := openVLog(filepath.Join(dir, vlogName))
	if err != nil {
		return failLog(err)
	}
	failAll := func(err error) (*Manager, error) {
		vl.Close()
		return failLog(err)
	}

	var orc TimestampSource = opts.Timestamps
	if orc == nil {
		orc = tso.New(0)
	}
	copts := core.Options{
		Store:            nodes,
		Mode:             opts.Mode,
		MaintainInverted: opts.MaintainInverted,
		Timestamps:       orc,
		MaxBatchTxns:     opts.MaxBatchTxns,
		MaxBatchDelay:    opts.MaxBatchDelay,
		LazyIndex:        true,
	}
	var eng *core.Engine
	if man.ok && man.height > 0 {
		headers, err := walkHeaders(nodes, man.head, man.height)
		if err != nil {
			return failAll(err)
		}
		l, err := ledger.Reopen(nodes, headers, demos)
		if err != nil {
			return failAll(err)
		}
		eng, err = core.NewWithLedger(copts, l, man.maxTxn)
		if err != nil {
			return failAll(err)
		}
	} else {
		eng = core.New(copts)
		eng.Ledger().EnableDemotionLog()
	}
	if h, ok := eng.Ledger().Head(); ok {
		orc.Advance(h.Version)
	}

	height, replayed, err := replayTail(eng, orc, recs)
	if err != nil {
		return failAll(err)
	}

	m := &Manager{
		dir:       dir,
		opts:      opts,
		eng:       eng,
		log:       log,
		storeKind: StoreDisk,
		nodes:     nodes,
		vlog:      vl,
		seqOff:    log.NextSeq() - height,
		closing:   make(chan struct{}),
		loopDone:  make(chan struct{}),
		ckptPoke:  make(chan struct{}, 1),
	}
	if man.ok {
		m.ckptHeight = man.height
	}
	m.sinceCkpt.Store(uint64(replayed))
	eng.SetCommitSink(m)
	if opts.CheckpointInterval > 0 || opts.CheckpointEveryBlocks > 0 {
		go m.checkpointLoop()
	} else {
		close(m.loopDone)
	}
	return m, nil
}

// checkpointDisk is the incremental checkpoint: append new demotions to
// the VLOG, flush dirty nodes (only bytes written since the last flush),
// and atomically repoint the MANIFEST at the new head. No snapshot is
// streamed; the sequencing makes a crash at any point recover to either
// the old root or the new one, never between.
func (m *Manager) checkpointDisk() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	if err := m.nodes.Err(); err != nil {
		return fmt.Errorf("durable: node store failed: %w", err)
	}
	height := m.eng.Ledger().Height()
	if height == 0 || height == m.ckptHeight {
		return nil
	}
	keepSeq := m.log.NextSeq()
	head, err := m.eng.Ledger().Header(height - 1)
	if err != nil {
		return err
	}
	maxTxn := m.eng.NextTxnID()
	// Demotions sampled after height may belong to later blocks; replay
	// after a crash re-demotes them and the version index deduplicates.
	demos := m.eng.Ledger().PendingDemotions()
	if err := m.vlog.append(demos); err != nil {
		return err
	}
	if m.ckptCrash != nil && m.ckptCrash("vlog") {
		return errCkptCrashed
	}
	if err := m.nodes.Flush(); err != nil {
		return fmt.Errorf("durable: flush node store: %w", err)
	}
	if m.ckptCrash != nil && m.ckptCrash("flush") {
		return errCkptCrashed
	}
	if err := writeDiskManifest(m.dir, height, head.Hash(), maxTxn); err != nil {
		return err
	}
	m.eng.Ledger().ClearDemotions(len(demos))
	m.ckptHeight = height
	m.sinceCkpt.Store(0)
	return m.log.PruneTo(keepSeq)
}

// NodeStore returns the disk-backed node store, or nil for memory-store
// databases. Benchmarks and tests read its cache statistics.
func (m *Manager) NodeStore() *cas.Disk { return m.nodes }

// StoreKind reports which node-store backend this database uses.
func (m *Manager) StoreKind() StoreKind { return m.storeKind }
