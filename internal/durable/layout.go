package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"spitz/internal/proof"
	"strconv"
	"strings"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/wal"
)

// StoreKind named a node-store backend when durable databases had two.
//
// Deprecated: every data directory is the disk-native node store; the
// type stays for the frozen benchmark module.
type StoreKind int

// Deprecated: see StoreKind.
const StoreDisk StoreKind = 1

// ErrStoreVersion is returned when a data directory was written in an
// on-disk format this build no longer reads.
var ErrStoreVersion = errors.New("durable: unsupported node-store format version")

const (
	storeMarkerName = "STORE"
	// v4: a cell version names the version it replaced (proof.FlagLinked), so
	// a cell's history hangs off its head and there is no VLOG. A v3
	// store's cells carry no links; a v1 store's leaves hash whole and a
	// v2 store's by a flat table of group digests. Each is refused by name
	// instead of being read to other digests.
	storeMarkerBody = "spitz-store-v4\ndisk\n"
	manifestName    = "MANIFEST"
	manifestMagic   = "spitz-manifest-v1"
	nodesDirName    = "nodes"
	walDirName      = "wal"
)

// olderStoreMarkers are the STORE bodies of the formats this build refuses.
var olderStoreMarkers = map[string]string{
	"spitz-store-v1\ndisk\n": "spitz-store-v1",
	"spitz-store-v2\ndisk\n": "spitz-store-v2",
	"spitz-store-v3\ndisk\n": "spitz-store-v3",
}

// checkLayout decides, before anything in dir is written, whether this
// build opens it. The STORE marker names a node-store format: the current
// one opens, an older one is refused by name. A directory without the
// marker is either new — it gets the marker — or holds a memory-store
// database (a MANIFEST, checkpoints/ or a non-empty wal/ written by a
// build that kept the whole store in RAM), which is refused by name: its
// state lives in a snapshot this layout never reads, so opening it would
// silently serve an empty database.
func checkLayout(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, storeMarkerName))
	if err == nil {
		if string(data) == storeMarkerBody {
			return nil
		}
		if old, ok := olderStoreMarkers[string(data)]; ok {
			return fmt.Errorf("%w: %s holds a %s node store, this build reads spitz-store-v4 (its cells hash differently; reload the data)",
				ErrStoreVersion, dir, old)
		}
		return fmt.Errorf("durable: unrecognized STORE marker in %s", dir)
	}
	if !os.IsNotExist(err) {
		return err
	}
	found := ""
	if ents, _ := os.ReadDir(filepath.Join(dir, walDirName)); len(ents) > 0 {
		found = "a non-empty wal/"
	}
	for _, name := range []string{"checkpoints/", manifestName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			found = name
		}
	}
	if found != "" {
		return fmt.Errorf("%w: %s holds a memory-store database (%s without a STORE marker), which this build no longer opens; reload the data into a new directory",
			ErrStoreVersion, dir, found)
	}
	return writeStoreMarker(dir)
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

// manifest is the parsed MANIFEST: the root address of the durable
// state. height blocks are durable; head is the hash of block height-1
// (the header chain walks backward from it through the node store);
// maxTxn is a transaction-ID floor for recovered engines. The zero value
// is an empty database.
type manifest struct {
	height uint64
	head   hashutil.Digest
	maxTxn uint64
}

// readManifest parses <dir>/MANIFEST; a missing file is an empty
// database. Every field must be present and parse: a height or
// transaction floor read as zero would reopen an empty ledger or reuse
// transaction IDs.
func readManifest(dir string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return m, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != manifestMagic {
		return m, fmt.Errorf("durable: bad manifest magic in %s", dir)
	}
	fields := make(map[string]string)
	for _, line := range lines[1:] {
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			return m, fmt.Errorf("durable: manifest in %s: malformed line %q", dir, line)
		}
		fields[key] = val
	}
	if fields["store"] != "disk" {
		return m, fmt.Errorf("durable: manifest in %s is not a disk-store manifest", dir)
	}
	for _, f := range []struct {
		key string
		dst *uint64
	}{{"height", &m.height}, {"maxtxn", &m.maxTxn}} {
		if *f.dst, err = strconv.ParseUint(fields[f.key], 10, 64); err != nil {
			return m, fmt.Errorf("durable: manifest in %s: %s: %w", dir, f.key, err)
		}
	}
	if m.height > 0 {
		if m.head, err = hashutil.Parse(fields["head"]); err != nil {
			return m, fmt.Errorf("durable: manifest in %s: head: %w", dir, err)
		}
	}
	return m, nil
}

// writeManifest atomically replaces <dir>/MANIFEST (tmp + rename + dir
// fsync), so a crash leaves either the old or the new manifest, never a
// torn one.
func writeManifest(dir string, m manifest) error {
	body := fmt.Sprintf("%s\nstore disk\nheight %d\nhead %s\nmaxtxn %d\n",
		manifestMagic, m.height, m.head.String(), m.maxTxn)
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(body); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return wal.SyncDir(dir)
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
		h, err := proof.DecodeHeader(body)
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
