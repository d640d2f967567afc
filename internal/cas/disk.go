package cas

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"spitz/internal/hashutil"
	"spitz/internal/obs"
	"spitz/internal/posleaf"
)

// ErrCorrupt is returned by Disk.Get when a record read from disk fails its
// CRC, its header or its address, and by CheckGroups when a leaf group does
// not hash to its root in the leaf's table. A corrupted object is never
// served silently.
var ErrCorrupt = errors.New("cas: object failed hash verification")

// On-disk layout of one segment file (see internal/durable/FORMAT.md for
// the normative spec):
//
//	"SPZSEG1\n"                                 8-byte file magic
//	record*                                     append-only records
//	[index block + trailer]                     only once sealed
//
// record  := len u32 BE | domain u8 | digest [32]byte | crc u32 BE | payload
//
//	(crc is CRC-32C over the 37 bytes preceding it plus the payload)
//
// index   := count × ( digest [32]byte | domain u8 | off u64 BE | len u32 BE )
// trailer := count u32 BE | indexLen u32 BE | crc u32 BE | "SPZIDX1\n"
//
//	(crc is CRC-32C over the index block)
const (
	segMagic          = "SPZSEG1\n"
	idxMagic          = "SPZIDX1\n"
	segHeaderSize     = 8
	recHeaderSize     = 4 + 1 + hashutil.DigestSize + 4
	footerEntrySize   = hashutil.DigestSize + 1 + 8 + 4
	footerTrailerSize = 4 + 4 + 4 + 8

	// maxObjectBytes bounds a single record's payload; anything larger in a
	// length field means a torn or corrupted frame.
	maxObjectBytes = 1 << 30
)

var diskCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Node-store counters, aggregated across every Disk store in the process
// (a sharded deployment runs one store per shard). Hits and misses are
// body-cache outcomes for Get; a miss costs one disk read plus a CRC and
// an address check. Groups checked per leaf miss is what a cold leaf costs
// in hashing. Flushes count Flush calls (checkpoints); spills count
// write-backs forced by the dirty set outgrowing its share of the budget.
var (
	mStoreHits          = obs.Default.Counter("spitz_nodestore_cache_hits_total")
	mStoreMisses        = obs.Default.Counter("spitz_nodestore_cache_misses_total")
	mStoreLeafMisses    = obs.Default.Counter("spitz_nodestore_leaf_misses_total")
	mStoreGroupsChecked = obs.Default.Counter("spitz_nodestore_leaf_groups_checked_total")
	mStoreEvicts        = obs.Default.Counter("spitz_nodestore_cache_evictions_total")
	mStoreFlushes       = obs.Default.Counter("spitz_nodestore_flushes_total")
	mStoreSpills        = obs.Default.Counter("spitz_nodestore_spills_total")
	mStoreFlushedObj    = obs.Default.Counter("spitz_nodestore_flushed_objects_total")
	mStoreCacheBytes    = obs.Default.Gauge("spitz_nodestore_cache_bytes")
	mStoreDirtyBytes    = obs.Default.Gauge("spitz_nodestore_dirty_bytes")
	// Errors counts I/O and verification failures: sticky write-path
	// errors (which fail-stop the store), failed segment reads and
	// hash-verification misses. Health rules alarm on any increase.
	mStoreErrors = obs.Default.Counter("spitz_nodestore_errors_total")
)

// Per-domain byte counters are created lazily so /metrics only carries
// series for domains the process actually stores. The label is baked into
// the metric name, which the obs registry splits back out on export.
var (
	domReadCounters  [256]atomic.Pointer[obs.Counter]
	domWriteCounters [256]atomic.Pointer[obs.Counter]
)

// DomainName returns a short human label for a hashutil domain tag, used
// as the {domain="…"} label on per-domain I/O series.
func DomainName(b byte) string {
	switch b {
	case hashutil.DomainLeaf:
		return "mleaf"
	case hashutil.DomainInner:
		return "minner"
	case hashutil.DomainValue:
		return "value"
	case hashutil.DomainPOSLeaf:
		return "posleaf"
	case hashutil.DomainPOSIndex:
		return "posindex"
	case hashutil.DomainMPTNode:
		return "mpt"
	case hashutil.DomainMBTBucket:
		return "mbtbucket"
	case hashutil.DomainMBTInner:
		return "mbtinner"
	case hashutil.DomainBlock:
		return "block"
	case hashutil.DomainCell:
		return "cell"
	case hashutil.DomainChunk:
		return "chunk"
	case hashutil.DomainTxn:
		return "txn"
	case hashutil.DomainStmt:
		return "stmt"
	case hashutil.DomainBTreeNode:
		return "btree"
	case hashutil.DomainJournal:
		return "journal"
	case hashutil.DomainPostings:
		return "postings"
	case hashutil.DomainCluster:
		return "cluster"
	}
	return fmt.Sprintf("x%02x", b)
}

func domainCounter(arr *[256]atomic.Pointer[obs.Counter], verb string, b byte) *obs.Counter {
	if c := arr[b].Load(); c != nil {
		return c
	}
	c := obs.Default.Counter(fmt.Sprintf("spitz_nodestore_%s_bytes_total{domain=%q}", verb, DomainName(b)))
	arr[b].Store(c)
	return c
}

// DomainResolver is implemented by stores that can report which domain
// tag an object was stored under. Counting uses it to attribute Get
// traffic per domain.
type DomainResolver interface {
	Domain(d hashutil.Digest) (byte, bool)
}

// DiskOptions configures OpenDisk.
type DiskOptions struct {
	// CacheBytes bounds the in-memory body cache: clean (persisted) bodies
	// plus the dirty write-back set. Dirty bodies are never evicted; when
	// they outgrow half the budget they are spilled to the active segment
	// (written but not yet fsynced). Default 64 MiB, minimum 1 MiB.
	CacheBytes int64
	// SegmentBytes is the rotation threshold for segment files.
	// Default 64 MiB.
	SegmentBytes int64
}

const (
	defaultCacheBytes   = 64 << 20
	minCacheBytes       = 1 << 20
	defaultSegmentBytes = 64 << 20
)

// objLoc locates a persisted object inside a segment file.
type objLoc struct {
	seg    int
	off    int64
	length int32
	domain byte
}

// entry is a body the store holds in memory: dirty (written, not yet
// persisted) or clean (cached). unchecked marks the groups of a leaf no
// reader has checked yet: all of one read back from a segment, and of one
// this process wrote, those copied unchecked from such a leaf
// (CopiedGroups). Groups past its end, and a body with none, are vouched
// for. The entry moves from the dirty set to the clean cache whole.
type entry struct {
	d         hashutil.Digest
	domain    byte
	body      []byte
	unchecked []bool
}

type segment struct {
	f       *os.File
	path    string
	size    int64
	sealed  bool
	entries []footerEntry // records appended since open; feeds the seal footer
}

type footerEntry struct {
	d      hashutil.Digest
	domain byte
	off    int64
	length int32
}

// Disk is an append-only, hash-verified, disk-backed Store: the node
// store that lets the Merkle state outgrow RAM.
//
// Writes are buffered in a bounded write-back cache (Put cannot fail
// directly); Flush persists the dirty set and fsyncs, and is the
// checkpoint primitive `internal/durable` builds incremental commits on.
// I/O errors adopt the engine's fail-stop discipline: the first error
// sticks, every later Flush returns it, and no dirty data is ever
// dropped or evicted unflushed. A read checks the record's CRC and header
// and the payload against the digest's address — for a POS-tree leaf that
// binds only its table, and CheckGroups hashes each group when a reader
// first uses it. So a bit-flipped body surfaces as ErrCorrupt, never as a
// silently wrong answer, and a flip the CRC misses (a rewritten record)
// fails the first read of its group.
type Disk struct {
	dir       string
	cacheMax  int64
	spillMax  int64
	segMax    int64
	crashSync func() // test hook: called between Flush's writes and its fsync, outside mu

	// flushMu serializes Flush and Close. Flush holds it — and not mu —
	// across the active segment's fsync, so Get and Put keep running while
	// a checkpoint waits for the disk; Close takes it so the file being
	// fsynced cannot be closed underneath. Always acquired before mu.
	flushMu sync.Mutex

	mu       sync.Mutex
	segs     []*segment
	index    map[hashutil.Digest]objLoc
	dirty    map[hashutil.Digest]*entry
	dirtySeq []hashutil.Digest // insertion order, for deterministic flush
	clean    map[hashutil.Digest]*list.Element
	lru      *list.List // front = most recent; values are *entry
	stats    Stats
	cstats   DiskCacheStats
	dirtyB   int64
	cleanB   int64
	err      error
	closed   bool
	wbuf     []byte
}

// DiskCacheStats reports body-cache effectiveness for one Disk store.
type DiskCacheStats struct {
	Hits, Misses, Evictions   int64
	LeafMisses, GroupsChecked int64
	Flushes, Spills           int64
	FlushedObjects            int64
	CleanBytes, DirtyBytes    int64
	CacheBudget               int64
}

// HitRate returns Hits/(Hits+Misses), or 1 when there were no lookups.
func (s DiskCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// OpenDisk opens (creating if needed) a disk store rooted at dir.
// Sealed segments are indexed from their footers without reading record
// bodies; the unsealed tail segment is scanned record by record, and a
// torn tail (crash mid-append) is truncated at the last whole record.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = defaultCacheBytes
	}
	if opts.CacheBytes < minCacheBytes {
		opts.CacheBytes = minCacheBytes
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: open disk store: %w", err)
	}
	s := &Disk{
		dir:      dir,
		cacheMax: opts.CacheBytes,
		spillMax: opts.CacheBytes / 2,
		segMax:   opts.SegmentBytes,
		index:    make(map[hashutil.Digest]objLoc),
		dirty:    make(map[hashutil.Digest]*entry),
		clean:    make(map[hashutil.Digest]*list.Element),
		lru:      list.New(),
	}
	s.cstats.CacheBudget = opts.CacheBytes

	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		seg, err := s.openSegment(filepath.Join(dir, name), i, i == len(names)-1)
		if err != nil {
			for _, sg := range s.segs {
				sg.f.Close()
			}
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	if len(s.segs) == 0 || s.segs[len(s.segs)-1].sealed {
		if err := s.addSegmentLocked(); err != nil {
			for _, sg := range s.segs {
				sg.f.Close()
			}
			return nil, err
		}
	}
	// Accounting baseline for a reopened store: every indexed object is
	// physical; logical restarts from the same point (Put-side dedup stats
	// are per-process, not persisted).
	s.stats.Objects = len(s.index)
	for _, loc := range s.index {
		s.stats.PhysicalBytes += int64(loc.length)
	}
	s.stats.LogicalBytes = s.stats.PhysicalBytes
	return s, nil
}

func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cas: list segments: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".spz") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// openSegment opens one existing segment file: footer-indexed if sealed,
// scanned otherwise. Only the final segment may have a torn tail.
func (s *Disk) openSegment(path string, segIdx int, last bool) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cas: open segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("cas: stat segment: %w", err)
	}
	size := fi.Size()
	seg := &segment{f: f, path: path, size: size}

	if size < segHeaderSize {
		// Torn segment creation: legal only at the tail.
		if !last {
			f.Close()
			return nil, fmt.Errorf("cas: segment %s: truncated header", path)
		}
		if err := resetSegment(f); err != nil {
			f.Close()
			return nil, err
		}
		seg.size = segHeaderSize
		return seg, nil
	}
	var magic [segHeaderSize]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("cas: segment %s: %w", path, err)
	}
	if string(magic[:]) != segMagic {
		f.Close()
		return nil, fmt.Errorf("cas: segment %s: bad magic", path)
	}

	if ok, err := s.loadFooter(seg, segIdx); err != nil {
		f.Close()
		return nil, err
	} else if ok {
		seg.sealed = true
		return seg, nil
	}

	end, err := s.scanSegment(seg, segIdx, last)
	if err != nil {
		f.Close()
		return nil, err
	}
	seg.size = end
	return seg, nil
}

// loadFooter tries to index a sealed segment from its footer. Returns
// false (no error) when the footer is absent or torn — the caller falls
// back to a record scan.
func (s *Disk) loadFooter(seg *segment, segIdx int) (bool, error) {
	if seg.size < segHeaderSize+footerTrailerSize {
		return false, nil
	}
	var tr [footerTrailerSize]byte
	if _, err := seg.f.ReadAt(tr[:], seg.size-footerTrailerSize); err != nil {
		return false, fmt.Errorf("cas: segment %s: read trailer: %w", seg.path, err)
	}
	if string(tr[12:]) != idxMagic {
		return false, nil
	}
	count := int64(binary.BigEndian.Uint32(tr[0:4]))
	idxLen := int64(binary.BigEndian.Uint32(tr[4:8]))
	wantCRC := binary.BigEndian.Uint32(tr[8:12])
	if idxLen != count*footerEntrySize || segHeaderSize+idxLen+footerTrailerSize > seg.size {
		return false, nil
	}
	blk := make([]byte, idxLen)
	if _, err := seg.f.ReadAt(blk, seg.size-footerTrailerSize-idxLen); err != nil {
		return false, fmt.Errorf("cas: segment %s: read index: %w", seg.path, err)
	}
	if crc32.Checksum(blk, diskCRCTable) != wantCRC {
		return false, nil
	}
	for i := int64(0); i < count; i++ {
		e := blk[i*footerEntrySize:]
		var d hashutil.Digest
		copy(d[:], e[:hashutil.DigestSize])
		off := int64(binary.BigEndian.Uint64(e[hashutil.DigestSize+1:]))
		n := int64(binary.BigEndian.Uint32(e[hashutil.DigestSize+9:]))
		// Bounded before anything is sized by it: Get allocates the length.
		if n > maxObjectBytes || off < segHeaderSize || off > seg.size || off+recHeaderSize+n > seg.size {
			return false, fmt.Errorf("cas: segment %s: index entry out of bounds", seg.path)
		}
		loc := objLoc{seg: segIdx, domain: e[hashutil.DigestSize], off: off, length: int32(n)}
		if _, dup := s.index[d]; !dup {
			s.index[d] = loc
		}
	}
	return true, nil
}

// scanSegment walks records from the front, CRC-checking each frame. A
// bad frame in the final segment is a torn tail and is truncated away; in
// any earlier segment it is unrecoverable corruption.
func (s *Disk) scanSegment(seg *segment, segIdx int, last bool) (int64, error) {
	pos := int64(segHeaderSize)
	var hdr [recHeaderSize]byte
	torn := func() (int64, error) {
		if !last {
			return 0, fmt.Errorf("cas: segment %s: corrupt record at offset %d", seg.path, pos)
		}
		if err := seg.f.Truncate(pos); err != nil {
			return 0, fmt.Errorf("cas: truncate torn tail: %w", err)
		}
		return pos, nil
	}
	for pos < seg.size {
		if seg.size-pos < recHeaderSize {
			return torn()
		}
		if _, err := seg.f.ReadAt(hdr[:], pos); err != nil {
			return 0, fmt.Errorf("cas: segment %s: %w", seg.path, err)
		}
		n := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if n > maxObjectBytes || pos+recHeaderSize+n > seg.size {
			return torn()
		}
		payload := make([]byte, n)
		if _, err := seg.f.ReadAt(payload, pos+recHeaderSize); err != nil {
			return 0, fmt.Errorf("cas: segment %s: %w", seg.path, err)
		}
		crc := crc32.Checksum(hdr[:recHeaderSize-4], diskCRCTable)
		crc = crc32.Update(crc, diskCRCTable, payload)
		if crc != binary.BigEndian.Uint32(hdr[recHeaderSize-4:]) {
			return torn()
		}
		var d hashutil.Digest
		copy(d[:], hdr[5:5+hashutil.DigestSize])
		loc := objLoc{seg: segIdx, off: pos, length: int32(n), domain: hdr[4]}
		if _, dup := s.index[d]; !dup {
			s.index[d] = loc
		}
		seg.entries = append(seg.entries, footerEntry{d: d, domain: hdr[4], off: pos, length: int32(n)})
		pos += recHeaderSize + n
	}
	return pos, nil
}

func resetSegment(f *os.File) error {
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("cas: reset segment: %w", err)
	}
	if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
		return fmt.Errorf("cas: reset segment: %w", err)
	}
	return nil
}

// addSegmentLocked creates the next segment file and makes it active.
func (s *Disk) addSegmentLocked() error {
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%08d.spz", len(s.segs)))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("cas: create segment: %w", err)
	}
	if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
		f.Close()
		return fmt.Errorf("cas: create segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("cas: create segment: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.segs = append(s.segs, &segment{f: f, path: path, size: segHeaderSize})
	return nil
}

func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("cas: sync dir: %w", err)
	}
	defer df.Close()
	if err := df.Sync(); err != nil {
		return fmt.Errorf("cas: sync dir: %w", err)
	}
	return nil
}

// Put implements Store. The object lands in the dirty write-back set; it
// reaches disk at the next spill or Flush. Put itself cannot fail — an
// earlier I/O error is surfaced by Err and by the next Flush (fail-stop),
// and dirty data is retained in memory regardless.
func (s *Disk) Put(domain byte, data []byte) hashutil.Digest {
	return s.put(domain, data, false)
}

// PutOwned implements Store: the buffer itself joins the dirty set and,
// once written, the clean cache.
func (s *Disk) PutOwned(domain byte, data []byte) hashutil.Digest {
	return s.put(domain, data, true)
}

// put buffers data — itself when owned, else a copy, made only once the
// object is known to be new.
func (s *Disk) put(domain byte, data []byte, owned bool) hashutil.Digest {
	d := Address(domain, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.LogicalBytes += int64(len(data))
	domainCounter(&domWriteCounters, "written", domain).Add(uint64(len(data)))
	if _, ok := s.dirty[d]; ok {
		s.stats.DedupHits++
		return d
	}
	if _, ok := s.index[d]; ok {
		s.stats.DedupHits++
		return d
	}
	if !owned {
		data = bytes.Clone(data)
	}
	s.dirty[d] = &entry{d: d, domain: domain, body: data}
	s.dirtySeq = append(s.dirtySeq, d)
	s.addDirtyBytes(int64(len(data)))
	s.stats.Objects++
	s.stats.PhysicalBytes += int64(len(data))
	if s.dirtyB > s.spillMax && s.err == nil {
		if err := s.writeDirtyLocked(); err == nil {
			s.cstats.Spills++
			mStoreSpills.Inc()
		}
	}
	s.evictLocked()
	return d
}

// Get implements Store: dirty set, then clean cache, then disk. A disk
// read takes the whole record in one read and checks its CRC, a header
// naming d, the indexed length and domain, and the payload against d's
// address (for a leaf, its table); a mismatch is ErrCorrupt.
func (s *Disk) Get(d hashutil.Digest) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.dirty[d]; ok {
		s.hit()
		return o.body, nil
	}
	if el, ok := s.clean[d]; ok {
		s.hit()
		s.lru.MoveToFront(el)
		return el.Value.(*entry).body, nil
	}
	loc, ok := s.index[d]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, d.Short())
	}
	s.cstats.Misses++
	mStoreMisses.Inc()
	if loc.domain == hashutil.DomainPOSLeaf {
		s.cstats.LeafMisses++
		mStoreLeafMisses.Inc()
	}
	rec := make([]byte, recHeaderSize+int(loc.length))
	if _, err := s.segs[loc.seg].f.ReadAt(rec, loc.off); err != nil {
		mStoreErrors.Inc()
		return nil, fmt.Errorf("cas: read %s: %w", d.Short(), err)
	}
	hdr, payload := rec[:recHeaderSize], rec[recHeaderSize:]
	crc := crc32.Checksum(hdr[:recHeaderSize-4], diskCRCTable)
	if crc32.Update(crc, diskCRCTable, payload) != binary.BigEndian.Uint32(hdr[recHeaderSize-4:]) ||
		binary.BigEndian.Uint32(hdr[0:4]) != uint32(loc.length) || hdr[4] != loc.domain ||
		hashutil.Digest(hdr[5:]) != d || Address(loc.domain, payload) != d {
		mStoreErrors.Inc()
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, d.Short())
	}
	e := &entry{d: d, domain: loc.domain, body: payload}
	if loc.domain == hashutil.DomainPOSLeaf {
		if l, err := posleaf.Parse(payload); err == nil {
			_, k := posleaf.Groups(0, l.Count-1)
			e.unchecked = make([]bool, k)
			for g := range e.unchecked {
				e.unchecked[g] = true
			}
		}
	}
	domainCounter(&domReadCounters, "read", loc.domain).Add(uint64(len(payload)))
	s.putCleanLocked(e)
	s.evictLocked()
	return payload, nil
}

// CheckGroups implements Store. Of a body the store holds, only unchecked
// groups are hashed (see entry), once; a body it no longer holds —
// evicted since Get returned it, or a copy — is hashed every time.
func (s *Disk) CheckGroups(d hashutil.Digest, body []byte, lo, hi int) error {
	from, to := posleaf.Groups(lo, hi)
	s.mu.Lock()
	e := s.heldLocked(d, body)
	if e != nil {
		to = min(to, len(e.unchecked))
		for from < to && !e.unchecked[from] {
			from++
		}
		for to > from && !e.unchecked[to-1] {
			to--
		}
	}
	s.mu.Unlock()
	if from >= to {
		return nil
	}
	err := checkGroups(d, body, from, to)
	mStoreGroupsChecked.Add(uint64(to - from))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cstats.GroupsChecked += int64(to - from)
	if err != nil {
		mStoreErrors.Inc()
		return err
	}
	if e != nil {
		for g := from; g < to; g++ {
			e.unchecked[g] = false
		}
	}
	return nil
}

// CopiedGroups implements CopyTracker: groups copied from unchecked groups
// of src, or from a body the store no longer holds, are unchecked in d.
func (s *Disk) CopiedGroups(d hashutil.Digest, body []byte, at int, src hashutil.Digest, srcBody []byte, pos, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.heldLocked(d, body)
	if e == nil {
		return // the store kept another body under d, vouched for or not on its own
	}
	se := s.heldLocked(src, srcBody)
	from, to := posleaf.Groups(pos, pos+n-1)
	first, _ := posleaf.Groups(at, at)
	for g := from; g < to; g++ {
		if se != nil && (g >= len(se.unchecked) || !se.unchecked[g]) {
			continue
		}
		dg := first + g - from
		if len(e.unchecked) <= dg {
			e.unchecked = append(e.unchecked, make([]bool, dg+1-len(e.unchecked))...)
		}
		e.unchecked[dg] = true
	}
}

// heldLocked returns the entry that holds body, which Get returned for d,
// or nil when the store no longer holds that very body.
func (s *Disk) heldLocked(d hashutil.Digest, body []byte) *entry {
	if e := s.dirty[d]; e != nil && sameBytes(e.body, body) {
		return e
	}
	if el, ok := s.clean[d]; ok {
		if e := el.Value.(*entry); sameBytes(e.body, body) {
			return e
		}
	}
	return nil
}

// sameBytes reports whether a and b are one slice, not equal copies.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func (s *Disk) hit() {
	s.cstats.Hits++
	mStoreHits.Inc()
}

// Has implements Store.
func (s *Disk) Has(d hashutil.Digest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.dirty[d]; ok {
		return true
	}
	_, ok := s.index[d]
	return ok
}

// Domain implements DomainResolver.
func (s *Disk) Domain(d hashutil.Digest) (byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.dirty[d]; ok {
		return o.domain, true
	}
	if loc, ok := s.index[d]; ok {
		return loc.domain, true
	}
	return 0, false
}

// Stats implements Store.
func (s *Disk) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CacheStats returns body-cache counters for this store.
func (s *Disk) CacheStats() DiskCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.cstats
	cs.CleanBytes = s.cleanB
	cs.DirtyBytes = s.dirtyB
	return cs
}

// Err returns the sticky I/O error, if any. Once set, the store is
// fail-stop: Flush and Close return it, and callers (the durable
// manager) must refuse further checkpoints.
func (s *Disk) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Disk) putCleanLocked(e *entry) {
	if _, ok := s.clean[e.d]; ok {
		return
	}
	s.clean[e.d] = s.lru.PushFront(e)
	s.addCleanBytes(int64(len(e.body)))
}

// evictLocked drops least-recently-used clean bodies until the cache fits
// its budget. Dirty bodies are never evicted — they are the write-back
// set and leave the cache only through a spill or Flush.
func (s *Disk) evictLocked() {
	for s.cleanB+s.dirtyB > s.cacheMax {
		el := s.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.clean, e.d)
		s.addCleanBytes(-int64(len(e.body)))
		s.cstats.Evictions++
		mStoreEvicts.Inc()
	}
}

func (s *Disk) addDirtyBytes(n int64) {
	s.dirtyB += n
	mStoreDirtyBytes.Add(n)
	mStoreCacheBytes.Add(n)
}

func (s *Disk) addCleanBytes(n int64) {
	s.cleanB += n
	mStoreCacheBytes.Add(n)
}

// writeDirtyLocked appends every dirty object to the active segment (in
// Put order), moves the bodies to the clean cache, and rotates segments
// as they fill. It does NOT fsync — a spill leaves records written but
// not yet durable; Flush adds the fsync. On error the store goes
// fail-stop (s.err is set) and the remaining dirty set stays in memory.
func (s *Disk) writeDirtyLocked() error {
	if s.err != nil {
		return s.err
	}
	if len(s.dirtySeq) == 0 {
		return nil
	}
	fail := func(err error) error {
		s.err = err
		mStoreErrors.Inc()
		return err
	}
	var written int64
	flushBuf := func() error {
		if len(s.wbuf) == 0 {
			return nil
		}
		act := s.segs[len(s.segs)-1]
		if _, err := act.f.WriteAt(s.wbuf, act.size); err != nil {
			return fail(fmt.Errorf("cas: append segment: %w", err))
		}
		// Spills pile up between checkpoints; get the disk going on them
		// now, so that Flush's fsync — and every WAL fsync queued behind
		// it in the device — waits for the tail, not for all of them.
		startWriteback(act.f, act.size, int64(len(s.wbuf)))
		act.size += int64(len(s.wbuf))
		s.wbuf = s.wbuf[:0]
		return nil
	}
	flushed := 0
	for _, d := range s.dirtySeq {
		o, ok := s.dirty[d]
		if !ok {
			continue // duplicate entry already flushed
		}
		act := s.segs[len(s.segs)-1]
		off := act.size + int64(len(s.wbuf))
		s.wbuf = appendRecord(s.wbuf, d, o.domain, o.body)
		act.entries = append(act.entries, footerEntry{d: d, domain: o.domain, off: off, length: int32(len(o.body))})
		s.index[d] = objLoc{seg: len(s.segs) - 1, off: off, length: int32(len(o.body)), domain: o.domain}
		delete(s.dirty, d)
		s.addDirtyBytes(-int64(len(o.body)))
		s.putCleanLocked(o)
		written += int64(len(o.body))
		flushed++
		if off+recHeaderSize+int64(len(o.body)) >= s.segMax {
			if err := flushBuf(); err != nil {
				return err
			}
			if err := s.sealActiveLocked(); err != nil {
				return fail(err)
			}
			if err := s.addSegmentLocked(); err != nil {
				return fail(err)
			}
		}
		if len(s.wbuf) >= 1<<20 {
			if err := flushBuf(); err != nil {
				return err
			}
		}
	}
	if err := flushBuf(); err != nil {
		return err
	}
	s.dirtySeq = s.dirtySeq[:0]
	s.cstats.FlushedObjects += int64(flushed)
	mStoreFlushedObj.Add(uint64(flushed))
	return nil
}

func appendRecord(buf []byte, d hashutil.Digest, domain byte, body []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, domain)
	buf = append(buf, d[:]...)
	crc := crc32.Checksum(buf[start:], diskCRCTable)
	crc = crc32.Update(crc, diskCRCTable, body)
	buf = binary.BigEndian.AppendUint32(buf, crc)
	return append(buf, body...)
}

// sealActiveLocked fsyncs the active segment and appends its index
// footer, so future opens index it without reading record bodies.
func (s *Disk) sealActiveLocked() error {
	act := s.segs[len(s.segs)-1]
	if err := act.f.Sync(); err != nil {
		return fmt.Errorf("cas: seal segment: %w", err)
	}
	blk := make([]byte, 0, len(act.entries)*footerEntrySize+footerTrailerSize)
	for _, e := range act.entries {
		blk = append(blk, e.d[:]...)
		blk = append(blk, e.domain)
		blk = binary.BigEndian.AppendUint64(blk, uint64(e.off))
		blk = binary.BigEndian.AppendUint32(blk, uint32(e.length))
	}
	crc := crc32.Checksum(blk, diskCRCTable)
	blk = binary.BigEndian.AppendUint32(blk, uint32(len(act.entries)))
	blk = binary.BigEndian.AppendUint32(blk, uint32(len(act.entries)*footerEntrySize))
	blk = binary.BigEndian.AppendUint32(blk, crc)
	blk = append(blk, idxMagic...)
	if _, err := act.f.WriteAt(blk, act.size); err != nil {
		return fmt.Errorf("cas: seal segment: %w", err)
	}
	act.size += int64(len(blk))
	if err := act.f.Sync(); err != nil {
		return fmt.Errorf("cas: seal segment: %w", err)
	}
	act.sealed = true
	act.entries = nil
	return nil
}

// Flush writes the dirty set to the active segment and fsyncs it: after
// Flush returns nil, every object Put before the call is durable. This is
// the persistence point an incremental checkpoint builds on — only bytes
// dirtied since the previous Flush are written, not the whole store.
//
// The writes happen under mu, the fsync does not: a Put or spill racing
// the fsync appends behind the flushed records (durable or not, never in
// their place), and a spill that fills the segment seals it, which fsyncs
// it too. Segments rotated away before the fsync were sealed the same way.
func (s *Disk) Flush() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	return s.flush()
}

// flush is Flush for a caller that holds flushMu.
func (s *Disk) flush() error {
	s.mu.Lock()
	err := s.writeDirtyLocked()
	act := s.segs[len(s.segs)-1]
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if s.crashSync != nil {
		s.crashSync()
	}
	err = act.f.Sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("cas: flush: %w", err)
		}
		mStoreErrors.Inc()
		return s.err
	}
	s.cstats.Flushes++
	mStoreFlushes.Inc()
	return nil
}

// Close flushes and closes every segment file. The store must not be
// used afterwards.
func (s *Disk) Close() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	s.mu.Unlock()
	if closed {
		return s.Err()
	}
	ferr := s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr == nil {
		// Seal the active segment so the next open indexes it from its
		// footer instead of scanning record bodies — a clean close makes
		// the whole store O(index) to reopen. An empty active segment is
		// left unsealed (scanning it is free) to keep close/open cycles
		// from accreting footer-only files.
		if act := s.segs[len(s.segs)-1]; !act.sealed && act.size > segHeaderSize {
			ferr = s.sealActiveLocked()
		}
	}
	for _, sg := range s.segs {
		if err := sg.f.Close(); err != nil && ferr == nil {
			ferr = err
		}
	}
	// Return the process-wide gauges' share held by this store.
	mStoreDirtyBytes.Add(-s.dirtyB)
	mStoreCacheBytes.Add(-s.dirtyB - s.cleanB)
	return ferr
}
