// Package wal implements a segmented write-ahead log: an append-only
// sequence of CRC32C-framed records split across rotating segment files.
// It is the durability primitive under internal/durable — every committed
// ledger block is framed into the log before the commit is acknowledged,
// so a crash can lose at most the tail the configured sync policy allows.
//
// Concurrency follows the classic group-commit design: appends serialize
// only for the in-memory frame write; the expensive fsync is performed by
// one "leader" on behalf of every record appended before it started, so a
// burst of concurrent commits shares a single disk flush.
//
// On open the log scans itself forward and truncates at the first torn or
// corrupt frame of the final segment (an interrupted write), while
// corruption in any earlier segment — which cannot be produced by a crash,
// only by tampering or disk rot — is a hard error.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"spitz/internal/obs"
)

// WAL metrics, aggregated over every open log in the process. Append
// time covers frame encode + buffered write under the log lock; fsync
// time is the device sync a group-commit leader pays (followers ride it
// for free — fsyncs_total counts actual device syncs, not waiters);
// fsync_records is how many records each of those syncs made durable.
var (
	mWalAppends     = obs.Default.Counter("spitz_wal_appends_total")
	mWalAppendBytes = obs.Default.Counter("spitz_wal_append_bytes_total")
	mWalAppendNs    = obs.Default.Histogram("spitz_wal_append_ns")
	mWalFsyncs      = obs.Default.Counter("spitz_wal_fsyncs_total")
	mWalFsyncNs     = obs.Default.Histogram("spitz_wal_fsync_ns")
	mWalFsyncRecs   = obs.Default.Histogram("spitz_wal_fsync_records")
	mWalRotations   = obs.Default.Counter("spitz_wal_rotations_total")
)

// SyncPolicy controls when appends become durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs before acknowledging every append (group commit:
	// one fsync covers all appends queued behind the leader).
	SyncAlways SyncPolicy = iota
	// SyncInterval flushes to the OS on every append and fsyncs on a
	// background timer; a crash loses at most one interval of records.
	SyncInterval
	// SyncNever flushes to the OS on every append but never fsyncs;
	// durability is left entirely to the kernel's writeback.
	SyncNever
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParsePolicy parses the flag spelling of a sync policy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

// Options configures a Log.
type Options struct {
	// Policy selects when appends are made durable (default SyncAlways).
	Policy SyncPolicy
	// Interval is the background fsync period for SyncInterval
	// (default 50ms).
	Interval time.Duration
	// SegmentSize rotates to a new segment file once the current one
	// exceeds this many bytes (default 64 MiB).
	SegmentSize int64
}

const (
	frameHeader       = 8 // uint32 payload length + uint32 CRC32C
	defaultSegment    = 64 << 20
	defaultInterval   = 50 * time.Millisecond
	maxRecordSize     = 1 << 30
	maxKeptFrame      = 1 << 20 // largest frame buffer kept between appends
	segmentNameFormat = "%020d.wal"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC covers the length prefix as well as the payload, so a zeroed
// (preallocated but unwritten) region can never validate as an empty
// record.
func frameCRC(length uint32, payload []byte) uint32 {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], length)
	c := crc32.Update(0, castagnoli, hdr[:])
	return crc32.Update(c, castagnoli, payload)
}

// Sentinel errors.
var (
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrCorrupt is returned when a non-final segment contains a bad
	// frame — damage no crash can explain.
	ErrCorrupt = errors.New("wal: corrupt segment")
	// ErrPruned is returned by Follow when the requested sequence number
	// was pruned before the reader attached; the caller must bootstrap
	// from a snapshot instead of the log.
	ErrPruned = errors.New("wal: records pruned")
	// ErrStopped is returned by Reader.Next when its stop channel closes.
	ErrStopped = errors.New("wal: follow stopped")
)

type segment struct {
	start uint64 // sequence number of the segment's first record
	path  string
}

// Log is a segmented write-ahead log. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	// mu guards all mutable state below.
	mu       sync.Mutex
	f        *os.File
	segments []segment // ordered; last is the active segment
	segBytes int64     // bytes written to the active segment
	nextSeq  uint64    // sequence number of the next record
	appended uint64    // highest sequence number written to the OS
	synced   uint64    // highest sequence number known durable
	syncErr  error     // sticky fatal sync error
	closed   bool
	frame    []byte // AppendAsync's frame buffer, reused across appends

	// syncMu elects the group-commit leader: held across each fsync so
	// exactly one is in flight, and always acquired before mu.
	syncMu sync.Mutex

	// readers are the attached followers (Follow). Each one's next
	// undelivered sequence number is a floor below which PruneTo will not
	// delete segments, so an attached follower can never lose its place.
	readers map[*Reader]struct{}
	// tailc is closed and replaced whenever the shippable frontier
	// advances; blocked readers wait on it.
	tailc chan struct{}

	stop     chan struct{} // closes the interval syncer
	done     chan struct{}
	stopOnce sync.Once
}

// Open opens (creating if needed) the log in dir, scans it forward
// validating every frame, and truncates a torn tail in the final segment.
// The next Append continues the sequence after the last intact record.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegment
	}
	if opts.Interval <= 0 {
		opts.Interval = defaultInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1,
		readers: make(map[*Reader]struct{}), tailc: make(chan struct{})}
	if len(segs) > 0 {
		// Segments before the first were pruned by past checkpoints; the
		// sequence resumes at whatever the oldest survivor starts with.
		l.nextSeq = segs[0].start
	}
	for i, s := range segs {
		last := i == len(segs)-1
		count, goodBytes, err := scanSegment(s.path, last)
		if err != nil {
			return nil, err
		}
		if last {
			if err := os.Truncate(s.path, goodBytes); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			l.segBytes = goodBytes
		}
		if s.start != l.nextSeq {
			return nil, fmt.Errorf("%w: segment %s starts at %d, want %d",
				ErrCorrupt, filepath.Base(s.path), s.start, l.nextSeq)
		}
		l.nextSeq += uint64(count)
	}
	l.segments = segs
	l.appended = l.nextSeq - 1
	l.synced = l.appended
	if len(segs) == 0 {
		if err := l.createSegmentLocked(); err != nil {
			return nil, err
		}
	} else {
		f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.f = f
	}
	if opts.Policy == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var start uint64
		if _, err := fmt.Sscanf(e.Name(), segmentNameFormat, &start); err != nil {
			continue
		}
		segs = append(segs, segment{start: start, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// scanSegment validates path frame by frame. It returns the number of
// intact records and the byte offset just past the last one. A bad frame
// is tolerated (scan stops) only when last is true.
func scanSegment(path string, last bool) (count int, goodBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var hdr [frameHeader]byte
	var payload []byte
	for {
		_, err := io.ReadFull(f, hdr[:])
		if err == io.EOF {
			return count, goodBytes, nil // clean frame boundary
		}
		if err != nil { // short header: torn write
			if last {
				return count, goodBytes, nil
			}
			return 0, 0, fmt.Errorf("%w: %s: short frame header", ErrCorrupt, filepath.Base(path))
		}
		length := binary.LittleEndian.Uint32(hdr[:4])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if length > maxRecordSize {
			if last {
				return count, goodBytes, nil
			}
			return 0, 0, fmt.Errorf("%w: %s: absurd frame length %d", ErrCorrupt, filepath.Base(path), length)
		}
		if uint32(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			if last {
				return count, goodBytes, nil
			}
			return 0, 0, fmt.Errorf("%w: %s: short frame payload", ErrCorrupt, filepath.Base(path))
		}
		if frameCRC(length, payload) != crc {
			if last {
				return count, goodBytes, nil
			}
			return 0, 0, fmt.Errorf("%w: %s: frame checksum mismatch", ErrCorrupt, filepath.Base(path))
		}
		count++
		goodBytes += int64(frameHeader) + int64(length)
	}
}

// Append writes payload as one record and blocks until it is durable
// under the configured policy. It returns the record's sequence number.
func (l *Log) Append(payload []byte) (uint64, error) {
	seq, wait, err := l.AppendAsync(payload)
	if err != nil {
		return 0, err
	}
	return seq, wait()
}

// AppendAsync writes payload as one record without waiting for
// durability. The returned wait function blocks until the record is
// durable under the configured policy; callers may release their own
// locks before invoking it so that concurrent commits share one fsync.
func (l *Log) AppendAsync(payload []byte) (uint64, func() error, error) {
	if len(payload) > maxRecordSize {
		return 0, nil, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	appendStart := time.Now()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, nil, ErrClosed
	}
	// A prior write or fsync failure may have left a torn frame at the
	// tail; appending behind it would put acknowledged records where the
	// next recovery truncates. The error is sticky: the log is done.
	if err := l.syncErr; err != nil {
		l.mu.Unlock()
		return 0, nil, err
	}
	if l.segBytes >= l.opts.SegmentSize {
		l.mu.Unlock()
		if err := l.rotate(); err != nil {
			return 0, nil, err
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return 0, nil, ErrClosed
		}
	}
	seq := l.nextSeq
	// Header and payload go down in one write: one syscall under the lock,
	// and a crash cannot leave a header with no payload bytes behind it.
	l.frame = binary.LittleEndian.AppendUint32(l.frame[:0], uint32(len(payload)))
	l.frame = binary.LittleEndian.AppendUint32(l.frame, frameCRC(uint32(len(payload)), payload))
	l.frame = append(l.frame, payload...)
	_, err := l.f.Write(l.frame)
	if cap(l.frame) > maxKeptFrame {
		l.frame = nil // one huge record must not pin its size for good
	}
	if err != nil {
		l.syncErr = err
		l.mu.Unlock()
		return 0, nil, err
	}
	l.nextSeq++
	l.appended = seq
	l.segBytes += int64(frameHeader) + int64(len(payload))
	policy := l.opts.Policy
	l.broadcastLocked()
	l.mu.Unlock()
	mWalAppends.Inc()
	mWalAppendBytes.Add(uint64(frameHeader) + uint64(len(payload)))
	mWalAppendNs.ObserveSince(appendStart)

	if policy == SyncAlways {
		return seq, func() error { return l.syncTo(seq) }, nil
	}
	// SyncInterval/SyncNever acknowledge immediately, but a background
	// fsync failure must still reach the commit path: surface the sticky
	// error instead of silently acknowledging undurable commits forever.
	return seq, func() error {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.syncErr
	}, nil
}

// syncTo makes every record up to seq durable, electing one fsync leader
// for all concurrent waiters (group commit). The commit pipeline appends
// the next records while a sync is in flight, so one leader's fsync
// routinely covers several of them: a waiter whose record an earlier sync
// already covered returns without queueing behind the sync in flight.
func (l *Log) syncTo(seq uint64) error {
	l.mu.Lock()
	err, settled := l.syncErr, l.syncErr != nil || l.synced >= seq
	l.mu.Unlock()
	if settled {
		return err
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if err := l.syncErr; err != nil {
		l.mu.Unlock()
		return err
	}
	if l.synced >= seq {
		l.mu.Unlock()
		return nil // the previous leader's fsync covered this record
	}
	target := l.appended
	f := l.f
	l.mu.Unlock()
	fsyncStart := time.Now()
	err = f.Sync()
	mWalFsyncs.Inc()
	mWalFsyncNs.ObserveSince(fsyncStart)
	l.mu.Lock()
	if err != nil {
		l.syncErr = err
	} else if target > l.synced {
		mWalFsyncRecs.Observe(target - l.synced)
		l.synced = target
		l.broadcastLocked()
	}
	l.mu.Unlock()
	return err
}

// Sync flushes and fsyncs everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	seq := l.appended
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if seq == 0 {
		return nil
	}
	return l.syncTo(seq)
}

func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Sync() // sticky error resurfaces on the commit path
		case <-l.stop:
			return
		}
	}
}

// rotate seals the active segment (flush, fsync, close) and starts a new
// one named after the next sequence number. syncMu is taken first so no
// group-commit leader is fsyncing the file being swapped out.
func (l *Log) rotate() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.segBytes < l.opts.SegmentSize {
		return nil // another appender rotated first
	}
	if err := l.f.Sync(); err != nil {
		l.syncErr = err
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.synced = l.appended
	l.broadcastLocked()
	mWalRotations.Inc()
	return l.createSegmentLocked()
}

// broadcastLocked wakes every follower blocked at the tail. Caller holds
// mu.
func (l *Log) broadcastLocked() {
	close(l.tailc)
	l.tailc = make(chan struct{})
}

// shippableLocked is the highest sequence number followers may be given:
// under SyncAlways only durable records ship (a follower can never hold a
// record the primary may lose in a crash); under the weaker policies —
// where acknowledged commits can be lost anyway — appended records ship
// immediately. Caller holds mu.
func (l *Log) shippableLocked() uint64 {
	if l.opts.Policy == SyncAlways {
		return l.synced
	}
	return l.appended
}

// createSegmentLocked opens a fresh segment for nextSeq and fsyncs the
// directory so the file's existence is itself durable. Caller holds mu.
func (l *Log) createSegmentLocked() error {
	path := filepath.Join(l.dir, fmt.Sprintf(segmentNameFormat, l.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segments = append(l.segments, segment{start: l.nextSeq, path: path})
	l.segBytes = 0
	return nil
}

// NextSeq returns the sequence number the next Append will receive.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Replay streams every record in sequence order to fn. It reads the
// segment files directly and is intended for recovery, before the first
// Append; fn returning an error aborts the replay.
func (l *Log) Replay(fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()
	for i, s := range segs {
		if err := replaySegment(s, i == len(segs)-1, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(s segment, last bool, fn func(seq uint64, payload []byte) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	seq := s.start
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF || last {
				return nil
			}
			return fmt.Errorf("%w: %s: short frame header", ErrCorrupt, filepath.Base(s.path))
		}
		length := binary.LittleEndian.Uint32(hdr[:4])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if length > maxRecordSize {
			if last {
				return nil
			}
			return fmt.Errorf("%w: %s: absurd frame length", ErrCorrupt, filepath.Base(s.path))
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			if last {
				return nil
			}
			return fmt.Errorf("%w: %s: short frame payload", ErrCorrupt, filepath.Base(s.path))
		}
		if frameCRC(length, payload) != crc {
			if last {
				return nil
			}
			return fmt.Errorf("%w: %s: frame checksum mismatch", ErrCorrupt, filepath.Base(s.path))
		}
		if err := fn(seq, payload); err != nil {
			return err
		}
		seq++
	}
}

// PruneTo deletes whole segments every record of which has sequence
// number below keepSeq. The active segment is never deleted. Checkpoint
// logic calls this after a snapshot makes the prefix redundant.
func (l *Log) PruneTo(keepSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Attached followers hold the log: never prune a record a reader has
	// yet to deliver, or a mid-stream follower would be forced back to a
	// full snapshot transfer.
	for r := range l.readers {
		if r.next < keepSeq {
			keepSeq = r.next
		}
	}
	kept := l.segments[:0]
	var firstErr error
	for i, s := range l.segments {
		// A segment's records end where the next segment starts; only a
		// fully superseded, non-active segment may go.
		if i+1 < len(l.segments) && l.segments[i+1].start <= keepSeq {
			if err := os.Remove(s.path); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		kept = append(kept, s)
	}
	removed := len(l.segments) - len(kept)
	l.segments = append([]segment(nil), kept...)
	if firstErr != nil {
		return firstErr
	}
	if removed > 0 {
		return SyncDir(l.dir)
	}
	return nil
}

// Close flushes, fsyncs and closes the log. Appends after Close return
// ErrClosed.
func (l *Log) Close() error {
	if l.stop != nil {
		l.stopOnce.Do(func() {
			close(l.stop)
			<-l.done
		})
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	l.broadcastLocked() // wake followers so they observe the close
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// Followers: tail-follow readers with retention holds (replication).

// Info is a point-in-time summary of the log's retained span.
type Info struct {
	OldestSeq     uint64 // sequence number of the oldest retained record
	NextSeq       uint64 // sequence number the next Append will receive
	AppendedSeq   uint64 // highest sequence number written to the OS
	SyncedSeq     uint64 // highest sequence number known durable
	Segments      int    // retained segment files
	RetainedBytes int64  // bytes across retained segment files
}

// Info returns the log's retained span and durability frontier.
func (l *Log) Info() Info {
	l.mu.Lock()
	info := Info{
		OldestSeq:   l.segments[0].start,
		NextSeq:     l.nextSeq,
		AppendedSeq: l.appended,
		SyncedSeq:   l.synced,
		Segments:    len(l.segments),
	}
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()
	for _, s := range segs {
		if st, err := os.Stat(s.path); err == nil {
			info.RetainedBytes += st.Size()
		}
	}
	return info
}

// OldestSeq returns the sequence number of the oldest retained record
// (== NextSeq when the retained log is empty).
func (l *Log) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segments[0].start
}

// Follow returns a Reader that yields records in sequence order starting
// at from, blocking at the shippable frontier until more arrive. While
// the reader is open, PruneTo retains every record from the reader's
// position onward. Records pruned before Follow is called are gone for
// good: Follow reports ErrPruned and the caller must bootstrap from a
// snapshot. from may be at most NextSeq (following the future tail).
func (l *Log) Follow(from uint64) (*Reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if oldest := l.segments[0].start; from < oldest {
		return nil, fmt.Errorf("%w: follow from %d, oldest retained is %d", ErrPruned, from, oldest)
	}
	if from > l.nextSeq {
		return nil, fmt.Errorf("wal: follow from %d beyond next sequence %d", from, l.nextSeq)
	}
	r := &Reader{l: l, next: from, closed: make(chan struct{})}
	l.readers[r] = struct{}{}
	return r, nil
}

// Reader follows the log from a given sequence number (see Log.Follow).
// Next must be called from one goroutine at a time; Close may race it.
type Reader struct {
	l *Log
	// next is the next sequence number to deliver. Guarded by l.mu: it is
	// the reader's prune floor, read by PruneTo.
	next uint64
	// fmu guards the file position (f, segStart) against a Close racing
	// Next mid-read.
	fmu       sync.Mutex
	segStart  uint64 // start seq of the segment f reads from
	f         *os.File
	closed    chan struct{}
	closeOnce sync.Once
}

// Next returns the next record once it is shippable under the log's sync
// policy (durable under SyncAlways, appended otherwise), blocking until
// then. Closing stop returns ErrStopped; closing the reader or the log
// returns ErrClosed. A nil stop never fires.
func (r *Reader) Next(stop <-chan struct{}) (seq uint64, payload []byte, err error) {
	l := r.l
	for {
		l.mu.Lock()
		select {
		case <-r.closed:
			l.mu.Unlock()
			return 0, nil, ErrClosed
		default:
		}
		if l.closed {
			l.mu.Unlock()
			return 0, nil, ErrClosed
		}
		next := r.next
		if next <= l.shippableLocked() {
			// Locate the segment holding next: the last one starting at or
			// below it.
			idx := sort.Search(len(l.segments), func(i int) bool { return l.segments[i].start > next }) - 1
			seg := l.segments[idx]
			l.mu.Unlock()
			r.fmu.Lock()
			select {
			case <-r.closed:
				// A Close that won the race already released the file;
				// repositioning here would leak a fresh descriptor.
				r.fmu.Unlock()
				return 0, nil, ErrClosed
			default:
			}
			if r.f == nil || seg.start != r.segStart {
				if err := r.position(seg); err != nil {
					r.fmu.Unlock()
					return 0, nil, err
				}
			}
			payload, err := readFrame(r.f)
			r.fmu.Unlock()
			if err != nil {
				select {
				case <-r.closed:
					return 0, nil, ErrClosed
				default:
				}
				// Frames at or below the shippable frontier are fully
				// written and validated on the write path; failing to read
				// one back is damage, not a race.
				return 0, nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(seg.path), err)
			}
			l.mu.Lock()
			r.next = next + 1
			l.mu.Unlock()
			return next, payload, nil
		}
		ch := l.tailc
		l.mu.Unlock()
		select {
		case <-ch:
		case <-r.closed:
			return 0, nil, ErrClosed
		case <-stop:
			return 0, nil, ErrStopped
		}
	}
}

// position opens the segment and skips forward to the reader's next
// record (needed when attaching mid-segment or crossing a rotation).
// Caller holds r.fmu.
func (r *Reader) position(seg segment) error {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
	f, err := os.Open(seg.path)
	if err != nil {
		return err
	}
	for skip := r.next - seg.start; skip > 0; skip-- {
		if _, err := readFrame(f); err != nil {
			f.Close()
			return fmt.Errorf("%w: %s: skipping to %d: %v", ErrCorrupt, filepath.Base(seg.path), r.next, err)
		}
	}
	r.f = f
	r.segStart = seg.start
	return nil
}

// SkipTo advances the reader so the next delivered record has sequence
// number at least seq (a no-op when already past it), releasing the
// retention hold on everything below. Callers use it when a snapshot
// hand-off makes the log prefix redundant. Must not race Next; intended
// before streaming starts.
func (r *Reader) SkipTo(seq uint64) {
	r.l.mu.Lock()
	moved := seq > r.next
	if moved {
		r.next = seq
	}
	r.l.mu.Unlock()
	if moved {
		r.fmu.Lock()
		if r.f != nil {
			// Drop the position so the next read re-locates its segment.
			r.f.Close()
			r.f = nil
			r.segStart = 0
		}
		r.fmu.Unlock()
	}
}

// Close detaches the reader, releasing its retention hold.
func (r *Reader) Close() error {
	r.closeOnce.Do(func() {
		close(r.closed)
		r.l.mu.Lock()
		delete(r.l.readers, r)
		r.l.mu.Unlock()
		r.fmu.Lock()
		if r.f != nil {
			r.f.Close()
			r.f = nil
		}
		r.fmu.Unlock()
	})
	return nil
}

// readFrame reads and validates one frame at f's current offset.
func readFrame(f *os.File) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[:4])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if length > maxRecordSize {
		return nil, errors.New("absurd frame length")
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, err
	}
	if frameCRC(length, payload) != crc {
		return nil, errors.New("frame checksum mismatch")
	}
	return payload, nil
}

// SyncDir fsyncs a directory so metadata changes inside it (created,
// renamed or removed files) are durable. Shared by the log and by
// internal/durable's checkpoint machinery.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
