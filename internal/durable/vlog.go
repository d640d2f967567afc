package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"spitz/internal/hashutil"
	"spitz/internal/ledger"
)

// The VLOG persists the ledger's demoted-version index for disk-store
// databases. The cell tree only holds head versions; superseded versions
// live as out-of-band CAS objects that nothing reachable from the head
// root references, so a root-addressed reopen would lose GetAsOf/History
// without this sidecar. Each checkpoint appends the demotions since the
// previous one as a single CRC-framed record:
//
//	frame   := len u32 LE | crc u32 LE | payload      (crc is CRC-32C of payload)
//	payload := count uvarint | entry*
//	entry   := refLen uvarint | ref | version uvarint | object [32]byte
//
// Recovery reads every frame. Only the final frame — one whose header is
// short or whose claimed extent reaches the end of the file — can be torn
// by a crash mid-append, and it is truncated; damage in any frame before
// it is a hard error that leaves the file as it was. Entries may duplicate
// demotions that the WAL tail will replay — the ledger's version index
// deduplicates on insert — so the append-then-manifest ordering is safe
// under a crash at any point.
type vlog struct {
	path string
	f    *os.File
}

const (
	maxVLogFrame = 1 << 28
	// minVLogEntry is the smallest entry: an empty ref (one length byte),
	// a one-byte version and the object digest.
	minVLogEntry = 2 + hashutil.DigestSize
)

var vlogCRCTable = crc32.MakeTable(crc32.Castagnoli)

// openVLog loads every persisted entry and returns an appender
// positioned after the last whole frame.
func openVLog(path string) (*vlog, []ledger.VersionEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("durable: read vlog: %w", err)
	}
	var entries []ledger.VersionEntry
	pos := 0
	for pos+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		crc := binary.LittleEndian.Uint32(data[pos+4:])
		if pos+8+n > len(data) {
			break // torn tail
		}
		payload := data[pos+8 : pos+8+n]
		if n > maxVLogFrame || crc32.Checksum(payload, vlogCRCTable) != crc {
			if pos+8+n == len(data) {
				break // torn tail
			}
			return nil, nil, fmt.Errorf("durable: vlog frame at %d of %d bytes is damaged and not the final frame", pos, len(data))
		}
		dec, err := decodeVLogFrame(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: vlog frame at %d: %w", pos, err)
		}
		entries = append(entries, dec...)
		pos += 8 + n
	}
	if pos < len(data) {
		// A torn final frame is the crash-mid-append signature; everything
		// before it is intact.
		if err := os.Truncate(path, int64(pos)); err != nil {
			return nil, nil, fmt.Errorf("durable: truncate torn vlog: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: open vlog: %w", err)
	}
	return &vlog{path: path, f: f}, entries, nil
}

func decodeVLogFrame(payload []byte) ([]ledger.VersionEntry, error) {
	count, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, fmt.Errorf("bad entry count")
	}
	rest := payload[k:]
	// The count is read from disk: bound it by what the frame can hold
	// before allocating for it.
	if count > uint64(len(rest)/minVLogEntry) {
		return nil, fmt.Errorf("entry count %d exceeds what %d bytes hold", count, len(rest))
	}
	out := make([]ledger.VersionEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		refLen, k1 := binary.Uvarint(rest)
		if k1 <= 0 || uint64(len(rest)-k1) < refLen {
			return nil, fmt.Errorf("bad ref length")
		}
		ref := append([]byte(nil), rest[k1:k1+int(refLen)]...)
		rest = rest[k1+int(refLen):]
		version, k2 := binary.Uvarint(rest)
		if k2 <= 0 || len(rest)-k2 < hashutil.DigestSize {
			return nil, fmt.Errorf("bad version entry")
		}
		var obj hashutil.Digest
		copy(obj[:], rest[k2:])
		rest = rest[k2+hashutil.DigestSize:]
		out = append(out, ledger.VersionEntry{Ref: ref, Version: version, Object: obj})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("trailing frame bytes")
	}
	return out, nil
}

// append durably writes one frame carrying the given entries (no-op for
// an empty batch). The fsync here is what lets the checkpoint manifest
// assume the version index is on disk.
func (v *vlog) append(entries []ledger.VersionEntry) error {
	if len(entries) == 0 {
		return nil
	}
	var payload []byte
	payload = binary.AppendUvarint(payload, uint64(len(entries)))
	for _, e := range entries {
		payload = binary.AppendUvarint(payload, uint64(len(e.Ref)))
		payload = append(payload, e.Ref...)
		payload = binary.AppendUvarint(payload, e.Version)
		payload = append(payload, e.Object[:]...)
	}
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, vlogCRCTable))
	frame = append(frame, payload...)
	if _, err := v.f.Write(frame); err != nil {
		return fmt.Errorf("durable: append vlog: %w", err)
	}
	if err := v.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync vlog: %w", err)
	}
	return nil
}

func (v *vlog) Close() error { return v.f.Close() }
