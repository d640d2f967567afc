package durable

import (
	"encoding/binary"
	"errors"
	"fmt"

	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/hashutil"
)

// WAL record codec. One record is one committed block — enough to
// re-execute the commit deterministically on recovery (see FORMAT.md).
//
// A record starts with a format tag: a uvarint with bit 62 set and the
// format number in the low bits. The untagged v1 records of builds before
// group commit began with the block height, a value far below the tag; no
// directory this build opens can hold one, and a v1 frame is refused by
// name, never parsed.
//
// v2 layout:
//
//	tag       uvarint   formatTagBase | 2
//	height    uvarint
//	version   uvarint   block version (highest txn version in the batch)
//	blockHash 32 bytes
//	ntxns     uvarint
//	ntxns ×:
//	  txnID     uvarint
//	  version   uvarint  this transaction's commit version
//	  statement uvarint length || bytes
//	  ncells    uvarint
//	  ncells ×: table || column || pk || value (each uvarint length ||
//	            bytes), then one flags byte (bit 0: tombstone)

const (
	// formatTagBase marks a versioned record; the low bits carry the
	// format number.
	formatTagBase  = uint64(1) << 62
	recordFormatV2 = 2
)

// EncodeRecord frames one committed block in the current (v2) record
// format. Replication ships these frames verbatim, so primary and
// replica logs stay bit-compatible.
func EncodeRecord(rec core.CommitRecord) []byte {
	n := 8 * 4
	n += hashutil.DigestSize
	for t := range rec.Txns {
		tx := &rec.Txns[t]
		n += 8*3 + len(tx.Statement)
		for i := range tx.Cells {
			c := &tx.Cells[i]
			n += len(c.Table) + len(c.Column) + len(c.PK) + len(c.Value) + 4*4 + 1
		}
	}
	buf := make([]byte, 0, n)
	buf = binary.AppendUvarint(buf, formatTagBase|recordFormatV2)
	buf = binary.AppendUvarint(buf, rec.Height)
	buf = binary.AppendUvarint(buf, rec.Version)
	buf = append(buf, rec.BlockHash[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Txns)))
	for t := range rec.Txns {
		tx := &rec.Txns[t]
		buf = binary.AppendUvarint(buf, tx.ID)
		buf = binary.AppendUvarint(buf, tx.Version)
		buf = appendBytes(buf, []byte(tx.Statement))
		buf = binary.AppendUvarint(buf, uint64(len(tx.Cells)))
		for i := range tx.Cells {
			c := &tx.Cells[i]
			buf = appendBytes(buf, []byte(c.Table))
			buf = appendBytes(buf, []byte(c.Column))
			buf = appendBytes(buf, c.PK)
			buf = appendBytes(buf, c.Value)
			var flags byte
			if c.Tombstone {
				flags |= 1
			}
			buf = append(buf, flags)
		}
	}
	return buf
}

// recordBody checks a record's format tag and returns what follows it.
func recordBody(p []byte) ([]byte, error) {
	tag, rest, err := takeUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("durable: record prefix: %w", err)
	}
	if tag < formatTagBase {
		return nil, errors.New("durable: unsupported record format v1 (untagged, written before group commit); this build reads v2")
	}
	if format := tag &^ formatTagBase; format != recordFormatV2 {
		return nil, fmt.Errorf("durable: unsupported record format v%d; this build reads v2", format)
	}
	return rest, nil
}

// DecodeRecordHeight peeks a record's block height without decoding its
// body. Recovery uses it to skip records a checkpoint already covers —
// with large checkpointed tails this is the difference between O(1) and
// O(state) per skipped record.
func DecodeRecordHeight(p []byte) (uint64, error) {
	p, err := recordBody(p)
	if err != nil {
		return 0, err
	}
	height, _, err := takeUvarint(p)
	if err != nil {
		return 0, fmt.Errorf("durable: record height: %w", err)
	}
	return height, nil
}

// DecodeRecord parses a WAL record. Recovery and replica replay share it,
// so a follower can apply any frame its primary could.
func DecodeRecord(p []byte) (core.CommitRecord, error) {
	var rec core.CommitRecord
	p, err := recordBody(p)
	if err != nil {
		return rec, err
	}
	if rec.Height, p, err = takeUvarint(p); err != nil {
		return rec, fmt.Errorf("durable: record height: %w", err)
	}
	if rec.Version, p, err = takeUvarint(p); err != nil {
		return rec, fmt.Errorf("durable: record version: %w", err)
	}
	if len(p) < hashutil.DigestSize {
		return rec, errors.New("durable: record truncated at block hash")
	}
	copy(rec.BlockHash[:], p)
	p = p[hashutil.DigestSize:]
	ntxns, p, err := takeUvarint(p)
	if err != nil {
		return rec, fmt.Errorf("durable: record txn count: %w", err)
	}
	if ntxns == 0 {
		return rec, errors.New("durable: record with zero transactions")
	}
	if ntxns > uint64(len(p)) { // each txn costs at least one byte
		return rec, errors.New("durable: record txn count exceeds payload")
	}
	rec.Txns = make([]core.TxnCommit, ntxns)
	for t := range rec.Txns {
		tx := &rec.Txns[t]
		if tx.ID, p, err = takeUvarint(p); err != nil {
			return rec, fmt.Errorf("durable: txn %d id: %w", t, err)
		}
		if tx.Version, p, err = takeUvarint(p); err != nil {
			return rec, fmt.Errorf("durable: txn %d version: %w", t, err)
		}
		stmt, rest, err := takeBytes(p)
		if err != nil {
			return rec, fmt.Errorf("durable: txn %d statement: %w", t, err)
		}
		tx.Statement = string(stmt)
		p = rest
		if tx.Cells, p, err = decodeCells(p, tx.Version); err != nil {
			return rec, fmt.Errorf("durable: txn %d: %w", t, err)
		}
	}
	if len(p) != 0 {
		return rec, errors.New("durable: trailing record bytes")
	}
	return rec, nil
}

func decodeCells(p []byte, version uint64) ([]cellstore.Cell, []byte, error) {
	ncells, p, err := takeUvarint(p)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: record cell count: %w", err)
	}
	if ncells > uint64(len(p)) { // each cell costs at least one byte
		return nil, nil, errors.New("durable: record cell count exceeds payload")
	}
	cells := make([]cellstore.Cell, ncells)
	for i := range cells {
		c := &cells[i]
		var field []byte
		if field, p, err = takeBytes(p); err != nil {
			return nil, nil, fmt.Errorf("durable: cell %d table: %w", i, err)
		}
		c.Table = string(field)
		if field, p, err = takeBytes(p); err != nil {
			return nil, nil, fmt.Errorf("durable: cell %d column: %w", i, err)
		}
		c.Column = string(field)
		if c.PK, p, err = takeBytes(p); err != nil {
			return nil, nil, fmt.Errorf("durable: cell %d pk: %w", i, err)
		}
		if c.Value, p, err = takeBytes(p); err != nil {
			return nil, nil, fmt.Errorf("durable: cell %d value: %w", i, err)
		}
		if len(p) < 1 {
			return nil, nil, fmt.Errorf("durable: cell %d truncated at flags", i)
		}
		c.Tombstone = p[0]&1 != 0
		c.Version = version
		p = p[1:]
	}
	return cells, p, nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func takeUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errors.New("bad uvarint")
	}
	return v, p[n:], nil
}

func takeBytes(p []byte) ([]byte, []byte, error) {
	n, p, err := takeUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(p)) {
		return nil, nil, errors.New("length exceeds payload")
	}
	return p[:n], p[n:], nil
}
