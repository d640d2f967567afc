package baseline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sort"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
)

// pageCapacity is the number of records per view page. Materialized views
// live in page-granular storage (as in the commercial service's
// storage-backed tables); every read decodes the page it touches and every
// dirtied page is re-serialized and written out at the next flush. This
// write amplification on random keys is the honest mechanism behind the
// baseline's slower writes in Figure 6(b).
const pageCapacity = 32

// viewRecord is one materialized row of an indexed view. Like the
// commercial service's views, a row carries the revision's full metadata:
// value, version, journal block address, and the revision hash.
type viewRecord struct {
	Key     []byte
	Value   []byte
	Version uint64
	Block   uint64          // journal block sequence holding the revision
	Index   uint32          // record index within the block
	Hash    hashutil.Digest // revision hash (per-record journal commitment)
}

// pagedView is a sorted, page-granular materialized view. Not safe for
// concurrent use; the DB serializes access.
type pagedView struct {
	pages []*page
}

type page struct {
	firstKey []byte
	raw      []byte       // serialized form (authoritative when clean)
	records  []viewRecord // decoded form (authoritative when dirty)
	dirty    bool
}

func newPagedView() *pagedView {
	return &pagedView{}
}

// locate returns the index of the page that should hold key.
func (v *pagedView) locate(key []byte) int {
	i := sort.Search(len(v.pages), func(i int) bool {
		return bytes.Compare(v.pages[i].firstKey, key) > 0
	})
	if i == 0 {
		return 0
	}
	return i - 1
}

// Get returns the record under key. Clean pages are decoded on access,
// modelling a storage-resident view.
func (v *pagedView) Get(key []byte) (viewRecord, bool, error) {
	if len(v.pages) == 0 {
		return viewRecord{}, false, nil
	}
	p := v.pages[v.locate(key)]
	records, err := p.decoded()
	if err != nil {
		return viewRecord{}, false, err
	}
	j := sort.Search(len(records), func(j int) bool {
		return bytes.Compare(records[j].Key, key) >= 0
	})
	if j < len(records) && bytes.Equal(records[j].Key, key) {
		return records[j], true, nil
	}
	return viewRecord{}, false, nil
}

// Scan visits records with start <= key < end in order.
func (v *pagedView) Scan(start, end []byte, fn func(viewRecord) bool) error {
	if len(v.pages) == 0 {
		return nil
	}
	for i := v.locate(start); i < len(v.pages); i++ {
		records, err := v.pages[i].decoded()
		if err != nil {
			return err
		}
		j := sort.Search(len(records), func(j int) bool {
			return bytes.Compare(records[j].Key, start) >= 0
		})
		for ; j < len(records); j++ {
			if end != nil && bytes.Compare(records[j].Key, end) >= 0 {
				return nil
			}
			if !fn(records[j]) {
				return nil
			}
		}
	}
	return nil
}

// Put upserts a record, dirtying (and if needed splitting) its page.
func (v *pagedView) Put(rec viewRecord) error {
	if len(v.pages) == 0 {
		v.pages = []*page{{firstKey: rec.Key, records: []viewRecord{rec}, dirty: true}}
		return nil
	}
	pi := v.locate(rec.Key)
	p := v.pages[pi]
	records, err := p.decoded()
	if err != nil {
		return err
	}
	p.records = records
	p.dirty = true
	p.raw = nil
	j := sort.Search(len(p.records), func(j int) bool {
		return bytes.Compare(p.records[j].Key, rec.Key) >= 0
	})
	switch {
	case j < len(p.records) && bytes.Equal(p.records[j].Key, rec.Key):
		p.records[j] = rec
	default:
		p.records = append(p.records, viewRecord{})
		copy(p.records[j+1:], p.records[j:])
		p.records[j] = rec
	}
	if len(p.records) > pageCapacity {
		v.split(pi)
	}
	return nil
}

// split divides an overfull page in two.
func (v *pagedView) split(pi int) {
	p := v.pages[pi]
	mid := len(p.records) / 2
	right := &page{
		firstKey: append([]byte(nil), p.records[mid].Key...),
		records:  append([]viewRecord(nil), p.records[mid:]...),
		dirty:    true,
	}
	p.records = p.records[:mid:mid]
	v.pages = append(v.pages, nil)
	copy(v.pages[pi+2:], v.pages[pi+1:])
	v.pages[pi+1] = right
}

// Flush serializes every dirty page into the object store (the view's
// backing storage) and returns the number of bytes written.
func (v *pagedView) Flush(store cas.Store) (int64, error) {
	var written int64
	for _, p := range v.pages {
		if !p.dirty {
			continue
		}
		p.raw = encodePage(p.records)
		store.Put(hashutil.DomainJournal, p.raw)
		written += int64(len(p.raw))
		p.records = nil // storage-resident again: decode on next access
		p.dirty = false
	}
	return written, nil
}

// decoded returns the page's records, decoding the serialized form for
// clean pages.
func (p *page) decoded() ([]viewRecord, error) {
	if p.dirty || p.records != nil {
		return p.records, nil
	}
	return decodePage(p.raw)
}

func encodePage(records []viewRecord) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(records)))
	for _, r := range records {
		buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
		buf = append(buf, r.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(r.Value)))
		buf = append(buf, r.Value...)
		buf = binary.AppendUvarint(buf, r.Version)
		buf = binary.AppendUvarint(buf, r.Block)
		buf = binary.AppendUvarint(buf, uint64(r.Index))
		buf = append(buf, r.Hash[:]...)
	}
	return buf
}

func decodePage(data []byte) ([]viewRecord, error) {
	cnt, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, errors.New("baseline: bad page count")
	}
	rest := data[k:]
	out := make([]viewRecord, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		var r viewRecord
		kl, k1 := binary.Uvarint(rest)
		if k1 <= 0 || uint64(len(rest)-k1) < kl {
			return nil, errors.New("baseline: bad page key")
		}
		r.Key = rest[k1 : k1+int(kl)]
		rest = rest[k1+int(kl):]
		vl, k2 := binary.Uvarint(rest)
		if k2 <= 0 || uint64(len(rest)-k2) < vl {
			return nil, errors.New("baseline: bad page value")
		}
		r.Value = rest[k2 : k2+int(vl)]
		rest = rest[k2+int(vl):]
		var k3 int
		r.Version, k3 = binary.Uvarint(rest)
		if k3 <= 0 {
			return nil, errors.New("baseline: bad page version")
		}
		rest = rest[k3:]
		r.Block, k3 = binary.Uvarint(rest)
		if k3 <= 0 {
			return nil, errors.New("baseline: bad page block")
		}
		rest = rest[k3:]
		idx, k4 := binary.Uvarint(rest)
		if k4 <= 0 {
			return nil, errors.New("baseline: bad page index")
		}
		r.Index = uint32(idx)
		rest = rest[k4:]
		if len(rest) < hashutil.DigestSize {
			return nil, errors.New("baseline: bad page hash")
		}
		copy(r.Hash[:], rest[:hashutil.DigestSize])
		rest = rest[hashutil.DigestSize:]
		out = append(out, r)
	}
	return out, nil
}
