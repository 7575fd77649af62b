package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/model"
)

// cfFilters names the column family of the filter store.
const cfFilters = "filters"

// FilterStore persists full filter definitions keyed by ID ("the full
// information of f is locally stored on the home nodes of all query terms
// in f", §III.B), each with the terms whose posting lists hold it — the
// local inverted list, which the home of term t builds for t alone, so
// matching a document retrieves exactly one list per forwarded term. A
// record's value is the filter's encoding followed by those terms, each a
// uvarint length and its bytes; a value that ends at the mode byte is a
// filter posted under nothing.
type FilterStore struct {
	cf *CF
}

// NewFilterStore opens the filter column family.
func NewFilterStore(s *Store) *FilterStore { return &FilterStore{cf: s.CF(cfFilters)} }

func filterKey(id model.FilterID) string {
	return string(binary.BigEndian.AppendUint64(nil, uint64(id)))
}

// Put stores filter f, posted under the terms in posted, as one record.
func (fs *FilterStore) Put(f model.Filter, posted []string) error {
	if err := f.Validate(); err != nil {
		return err
	}
	w := codec.NewWriter(32 + 16*(len(f.Terms)+len(posted)))
	f.EncodeTo(w)
	for _, t := range posted {
		w.String(t)
	}
	return fs.cf.Put(filterKey(f.ID), w.Bytes())
}

// Delete removes a filter definition and its posting terms.
func (fs *FilterStore) Delete(id model.FilterID) error {
	return fs.cf.Delete(filterKey(id))
}

// Each iterates all stored filters in ID order, each with the terms it is
// posted under; iteration stops when fn returns false.
func (fs *FilterStore) Each(fn func(f model.Filter, posted []string) bool) error {
	var decodeErr error
	err := fs.cf.Scan(func(key string, val []byte) bool {
		r := codec.NewReader(val)
		f, err := model.DecodeFilter(r)
		var posted []string
		for err == nil && r.Remaining() > 0 {
			var t string
			t, err = r.String()
			posted = append(posted, t)
		}
		if err != nil {
			decodeErr = fmt.Errorf("store: decode filter at key %x: %w", key, err)
			return false
		}
		return fn(f, posted)
	})
	return errors.Join(err, decodeErr)
}
