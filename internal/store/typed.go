package store

import (
	"encoding/binary"
	"fmt"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/model"
)

// Column family names of the two §V data stores kept here.
const (
	cfFilters  = "filters"
	cfPostings = "postings"
)

// FilterStore persists full filter definitions keyed by ID ("the full
// information of f is locally stored on the home nodes of all query terms
// in f", §III.B).
type FilterStore struct {
	cf *CF
}

// NewFilterStore opens the filter column family.
func NewFilterStore(s *Store) (*FilterStore, error) {
	cf, err := s.CF(cfFilters)
	if err != nil {
		return nil, err
	}
	return &FilterStore{cf: cf}, nil
}

func filterKey(id model.FilterID) string {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(id))
	return string(buf[:])
}

// Put stores a filter definition.
func (fs *FilterStore) Put(f model.Filter) error {
	if err := f.Validate(); err != nil {
		return err
	}
	return fs.cf.Put(filterKey(f.ID), f.Encode())
}

// Delete removes a filter definition.
func (fs *FilterStore) Delete(id model.FilterID) error {
	return fs.cf.Delete(filterKey(id))
}

// Each iterates all stored filters; iteration stops when fn returns false.
func (fs *FilterStore) Each(fn func(model.Filter) bool) error {
	var decodeErr error
	err := fs.cf.Scan("", func(key string, val []byte, _ [][]byte) bool {
		f, err := model.DecodeFilter(codec.NewReader(val))
		if err != nil {
			decodeErr = fmt.Errorf("store: decode filter at key %x: %w", key, err)
			return false
		}
		return fn(f)
	})
	if err != nil {
		return err
	}
	return decodeErr
}

// PostingStore is the local inverted list: term → posting list of filter
// IDs. The crucial property (§III.B) is that the home node of term t builds
// a posting list only for t, so matching a document retrieves exactly one
// list per forwarded term.
type PostingStore struct {
	cf *CF
}

// NewPostingStore opens the posting column family.
func NewPostingStore(s *Store) (*PostingStore, error) {
	cf, err := s.CF(cfPostings)
	if err != nil {
		return nil, err
	}
	return &PostingStore{cf: cf}, nil
}

// Add appends filter id to term's posting list.
func (ps *PostingStore) Add(term string, id model.FilterID) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(id))
	return ps.cf.Append(term, buf[:n])
}

// Each iterates the posting lists in term order, each deduplicated and in
// insertion order (oldest first); iteration stops when fn returns false.
func (ps *PostingStore) Each(fn func(term string, ids []model.FilterID) bool) error {
	var decodeErr error
	seen := make(map[model.FilterID]struct{})
	err := ps.cf.Scan("", func(term string, _ []byte, ops [][]byte) bool {
		clear(seen)
		ids := make([]model.FilterID, 0, len(ops))
		for _, op := range ops {
			v, n := binary.Uvarint(op)
			if n <= 0 {
				decodeErr = fmt.Errorf("store: corrupt posting entry for %q", term)
				return false
			}
			id := model.FilterID(v)
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				ids = append(ids, id)
			}
		}
		return fn(term, ids)
	})
	if err != nil {
		return err
	}
	return decodeErr
}
