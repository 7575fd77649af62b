package store

import (
	"encoding/binary"
	"errors"
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
func NewFilterStore(s *Store) *FilterStore { return &FilterStore{cf: s.CF(cfFilters)} }

func filterKey(id model.FilterID) string {
	return string(binary.BigEndian.AppendUint64(nil, uint64(id)))
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
	return errors.Join(err, decodeErr)
}

// PostingStore is the local inverted list: term → posting list of filter
// IDs. The crucial property (§III.B) is that the home node of term t builds
// a posting list only for t, so matching a document retrieves exactly one
// list per forwarded term.
//
// A list is a run of operands, oldest first: an ID added (its uvarint) or
// removed (its uvarint and then removeMark). A rewrite of the log folds a
// list to the IDs it holds (foldPostings), so an ID that came and went
// leaves nothing behind once its operands have been through a rewrite.
type PostingStore struct {
	cf *CF
}

// removeMark follows the ID of a removal operand.
const removeMark = 0

// NewPostingStore opens the posting column family.
func NewPostingStore(s *Store) *PostingStore { return &PostingStore{cf: s.CF(cfPostings)} }

// Add appends filter id to term's posting list.
func (ps *PostingStore) Add(term string, id model.FilterID) error {
	var buf [binary.MaxVarintLen64]byte
	return ps.cf.Append(term, binary.AppendUvarint(buf[:0], uint64(id)))
}

// Remove takes filter id off term's posting list.
func (ps *PostingStore) Remove(term string, id model.FilterID) error {
	var buf [binary.MaxVarintLen64 + 1]byte
	return ps.cf.Append(term, append(binary.AppendUvarint(buf[:0], uint64(id)), removeMark))
}

// Each iterates the posting lists in term order, each the IDs it holds in
// the order they were added (oldest first); iteration stops when fn returns
// false.
func (ps *PostingStore) Each(fn func(term string, ids []model.FilterID) bool) error {
	var decodeErr error
	err := ps.cf.Scan("", func(term string, _ []byte, ops [][]byte) bool {
		ids, err := postingIDs(ops)
		if err != nil {
			decodeErr = fmt.Errorf("store: corrupt posting entry for %q", term)
			return false
		}
		return len(ids) == 0 || fn(term, ids)
	})
	return errors.Join(err, decodeErr)
}

// postingIDs replays a list's operands: the IDs held at the end, each where
// it was added since it was last removed.
func postingIDs(ops [][]byte) ([]model.FilterID, error) {
	added := make(map[model.FilterID]int, len(ops))
	order := make([]model.FilterID, 0, len(ops))
	for _, op := range ops {
		v, n := binary.Uvarint(op)
		if n <= 0 || len(op) > n+1 || (len(op) == n+1 && op[n] != removeMark) {
			return nil, errors.New("bad operand")
		}
		id := model.FilterID(v)
		if _, held := added[id]; len(op) > n {
			delete(added, id)
		} else if !held {
			added[id] = len(order)
			order = append(order, id)
		}
	}
	ids := order[:0]
	for i, id := range order {
		if at, held := added[id]; held && at == i {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// foldPostings is how a rewrite of the log keeps a posting list: its whole
// operand history becomes one add per ID it holds, and a list that holds
// none is dropped. A list it cannot decode is kept as it is, for recovery to
// report.
func foldPostings(ops [][]byte) [][]byte {
	ids, err := postingIDs(ops)
	if err != nil {
		return ops
	}
	out := make([][]byte, len(ids))
	for i, id := range ids {
		out[i] = binary.AppendUvarint(nil, uint64(id))
	}
	return out
}
