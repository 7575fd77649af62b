package index

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/movesys/move/internal/model"
)

// coverSlab holds every cover of the index, addressed by cover ID: the
// records (cover) and, beside them, the subscriber of each cover's slot 0, in
// chunks that never move once allocated — so a record's flags can be read
// without a lock — and are allocated as the cover IDs reach them. A record
// holds no pointer. What a cover needs beyond it sits in two side tables it
// names by index: the member table of a cover that has had two members
// (coverMembers) and a predicate too long to inline. The subscriber chunks
// and the side tables are all of the slab the garbage collector scans.
//
// Cover IDs stay dense — coverIDs hands out retired ones first — so the slab
// is as large as the most covers alive at once. A retired cover's record is
// written again only when its ID is handed out again, after a grace period
// that outlasts every match call that may have read it.
type coverSlab struct {
	recs chunked[cover]
	subs chunked[string]
	// mu serializes the growth of the chunked arrays and guards the side
	// tables' free lists.
	mu      sync.Mutex
	members sideTable[*coverMembers]
	longs   sideTable[*uint32]
}

// chunkLen is the number of elements in one chunk of a chunked array: a few
// kilobytes, so an index of a few hundred covers pays for little more than
// it holds, and a directory of one pointer per chunk.
const chunkLen = 256

// chunked is a growable array whose elements never move: fixed-size chunks
// behind a directory that grows by publishing a longer copy, never by
// rewriting what a reader may hold. An element is reached with no lock;
// reach is serialized by coverSlab.mu.
type chunked[T any] struct {
	dir atomic.Pointer[[]*[chunkLen]T]
}

// at returns element i, which reach has made addressable.
func (a *chunked[T]) at(i uint32) *T {
	return &(*a.dir.Load())[i/chunkLen][i%chunkLen]
}

// reach makes element i addressable. Caller holds coverSlab.mu.
func (a *chunked[T]) reach(i uint32) {
	var d []*[chunkLen]T
	if p := a.dir.Load(); p != nil {
		if uint32(len(*p))*chunkLen > i {
			return
		}
		d = *p
	}
	// Appending within the old capacity writes past every published length,
	// where no reader looks.
	for uint32(len(d))*chunkLen <= i {
		d = append(d, new([chunkLen]T))
	}
	a.dir.Store(&d)
}

// sideTable is one of the slab's side tables: entries by index, an index
// freed by a retiring cover reused first. Index 0 is never handed out, so a
// record's 0 names no entry. add and remove are serialized by coverSlab.mu;
// an entry is read without it by whoever holds its cover live.
type sideTable[T any] struct {
	items chunked[T]
	free  []uint32
	top   uint32 // the highest index handed out
}

// add stores v under a free index and returns the index.
func (t *sideTable[T]) add(v T) uint32 {
	var i uint32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.top++
		i = t.top
		t.items.reach(i)
	}
	*t.items.at(i) = v
	return i
}

// remove clears entry i and frees its index.
func (t *sideTable[T]) remove(i uint32) {
	var zero T
	*t.items.at(i) = zero
	t.free = append(t.free, i)
}

// rec returns the record of cover cid.
func (s *coverSlab) rec(cid uint32) *cover { return s.recs.at(cid) }

// sub returns where the subscriber of cover cid's slot 0 is kept.
func (s *coverSlab) sub(cid uint32) *string { return s.subs.at(cid) }

// membersOf returns c's member table, nil before a second member joined.
// Caller holds c's lock.
func (s *coverSlab) membersOf(c *cover) *coverMembers {
	if c.more == 0 {
		return nil
	}
	return *s.members.items.at(c.more)
}

// terms returns c's predicate: its sorted, distinct term IDs. The slice
// aliases the slab and must not be written.
func (s *coverSlab) terms(c *cover) []uint32 {
	if n := c.flags.Load() >> coverTermsShift & coverTermsMask; n != 0 {
		return c.ids[:n:n]
	}
	return unsafe.Slice(*s.longs.items.at(c.ids[1]), c.ids[0])
}

// hasSig reports whether c's signature is exactly (mode, ids).
func (s *coverSlab) hasSig(c *cover, mode model.MatchMode, ids []uint32) bool {
	return c.mode() == mode && slices.Equal(s.terms(c), ids)
}

// sigHashOf returns the signature hash of cover cid.
func (s *coverSlab) sigHashOf(cid uint32) uint64 {
	c := s.rec(cid)
	return sigHash(c.mode(), s.terms(c))
}

// reach makes the record and subscriber of cover cid addressable. Caller
// holds s.mu.
func (s *coverSlab) reach(cid uint32) {
	s.recs.reach(cid)
	s.subs.reach(cid)
}

// init writes a fresh record of signature (mode, ids), no member, for cover
// cid: the predicate inline when it fits, an array in the longs side table
// otherwise.
func (s *coverSlab) init(cid uint32, mode model.MatchMode, ids []uint32) {
	s.mu.Lock()
	s.reach(cid)
	c := s.rec(cid)
	c.more, c.first, c.ids = 0, 0, [coverInline]uint32{}
	flags := uint32(mode) & coverModeMask
	if len(ids) <= coverInline {
		copy(c.ids[:], ids)
		flags |= uint32(len(ids)) << coverTermsShift
	} else {
		n := len(ids)
		c.ids = [coverInline]uint32{uint32(n), s.longs.add(&slices.Clone(ids)[0]), ids[n-1], ids[n-2]}
	}
	s.mu.Unlock()
	c.flags.Store(flags)
}

// promote gives c a member table, m. Caller holds c's lock.
func (s *coverSlab) promote(c *cover, m *coverMembers) {
	s.mu.Lock()
	c.more = s.members.add(m)
	s.mu.Unlock()
}

// retire frees what the slab holds for cover cid beyond its record, which
// lost its last member: the subscriber name, the member table and a long
// predicate. Caller holds the cover's lock.
func (s *coverSlab) retire(cid uint32) {
	c := s.rec(cid)
	*s.sub(cid) = ""
	s.mu.Lock()
	if c.more != 0 {
		s.members.remove(c.more)
		c.more = 0
	}
	if c.flags.Load()>>coverTermsShift&coverTermsMask == 0 {
		s.longs.remove(c.ids[1])
	}
	s.mu.Unlock()
}
