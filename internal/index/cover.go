package index

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/movesys/move/internal/model"
)

// A cover is the index's unit of posting storage: the group of
// all registered filters sharing one canonical predicate signature (match
// mode, term set). Instead of one posting entry per filter per
// term, the aggregated index stores one (term, cover) entry whose slotSet
// records which members were posted under that term; the cover itself is
// the expansion table mapping that compressed entry back to concrete filter
// IDs (and, through the filter table, to subscribers). It is also where a
// member's predicate is stored: a filter's definition is (subscriber, cover).
//
// Members get dense slot indexes. A member that unregisters, or re-registers
// under another signature, takes its posting bits with it and vacates its
// slot, which the cover's next member reuses; a cover left with no member is
// retired — out of the signature table, its ID free for the next cover — so
// what the index holds follows the filters registered now, not the ones that
// ever were (DESIGN.md §15).
//
// When subscriptions do not share predicates nearly every cover has one
// member for life, so that shape is the one priced: slot 0's ID is held
// inline (first); everything a group needs — the slot table, the member→slot
// map, the vacated slots — sits behind more, allocated when a second member
// joins.
type cover struct {
	id uint32
	// flags is the lock-free summary the match path reads: the match mode
	// (immutable), the retired mark and the member count above them. Stored
	// under mu, loaded without it.
	flags atomic.Uint32
	// ids is the predicate, and the only copy of it the index keeps: the term
	// set as sorted, deduplicated dictionary IDs. Immutable. The match path
	// evaluates them; GetFilter and EachFilter spell them back into strings
	// (Index.termsOf). They are also the terms the cover has posting entries
	// under, but for the rare extra ones (Index.extra).
	ids []uint32

	mu sync.Mutex
	// first is the member in slot 0. It is written under mu when slot 0 is
	// assigned — before any posting entry can carry the slot's bit, since a
	// bit is set only after its member joined — and only rewritten once the
	// slot is vacant, which its member's bits must have left first. A reader
	// that found slot 0's bit under a term shard's lock therefore reads it
	// without taking mu.
	first model.FilterID
	// more is nil until a second member joins.
	more *coverMembers
	// next chains covers whose signatures share a sigHash (coverSigShard).
	next *cover
}

// coverMembers is the membership state of a cover that has had more than one
// member. Guarded by cover.mu.
type coverMembers struct {
	// slots maps slot to member; slots[0] is cover.first. A vacant slot keeps
	// the ID that left it until it is reused.
	slots []model.FilterID
	// slotOf accelerates member→slot lookup but is built lazily, once the
	// cover reaches coverSlotMapMin slots: most covers stay small, and a
	// per-cover map would dominate the memory the aggregation saves. Below
	// the threshold lookups scan slots linearly (nil map).
	slotOf map[model.FilterID]int32
	// vacant lists the slots no member holds, the next joiner's first.
	vacant []int32
}

// cover.flags: the match mode in the low bits, the retired mark, the member
// count above them.
const (
	coverModeMask = uint32(3)
	// coverRetired: the cover lost its last member and left the signature
	// table. A registration that found it there before that retries
	// (Index.joinCover); nothing else reads it again.
	coverRetired    = uint32(1) << 2
	coverCountShift = 3
	coverOneMember  = uint32(1) << coverCountShift
)

// mode returns the match mode of the cover's signature.
func (c *cover) mode() model.MatchMode {
	return model.MatchMode(c.flags.Load() & coverModeMask)
}

// members returns the member count the flags carry.
func (c *cover) members() int {
	return int(c.flags.Load() >> coverCountShift)
}

// sigHash hashes a cover's canonical signature — mode and the sorted term
// IDs — with FNV-1a over the integers themselves. Its low bits pick the
// signature shard, the whole value keys the shard's table.
func sigHash(mode model.MatchMode, ids []uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := (uint64(offset64) ^ uint64(mode)) * prime64
	for _, id := range ids {
		h = (h ^ uint64(id)) * prime64
	}
	return h
}

// coverSigShard interns covers by signature: a table keyed by sigHash, with
// the covers whose signatures collide on it chained through cover.next — so
// a cover costs one 16-byte table slot, not a key string of its own.
type coverSigShard struct {
	mu     sync.Mutex
	covers map[uint64]*cover
}

// hasSig reports whether c's signature is exactly this one.
func (c *cover) hasSig(mode model.MatchMode, ids []uint32) bool {
	return c.mode() == mode && slices.Equal(c.ids, ids)
}

// names reports whether term ID tid is one of the cover's terms.
func (c *cover) names(tid uint32) bool {
	_, ok := slices.BinarySearch(c.ids, tid)
	return ok
}

// coverSlotMapMin is the slot count at which a cover materializes its slotOf
// map; below it, findSlot scans the slots slice.
const coverSlotMapMin = 16

// findSlot returns id's slot, if id is a member: the inline one, or via the
// map when materialized or a linear scan of the (small) slots slice
// otherwise. Caller holds c.mu.
func (c *cover) findSlot(id model.FilterID) (int32, bool) {
	m := c.more
	if m == nil {
		return 0, c.flags.Load() >= coverOneMember && c.first == id
	}
	if m.slotOf != nil {
		s, ok := m.slotOf[id]
		return s, ok
	}
	for i, member := range m.slots {
		if member == id && !slices.Contains(m.vacant, int32(i)) {
			return int32(i), true
		}
	}
	return 0, false
}

// slotIndex returns id's slot in the cover, if it is a member.
func (c *cover) slotIndex(id model.FilterID) (int32, bool) {
	c.mu.Lock()
	s, ok := c.findSlot(id)
	c.mu.Unlock()
	return s, ok
}

// memberSlot returns id's slot, giving it one — a vacant slot first — when
// it is not a member yet. The first member takes the inline slot (first);
// the second allocates the cover's coverMembers (promoted); the lookup map is
// materialized once the slot table reaches coverSlotMapMin. Caller holds
// c.mu and has checked that the cover is not retired.
func (c *cover) memberSlot(id model.FilterID) (slot int32, first, promoted bool) {
	if s, ok := c.findSlot(id); ok {
		return s, false, false
	}
	f := c.flags.Load()
	m := c.more
	switch {
	case m == nil && f < coverOneMember:
		c.first = id
		first = true
	case m == nil:
		m = &coverMembers{slots: make([]model.FilterID, 1, 2)}
		m.slots[0] = c.first
		c.more = m
		promoted = true
		fallthrough
	case len(m.vacant) == 0:
		slot = int32(len(m.slots))
		m.slots = append(m.slots, id)
		if m.slotOf == nil && len(m.slots) >= coverSlotMapMin {
			m.slotOf = make(map[model.FilterID]int32, len(m.slots))
			for i, member := range m.slots {
				m.slotOf[member] = int32(i)
			}
		}
	default:
		slot = m.vacant[len(m.vacant)-1]
		m.vacant = m.vacant[:len(m.vacant)-1]
		m.slots[slot] = id
		if slot == 0 {
			c.first = id
		}
	}
	if m != nil && m.slotOf != nil {
		m.slotOf[id] = slot
	}
	c.flags.Store(f + coverOneMember)
	return slot, first, promoted
}

// vacate takes the member out of slot, reporting whether the cover is left
// without members. Its posting bits must be gone already. Caller holds c.mu.
func (c *cover) vacate(slot int32) (emptied bool) {
	f := c.flags.Load() - coverOneMember
	if m := c.more; m != nil {
		if m.slotOf != nil {
			delete(m.slotOf, m.slots[slot])
		}
		m.vacant = append(m.vacant, slot)
	}
	c.flags.Store(f)
	return f < coverOneMember
}

// Rep returns the cover's representative — the "covering filter" of the
// subsumption literature: the member in the lowest occupied slot, 0 when the
// cover has none.
func (c *cover) Rep() model.FilterID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flags.Load() < coverOneMember {
		return 0
	}
	m := c.more
	if m == nil {
		return c.first
	}
	for i, member := range m.slots {
		if !slices.Contains(m.vacant, int32(i)) {
			return member
		}
	}
	return 0
}

// RepFor returns the representative filter ID of the cover holding f's
// predicate signature — the "covering filter" of f's group. ok is false
// when no such cover exists. Diagnostic/test use.
func (ix *Index) RepFor(f model.Filter) (model.FilterID, bool) {
	c := ix.coverOf(&f, false)
	if c == nil {
		return 0, false
	}
	r := c.Rep()
	return r, c.members() > 0
}

// sigShard returns the signature shard of a signature hash.
func (ix *Index) sigShard(h uint64) *coverSigShard {
	return &ix.sig[h&shardMask]
}

// coverOf returns the cover of f's predicate signature. With create it
// interns f's terms and, on first use of the signature, the cover; without,
// it returns nil when no live cover has that signature.
func (ix *Index) coverOf(f *model.Filter, create bool) *cover {
	var idBuf [8]uint32
	ids := idBuf[:0]
	for _, t := range f.Terms {
		var id uint32
		if create {
			id = ix.dict.intern(t)
		} else if id = ix.dict.lookup(t); id == noTerm {
			return nil
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	h := sigHash(f.Mode, ids)
	sh := ix.sigShard(h)
	sh.mu.Lock()
	c := sh.covers[h]
	for c != nil && !c.hasSig(f.Mode, ids) {
		c = c.next
	}
	if c == nil && create {
		c = &cover{
			id:   ix.coverIDs.take(),
			ids:  slices.Clone(ids),
			next: sh.covers[h],
		}
		c.flags.Store(uint32(f.Mode) & coverModeMask)
		sh.covers[h] = c
	}
	sh.mu.Unlock()
	return c
}

// joinCover makes id a member of the cover of f's signature and returns the
// cover and id's slot in it. A cover coverOf handed out can retire before
// its lock is taken here — its last member left in between — and then no
// longer serves the signature: the lookup is repeated, and finds or creates
// its successor.
func (ix *Index) joinCover(f *model.Filter, id model.FilterID) (*cover, int32) {
	for {
		c := ix.coverOf(f, true)
		c.mu.Lock()
		if c.flags.Load()&coverRetired != 0 {
			c.mu.Unlock()
			continue
		}
		slot, first, promoted := c.memberSlot(id)
		c.mu.Unlock()
		if first {
			ix.coversLive.Add(1)
			ix.singletons.Add(1)
		} else if promoted {
			ix.singletons.Add(-1)
		}
		return c, slot
	}
}

// leave takes the member in slot out of c, whose posting bits it no longer
// holds, and retires the cover when that was its last member: the cover is
// marked and unlinked from the signature table under the signature shard's
// lock — the lock coverOf reads the table under — so no registration can
// join it afterwards (joinCover retries on the mark), and its ID goes back to
// the pool.
func (ix *Index) leave(c *cover, slot int32) {
	h := sigHash(c.mode(), c.ids)
	sh := ix.sigShard(h)
	sh.mu.Lock()
	c.mu.Lock()
	emptied := c.vacate(slot)
	if emptied {
		c.flags.Store(c.flags.Load() | coverRetired)
		if sh.covers[h] == c {
			if c.next == nil {
				delete(sh.covers, h)
			} else {
				sh.covers[h] = c.next
			}
		} else {
			for p := sh.covers[h]; p != nil; p = p.next {
				if p.next == c {
					p.next = c.next
					break
				}
			}
		}
	}
	single := c.more == nil
	c.mu.Unlock()
	sh.mu.Unlock()
	if emptied {
		ix.coversLive.Add(-1)
		if single {
			ix.singletons.Add(-1)
		}
		ix.extra.forget(c)
		ix.coverIDs.put(c.id)
	}
}

// coverIDs hands out cover IDs: those of retired covers first, so the IDs in
// use — and the per-call memo the multi-term match path indexes by them —
// stay bounded by the covers alive at once, not by every cover there ever
// was. A retired ID is reused only after a grace period, so an ID names one
// cover for the whole of any call that may have decided it: each such call
// enters the current phase and leaves it when it returns, an ID retired in a
// phase waits in that phase's list, and the list is freed — and the phase
// advanced — once the calls that entered in the phase before have all left.
// By then every call that could have seen the retired covers, all of which
// started in that phase or the one before it, has returned.
type coverIDs struct {
	mu   sync.Mutex
	free []uint32
	// waiting[p] holds the IDs retired while the phase had parity p.
	waiting [2][]uint32
	// seq is the highest ID handed out.
	seq   atomic.Uint32
	phase atomic.Uint32
	// calls[p] counts the calls in flight that entered while the phase had
	// parity p.
	calls [2]atomic.Int64
}

// enter registers a call in the current phase and returns the phase, for
// exit.
func (p *coverIDs) enter() uint32 {
	for {
		ph := p.phase.Load()
		p.calls[ph&1].Add(1)
		if p.phase.Load() == ph {
			return ph
		}
		p.calls[ph&1].Add(-1)
	}
}

func (p *coverIDs) exit(ph uint32) { p.calls[ph&1].Add(-1) }

func (p *coverIDs) take() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Advance while the free list is empty and IDs wait: once the calls that
	// entered in the previous phase have left, what was retired in it is
	// free and the current phase becomes the previous one. Two steps free
	// what the current phase retired.
	for range 2 {
		ph := p.phase.Load()
		prev := (ph + 1) & 1
		if len(p.free) > 0 || len(p.waiting[0])+len(p.waiting[1]) == 0 || p.calls[prev].Load() != 0 {
			break
		}
		p.free, p.waiting[prev] = p.waiting[prev], p.free
		p.phase.Store(ph + 1)
	}
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id
	}
	return p.seq.Add(1)
}

func (p *coverIDs) put(id uint32) {
	p.mu.Lock()
	ph := p.phase.Load() & 1
	p.waiting[ph] = append(p.waiting[ph], id)
	p.mu.Unlock()
}

// CoverStats summarizes the aggregated index's compression state. All
// fields are O(1) atomic reads — cheap enough to export as gauges on every
// register/unregister — and count what is registered now: a departed filter
// takes its posting bits, its slot and, as the last member, its cover along.
type CoverStats struct {
	// Covers is the number of covers, each with at least one member.
	Covers int
	// CoveredFilters is the number of filter definitions attached to those
	// covers (every registered filter belongs to exactly one cover).
	CoveredFilters int
	// StoredEntries is the number of physical (term, cover) posting entries
	// — what the aggregated index actually stores.
	StoredEntries int
	// LogicalPostings is the uncompressed posting count (one per
	// (term, filter) pair of a registered filter) — identical to
	// NumPostings().
	LogicalPostings int
	// PostingsSaved is LogicalPostings − StoredEntries: posting entries the
	// aggregation avoided storing.
	PostingsSaved int
	// ExpansionFanoutMilli is the mean number of member bits per stored
	// entry, in thousandths (logical/stored × 1000); 1000 means no
	// compression, higher is better.
	ExpansionFanoutMilli int
	// Singletons is the number of covers that have only ever had one member
	// at a time. Where it approaches Covers the population shares no
	// predicates and aggregation has nothing to merge.
	Singletons int
}
