package index

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/movesys/move/internal/model"
)

// A cover is the index's unit of posting storage: the group of
// all registered filters sharing one canonical predicate signature (match
// mode, term set). Instead of one posting entry per filter per
// term, the aggregated index stores one (term, cover) entry whose slotSet
// records which members were posted under that term; the cover itself is
// the expansion table mapping that compressed entry back to concrete filter
// IDs and their subscribers. It is also where a member's predicate is
// stored: the filter table maps an ID to its cover and nothing else, and a
// filter is a slot of its cover.
//
// Members get dense slot indexes. A member that unregisters, or re-registers
// under another signature, takes its posting bits with it and vacates its
// slot, which the cover's next member reuses; a cover left with no member is
// retired — out of the signature table, its ID free for the next cover — so
// what the index holds follows the filters registered now, not the ones that
// ever were (DESIGN.md §15).
//
// When subscriptions do not share predicates nearly every cover has one
// member for life, so that shape is the one priced, at 64 bytes: slot 0's ID
// and subscriber are held inline (first, sub), and so is a predicate of up to
// coverInline terms (ids); everything a group needs — the slot and
// subscriber tables, the member→slot map, the vacated slots — sits behind
// more, allocated when a second member joins. The membership lock is not a
// field either: Index.coverMu stripes it by cover ID.
type cover struct {
	id uint32
	// flags is the lock-free summary the match path reads: the match mode and
	// the inline term count (both immutable), the retired mark and the member
	// count above them. Stored under the cover's lock, loaded without it.
	flags atomic.Uint32
	// ids is the predicate, and the only copy of it the index keeps: the term
	// set as sorted, deduplicated dictionary IDs, inline when it has at most
	// coverInline terms. A longer one is an array of its own at long, its
	// length in ids[0]. Immutable. The match path evaluates them; GetFilter
	// and EachFilter spell them back into strings. They are also the terms
	// the cover has posting entries under, but for the rare extra ones
	// (Index.extra).
	ids  [coverInline]uint32
	long *uint32
	// first and sub are the member in slot 0 and its subscriber. first and a
	// joining member's sub are written under the cover's lock when slot 0 is
	// assigned — before any posting entry can carry the slot's bit, since a
	// bit is set only after its member joined — and only rewritten once the
	// slot is vacant, which its member's bits must have left first. A reader
	// that found slot 0's bit under a term shard's lock therefore reads them
	// without the cover's lock. A re-registration under the same signature
	// rewrites sub in place under the member's filter shard's write lock as
	// well, so the match path reads it under that shard's read lock.
	first model.FilterID
	sub   string
	// more is nil until a second member joins.
	more *coverMembers
}

// coverInline is the longest predicate a cover holds inline.
const coverInline = 4

// coverMembers is the membership state of a cover that has had more than one
// member. Guarded by the cover's lock.
type coverMembers struct {
	// slots maps slot to member, subs slot to the member's subscriber;
	// slots[0] is cover.first and subs[0] cover.sub. A vacant slot keeps
	// what left it until it is reused. subs is written as cover.sub is.
	slots []model.FilterID
	subs  []string
	// slotOf accelerates member→slot lookup but is built lazily, once the
	// cover reaches coverSlotMapMin slots: most covers stay small, and a
	// per-cover map would dominate the memory the aggregation saves. Below
	// the threshold lookups scan slots linearly (nil map).
	slotOf map[model.FilterID]int32
	// vacant lists the slots no member holds, the next joiner's first.
	vacant []int32
}

// cover.flags: the match mode in the low bits, the retired mark, the inline
// term count (0 for a predicate held at cover.long), the member count above
// them.
const (
	coverModeMask = uint32(3)
	// coverRetired: the cover lost its last member and left the signature
	// table. A registration that found it there before that retries
	// (Index.joinCover); nothing else reads it again.
	coverRetired    = uint32(1) << 2
	coverTermsShift = 3
	coverTermsMask  = uint32(7)
	coverCountShift = 6
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

// terms returns the cover's predicate: its sorted, distinct term IDs. The
// slice aliases the cover and must not be written.
func (c *cover) terms() []uint32 {
	if n := c.flags.Load() >> coverTermsShift & coverTermsMask; n != 0 {
		return c.ids[:n:n]
	}
	return unsafe.Slice(c.long, c.ids[0])
}

// newCover returns a cover of signature (mode, ids) with no member: the
// predicate inline when it fits, an array of its own otherwise.
func newCover(id uint32, mode model.MatchMode, ids []uint32) *cover {
	c := &cover{id: id}
	flags := uint32(mode) & coverModeMask
	if len(ids) <= coverInline {
		copy(c.ids[:], ids)
		flags |= uint32(len(ids)) << coverTermsShift
	} else {
		c.long = &slices.Clone(ids)[0]
		c.ids[0] = uint32(len(ids))
	}
	c.flags.Store(flags)
	return c
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

// coverSigShard interns covers by signature: a table keyed by sigHash — so a
// cover costs one 16-byte table slot, not a key string of its own — and a
// spill list for the covers whose sigHash another signature's cover holds
// the table's slot for. That takes a 64-bit hash collision: spill is empty
// but for tests that plant one.
//
// Covers retire and new ones take their place as subscribers come and go,
// and a Go map reclaims the tombstones its deletes leave only by growing, so
// under that churn it grows past what it holds. The table is therefore
// copied into a fresh one, sized to what is live, once it has seen twice as
// many removals as it holds covers.
type coverSigShard struct {
	mu      sync.Mutex
	covers  map[uint64]*cover
	spill   []*cover
	removed int
}

// find returns the cover of signature (mode, ids), hashed to h, or nil.
// Caller holds s.mu.
func (s *coverSigShard) find(h uint64, mode model.MatchMode, ids []uint32) *cover {
	c := s.covers[h]
	if c == nil || c.hasSig(mode, ids) {
		return c
	}
	for _, c := range s.spill {
		if c.hasSig(mode, ids) {
			return c
		}
	}
	return nil
}

// insert adds c, hashed to h. Caller holds s.mu.
func (s *coverSigShard) insert(h uint64, c *cover) {
	if s.covers[h] == nil {
		s.covers[h] = c
	} else {
		s.spill = append(s.spill, c)
	}
}

// remove takes c, hashed to h, out of the shard. A spilled cover of the same
// hash takes a removed table slot over, so find never needs the spill list
// behind an empty slot. Caller holds s.mu.
func (s *coverSigShard) remove(h uint64, c *cover) {
	if s.covers[h] != c {
		if i := slices.Index(s.spill, c); i >= 0 {
			s.spill = slices.Delete(s.spill, i, i+1)
		}
		return
	}
	delete(s.covers, h)
	if s.removed++; s.removed > 2*len(s.covers)+64 {
		fresh := make(map[uint64]*cover, len(s.covers))
		for k, v := range s.covers {
			fresh[k] = v
		}
		s.covers, s.removed = fresh, 0
	}
	for i, o := range s.spill {
		if sigHash(o.mode(), o.terms()) == h {
			s.covers[h] = o
			s.spill = slices.Delete(s.spill, i, i+1)
			return
		}
	}
}

// hasSig reports whether c's signature is exactly this one.
func (c *cover) hasSig(mode model.MatchMode, ids []uint32) bool {
	return c.mode() == mode && slices.Equal(c.terms(), ids)
}

// names reports whether term ID tid is one of the cover's terms.
func (c *cover) names(tid uint32) bool {
	_, ok := slices.BinarySearch(c.terms(), tid)
	return ok
}

// coverMu returns c's lock: one of DefaultShards mutexes, picked by cover ID.
// A lock guards membership — cover.more, the member count in flags — so no
// caller ever holds two of them at once.
func (ix *Index) coverMu(c *cover) *sync.Mutex {
	return &ix.coverLocks[c.id&shardMask]
}

// coverSlotMapMin is the slot count at which a cover materializes its slotOf
// map; below it, findSlot scans the slots slice.
const coverSlotMapMin = 16

// findSlot returns id's slot, if id is a member: the inline one, or via the
// map when materialized or a linear scan of the (small) slots slice
// otherwise. Caller holds c's lock.
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

// slotIndex returns id's slot in c, if it is a member.
func (ix *Index) slotIndex(c *cover, id model.FilterID) (int32, bool) {
	mu := ix.coverMu(c)
	mu.Lock()
	s, ok := c.findSlot(id)
	mu.Unlock()
	return s, ok
}

// subOf returns the subscriber of id, a member of c.
func (ix *Index) subOf(c *cover, id model.FilterID) string {
	mu := ix.coverMu(c)
	mu.Lock()
	defer mu.Unlock()
	if slot, _ := c.findSlot(id); slot != 0 {
		return c.more.subs[slot]
	}
	return c.sub
}

// setSub rewrites the subscriber of the member in slot. Caller holds c's
// lock and the member's filter shard's write lock.
func (c *cover) setSub(slot int32, sub string) {
	if slot == 0 {
		c.sub = sub
	}
	if m := c.more; m != nil {
		m.subs[slot] = sub
	}
}

// memberSlot returns id's slot, giving it one — a vacant slot first — with
// subscriber sub when it is not a member yet (joined). The first member takes
// the inline slot (first); the second allocates the cover's coverMembers
// (promoted); the lookup map is materialized once the slot table reaches
// coverSlotMapMin. Caller holds c's lock and has checked that the cover is
// not retired.
func (c *cover) memberSlot(id model.FilterID, sub string) (slot int32, joined, first, promoted bool) {
	if s, ok := c.findSlot(id); ok {
		return s, false, false, false
	}
	f := c.flags.Load()
	m := c.more
	switch {
	case m == nil && f < coverOneMember:
		c.first, c.sub = id, sub
		first = true
	case m == nil:
		m = &coverMembers{slots: make([]model.FilterID, 1, 2), subs: make([]string, 1, 2)}
		m.slots[0], m.subs[0] = c.first, c.sub
		c.more = m
		promoted = true
		fallthrough
	case len(m.vacant) == 0:
		slot = int32(len(m.slots))
		m.slots = append(m.slots, id)
		m.subs = append(m.subs, sub)
		if m.slotOf == nil && len(m.slots) >= coverSlotMapMin {
			m.slotOf = make(map[model.FilterID]int32, len(m.slots))
			for i, member := range m.slots {
				m.slotOf[member] = int32(i)
			}
		}
	default:
		slot = m.vacant[len(m.vacant)-1]
		m.vacant = m.vacant[:len(m.vacant)-1]
		m.slots[slot], m.subs[slot] = id, sub
		if slot == 0 {
			c.first, c.sub = id, sub
		}
	}
	if m != nil && m.slotOf != nil {
		m.slotOf[id] = slot
	}
	c.flags.Store(f + coverOneMember)
	return slot, true, first, promoted
}

// vacate takes the member out of slot, reporting whether the cover is left
// without members. Its posting bits must be gone already. Caller holds c's
// lock.
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

// rep returns c's representative — the "covering filter" of the subsumption
// literature: the member in the lowest occupied slot, 0 when the cover has
// none.
func (ix *Index) rep(c *cover) model.FilterID {
	mu := ix.coverMu(c)
	mu.Lock()
	defer mu.Unlock()
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
	r := ix.rep(c)
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
	c := sh.find(h, f.Mode, ids)
	if c == nil && create {
		c = newCover(ix.coverIDs.take(), f.Mode, ids)
		sh.insert(h, c)
	}
	sh.mu.Unlock()
	return c
}

// joinCover makes id a member of the cover of f's signature, with
// subscriber sub, and returns the cover and id's slot in it; joined is false
// when id was a member already — a re-registration under the same signature,
// whose subscriber the caller rewrites. A cover coverOf handed out can retire
// before its lock is taken here — its last member left in between — and then
// no longer serves the signature: the lookup is repeated, and finds or
// creates its successor.
func (ix *Index) joinCover(f *model.Filter, sub string) (c *cover, slot int32, joined bool) {
	for {
		c := ix.coverOf(f, true)
		mu := ix.coverMu(c)
		mu.Lock()
		if c.flags.Load()&coverRetired != 0 {
			mu.Unlock()
			continue
		}
		slot, joined, first, promoted := c.memberSlot(f.ID, sub)
		mu.Unlock()
		if first {
			ix.coversLive.Add(1)
			ix.singletons.Add(1)
		} else if promoted {
			ix.singletons.Add(-1)
		}
		return c, slot, joined
	}
}

// leave takes the member in slot out of c, whose posting bits it no longer
// holds, and retires the cover when that was its last member: the cover is
// marked and taken out of the signature table under the signature shard's
// lock — the lock coverOf reads the table under — so no registration can
// join it afterwards (joinCover retries on the mark), and its ID goes back to
// the pool.
func (ix *Index) leave(c *cover, slot int32) {
	h := sigHash(c.mode(), c.terms())
	sh := ix.sigShard(h)
	mu := ix.coverMu(c)
	sh.mu.Lock()
	mu.Lock()
	emptied := c.vacate(slot)
	if emptied {
		c.flags.Store(c.flags.Load() | coverRetired)
		sh.remove(h, c)
	}
	single := c.more == nil
	mu.Unlock()
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
