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
// IDs and their subscribers. It is also where a member's predicate is
// stored: the filter table maps an ID to its cover ID and nothing else, and
// a filter is a slot of its cover.
//
// Members get dense slot indexes. A member that unregisters, or re-registers
// under another signature, takes its posting bits with it and vacates its
// slot, which the cover's next member reuses; a cover left with no member is
// retired — out of the signature table, its ID free for the next cover — so
// what the index holds follows the filters registered now, not the ones that
// ever were (DESIGN.md §15).
//
// A cover is a record in the index's cover slab (coverSlab), addressed by its
// cover ID, and holds no pointer. When subscriptions do not share predicates
// nearly every cover has one member for life, so that shape is the one
// priced, at 32 bytes and the slab's 16-byte subscriber beside it: slot 0's
// ID is held inline (first), and so is a predicate of up to coverInline terms
// (ids); a longer predicate and everything a group needs — the slot and
// subscriber tables, the member→slot map, the vacated slots — sit in the
// slab's side tables, the group's allocated when a second member joins. The
// membership lock is not a field either: Index.coverMu stripes it by cover
// ID.
type cover struct {
	// flags is the lock-free summary the match path reads: the match mode and
	// the inline term count (both immutable) and the member count above
	// them. Stored under the cover's lock, loaded without it.
	flags atomic.Uint32
	// more indexes the cover's member table in the slab's members side
	// table; 0 until a second member joins.
	more uint32
	// first is the member in slot 0; its subscriber is the slab's
	// sub(cover ID). Both are written under the cover's lock when slot 0 is
	// assigned — before any posting entry can carry the slot's bit, since a
	// bit is set only after its member joined — and only rewritten once the
	// slot is vacant, which its member's bits must have left first. A reader
	// that found slot 0's bit under a term shard's lock therefore reads them
	// without the cover's lock. A re-registration under the same signature
	// rewrites the subscriber in place under the member's filter shard's
	// write lock as well, so the match path reads it under that shard's read
	// lock.
	first model.FilterID
	// ids is the predicate, and the only copy of it the index keeps: the term
	// set as sorted, deduplicated dictionary IDs, inline when it has at most
	// coverInline terms. A longer one is an array in the slab's longs side
	// table: its length in ids[0], its index there in ids[1], and its two
	// highest IDs in ids[2] and ids[3] — where a MatchAll evaluation starts,
	// and nearly always ends. Immutable. The match path evaluates them;
	// GetFilter and EachFilter spell them back into strings. They are also the terms the cover has posting entries
	// under, but for the rare extra ones (Index.extra).
	ids [coverInline]uint32
}

// coverInline is the longest predicate a cover holds inline.
const coverInline = 4

// coverMembers is the membership state of a cover that has had more than one
// member. Guarded by the cover's lock.
type coverMembers struct {
	// slots maps slot to member, subs slot to the member's subscriber;
	// slots[0] is cover.first and subs[0] the slab's sub. A vacant slot keeps
	// what left it until it is reused. subs is written as the slab's sub is.
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

// cover.flags: the match mode in the low bits, the inline term count (0 for
// a predicate in the longs side table), the member count above them.
const (
	coverModeMask   = uint32(3)
	coverTermsShift = 2
	coverTermsMask  = uint32(7)
	coverCountShift = 5
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
// signature shard, the whole value the shard table's first probe.
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

// coverSigShard interns covers by signature: an open-addressed table of
// cover IDs, probed linearly from the signature's hash, in which a probe
// compares the record's own signature — so a cover costs the table one
// 4-byte slot, and a 64-bit hash collision is told apart like any other
// neighbour. A removal moves the later entries of its probe run back
// (backward shift) instead of leaving a tombstone, so covers retiring and
// new ones taking their place leave the table as full as what is live, and
// the table is resized to twice what is live when it passes three quarters
// full or falls under a quarter.
type coverSigShard struct {
	mu    sync.Mutex
	slots []uint32 // cover IDs; 0 marks an empty slot
	n     int
}

// find returns the cover of signature (mode, ids), hashed to h, or 0.
// Caller holds s.mu.
func (s *coverSigShard) find(slab *coverSlab, h uint64, mode model.MatchMode, ids []uint32) uint32 {
	if len(s.slots) == 0 {
		return 0
	}
	for i := probeStart(h, len(s.slots)); ; i = probeNext(i, len(s.slots)) {
		if cid := s.slots[i]; cid == 0 || slab.hasSig(slab.rec(cid), mode, ids) {
			return cid
		}
	}
}

// insert adds cover cid, hashed to h. Caller holds s.mu.
func (s *coverSigShard) insert(slab *coverSlab, h uint64, cid uint32) {
	if (s.n+1)*4 > len(s.slots)*3 {
		s.resize(slab, 2*(s.n+1)+8)
	}
	s.place(h, cid)
	s.n++
}

// place puts cid in the first empty slot of h's probe run.
func (s *coverSigShard) place(h uint64, cid uint32) {
	i := probeStart(h, len(s.slots))
	for s.slots[i] != 0 {
		i = probeNext(i, len(s.slots))
	}
	s.slots[i] = cid
}

// remove takes cover cid, hashed to h, out of the shard. Caller holds s.mu.
func (s *coverSigShard) remove(slab *coverSlab, h uint64, cid uint32) {
	hole := probeStart(h, len(s.slots))
	for s.slots[hole] != cid {
		hole = probeNext(hole, len(s.slots))
	}
	for j := probeNext(hole, len(s.slots)); s.slots[j] != 0; j = probeNext(j, len(s.slots)) {
		if fillsHole(hole, j, probeStart(slab.sigHashOf(s.slots[j]), len(s.slots))) {
			s.slots[hole] = s.slots[j]
			hole = j
		}
	}
	s.slots[hole] = 0
	if s.n--; len(s.slots) > 16 && s.n*4 < len(s.slots) {
		s.resize(slab, 2*s.n+8)
	}
}

// resize moves the table into n slots.
func (s *coverSigShard) resize(slab *coverSlab, n int) {
	old := s.slots
	s.slots = make([]uint32, n)
	for _, cid := range old {
		if cid != 0 {
			s.place(slab.sigHashOf(cid), cid)
		}
	}
}

// names reports whether term ID tid is one of c's terms.
func (s *coverSlab) names(c *cover, tid uint32) bool {
	_, ok := slices.BinarySearch(s.terms(c), tid)
	return ok
}

// coverMu returns cover cid's lock: one of DefaultShards mutexes, picked by
// cover ID. A lock guards membership — cover.more, the member count in
// flags, the slot-0 member and subscriber — so no caller ever holds two of
// them at once.
func (ix *Index) coverMu(cid uint32) *sync.Mutex {
	return &ix.coverLocks[cid&shardMask]
}

// coverSlotMapMin is the slot count at which a cover materializes its slotOf
// map; below it, findSlot scans the slots slice.
const coverSlotMapMin = 16

// findSlot returns id's slot in cover c, if id is a member: the inline one,
// or via the map when materialized or a linear scan of the (small) slots
// slice otherwise. Caller holds c's lock.
func (s *coverSlab) findSlot(c *cover, id model.FilterID) (int32, bool) {
	m := s.membersOf(c)
	if m == nil {
		return 0, c.flags.Load() >= coverOneMember && c.first == id
	}
	if m.slotOf != nil {
		slot, ok := m.slotOf[id]
		return slot, ok
	}
	for i, member := range m.slots {
		if member == id && !slices.Contains(m.vacant, int32(i)) {
			return int32(i), true
		}
	}
	return 0, false
}

// slotIndex returns id's slot in cover cid, if it is a member.
func (ix *Index) slotIndex(cid uint32, id model.FilterID) (int32, bool) {
	mu := ix.coverMu(cid)
	mu.Lock()
	s, ok := ix.slab.findSlot(ix.slab.rec(cid), id)
	mu.Unlock()
	return s, ok
}

// subOf returns the subscriber of id, a member of cover cid.
func (ix *Index) subOf(cid uint32, id model.FilterID) string {
	mu := ix.coverMu(cid)
	mu.Lock()
	defer mu.Unlock()
	c := ix.slab.rec(cid)
	if slot, _ := ix.slab.findSlot(c, id); slot != 0 {
		return ix.slab.membersOf(c).subs[slot]
	}
	return *ix.slab.sub(cid)
}

// setSub rewrites the subscriber of the member in slot of cover cid. Caller
// holds the cover's lock and the member's filter shard's write lock.
func (ix *Index) setSub(cid uint32, slot int32, sub string) {
	if slot == 0 {
		*ix.slab.sub(cid) = sub
	}
	if m := ix.slab.membersOf(ix.slab.rec(cid)); m != nil {
		m.subs[slot] = sub
	}
}

// memberSlot returns id's slot in cover cid, giving it one — a vacant slot
// first — with subscriber sub when it is not a member yet (joined). The first
// member takes the inline slot (first); the second gives the cover its
// coverMembers (promoted); the lookup map is materialized once the slot
// table reaches coverSlotMapMin. Caller holds the cover's lock and the lock
// of its signature shard, which keeps it from retiring.
func (ix *Index) memberSlot(cid uint32, id model.FilterID, sub string) (slot int32, joined, first, promoted bool) {
	c := ix.slab.rec(cid)
	if s, ok := ix.slab.findSlot(c, id); ok {
		return s, false, false, false
	}
	f := c.flags.Load()
	m := ix.slab.membersOf(c)
	switch {
	case m == nil && f < coverOneMember:
		c.first, *ix.slab.sub(cid) = id, sub
		first = true
	case m == nil:
		m = &coverMembers{slots: make([]model.FilterID, 1, 2), subs: make([]string, 1, 2)}
		m.slots[0], m.subs[0] = c.first, *ix.slab.sub(cid)
		ix.slab.promote(c, m)
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
			c.first, *ix.slab.sub(cid) = id, sub
		}
	}
	if m != nil && m.slotOf != nil {
		m.slotOf[id] = slot
	}
	c.flags.Store(f + coverOneMember)
	return slot, true, first, promoted
}

// vacate takes the member out of slot of cover c, reporting whether the
// cover is left without members. Its posting bits must be gone already.
// Caller holds c's lock.
func (s *coverSlab) vacate(c *cover, slot int32) (emptied bool) {
	f := c.flags.Load() - coverOneMember
	if m := s.membersOf(c); m != nil {
		if m.slotOf != nil {
			delete(m.slotOf, m.slots[slot])
		}
		m.vacant = append(m.vacant, slot)
	}
	c.flags.Store(f)
	return f < coverOneMember
}

// rep returns cover cid's representative — the "covering filter" of the
// subsumption literature: the member in the lowest occupied slot, 0 when the
// cover has none.
func (ix *Index) rep(cid uint32) model.FilterID {
	mu := ix.coverMu(cid)
	mu.Lock()
	defer mu.Unlock()
	c := ix.slab.rec(cid)
	if c.flags.Load() < coverOneMember {
		return 0
	}
	m := ix.slab.membersOf(c)
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
	if cid := ix.coverOf(&f); cid != 0 {
		return ix.rep(cid), true
	}
	return 0, false
}

// coverOf returns the ID of the live cover of f's signature, 0 when there is
// none. The ID names that cover only while something holds it live.
func (ix *Index) coverOf(f *model.Filter) uint32 {
	var buf [8]uint32
	ids, h, ok := ix.signature(f, false, buf[:0])
	if !ok {
		return 0
	}
	sh := ix.sigShard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.find(&ix.slab, h, f.Mode, ids)
}

// sigShard returns the signature shard of a signature hash.
func (ix *Index) sigShard(h uint64) *coverSigShard {
	return &ix.sig[h&shardMask]
}

// signature returns f's canonical term IDs — sorted, deduplicated — and
// their signature hash. With intern it assigns IDs to terms the dictionary
// has not seen; without, ok is false when it has not seen one, as no cover
// can then have the signature.
// The IDs are appended to buf.
func (ix *Index) signature(f *model.Filter, intern bool, buf []uint32) (ids []uint32, h uint64, ok bool) {
	ids = buf[:0]
	for _, t := range f.Terms {
		var id uint32
		if intern {
			id = ix.dict.intern(t)
		} else if id = ix.dict.lookup(t); id == noTerm {
			return nil, 0, false
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	return ids, sigHash(f.Mode, ids), true
}

// joinCover makes id a member of the cover of f's signature — creating the
// cover on first use of the signature — with subscriber sub, and returns the
// cover and id's slot in it; joined is false when id was a member already —
// a re-registration under the same signature, whose subscriber the caller
// rewrites. The signature shard's lock is held from the lookup to the join,
// and leave takes it to retire a cover, so no registration joins a cover
// that is retiring.
func (ix *Index) joinCover(f *model.Filter, sub string) (cid uint32, slot int32, joined bool) {
	var buf [8]uint32
	ids, h, _ := ix.signature(f, true, buf[:0])
	sh := ix.sigShard(h)
	sh.mu.Lock()
	if cid = sh.find(&ix.slab, h, f.Mode, ids); cid == 0 {
		cid = ix.coverIDs.take()
		ix.slab.init(cid, f.Mode, ids)
		sh.insert(&ix.slab, h, cid)
	}
	mu := ix.coverMu(cid)
	mu.Lock()
	slot, joined, first, promoted := ix.memberSlot(cid, f.ID, sub)
	mu.Unlock()
	sh.mu.Unlock()
	if first {
		ix.coversLive.Add(1)
		ix.singletons.Add(1)
	} else if promoted {
		ix.singletons.Add(-1)
	}
	return cid, slot, joined
}

// leave takes the member in slot out of cover cid, whose posting bits it no
// longer holds, and retires the cover when that was its last member: the
// cover is taken out of the signature table under the signature shard's lock
// — the lock joinCover holds from lookup to join — so no registration can
// join it afterwards, the slab frees what it held beside the record, and its
// ID goes back to the pool.
func (ix *Index) leave(cid uint32, slot int32) {
	c := ix.slab.rec(cid)
	h := ix.slab.sigHashOf(cid)
	sh := ix.sigShard(h)
	mu := ix.coverMu(cid)
	sh.mu.Lock()
	mu.Lock()
	emptied := ix.slab.vacate(c, slot)
	single := c.more == 0
	if emptied {
		sh.remove(&ix.slab, h, cid)
		ix.slab.retire(cid)
	}
	mu.Unlock()
	sh.mu.Unlock()
	if emptied {
		ix.coversLive.Add(-1)
		if single {
			ix.singletons.Add(-1)
		}
		ix.extra.forget(cid)
		ix.coverIDs.put(cid)
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
