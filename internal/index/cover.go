package index

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/movesys/move/internal/model"
)

// A cover is the index's unit of posting storage: the group of
// all registered filters sharing one canonical predicate signature (match
// mode, threshold, term set). Instead of one posting entry per filter per
// term, the aggregated index stores one (term, cover) entry whose slotSet
// records which members were posted under that term; the cover itself is
// the expansion table mapping that compressed entry back to concrete filter
// IDs (and, through the filter table, to subscribers). It is also where a
// member's predicate is stored: a filter's definition is (subscriber, cover).
//
// Members get dense slot indexes in registration order. Slots are
// append-only — a member that unregisters keeps its slot (marked dead) and
// reclaims the same slot if it re-registers under the same signature, so
// posting slotSets never need rewriting on membership churn.
//
// When subscriptions do not share predicates nearly every cover has one
// member for life, so that shape is the one priced: slot 0's ID is held
// inline (first) and its liveness is the coverDead flag; everything a group
// needs — the slot table, the member→slot map, the alive set, the
// representative — sits behind more, allocated when a second member joins.
type cover struct {
	id uint32
	// flags is the lock-free summary the match path reads: the match mode
	// (immutable), whether one evaluation of the cover's predicate settles a
	// whole container (coverStale, coverDead) and the slot count above them.
	// Stored under mu, loaded without it.
	flags     atomic.Uint32
	threshold float64
	// ids is the predicate as the match path evaluates it: the term set as
	// sorted, deduplicated dictionary IDs. Immutable.
	ids []uint32
	// terms is the same set as canonical (string-sorted) dictionary-owned
	// strings, immutable: the Terms of every member registered in canonical
	// order (def.filter hands out this very array).
	terms []string

	mu sync.Mutex
	// first is the member in slot 0. It is written once, under mu, when the
	// slot is assigned — before any posting entry can carry the slot's bit,
	// since a bit is set only after its member joined — and never changed, so
	// a reader that found the bit under a term shard's lock reads it without
	// taking mu.
	first model.FilterID
	// more is nil until a second member joins.
	more *coverMembers
	// next chains covers whose signatures share a sigHash (coverSigShard).
	next *cover
}

// coverMembers is the membership state of a cover that has had more than one
// member. Guarded by cover.mu.
type coverMembers struct {
	// slots maps slot to member; slots[0] is cover.first.
	slots []model.FilterID
	// slotOf accelerates member→slot lookup but is built lazily, once the
	// cover reaches coverSlotMapMin members: most covers stay small, and a
	// per-cover map would dominate the memory the aggregation saves. Below
	// the threshold lookups scan slots linearly (nil map).
	slotOf map[model.FilterID]int32
	// alive marks the slots of currently registered members — an advisory
	// set: the match path's source of truth for liveness stays the filter
	// table (a missing definition is a lazy tombstone), while alive
	// drives representative promotion, the cover statistics and the live
	// count of a container the match path skips.
	alive slotSet
	// rep is the cover's representative — the "covering filter" in the
	// subsumption literature — 0 when the cover has no live members. It is
	// maintained so the unregister-a-cover case promotes a surviving member
	// instead of orphaning the group: when the representative unregisters,
	// the lowest live slot takes over.
	rep model.FilterID
}

// cover.flags: the match mode in the low bits (0 for the orphan cover), two
// condition bits, the member-slot count above them.
const (
	coverModeMask = uint32(3)
	// coverStale: some member has at some time belonged to more than one
	// cover (histShard.multi). Re-homing only clears the old cover's bits
	// under the terms the new registration posts under, so such a member
	// can have posting bits in covers its definition is not attached to —
	// there it matches or not by its own definition, whatever the cover's
	// verdict — and reaches a document through more than one cover. From
	// then on neither the cover's verdict nor its live count settles a
	// container, and the match path decides it member by member. The bit
	// is never cleared: a restart, which re-homes every posting bit to its
	// definition's cover, is what resets it.
	coverStale = uint32(1) << 2
	// coverDead: some slot is not alive, so a container's live count is not
	// its cardinality. For a cover without coverMembers this bit is the
	// liveness of its one member.
	coverDead      = uint32(1) << 3
	coverSlotShift = 4
	coverOneSlot   = uint32(1) << coverSlotShift
)

// mode returns the match mode of the cover's signature.
func (c *cover) mode() model.MatchMode {
	return model.MatchMode(c.flags.Load() & coverModeMask)
}

// singletonLive reports whether flags f describe a cover whose only slot is
// assigned and alive.
func singletonLive(f uint32) bool {
	return f>>coverSlotShift == 1 && f&coverDead == 0
}

// publishFlags stores the summary f, with coverStale set for good when
// stale. Once the cover has coverMembers its slot count and coverDead are
// recomputed from them; before that f carries them — the flags are the only
// place a singleton's liveness lives. Caller holds c.mu.
func (c *cover) publishFlags(f uint32, stale bool) {
	if m := c.more; m != nil {
		f = f&(coverModeMask|coverStale) | uint32(len(m.slots))<<coverSlotShift
		if m.alive.count() < len(m.slots) {
			f |= coverDead
		}
	}
	if stale {
		f |= coverStale
	}
	c.flags.Store(f)
}

// sigHash hashes a cover's canonical signature — mode, threshold and the
// sorted term IDs — with FNV-1a over the integers themselves. Its low bits
// pick the signature shard, the whole value keys the shard's table.
func sigHash(mode model.MatchMode, threshold float64, ids []uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := (uint64(offset64) ^ uint64(mode)) * prime64
	h = (h ^ math.Float64bits(threshold)) * prime64
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

// hasSig reports whether c's signature is exactly this one — the threshold
// bit for bit: a member's Threshold is read back from its cover.
func (c *cover) hasSig(mode model.MatchMode, threshold float64, ids []uint32) bool {
	return c.mode() == mode && math.Float64bits(c.threshold) == math.Float64bits(threshold) && slices.Equal(c.ids, ids)
}

// coverSlotMapMin is the membership size at which a cover materializes its
// slotOf map; below it, findSlot scans the slots slice.
const coverSlotMapMin = 16

// findSlot returns id's slot: the inline one, or via the map when
// materialized or a linear scan of the (small) slots slice otherwise. Caller
// holds c.mu.
func (c *cover) findSlot(id model.FilterID) (int32, bool) {
	m := c.more
	if m == nil {
		return 0, c.flags.Load() >= coverOneSlot && c.first == id
	}
	if m.slotOf != nil {
		s, ok := m.slotOf[id]
		return s, ok
	}
	for i, member := range m.slots {
		if member == id {
			return int32(i), true
		}
	}
	return 0, false
}

// addSlot gives id the next member slot. The first is the inline one, and
// the caller publishes it (coverOneSlot, with the liveness it decides); the
// second allocates the cover's coverMembers, which take over the first
// member's liveness from the flags; the lookup map is materialized once the
// cover grows past coverSlotMapMin. Caller holds c.mu.
func (c *cover) addSlot(id model.FilterID) int32 {
	m := c.more
	if m == nil {
		f := c.flags.Load()
		if f < coverOneSlot {
			c.first = id
			return 0
		}
		m = &coverMembers{slots: make([]model.FilterID, 1, 2)}
		m.slots[0] = c.first
		if singletonLive(f) {
			m.alive.testAndSet(0)
			m.rep = c.first
		}
		c.more = m
	}
	s := int32(len(m.slots))
	m.slots = append(m.slots, id)
	if m.slotOf != nil {
		m.slotOf[id] = s
	} else if len(m.slots) >= coverSlotMapMin {
		m.slotOf = make(map[model.FilterID]int32, len(m.slots))
		for i, member := range m.slots {
			m.slotOf[member] = int32(i)
		}
	}
	return s
}

// memberSlot returns the member's slot under the cover lock, adding a new
// slot (added) when the filter was never a member; multi says the ID has
// belonged to another cover, which marks the cover stale. revived reports
// whether the member transitioned dead→alive; firstLive whether the cover
// transitioned empty→populated.
func (c *cover) memberSlot(id model.FilterID, multi bool) (slot int32, added, revived, firstLive bool) {
	c.mu.Lock()
	f := c.flags.Load()
	s, ok := c.findSlot(id)
	if !ok {
		s = c.addSlot(id)
		added = true
	}
	if m := c.more; m == nil {
		revived = !singletonLive(f)
		firstLive = revived
		f = f&^coverDead | coverOneSlot
	} else if m.alive.testAndSet(int(s)) {
		revived = true
		if m.alive.count() == 1 {
			firstLive = true
			m.rep = id
		}
	}
	c.publishFlags(f, multi)
	c.mu.Unlock()
	return s, added, revived, firstLive
}

// markDead marks the member dead; left says the member is leaving for
// another cover rather than unregistering, which also marks the cover
// stale. died reports a live→dead transition; emptied that the cover lost
// its last live member, with a surviving member promoted to representative
// otherwise when the departing member was the representative — the
// unregister-the-covering-filter case.
func (c *cover) markDead(id model.FilterID, left bool) (died, emptied bool) {
	c.mu.Lock()
	if s, ok := c.findSlot(id); ok {
		f := c.flags.Load()
		if m := c.more; m == nil {
			died = singletonLive(f)
			emptied = died
			f |= coverDead
		} else if m.alive.clear(int(s)) {
			died = true
			if m.alive.count() == 0 {
				emptied = true
				m.rep = 0
			} else if m.rep == id {
				m.rep = m.slots[m.alive.first()]
			}
		}
		c.publishFlags(f, left)
	}
	c.mu.Unlock()
	return died, emptied
}

// liveIn returns how many of bits' slots belong to live members, and how
// many live members the cover has. Caller holds c.mu.
func (c *cover) liveIn(bits *slotSet) (live, total int) {
	if m := c.more; m != nil {
		return bits.intersectCard(&m.alive), m.alive.count()
	}
	if singletonLive(c.flags.Load()) {
		total = 1
		if bits.has(0) {
			live = 1
		}
	}
	return live, total
}

// Rep returns the cover's current representative under its lock.
func (c *cover) Rep() model.FilterID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.more; m != nil {
		return m.rep
	}
	if singletonLive(c.flags.Load()) {
		return c.first
	}
	return 0
}

// RepFor returns the representative filter ID of the cover holding f's
// predicate signature — the "covering filter" of f's group. ok is false
// when no such cover exists, or when the cover has no live members.
// Diagnostic/test use.
func (ix *Index) RepFor(f model.Filter) (model.FilterID, bool) {
	c := ix.coverOf(&f, false)
	if c == nil {
		return 0, false
	}
	r := c.Rep()
	return r, r != 0
}

// CoverStats summarizes the aggregated index's compression state. All
// fields are O(1) atomic reads — cheap enough to export as gauges on every
// register/unregister.
type CoverStats struct {
	// Covers is the number of covers with at least one live member.
	Covers int
	// CoveredFilters is the number of live filter definitions attached to
	// those covers (every registered filter belongs to exactly one cover).
	CoveredFilters int
	// StoredEntries is the number of physical (term, cover) posting entries
	// — what the aggregated index actually stores.
	StoredEntries int
	// LogicalPostings is the uncompressed posting count (one per
	// (term, filter) pair, tombstones included) — identical to
	// NumPostings().
	LogicalPostings int
	// PostingsSaved is LogicalPostings − StoredEntries: posting entries the
	// aggregation avoided storing.
	PostingsSaved int
	// ExpansionFanoutMilli is the mean number of member bits per stored
	// entry, in thousandths (logical/stored × 1000); 1000 means no
	// compression, higher is better.
	ExpansionFanoutMilli int
	// Singletons is the number of covers that have only ever had one member,
	// registered or not. Where it approaches Covers the population shares no
	// predicates and aggregation has nothing to merge.
	Singletons int
}
