package index

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/movesys/move/internal/model"
)

// A cover is the aggregated index's unit of posting storage: the group of
// all registered filters sharing one canonical predicate signature (match
// mode, threshold, term set). Instead of one posting entry per filter per
// term, the aggregated index stores one (term, cover) entry whose slotSet
// records which members were posted under that term; the cover itself is
// the expansion table mapping that compressed entry back to concrete filter
// IDs (and, through the filter shards, to subscribers).
//
// Members get dense slot indexes in registration order. Slots are
// append-only — a member that unregisters keeps its slot (cleared in the
// alive set) and reclaims the same slot if it re-registers under the same
// signature, so posting slotSets never need rewriting on membership churn.
//
// rep is the cover's representative — the "covering filter" in the
// subsumption literature. It is maintained so the unregister-a-cover case
// promotes a surviving member instead of orphaning the group: when the
// representative unregisters, the lowest live slot takes over.
type cover struct {
	id uint32
	// flags is the lock-free summary the match path reads to decide whether
	// one evaluation of the cover's predicate settles a whole container
	// (coverStale, coverDead, and the slot count above them). Stored under
	// mu, loaded without it.
	flags     atomic.Uint32
	mode      model.MatchMode
	threshold float64
	// ids is the predicate as the match path evaluates it: the term set as
	// sorted, deduplicated dictionary IDs. Immutable.
	ids []uint32
	// terms is the same set as canonical (string-sorted) dictionary-owned
	// strings, immutable. Members whose registered Terms are element-wise
	// equal to it share this exact backing array — that slice identity is
	// what marks a member as "attached" (safe to take the cover-level
	// verdict) versus "stale" (re-registered under a different signature;
	// must be evaluated individually).
	terms []string

	mu    sync.Mutex
	slots []model.FilterID
	// slotOf accelerates member→slot lookup but is built lazily, once the
	// cover reaches coverSlotMapMin members: most covers stay small, and a
	// per-cover map would dominate the memory the aggregation saves. Below
	// the threshold lookups scan slots linearly (nil map).
	slotOf map[model.FilterID]int32
	// alive marks the slots of currently registered members — an advisory
	// set: the match path's source of truth for liveness stays the filter
	// shards (exactly like the flat index's lazy tombstones), while alive
	// drives representative promotion, the cover statistics and the live
	// count of a container the match path skips.
	alive slotSet
	// rep is the representative member, 0 when the cover has no live
	// members.
	rep model.FilterID
	// next chains covers whose signatures share a sigHash (coverSigShard).
	next *cover
}

// cover.flags: two condition bits below the member-slot count.
const (
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
	coverStale = uint32(1) << iota
	// coverDead: some slot is not alive, so a container's live count is not
	// its cardinality.
	coverDead
	coverSlotShift = iota
)

// publishFlags recomputes flags, setting coverStale for good when stale.
// Caller holds c.mu.
func (c *cover) publishFlags(stale bool) {
	f := c.flags.Load()&coverStale | uint32(len(c.slots))<<coverSlotShift
	if stale {
		f |= coverStale
	}
	if c.alive.count() < len(c.slots) {
		f |= coverDead
	}
	c.flags.Store(f)
}

// sigHash hashes a cover's canonical signature — mode, threshold (zero
// unless the mode is MatchThreshold) and the sorted term IDs — with FNV-1a
// over the integers themselves. Its low bits pick the signature shard, the
// whole value keys the shard's table.
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

// hasSig reports whether c's signature is exactly this one.
func (c *cover) hasSig(mode model.MatchMode, threshold float64, ids []uint32) bool {
	return c.mode == mode && c.threshold == threshold && slices.Equal(c.ids, ids)
}

// attachedTo reports whether f's definition is attached to c: its Terms
// slice IS the cover's canonical array (identity, not just equality) and
// mode/threshold agree. Attached members are exactly those whose predicate
// the cover's single evaluation decides; anything else — including a
// same-ID filter re-registered under a different signature whose posting
// bits haven't migrated — falls back to individual evaluation, which keeps
// the aggregated matcher exact under arbitrary register/unregister
// interleavings.
func attachedTo(f *model.Filter, c *cover) bool {
	if f.Mode != c.mode || len(f.Terms) != len(c.terms) {
		return false
	}
	if f.Mode == model.MatchThreshold && f.Threshold != c.threshold {
		return false
	}
	return len(f.Terms) == 0 || &f.Terms[0] == &c.terms[0]
}

// coverSlotMapMin is the membership size at which a cover materializes its
// slotOf map; below it, findSlot scans the slots slice.
const coverSlotMapMin = 16

// findSlot returns id's slot, via the map when materialized or a linear
// scan of the (small) slots slice otherwise. Caller holds c.mu.
func (c *cover) findSlot(id model.FilterID) (int32, bool) {
	if c.slotOf != nil {
		s, ok := c.slotOf[id]
		return s, ok
	}
	for i, m := range c.slots {
		if m == id {
			return int32(i), true
		}
	}
	return 0, false
}

// addSlot appends a new member slot, materializing the lookup map once the
// cover grows past coverSlotMapMin. Caller holds c.mu.
func (c *cover) addSlot(id model.FilterID) int32 {
	s := int32(len(c.slots))
	c.slots = append(c.slots, id)
	if c.slotOf != nil {
		c.slotOf[id] = s
	} else if len(c.slots) >= coverSlotMapMin {
		c.slotOf = make(map[model.FilterID]int32, len(c.slots))
		for i, m := range c.slots {
			c.slotOf[m] = int32(i)
		}
	}
	return s
}

// memberSlot returns the member's slot under the cover lock, adding a new
// slot when the filter was never a member; multi says the ID has belonged
// to another cover, which marks the cover stale. revived reports whether the
// member transitioned dead→alive; firstLive whether the cover transitioned
// empty→populated.
func (c *cover) memberSlot(id model.FilterID, multi bool) (slot int32, revived, firstLive bool) {
	c.mu.Lock()
	s, ok := c.findSlot(id)
	if !ok {
		s = c.addSlot(id)
	}
	if c.alive.testAndSet(int(s)) {
		revived = true
		if c.alive.count() == 1 {
			firstLive = true
			c.rep = id
		}
	}
	c.publishFlags(multi)
	c.mu.Unlock()
	return s, revived, firstLive
}

// markDead clears the member's alive bit; left says the member is leaving
// for another cover rather than unregistering, which also marks the cover
// stale. died reports a live→dead transition; emptied that the cover lost
// its last live member, with a surviving member promoted to representative
// otherwise when the departing member was the representative — the
// unregister-the-covering-filter case.
func (c *cover) markDead(id model.FilterID, left bool) (died, emptied bool) {
	c.mu.Lock()
	if s, ok := c.findSlot(id); ok {
		if c.alive.clear(int(s)) {
			died = true
			if c.alive.count() == 0 {
				emptied = true
				c.rep = 0
			} else if c.rep == id {
				c.rep = c.slots[c.alive.first()]
			}
		}
		c.publishFlags(left)
	}
	c.mu.Unlock()
	return died, emptied
}

// Rep returns the cover's current representative under its lock.
func (c *cover) Rep() model.FilterID {
	c.mu.Lock()
	r := c.rep
	c.mu.Unlock()
	return r
}

// RepFor returns the representative filter ID of the cover holding f's
// predicate signature — the "covering filter" of f's group. ok is false
// on a flat index, when no such cover exists, or when the cover has no
// live members. Diagnostic/test use.
func (ix *Index) RepFor(f model.Filter) (model.FilterID, bool) {
	if ix.agg == nil {
		return 0, false
	}
	c := ix.agg.coverOf(&f, false)
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
	// LogicalPostings is the flat-equivalent posting count (one per
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
}
