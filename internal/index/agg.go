package index

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/movesys/move/internal/model"
)

// This file is the aggregated (covering) index engine — the production
// serving layer built by New. It stores posting lists as one compressed
// (term, cover) entry per predicate signature instead of one entry per
// filter, and expands covers back to concrete filters at match time. The
// flat per-filter engine (index.go + shard.go, built by NewFlat) stays
// alive as the in-tree correctness oracle; the equivalence battery in
// cover_test.go / fuzz_test.go / shard_equiv_test.go pins the two engines
// to identical (sorted) match sets and identical MatchStats.
//
// Stats parity is a hard invariant, not an accident: every (term, filter)
// pair the flat index would keep on a posting list corresponds to exactly
// one set bit across that term's entries, tombstones included. MatchStats
// therefore reports the same logical PostingLists/Postings/Evaluated the
// flat engine reports; the physical savings are visible through
// CoverStats and the index.cover.* gauges instead.

// aggEntry is one (term, cover) posting entry: the compressed replacement
// for a run of per-filter posting entries sharing a signature. bits holds
// member slots posted under the term.
type aggEntry struct {
	c    *cover
	bits slotSet
}

// aggPosting is one term's posting list: entries sorted by cover id, plus
// the cached logical cardinality (total set bits — what the flat engine's
// len(ids) would be).
type aggPosting struct {
	entries []aggEntry
	card    int
}

// find returns the index of cid in entries (or its insertion point) and
// whether it is present.
func (p *aggPosting) find(cid uint32) (int, bool) {
	lo, hi := 0, len(p.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.entries[mid].c.id < cid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(p.entries) && p.entries[lo].c.id == cid
}

// aggTermShard holds the aggregated posting lists whose term IDs fall in
// it (ID & shardMask), as a dense table indexed by the rest of the ID: a
// posting list is found without hashing, and a term no filter is posted
// under costs an empty slot. Unlike the flat termShard, entries and bitsets
// mutate in place, so the match path holds the read lock for the whole scan
// instead of copying a snapshot header.
type aggTermShard struct {
	mu    sync.RWMutex
	lists []aggPosting
}

// posting returns term's posting list — possibly empty — or nil when the
// table has not grown to it. Caller holds s.mu.
func (s *aggTermShard) posting(term uint32) *aggPosting {
	if i := int(term >> shardBits); i < len(s.lists) {
		return &s.lists[i]
	}
	return nil
}

// entryFor returns term's entry for cover c, inserting it as needed.
// Caller holds s.mu.
func (s *aggTermShard) entryFor(term uint32, c *cover) (*aggPosting, *aggEntry, bool) {
	if i := int(term >> shardBits); i >= len(s.lists) {
		s.lists = append(s.lists, make([]aggPosting, i+1-len(s.lists))...)
	}
	p := &s.lists[term>>shardBits]
	i, ok := p.find(c.id)
	if !ok {
		p.entries = append(p.entries, aggEntry{})
		copy(p.entries[i+1:], p.entries[i:])
		p.entries[i] = aggEntry{c: c}
	}
	return p, &p.entries[i], !ok
}

// clearID clears id's bit in every entry of p other than keep, returning
// the number of bits cleared. Caller holds s.mu.
func clearID(p *aggPosting, keep *cover, id model.FilterID) int {
	cleared := 0
	for i := range p.entries {
		e := &p.entries[i]
		if e.c == keep {
			continue
		}
		if s, ok := e.c.slotIndex(id); ok && e.bits.clear(int(s)) {
			cleared++
		}
	}
	p.card -= cleared
	return cleared
}

// aggAdd sets (c, slot)'s bit under term. Re-homing first: when the filter
// previously carried this term under another cover — prior when its last
// cover is known, any entry when fullScan says the id has multi-cover
// history — the stale bits are cleared in the same lock hold, so a term's
// entries never hold the same filter twice and the logical cardinality
// tracks the flat index's deduplicated list length exactly.
func (s *aggTermShard) aggAdd(term uint32, c *cover, slot int, id model.FilterID, prior *cover, fullScan bool) (newBit, newEntry bool) {
	s.mu.Lock()
	p, e, newEntry := s.entryFor(term, c)
	if fullScan {
		clearID(p, c, id)
	} else if prior != nil && prior != c {
		if i, ok := p.find(prior.id); ok {
			pe := &p.entries[i]
			if ps, ok := prior.slotIndex(id); ok && pe.bits.clear(int(ps)) {
				p.card--
			}
		}
	}
	if e.bits.testAndSet(slot) {
		p.card++
		newBit = true
	}
	s.mu.Unlock()
	return newBit, newEntry
}

// addIfAbsent is the migration-replay variant: the bit is set only when no
// entry of the term — any cover — already holds the filter, mirroring the
// flat engine's addIfAbsent over the whole deduplicated list. The scan is
// O(entries); this path only runs during migration replay.
func (s *aggTermShard) addIfAbsent(term uint32, c *cover, slot int, id model.FilterID) (added, newEntry bool) {
	s.mu.Lock()
	p, e, newEntry := s.entryFor(term, c)
	if !e.bits.has(slot) && !p.heldElsewhere(c, id) {
		e.bits.testAndSet(slot)
		p.card++
		added = true
	}
	s.mu.Unlock()
	return added, newEntry
}

// heldElsewhere reports whether an entry of p for a cover other than c holds
// id. Caller holds the shard's lock.
func (p *aggPosting) heldElsewhere(c *cover, id model.FilterID) bool {
	for i := range p.entries {
		e := &p.entries[i]
		if e.c == c {
			continue
		}
		if s, ok := e.c.slotIndex(id); ok && e.bits.has(int(s)) {
			return true
		}
	}
	return false
}

// holds reports whether term's posting list holds id: under (c, slot), the
// cover its bits belong with, or — anyCover, for an id with multi-cover
// history — under whichever cover a stale bit was left.
func (s *aggTermShard) holds(term uint32, c *cover, slot int, id model.FilterID, anyCover bool) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := s.posting(term)
	if p == nil {
		return false
	}
	if i, ok := p.find(c.id); ok && p.entries[i].bits.has(slot) {
		return true
	}
	return anyCover && p.heldElsewhere(c, id)
}

// remove drops term's posting list, returning the physical entry count it
// held (for stored-entry accounting).
func (s *aggTermShard) remove(term uint32) int {
	s.mu.Lock()
	n := 0
	if p := s.posting(term); p != nil {
		n = len(p.entries)
		*p = aggPosting{}
	}
	s.mu.Unlock()
	return n
}

// histShard tracks per-filter cover history for the re-registration
// paths, sharded like the filter table. multi stays tiny — only ids that
// ever switched signatures. lastGone does not: an id whose definition is
// deleted (a tombstone) and that never re-registers — every departed
// subscriber's — keeps its entry until the process restarts (TestMemBudget's
// churn row prices it; DESIGN.md §15).
type histShard struct {
	mu sync.Mutex
	// lastGone maps an id with no live definition to the cover that held
	// it when it unregistered (or the orphan cover after a restart).
	lastGone map[model.FilterID]*cover
	// multi marks ids that have been members of more than one cover; their
	// stale bits can hide in any entry, so re-registration re-homes them
	// with a full entry scan instead of a targeted clear.
	multi map[model.FilterID]struct{}
}

// aggState is the aggregated engine's serving state, attached to an Index
// by New (nil under NewFlat).
type aggState struct {
	seq  atomic.Uint32
	dict *termDict
	sig  [DefaultShards]coverSigShard
	term [DefaultShards]aggTermShard
	hist [DefaultShards]histShard
	// defs is the filter table: a definition is its subscriber and its cover.
	defs filterTable[def]

	// orphan collects posting bits recovered at startup whose filter
	// definition no longer exists — the flat engine's tombstones. Its mode
	// is invalid so it never matches as a cover; its members are dropped
	// at match time by the same missing-definition check the flat index
	// uses.
	orphan *cover

	coversLive    atomic.Int64
	membersLive   atomic.Int64
	storedEntries atomic.Int64
	// singletons counts covers with exactly one member slot: up when slot 0
	// is assigned, down when slot 1 is.
	singletons atomic.Int64
}

// def is a registered filter as the aggregated engine stores it. Mode,
// Threshold and the canonical Terms are its cover's; the record adds what is
// the member's own.
type def struct {
	sub string // shared through Index.subs
	c   *cover
	// own is the filter's Terms when it registered them in another order than
	// the cover's canonical one (or with repeats) — rare: nil otherwise.
	own *[]string
}

// filter is the model.Filter the definition stands for. Its Terms alias the
// cover's array or the record's own; either is immutable (DESIGN.md §11).
func (d def) filter(id model.FilterID) model.Filter {
	f := model.Filter{ID: id, Subscriber: d.sub, Terms: d.c.terms, Mode: d.c.mode(), Threshold: d.c.threshold}
	if d.own != nil {
		f.Terms = *d.own
	}
	return f
}

// attachedTo reports whether c's single evaluation decides the definition: c
// is its cover and it has no term order of its own. Anything else — such as
// a same-ID filter re-registered under another signature whose posting bits
// haven't migrated — is evaluated individually, which keeps the aggregated
// matcher exact under arbitrary register/unregister interleavings.
func (d def) attachedTo(c *cover) bool {
	return d.c == c && d.own == nil
}

func newAggState() *aggState {
	a := &aggState{dict: newTermDict()}
	a.defs.init()
	for i := range a.sig {
		a.sig[i].covers = make(map[uint64]*cover)
	}
	for i := range a.hist {
		a.hist[i].lastGone = make(map[model.FilterID]*cover)
		a.hist[i].multi = make(map[model.FilterID]struct{})
	}
	a.orphan = &cover{id: a.seq.Add(1)} // mode 0
	return a
}

func (a *aggState) termShard(term uint32) *aggTermShard {
	return &a.term[term&shardMask]
}

func (a *aggState) histShard(id model.FilterID) *histShard {
	return &a.hist[filterShardFor(id)]
}

// coverOf returns the cover of f's predicate signature. With create it
// interns f's terms and, on first use of the signature, the cover; without,
// it returns nil when no registration ever built that signature.
func (a *aggState) coverOf(f *model.Filter, create bool) *cover {
	var idBuf [8]uint32
	ids := idBuf[:0]
	for _, t := range f.Terms {
		var id uint32
		if create {
			id = a.dict.intern(t)
		} else if id = a.dict.lookup(t); id == noTerm {
			return nil
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	h := sigHash(f.Mode, f.Threshold, ids)
	sh := &a.sig[h&shardMask]
	sh.mu.Lock()
	c := sh.covers[h]
	for c != nil && !c.hasSig(f.Mode, f.Threshold, ids) {
		c = c.next
	}
	if c == nil && create {
		c = &cover{
			id:        a.seq.Add(1),
			threshold: f.Threshold,
			ids:       slices.Clone(ids),
			terms:     a.dict.canonical(ids),
			next:      sh.covers[h],
		}
		c.flags.Store(uint32(f.Mode) & coverModeMask)
		sh.covers[h] = c
	}
	sh.mu.Unlock()
	return c
}

// newDef returns the definition to store for f as a member of c. When f's
// terms are not in canonical order it keeps a private array in its own
// order, of the dictionary's strings.
func (ix *Index) newDef(f *model.Filter, c *cover) def {
	d := def{sub: ix.subs.share(f.Subscriber), c: c}
	if !slices.Equal(f.Terms, c.terms) {
		own := make([]string, len(f.Terms))
		for i, t := range f.Terms {
			own[i] = ix.agg.dict.own(t)
		}
		d.own = &own
	}
	return d
}

// slotIndex returns id's slot in the cover, if it ever joined.
func (c *cover) slotIndex(id model.FilterID) (int32, bool) {
	c.mu.Lock()
	s, ok := c.findSlot(id)
	c.mu.Unlock()
	return s, ok
}

// bareSlot assigns a slot without touching liveness — used for orphan
// members, which have no definition and therefore are not alive.
func (c *cover) bareSlot(id model.FilterID) int32 {
	c.mu.Lock()
	s, ok := c.findSlot(id)
	if !ok {
		s = c.addSlot(id)
		c.publishFlags(c.flags.Load()|coverDead|coverOneSlot, false)
	}
	c.mu.Unlock()
	return s
}

// takeLastGone removes and returns id's tombstone cover, if any.
func (h *histShard) takeLastGone(id model.FilterID) *cover {
	h.mu.Lock()
	c := h.lastGone[id]
	if c != nil {
		delete(h.lastGone, id)
	}
	h.mu.Unlock()
	return c
}

func (h *histShard) setLastGone(id model.FilterID, c *cover) {
	h.mu.Lock()
	h.lastGone[id] = c
	h.mu.Unlock()
}

// noteCover records that id now belongs to a cover having previously
// belonged to prior (nil: no hop). wasMulti reports whether the id was
// already multi-cover before — whether stale bits could hide outside prior;
// multi whether it is now.
func (h *histShard) noteCover(id model.FilterID, prior *cover) (wasMulti, multi bool) {
	h.mu.Lock()
	_, wasMulti = h.multi[id]
	if prior != nil {
		h.multi[id] = struct{}{}
	}
	h.mu.Unlock()
	return wasMulti, wasMulti || prior != nil
}

// aggRegister is Register on the aggregated engine. The store writes and
// counter updates mirror the flat path; the in-memory layer re-homes the
// filter's posting bits when its signature changed.
func (ix *Index) aggRegister(f model.Filter, postingTerms []string) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if err := ix.storeFilter(f); err != nil {
		return err
	}
	a := ix.agg
	c := a.coverOf(&f, true)

	// Locate the filter's previous cover: from its live definition if it
	// is re-registering, from the tombstone record if it was unregistered
	// or recovered without a definition.
	var prior *cover
	if old, hadOld := a.defs.shard(f.ID).get(f.ID); hadOld {
		prior = old.c
	} else {
		prior = a.histShard(f.ID).takeLastGone(f.ID)
	}
	if prior == c {
		prior = nil
	}
	fullScan, multi := a.histShard(f.ID).noteCover(f.ID, prior)

	slot := a.join(c, f.ID, multi)
	if prior != nil {
		a.leave(prior, f.ID, true)
	}
	if a.defs.put(f.ID, ix.newDef(&f, c)) {
		ix.numFilters.Add(1)
	}
	ix.numPostings.Add(int64(len(postingTerms)))
	for _, t := range postingTerms {
		tid := a.dict.intern(t)
		newBit, newEntry := a.termShard(tid).aggAdd(tid, c, int(slot), f.ID, prior, fullScan)
		if newEntry {
			a.storedEntries.Add(1)
		}
		// A bit already set is an entry the store already has.
		if newBit {
			if err := ix.storePosting(t, f.ID); err != nil {
				return err
			}
		}
	}
	return nil
}

// join makes id a live member of c (see cover.memberSlot), keeping the
// live-cover and live-member gauges, and returns its slot.
func (a *aggState) join(c *cover, id model.FilterID, multi bool) int32 {
	slot, added, revived, firstLive := c.memberSlot(id, multi)
	if added && slot < 2 {
		a.singletons.Add(int64(1 - 2*slot)) // slot 0: one more; slot 1: one fewer
	}
	if revived {
		a.membersLive.Add(1)
	}
	if firstLive {
		a.coversLive.Add(1)
	}
	return slot
}

// leave marks id dead in c (see cover.markDead), keeping the gauges.
func (a *aggState) leave(c *cover, id model.FilterID, left bool) {
	died, emptied := c.markDead(id, left)
	if died {
		a.membersLive.Add(-1)
	}
	if emptied {
		a.coversLive.Add(-1)
	}
}

// aggEnsureRegistered is EnsureRegistered on the aggregated engine:
// idempotent for migration replay, with posting bits attached to the
// cover of whichever definition is current.
func (ix *Index) aggEnsureRegistered(f model.Filter, postingTerms []string) (bool, error) {
	if err := f.Validate(); err != nil {
		return false, err
	}
	a := ix.agg
	c := a.coverOf(&f, true)
	created := false
	sh := a.defs.shard(f.ID)
	sh.mu.Lock()
	cur, ok := sh.defs[f.ID]
	if !ok {
		if err := ix.storeFilter(f); err != nil {
			sh.mu.Unlock()
			return false, err
		}
		sh.defs[f.ID] = ix.newDef(&f, c)
		created = true
	}
	sh.mu.Unlock()
	var prior *cover
	if created {
		ix.numFilters.Add(1)
		// The id may come back from a tombstone whose cover still holds
		// stale bits on terms this replay doesn't carry; record the hop so
		// later re-registrations re-home with a full scan.
		if prior = a.histShard(f.ID).takeLastGone(f.ID); prior == c {
			prior = nil
		}
	} else {
		// A copy already existed, possibly under a different signature; the
		// bits belong with the definition the match path will read.
		c = cur.c
	}
	_, multi := a.histShard(f.ID).noteCover(f.ID, prior)
	if prior != nil {
		a.leave(prior, f.ID, true)
	}
	slot := a.join(c, f.ID, multi)
	for _, t := range postingTerms {
		tid := a.dict.intern(t)
		added, newEntry := a.termShard(tid).addIfAbsent(tid, c, int(slot), f.ID)
		if newEntry {
			a.storedEntries.Add(1)
		}
		if added {
			ix.numPostings.Add(1)
			if err := ix.storePosting(t, f.ID); err != nil {
				return created, err
			}
		}
	}
	return created, nil
}

// aggUnregister is Unregister on the aggregated engine. Beyond the flat
// path's tombstone discipline it maintains cover liveness — in particular
// promoting a surviving member to representative when the covering filter
// itself unregisters, so the cover (and its posting entries) stay owned.
func (ix *Index) aggUnregister(id model.FilterID) error {
	a := ix.agg
	d, present, err := removeDef(ix, a.defs.shard(id), id)
	if !present {
		return err
	}
	a.leave(d.c, id, false)
	a.histShard(id).setLastGone(id, d.c)
	return nil
}

// aggDropTerm drops a term's aggregated posting list.
func (ix *Index) aggDropTerm(term string) error {
	if err := ix.storeDropTerm(term); err != nil {
		return err
	}
	if tid := ix.agg.dict.lookup(term); tid != noTerm {
		removed := ix.agg.termShard(tid).remove(tid)
		ix.agg.storedEntries.Add(-int64(removed))
	}
	return nil
}

// aggLoad rebuilds the aggregated serving layer from the store after a
// restart, one scan per column family. Definitions are interned into covers
// first; posting bits are then attached to each id's current cover, or to
// the orphan cover when the definition is gone — which also normalizes every
// id back to a single cover, clearing any pre-crash multi-cover history.
func (ix *Index) aggLoad() error {
	a := ix.agg
	count := 0
	err := ix.filters.Each(func(f model.Filter) bool {
		c := a.coverOf(&f, true)
		a.join(c, f.ID, false)
		a.defs.put(f.ID, ix.newDef(&f, c))
		count++
		return true
	})
	if err != nil {
		return err
	}
	ix.numFilters.Store(int64(count))
	total := 0
	err = ix.postings.Each(func(t string, ids []model.FilterID) bool {
		tid := a.dict.intern(t)
		sh := a.termShard(tid)
		for _, id := range ids {
			var c *cover
			var slot int32
			if d, ok := a.defs.shard(id).get(id); ok {
				c = d.c
				slot = a.join(c, id, false)
			} else {
				c = a.orphan
				slot = c.bareSlot(id)
				a.histShard(id).setLastGone(id, c)
			}
			if _, newEntry := sh.aggAdd(tid, c, int(slot), id, nil, false); newEntry {
				a.storedEntries.Add(1)
			}
		}
		total += len(ids)
		return true
	})
	ix.numPostings.Store(int64(total))
	return err
}
