package index

import (
	"slices"
	"sync"

	"github.com/movesys/move/internal/model"
)

// This file holds the index's posting lists and filter definitions and the
// paths that write them. A posting list stores one compressed (term, cover)
// entry per predicate signature instead of one entry per filter, and
// agg_match.go expands covers back to concrete filters at match time. The
// equivalence battery in cover_test.go / fuzz_test.go / shard_equiv_test.go
// pins the index to refIndex — one plain posting list of filter IDs per
// term — with identical (sorted) match sets and identical MatchStats.
//
// Stats parity is a hard invariant, not an accident: every (term, filter)
// pair a plain posting list would keep corresponds to exactly one set bit
// across that term's entries, tombstones included. MatchStats therefore
// reports the logical PostingLists/Postings/Evaluated; the physical savings
// are visible through CoverStats and the index.cover.* gauges instead.

// postingEntry is one (term, cover) posting entry: the compressed
// replacement for a run of per-filter posting entries sharing a signature.
// bits holds member slots posted under the term.
type postingEntry struct {
	c    *cover
	bits slotSet
}

// posting is one term's posting list: entries sorted by cover id, plus the
// cached logical cardinality (total set bits — the length of the plain
// posting list it stands for).
type posting struct {
	entries []postingEntry
	card    int
}

// find returns the index of cid in entries (or its insertion point) and
// whether it is present.
func (p *posting) find(cid uint32) (int, bool) {
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

// termShard holds the posting lists whose term IDs fall in it (ID &
// shardMask), as a dense table indexed by the rest of the ID: a posting list
// is found without hashing, and a term no filter is posted under costs an
// empty slot. Entries and bitsets mutate in place, so the match path holds
// the read lock for the whole scan.
type termShard struct {
	mu    sync.RWMutex
	lists []posting
}

// posting returns term's posting list — possibly empty — or nil when the
// table has not grown to it. Caller holds s.mu.
func (s *termShard) posting(term uint32) *posting {
	if i := int(term >> shardBits); i < len(s.lists) {
		return &s.lists[i]
	}
	return nil
}

// entryFor returns term's entry for cover c, inserting it as needed.
// Caller holds s.mu.
func (s *termShard) entryFor(term uint32, c *cover) (*posting, *postingEntry, bool) {
	if i := int(term >> shardBits); i >= len(s.lists) {
		s.lists = append(s.lists, make([]posting, i+1-len(s.lists))...)
	}
	p := &s.lists[term>>shardBits]
	i, ok := p.find(c.id)
	if !ok {
		p.entries = append(p.entries, postingEntry{})
		copy(p.entries[i+1:], p.entries[i:])
		p.entries[i] = postingEntry{c: c}
	}
	return p, &p.entries[i], !ok
}

// clearID clears id's bit in every entry of p other than keep, returning
// the number of bits cleared. Caller holds s.mu.
func clearID(p *posting, keep *cover, id model.FilterID) int {
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

// add sets (c, slot)'s bit under term. Re-homing first: when the filter
// previously carried this term under another cover — prior when its last
// cover is known, any entry when fullScan says the id has multi-cover
// history — the stale bits are cleared in the same lock hold, so a term's
// entries never hold the same filter twice and the logical cardinality
// tracks the deduplicated list length exactly.
func (s *termShard) add(term uint32, c *cover, slot int, id model.FilterID, prior *cover, fullScan bool) (newBit, newEntry bool) {
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
// entry of the term — any cover — already holds the filter, so the whole
// deduplicated list gains the filter at most once. The scan is O(entries);
// this path only runs during migration replay.
func (s *termShard) addIfAbsent(term uint32, c *cover, slot int, id model.FilterID) (added, newEntry bool) {
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
func (p *posting) heldElsewhere(c *cover, id model.FilterID) bool {
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
func (s *termShard) holds(term uint32, c *cover, slot int, id model.FilterID, anyCover bool) bool {
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

// def is a registered filter as the index stores it. Mode, Threshold and the
// canonical Terms are its cover's; the record adds what is the member's own.
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
// haven't migrated — is evaluated individually, which keeps the covering
// matcher exact under arbitrary register/unregister interleavings.
func (d def) attachedTo(c *cover) bool {
	return d.c == c && d.own == nil
}

func (ix *Index) termShard(term uint32) *termShard {
	return &ix.term[term&shardMask]
}

func (ix *Index) histShard(id model.FilterID) *histShard {
	return &ix.hist[filterShardFor(id)]
}

// coverOf returns the cover of f's predicate signature. With create it
// interns f's terms and, on first use of the signature, the cover; without,
// it returns nil when no registration ever built that signature.
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
	h := sigHash(f.Mode, f.Threshold, ids)
	sh := &ix.sig[h&shardMask]
	sh.mu.Lock()
	c := sh.covers[h]
	for c != nil && !c.hasSig(f.Mode, f.Threshold, ids) {
		c = c.next
	}
	if c == nil && create {
		c = &cover{
			id:        ix.seq.Add(1),
			threshold: f.Threshold,
			ids:       slices.Clone(ids),
			terms:     ix.dict.canonical(ids),
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
			own[i] = ix.dict.own(t)
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

// Register stores filter f and adds it to the posting lists of
// postingTerms. On a home node postingTerms is the single responsible term
// (or the node's responsible subset of f's terms); the RS baseline passes
// all of f's terms. The definition's store write happens first, so the
// in-memory shards never serve a filter the durability layer doesn't have; a
// posting entry is written through only when its bit was not already set, so
// re-registering an ID does not grow the store. When the ID re-registers
// under another signature, its posting bits are re-homed to the new cover.
//
// What the index keeps of f's Terms is the dictionary's copy (newDef), never
// the caller's slice: a stored definition is immutable from here on, which is
// what lets the match path return filters without cloning them back out
// (DESIGN.md §11).
func (ix *Index) Register(f model.Filter, postingTerms []string) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if err := ix.storeFilter(f); err != nil {
		return err
	}
	c := ix.coverOf(&f, true)

	// Locate the filter's previous cover: from its live definition if it
	// is re-registering, from the tombstone record if it was unregistered
	// or recovered without a definition.
	var prior *cover
	if old, hadOld := ix.defs.shard(f.ID).get(f.ID); hadOld {
		prior = old.c
	} else {
		prior = ix.histShard(f.ID).takeLastGone(f.ID)
	}
	if prior == c {
		prior = nil
	}
	fullScan, multi := ix.histShard(f.ID).noteCover(f.ID, prior)

	slot := ix.join(c, f.ID, multi)
	if prior != nil {
		ix.leave(prior, f.ID, true)
	}
	if ix.defs.put(f.ID, ix.newDef(&f, c)) {
		ix.numFilters.Add(1)
	}
	ix.numPostings.Add(int64(len(postingTerms)))
	for _, t := range postingTerms {
		tid := ix.dict.intern(t)
		newBit, newEntry := ix.termShard(tid).add(tid, c, int(slot), f.ID, prior, fullScan)
		if newEntry {
			ix.storedEntries.Add(1)
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
func (ix *Index) join(c *cover, id model.FilterID, multi bool) int32 {
	slot, added, revived, firstLive := c.memberSlot(id, multi)
	if added && slot < 2 {
		ix.singletons.Add(int64(1 - 2*slot)) // slot 0: one more; slot 1: one fewer
	}
	if revived {
		ix.membersLive.Add(1)
	}
	if firstLive {
		ix.coversLive.Add(1)
	}
	return slot
}

// leave marks id dead in c (see cover.markDead), keeping the gauges.
func (ix *Index) leave(c *cover, id model.FilterID, left bool) {
	died, emptied := c.markDead(id, left)
	if died {
		ix.membersLive.Add(-1)
	}
	if emptied {
		ix.coversLive.Add(-1)
	}
}

// EnsureRegistered is Register made idempotent for migration replay: a
// duplicated or retried MigrateReq batch may deliver the same (filter,
// posting terms) pair any number of times, and the counters must still
// count distinct state. created reports whether this call stored the
// filter definition (false when a copy already existed — pre-existing
// copies belong to an older placement or the home itself and must survive
// an abort of the current epoch); the posting bits attach to the cover of
// whichever definition is current.
//
// The definition's store write happens under its filter-shard lock, so
// concurrent replays agree on exactly one creator and the layers never
// disagree. A posting entry's term-shard insert runs before its store write:
// addIfAbsent's single write-lock hold is what arbitrates concurrent replays,
// so it must decide first and the store add follows only for the winner. A
// crash between the two loses only in-memory state, which the next replay of
// the same batch restores.
func (ix *Index) EnsureRegistered(f model.Filter, postingTerms []string) (bool, error) {
	if err := f.Validate(); err != nil {
		return false, err
	}
	c := ix.coverOf(&f, true)
	created := false
	sh := ix.defs.shard(f.ID)
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
		if prior = ix.histShard(f.ID).takeLastGone(f.ID); prior == c {
			prior = nil
		}
	} else {
		// A copy already existed, possibly under a different signature; the
		// bits belong with the definition the match path will read.
		c = cur.c
	}
	_, multi := ix.histShard(f.ID).noteCover(f.ID, prior)
	if prior != nil {
		ix.leave(prior, f.ID, true)
	}
	slot := ix.join(c, f.ID, multi)
	for _, t := range postingTerms {
		tid := ix.dict.intern(t)
		added, newEntry := ix.termShard(tid).addIfAbsent(tid, c, int(slot), f.ID)
		if newEntry {
			ix.storedEntries.Add(1)
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

// Unregister removes a filter definition if present (no-op otherwise, so
// cluster-wide broadcasts are safe). Posting entries are left to be
// filtered lazily on match (a standard tombstone-style design: posting
// lists are append-only; a missing filter definition drops the candidate).
// The cover's liveness is kept — in particular a surviving member is
// promoted to representative when the covering filter itself unregisters,
// so the cover (and its posting entries) stay owned.
func (ix *Index) Unregister(id model.FilterID) error {
	sh := ix.defs.shard(id)
	sh.mu.Lock()
	d, present := sh.defs[id]
	if !present {
		sh.mu.Unlock()
		return nil
	}
	// Delete from the store while holding the shard lock so a concurrent
	// Register of the same ID cannot interleave between the two layers and
	// leave them disagreeing.
	if err := ix.storeDeleteFilter(id); err != nil {
		sh.mu.Unlock()
		return err
	}
	delete(sh.defs, id)
	sh.mu.Unlock()
	ix.numFilters.Add(-1)
	ix.leave(d.c, id, false)
	ix.histShard(id).setLastGone(id, d.c)
	return nil
}

// loadFromStore rebuilds the serving layer and counters after a restart, one
// scan per column family. Definitions are interned into covers first; posting
// bits are then attached to each id's current cover, or to the orphan cover
// when the definition is gone — which also normalizes every id back to a
// single cover, clearing any pre-crash multi-cover history. Posting lists
// come back deduplicated (PostingStore.Each merges), so the recovered
// numPostings counts distinct entries even if the live counter had drifted
// past that before the crash.
func (ix *Index) loadFromStore() error {
	count := 0
	err := ix.filters.Each(func(f model.Filter) bool {
		c := ix.coverOf(&f, true)
		ix.join(c, f.ID, false)
		ix.defs.put(f.ID, ix.newDef(&f, c))
		count++
		return true
	})
	if err != nil {
		return err
	}
	ix.numFilters.Store(int64(count))
	total := 0
	err = ix.postings.Each(func(t string, ids []model.FilterID) bool {
		tid := ix.dict.intern(t)
		sh := ix.termShard(tid)
		for _, id := range ids {
			var c *cover
			var slot int32
			if d, ok := ix.defs.shard(id).get(id); ok {
				c = d.c
				slot = ix.join(c, id, false)
			} else {
				c = ix.orphan
				slot = c.bareSlot(id)
				ix.histShard(id).setLastGone(id, c)
			}
			if _, newEntry := sh.add(tid, c, int(slot), id, nil, false); newEntry {
				ix.storedEntries.Add(1)
			}
		}
		total += len(ids)
		return true
	})
	ix.numPostings.Store(int64(total))
	return err
}
