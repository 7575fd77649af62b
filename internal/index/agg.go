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
// across that term's entries, and a filter that unregisters takes its bits
// along. MatchStats therefore reports the logical PostingLists/Postings/
// Evaluated; the physical savings are visible through CoverStats and the
// index.cover.* gauges instead.
//
// Where a filter's bits are: under its cover's entries only — a registration
// joins the cover of the filter's current signature, and one that changes
// signature moves out of the old cover, bits and slot — and a cover's entries
// are under its own terms (cover.ids) and the few others its members were
// posted under (Index.extra): the whole list a departing member visits.

// postingEntry is one (term, cover) posting entry: the compressed
// replacement for a run of per-filter posting entries sharing a signature.
// set holds the member slots posted under the term; cid is the cover's ID,
// its address in the cover slab — so a list is searched without a load from
// any cover, and holds no pointer. 8 bytes.
type postingEntry struct {
	cid uint32
	set slotSet
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
		if p.entries[mid].cid < cid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(p.entries) && p.entries[lo].cid == cid
}

// termShard holds the posting lists whose term IDs fall in it (ID &
// shardMask), as a dense table indexed by the rest of the ID: a posting list
// is found without hashing, and a term no filter is posted under costs an
// empty slot. Entries and bitsets mutate in place, so the match path holds
// the read lock for the whole scan. sets holds the shard's promoted slot
// sets.
type termShard struct {
	mu    sync.RWMutex
	lists []posting
	sets  slotSets
}

// posting returns term's posting list — possibly empty — or nil when the
// table has not grown to it. Caller holds s.mu.
func (s *termShard) posting(term uint32) *posting {
	if i := int(term >> shardBits); i < len(s.lists) {
		return &s.lists[i]
	}
	return nil
}

// add sets (cid, slot)'s bit under term, inserting the entry as needed.
// newBit reports whether the bit was not set, newEntry whether the entry
// was not there.
func (s *termShard) add(term, cid uint32, slot int32) (newBit, newEntry bool) {
	s.mu.Lock()
	if i := int(term >> shardBits); i >= cap(s.lists) {
		// An eighth of headroom, not append's doubling: term IDs arrive one
		// by one, and a table grown by doubling sits up to half empty.
		grown := make([]posting, i+1, i+1+i/8)
		copy(grown, s.lists)
		s.lists = grown
	} else if i >= len(s.lists) {
		s.lists = s.lists[:i+1]
	}
	p := &s.lists[term>>shardBits]
	i, ok := p.find(cid)
	if !ok {
		p.entries = slices.Insert(p.entries, i, postingEntry{cid: cid})
	}
	if s.sets.testAndSet(&p.entries[i].set, int(slot)) {
		p.card++
		newBit = true
	}
	s.mu.Unlock()
	return newBit, !ok
}

// clear clears (cid, slot)'s bit under term and drops the entry once it
// holds no bit, so a retiring cover leaves no entry behind. cleared reports
// whether the bit was set, gone whether the entry went.
func (s *termShard) clear(term, cid uint32, slot int32) (cleared, gone bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.posting(term)
	if p == nil {
		return false, false
	}
	i, ok := p.find(cid)
	if !ok {
		return false, false
	}
	e := &p.entries[i]
	if !s.sets.clear(&e.set, int(slot)) {
		return false, false
	}
	p.card--
	if s.sets.count(e.set) > 0 {
		return true, false
	}
	s.sets.release(e.set)
	if p.entries = slices.Delete(p.entries, i, i+1); len(p.entries) == 0 {
		p.entries = nil
	}
	return true, true
}

// extraTerms records, per cover ID, the terms outside the cover's signature
// that it has posting entries under: rare — a grid column replaying a newer
// definition of a filter it holds under an older one posts the old cover
// under a term of the new — so one locked map, not a field of every cover.
// An entry lives until its cover retires.
type extraTerms struct {
	mu    sync.Mutex
	terms map[uint32][]uint32
}

// add records tid as one of cover cid's extra terms.
func (x *extraTerms) add(cid, tid uint32) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !slices.Contains(x.terms[cid], tid) {
		if x.terms == nil {
			x.terms = make(map[uint32][]uint32)
		}
		x.terms[cid] = append(x.terms[cid], tid)
	}
}

// of returns every term cover cid may have posting entries under: ids, its
// own, and its extra terms.
func (x *extraTerms) of(cid uint32, ids []uint32) []uint32 {
	x.mu.Lock()
	defer x.mu.Unlock()
	if more := x.terms[cid]; len(more) > 0 {
		return append(slices.Clip(ids), more...)
	}
	return ids
}

// forget drops a retired cover's record.
func (x *extraTerms) forget(cid uint32) {
	x.mu.Lock()
	delete(x.terms, cid)
	x.mu.Unlock()
}

// holds reports whether term's posting list holds (cid, slot).
func (s *termShard) holds(term, cid uint32, slot int32) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := s.posting(term)
	if p == nil {
		return false
	}
	i, ok := p.find(cid)
	return ok && s.sets.has(p.entries[i].set, int(slot))
}

func (ix *Index) termShard(term uint32) *termShard {
	return &ix.term[term&shardMask]
}

// ownTerms returns what the index keeps of f's Terms besides its cover's
// IDs: nil when they are in canonical order — the cover's term set spelled
// out — and otherwise, registered in another order or with repeats, a
// private array in f's order of the dictionary's strings.
func (ix *Index) ownTerms(f *model.Filter) []string {
	if strictlySorted(f.Terms) {
		return nil
	}
	own := make([]string, len(f.Terms))
	for i, t := range f.Terms {
		own[i] = ix.dict.own(t)
	}
	return own
}

// join makes f a member of the cover of its signature and stores that cover
// as f's definition in sh, f's filter shard, with f's own term order when it
// has one; it returns the cover, f's slot and whether the ID had no
// definition before. A member of the cover already — a re-registration
// under the same signature — keeps its slot and takes f's subscriber,
// written under the shard's write lock, which the match path reads a
// member's subscriber under.
func (ix *Index) join(sh *filterShard, f *model.Filter) (cid uint32, slot int32, created bool) {
	sub := ix.subs.share(f.Subscriber)
	cid, slot, joined := ix.joinCover(f, sub)
	own := ix.ownTerms(f)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	had := sh.put(f.ID, cid)
	if own != nil {
		if sh.own == nil {
			sh.own = make(map[model.FilterID][]string)
		}
		sh.own[f.ID] = own
	} else {
		delete(sh.own, f.ID)
	}
	if !joined {
		mu := ix.coverMu(cid)
		mu.Lock()
		ix.setSub(cid, slot, sub)
		mu.Unlock()
	}
	return cid, slot, !had
}

// strictlySorted reports whether terms is in canonical order: ascending,
// without repeats.
func strictlySorted(terms []string) bool {
	for i := 1; i < len(terms); i++ {
		if terms[i-1] >= terms[i] {
			return false
		}
	}
	return true
}

// post sets (cid, slot)'s bit under each of terms. A term the cover does not
// name — a grid column's replay of a newer definition than the one it holds
// — is recorded as one of the cover's extra terms first.
func (ix *Index) post(cid uint32, slot int32, terms []string) {
	c := ix.slab.rec(cid)
	for _, t := range terms {
		tid := ix.dict.intern(t)
		if !ix.slab.names(c, tid) {
			ix.extra.add(cid, tid)
		}
		newBit, newEntry := ix.termShard(tid).add(tid, cid, slot)
		if newEntry {
			ix.storedEntries.Add(1)
		}
		if newBit {
			ix.numPostings.Add(1)
		}
	}
}

// drop takes the member in slot out of cover cid: its bit leaves every entry
// of the cover, under the cover's terms and its extra ones, and the slot is
// vacated, retiring the cover when it was the last member.
func (ix *Index) drop(cid uint32, slot int32) {
	for _, tid := range ix.extra.of(cid, ix.slab.terms(ix.slab.rec(cid))) {
		cleared, gone := ix.termShard(tid).clear(tid, cid, slot)
		if gone {
			ix.storedEntries.Add(-1)
		}
		if cleared {
			ix.numPostings.Add(-1)
		}
	}
	ix.leave(cid, slot)
}

// Register stores filter f and adds it to the posting lists of
// postingTerms. On a home node postingTerms is the single responsible
// term (or the node's responsible subset of f's terms); the RS baseline passes
// all of f's terms. On a durable index the filter's one store record — its
// definition and every term it is posted under — is written first, so the
// in-memory shards never serve a filter the durability layer doesn't have,
// and only when the call changes it (persist).
//
// Re-registering a live ID with the same signature adds to the terms it is
// posted under; with another signature it replaces the filter: the posting
// lists then hold it under the new postingTerms only, and the old cover has
// lost a member.
//
// What the index keeps of f's Terms is its cover's dictionary IDs, and for a
// filter registered out of canonical order an array of the dictionary's
// strings (ownTerms) — never the caller's slice. A stored definition is
// immutable from here on (DESIGN.md §11), but for the subscriber a
// re-registration under the same signature rewrites in its slot.
func (ix *Index) Register(f model.Filter, postingTerms []string) error {
	if err := f.Validate(); err != nil {
		return err
	}
	sh := ix.defs.shard(f.ID)
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	if err := ix.persist(&f, postingTerms, true); err != nil {
		return err
	}
	old, had := sh.get(f.ID)
	cid, slot, created := ix.join(sh, &f)
	if created {
		ix.numFilters.Add(1)
	}
	ix.post(cid, slot, postingTerms)
	if had && old != cid {
		oldSlot, _ := ix.slotIndex(old, f.ID)
		ix.drop(old, oldSlot)
	}
	return nil
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
// The ID's writers are serialized (filterShard.wmu), so concurrent replays
// agree on exactly one creator and the layers never disagree. On a durable
// index the record is written before the shards change, and a replay that
// adds no posting term writes nothing.
func (ix *Index) EnsureRegistered(f model.Filter, postingTerms []string) (bool, error) {
	if err := f.Validate(); err != nil {
		return false, err
	}
	sh := ix.defs.shard(f.ID)
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	if err := ix.persist(&f, postingTerms, false); err != nil {
		return false, err
	}
	cid, ok := sh.get(f.ID)
	var slot int32
	if ok {
		// A copy already existed, possibly under a different signature; the
		// bits belong with the definition the match path will read.
		slot, _ = ix.slotIndex(cid, f.ID)
	} else {
		cid, slot, _ = ix.join(sh, &f)
		ix.numFilters.Add(1)
	}
	ix.post(cid, slot, postingTerms)
	return !ok, nil
}

// Unregister removes a filter definition if present (no-op otherwise, so
// cluster-wide broadcasts are safe) and everything the index held for it:
// its store record, its posting bits, its slot in its cover, and the cover
// itself when it was the last member (DESIGN.md §15). The definition goes
// first, so a match racing the removal drops the filter's still-set bits on
// the missing definition, as it would a stale candidate of a plain posting
// list.
func (ix *Index) Unregister(id model.FilterID) error {
	sh := ix.defs.shard(id)
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	cid, present := sh.get(id)
	if !present {
		return nil
	}
	if ix.filters != nil {
		if err := ix.filters.Delete(id); err != nil {
			return err
		}
	}
	sh.mu.Lock()
	sh.delete(id)
	delete(sh.own, id)
	sh.mu.Unlock()
	ix.numFilters.Add(-1)
	slot, _ := ix.slotIndex(cid, id)
	ix.drop(cid, slot)
	return nil
}

// persist writes the store record f.ID will have once postingTerms are
// posted, unless the ID's record is that already. replace is Register's rule:
// f takes the live definition's place, posted under postingTerms — and under
// the live posting terms too when f's signature names the live cover. Else it
// is EnsureRegistered's: a live definition stays, its posting terms grown by
// postingTerms. An index without a store writes nothing. Caller holds the
// ID's writer lock.
func (ix *Index) persist(f *model.Filter, postingTerms []string, replace bool) error {
	if ix.filters == nil {
		return nil
	}
	live, cid, posted := ix.record(f.ID)
	def, next := *f, postingTerms
	switch {
	case cid == 0:
	case !replace:
		def, next = live, append(posted, postingTerms...)
	case ix.coverOf(f) == cid:
		next = append(posted, postingTerms...)
	}
	next = sortedSet(next)
	if cid != 0 && slices.Equal(next, posted) && def.Subscriber == live.Subscriber && def.Mode == live.Mode && slices.Equal(def.Terms, live.Terms) {
		return nil
	}
	return ix.filters.Put(def, next)
}

// record returns id's live definition, as GetFilter spells it, its cover and
// the terms whose posting lists hold it, sorted; cid is 0 when id has no
// definition. Caller holds the ID's writer lock.
func (ix *Index) record(id model.FilterID) (f model.Filter, cid uint32, posted []string) {
	f, had, _ := ix.GetFilter(id)
	if !had {
		return f, 0, nil
	}
	cid, _ = ix.defs.shard(id).get(id)
	slot, _ := ix.slotIndex(cid, id)
	for _, tid := range ix.extra.of(cid, ix.slab.terms(ix.slab.rec(cid))) {
		if ix.termShard(tid).holds(tid, cid, slot) {
			posted = append(posted, ix.dict.term(tid))
		}
	}
	return f, cid, sortedSet(posted)
}

// sortedSet returns a sorted copy of terms without repeats.
func sortedSet(terms []string) []string {
	s := slices.Clone(terms)
	slices.Sort(s)
	return slices.Compact(s)
}

// PostedUnder returns, in the order given, the terms whose posting list holds
// id. Read-only: it is how a node repeats a posting choice (re-registration,
// migration) instead of making it again. An unregistered id is posted under
// nothing. It holds the ID's writer lock, so the cover it reads the slot of
// stays id's.
func (ix *Index) PostedUnder(id model.FilterID, terms []string) []string {
	sh := ix.defs.shard(id)
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	cid, ok := sh.get(id)
	if !ok {
		return nil
	}
	slot, ok := ix.slotIndex(cid, id)
	if !ok {
		return nil
	}
	var posted []string
	for _, t := range terms {
		if tid := ix.dict.lookup(t); tid != noTerm && ix.termShard(tid).holds(tid, cid, slot) {
			posted = append(posted, t)
		}
	}
	return posted
}

// loadFromStore rebuilds the serving layer and counters after a restart, in
// one pass over the filter store: each definition joins its cover, and its
// bits are set under the terms its record names.
func (ix *Index) loadFromStore() error {
	return ix.filters.Each(func(f model.Filter, posted []string) bool {
		cid, slot, _ := ix.join(ix.defs.shard(f.ID), &f)
		ix.numFilters.Add(1)
		ix.post(cid, slot, posted)
		return true
	})
}
