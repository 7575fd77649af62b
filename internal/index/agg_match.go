package index

import (
	"slices"
	"sync"

	"github.com/movesys/move/internal/model"
)

// The index's match paths. A call first reduces the document to a set of
// dictionary IDs (one probe per document term; a term no filter names drops
// out — it can satisfy nothing) and its posting-list terms to IDs, and writes
// nothing back. The scan order is then: posting → entries (ascending cover
// id) → set bits (ascending slot).
//
// The cover is decided first. An entry holds only members of its cover, so
// one integer evaluation of the cover's predicate settles the whole
// container: on no-match it is skipped without a look at any member — no
// dedup insert, no definition lookup, no cover lock — and only a matching
// cover is expanded, member by member, with each definition looked up in the
// filter table. A definition that is missing or not attached to the cover is
// a member caught mid-way through Unregister or a move to another signature:
// the first drops the candidate, the second is evaluated by its own
// definition. A matched filter is reported by ID, subscriber and mode; no term
// is spelled on the match path.
//
// Lock discipline: the dictionary's read lock is held only while the call's
// terms are mapped; a term shard's read lock is held across its whole
// posting scan (entries and bitsets mutate in place); the cover lock is
// taken only briefly to capture the slots header — not at all for a
// container holding just the inline member — and is never held
// across a filter-table read.

// cover verdicts: 0 unknown, verdictMatch, verdictNoMatch.
const (
	verdictMatch   = uint8(1)
	verdictNoMatch = uint8(2)
)

// Per-call memo states of a cover, in multi-term calls (matchScratch.memo).
const (
	memoUnseen  = uint32(iota)
	memoMatch   // predicate matched: every container is expanded, members deduplicated through seen
	memoSkipped // no match, every member already counted in Evaluated: later containers add nothing
	memoWalked  // no match, but an earlier container held only part of the members: members are counted one by one through seen
	memoBits    = 2
)

// matchScratch is the pooled per-call state of a match.
type matchScratch struct {
	// doc is the document's term set as a bitset over dictionary IDs, sized
	// to the dictionary when the call began; docIDs lists the set bits so
	// the reset costs the document, not the dictionary.
	doc    []uint64
	docIDs []uint32
	// terms are the call's posting-list terms as IDs, noTerm for a term the
	// dictionary does not hold.
	terms []uint32
	// seen deduplicates expanded members across the call's terms.
	seen map[model.FilterID]struct{}
	// memo[cover id] holds epoch<<memoBits | state for the covers this call
	// decided; a stamp from another epoch reads as memoUnseen, so the table
	// is never cleared between calls. An ID names one cover for the whole
	// call: a retired cover's ID is not reused while a call that may have
	// decided it runs (coverIDs.enter).
	memo  []uint32
	epoch uint32
	// matched collects the call's results; the caller gets an exact-size
	// copy (results), so a call with matches allocates once however many.
	matched []model.Filter
}

var scratchPool = sync.Pool{
	New: func() any { return &matchScratch{seen: make(map[model.FilterID]struct{}, 64)} },
}

// begin maps view's terms and the call's posting-list terms through the
// dictionary.
func (sc *matchScratch) begin(d *termDict, view *model.DocView, terms []string) {
	d.mu.RLock()
	if words := (len(d.terms) + 63) >> 6; words > len(sc.doc) {
		sc.doc = make([]uint64, words+words/4)
	}
	for _, t := range view.Sorted() {
		if id, ok := d.ids[t]; ok {
			sc.doc[id>>6] |= 1 << (id & 63)
			sc.docIDs = append(sc.docIDs, id)
		}
	}
	for _, t := range terms {
		id, ok := d.ids[t]
		if !ok {
			id = noTerm
		}
		sc.terms = append(sc.terms, id)
	}
	d.mu.RUnlock()
	if sc.epoch++; sc.epoch == 1<<(32-memoBits) {
		clear(sc.memo)
		sc.epoch = 1
	}
}

// release resets the scratch and returns it to the pool.
func (sc *matchScratch) release() {
	for _, id := range sc.docIDs {
		sc.doc[id>>6] = 0
	}
	sc.docIDs = sc.docIDs[:0]
	sc.terms = sc.terms[:0]
	clear(sc.seen)
	clear(sc.matched)
	sc.matched = sc.matched[:0]
	scratchPool.Put(sc)
}

// has reports whether the document holds the term with this ID.
func (sc *matchScratch) has(id uint32) bool {
	w := int(id >> 6)
	return w < len(sc.doc) && sc.doc[w]&(1<<(id&63)) != 0
}

// memoOf returns the call's memo state for cover id.
func (sc *matchScratch) memoOf(id uint32) uint32 {
	if int(id) < len(sc.memo) {
		if m := sc.memo[id]; m>>memoBits == sc.epoch {
			return m & (1<<memoBits - 1)
		}
	}
	return memoUnseen
}

// setMemo records the call's memo state for cover id; covers is the highest
// cover ID handed out so far, the size to grow the table to.
func (sc *matchScratch) setMemo(id, state, covers uint32) {
	if int(id) >= len(sc.memo) {
		grown := make([]uint32, max(covers, id)+1+covers/4)
		copy(grown, sc.memo)
		sc.memo = grown
	}
	sc.memo[id] = sc.epoch<<memoBits | state
}

// coverMatches evaluates c's predicate against the mapped document: integer
// membership tests with early exit. MatchAll probes the highest ID first —
// IDs are assigned in order of first registration, so it is the term the
// node learned last and, under skewed popularity, the one a document is
// least likely to hold. A long predicate keeps its two highest IDs in the
// record, so a MatchAll cover that fails on them is decided without a read
// of its array.
func coverMatches(slab *coverSlab, c *cover, sc *matchScratch) bool {
	switch c.mode() {
	case model.MatchAny:
		for _, id := range slab.terms(c) {
			if sc.has(id) {
				return true
			}
		}
		return false
	case model.MatchAll:
		if c.flags.Load()>>coverTermsShift&coverTermsMask == 0 && (!sc.has(c.ids[2]) || !sc.has(c.ids[3])) {
			return false
		}
		ids := slab.terms(c)
		for i := len(ids) - 1; i >= 0; i-- {
			if !sc.has(ids[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// matchRun is one call's scan state: the inputs every entry needs and the
// stats it accumulates; the matches go to sc.matched.
type matchRun struct {
	ix   *Index
	sc   *matchScratch
	view *model.DocView
	// multi: the call scans several posting lists, so members and covers can
	// recur and are deduplicated (sc.seen, sc.memo).
	multi bool
	st    MatchStats
}

// results returns the call's matches as a slice of their own, nil when there
// are none: the one allocation of a call that matched.
func (r *matchRun) results() []model.Filter {
	if len(r.sc.matched) == 0 {
		return nil
	}
	return slices.Clone(r.sc.matched)
}

// scanPosting decides every entry of p, a list of term shard sh, against
// the document.
func (r *matchRun) scanPosting(sh *termShard, p *posting) {
	slab := &r.ix.slab
	for i := range p.entries {
		e := &p.entries[i]
		memo := memoUnseen
		if r.multi {
			memo = r.sc.memoOf(e.cid)
		}
		switch memo {
		case memoSkipped:
		case memoMatch:
			r.walk(sh, e, verdictMatch)
		case memoWalked:
			r.walk(sh, e, verdictNoMatch)
		default:
			c := slab.rec(e.cid)
			if coverMatches(slab, c, r.sc) {
				memo = memoMatch
				r.walk(sh, e, verdictMatch)
			} else if n := sh.sets.count(e.set); !r.multi || n == c.members() {
				// The skip. Evaluated still counts the filters the verdict
				// decided, as if each had been evaluated.
				memo = memoSkipped
				r.st.Evaluated += n
			} else {
				memo = memoWalked
				r.walk(sh, e, verdictNoMatch)
			}
			if r.multi {
				r.sc.setMemo(e.cid, memo, r.ix.coverIDs.seq.Load())
			}
		}
	}
}

// walk visits e's member bits one by one, iterating the container inline
// (word-wise for bitmap containers) so the warm path stays allocation-free.
// verdict is the cover's verdict when the caller knows it.
func (r *matchRun) walk(sh *termShard, e *postingEntry, verdict uint8) {
	cid, slab := e.cid, &r.ix.slab
	c := slab.rec(cid)
	if e.set == 0 || e.set == 1 {
		// At most slot 0, the inline member: read without the cover lock
		// (cover.first).
		if e.set == 1 {
			r.emit(cid, c, c.first, slab.sub(cid), verdict)
		}
		return
	}
	// Some other slot: a second member joined before its bit was set.
	mu := r.ix.coverMu(cid)
	mu.Lock()
	m := slab.membersOf(c)
	slots, subs := m.slots, m.subs
	mu.Unlock()
	b := sh.sets.of(e.set)
	switch {
	case b == nil:
		r.emit(cid, c, slots[e.set-1], &subs[e.set-1], verdict)
	case b.words != nil:
		for w, word := range b.words {
			for word != 0 {
				s := w<<6 + trailingZeros(word)
				verdict = r.emit(cid, c, slots[s], &subs[s], verdict)
				word &= word - 1
			}
		}
	default:
		for _, v := range b.arr {
			verdict = r.emit(cid, c, slots[v], &subs[v], verdict)
		}
	}
}

// emit decides one member of cover cid, record c, id with its subscriber at
// sub: dedup, definition lookup, predicate (the cover's verdict for a member
// whose definition the cover is, evaluated on first need), result append.
// sub is read under the member's filter shard's read lock, the lock a
// re-registration rewrites it under. Returns the cover's verdict as far as it
// is known.
func (r *matchRun) emit(cid uint32, c *cover, id model.FilterID, sub *string, verdict uint8) uint8 {
	if r.multi {
		if _, dup := r.sc.seen[id]; dup {
			return verdict
		}
		r.sc.seen[id] = struct{}{}
	}
	sh := r.ix.defs.shard(id)
	sh.mu.RLock()
	dcid := sh.cover(id)
	var name string
	if dcid == cid {
		name = *sub
	}
	sh.mu.RUnlock()
	if dcid == 0 {
		return verdict // unregistering: its bits are on their way out
	}
	r.st.Evaluated++
	mode := c.mode()
	var isMatch bool
	if dcid == cid {
		if verdict == 0 {
			verdict = verdictNoMatch
			if coverMatches(&r.ix.slab, c, r.sc) {
				verdict = verdictMatch
			}
		}
		isMatch = verdict == verdictMatch
	} else {
		// A member moving to another signature whose bit has not left this
		// cover yet: evaluate its current definition individually, its terms
		// spelled from the dictionary — they may be newer than the call's ID
		// set. Rare, and exactness beats the fast path.
		f, ok, _ := r.ix.GetFilter(id)
		if !ok {
			return verdict
		}
		name, mode = f.Subscriber, f.Mode
		isMatch = evaluate(&f, r.view)
	}
	if isMatch {
		r.sc.matched = append(r.sc.matched, model.Filter{ID: id, Subscriber: name, Mode: mode})
	}
	return verdict
}

// MatchTerm finds the filters matching d among those on term's posting
// list only (§III.B). The caller guarantees term ∈ d (the forwarding
// engine only routes documents to home nodes of their own terms). The
// term shard's read lock is held across the scan, so matches on different
// terms — and matches racing registers under other terms — never contend.
//
// A returned filter names a match by ID, Subscriber and Mode; its Terms are
// nil — GetFilter spells a definition's terms (DESIGN.md §11). Excluding the
// matched-results slice, a call on a warm index performs zero heap
// allocations: the document view is memoized, the scratch pooled, and a
// result holds nothing but the ID, the shared subscriber name and the mode.
func (ix *Index) MatchTerm(d *model.Document, term string) ([]model.Filter, MatchStats, error) {
	view := d.View()
	sc := scratchPool.Get().(*matchScratch)
	terms := [1]string{term}
	sc.begin(ix.dict, view, terms[:])
	defer sc.release()
	tid := sc.terms[0]
	if tid == noTerm {
		return nil, MatchStats{}, nil
	}
	r := matchRun{ix: ix, sc: sc, view: view}
	sh := ix.termShard(tid)
	readTm := ix.postingReadH.Start()
	sh.mu.RLock()
	p := sh.posting(tid)
	readTm.Stop()
	// Only non-empty lists count as retrievals: a miss is answered by the
	// in-memory term dictionary and never touches the list store.
	if p == nil || p.card == 0 {
		sh.mu.RUnlock()
		return nil, r.st, nil
	}
	r.st.PostingLists = 1
	r.st.Postings = p.card
	evalTm := ix.evalH.Start()
	r.scanPosting(sh, p)
	sh.mu.RUnlock()
	evalTm.Stop()
	return r.results(), r.st, nil
}

// MatchTerms finds the filters matching d among those on the posting lists
// of terms — the multi-term counterpart of MatchTerm that serves one
// publish frame (every term of the document this node is responsible for)
// in a single pass, and, over all of d's terms, the SIFT matcher. Each
// term's entries are decided once, in term order, and a filter referenced by
// several of the lists is evaluated once, with cover verdicts remembered
// across the whole call, so the result is the per-term union with duplicates
// removed while the PostingLists and Postings accounting stays exactly the
// sum of the equivalent per-term MatchTerm calls (the §IV cost model charges
// list retrievals and entry scans, which coalescing does not change — only
// the RPCs around them).
//
// Returned filters carry ID, Subscriber and Mode, with Terms nil, as
// MatchTerm's do (DESIGN.md §11).
func (ix *Index) MatchTerms(d *model.Document, terms []string) ([]model.Filter, MatchStats, error) {
	if len(terms) == 1 {
		return ix.MatchTerm(d, terms[0])
	}
	phase := ix.coverIDs.enter()
	defer ix.coverIDs.exit(phase)
	view := d.View()
	sc := scratchPool.Get().(*matchScratch)
	sc.begin(ix.dict, view, terms)
	defer sc.release()
	r := matchRun{ix: ix, sc: sc, view: view, multi: true}
	evalTm := ix.evalH.Start()
	defer evalTm.Stop()
	for _, tid := range sc.terms {
		if tid == noTerm {
			continue
		}
		sh := ix.termShard(tid)
		readTm := ix.postingReadH.Start()
		sh.mu.RLock()
		p := sh.posting(tid)
		readTm.Stop()
		if p != nil && p.card > 0 {
			r.st.PostingLists++
			r.st.Postings += p.card
			r.scanPosting(sh, p)
		}
		sh.mu.RUnlock()
	}
	return r.results(), r.st, nil
}

// PostingLen returns the posting-list length of term.
func (ix *Index) PostingLen(term string) (int, error) {
	tid := ix.dict.lookup(term)
	if tid == noTerm {
		return 0, nil
	}
	sh := ix.termShard(tid)
	sh.mu.RLock()
	n := 0
	if p := sh.posting(tid); p != nil {
		n = p.card
	}
	sh.mu.RUnlock()
	return n, nil
}

// CoverDetail is a deep, O(index) walk of the posting lists —
// bench/diagnostic use only.
type CoverDetail struct {
	Terms   int // terms with a posting list
	Entries int // physical (term, cover) entries
	Bits    int // total set bits (= logical postings)
}

// CoverDetailStats walks every posting list.
func (ix *Index) CoverDetailStats() CoverDetail {
	var d CoverDetail
	for si := range ix.term {
		sh := &ix.term[si]
		sh.mu.RLock()
		for li := range sh.lists {
			p := &sh.lists[li]
			if len(p.entries) == 0 {
				continue
			}
			d.Terms++
			d.Entries += len(p.entries)
			d.Bits += p.card
		}
		sh.mu.RUnlock()
	}
	return d
}
