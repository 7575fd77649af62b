// Package index implements a node's local filter index and the two
// centralized matching algorithms the paper compares:
//
//   - MatchTerm — the distributed-inverted-list matcher of §III.B: on the
//     home node of term t, retrieve only t's posting list, even though the
//     stored filters contain other terms. Used by both IL and MOVE.
//   - MatchSIFT — the classic SIFT matcher [25] used by the RS baseline:
//     retrieve the posting lists of all |d| document terms and evaluate
//     every referred filter.
//
// Both report MatchStats (posting lists touched, postings scanned, filters
// evaluated) so the experiment harness can charge the §IV latency model's
// y_p cost exactly where the paper says it accrues: in local (disk) reads
// of posting lists.
//
// The index is sharded: posting lists and filter definitions live in
// power-of-two in-memory shards with per-shard locks (see shard.go), so
// concurrent registers, unregisters, and matches on different terms do not
// contend. A filter definition and a posting entry live once in the heap —
// here. Every read is served from the shards; the store is a write-through
// durability layer that exists only for a node with a data directory and is
// read once, at startup, when the shards are rebuilt from it.
package index

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/store"
	"github.com/movesys/move/internal/vsm"
)

// Index is one node's filter index: full filter definitions plus posting
// lists for the terms this node is responsible for.
type Index struct {
	// filters and postings are the write-through durability layer; both nil
	// on a node without a data directory, whose mutations live in the shards
	// alone (storeFilter and its siblings below are the only users).
	filters  *store.FilterStore
	postings *store.PostingStore
	corpus   *vsm.Corpus

	// Exactly one of state and agg is set — the sharded in-memory serving
	// layer every read is answered from. agg (New, the production
	// configuration) is the aggregated engine of agg.go; state (NewFlat) the
	// flat one, a posting entry and a model.Filter per filter: the in-tree
	// correctness oracle.
	state *shardedState
	agg   *aggState
	// subs shares subscriber names between either engine's definitions.
	subs subCache

	// Optional per-stage latency instrumentation (§IV cost model: the
	// posting-list read is the "disk seek" y_seek, the evaluation loop is
	// the per-posting scan y_p). Nil histograms record nothing.
	postingReadH *metrics.Histogram
	evalH        *metrics.Histogram

	numFilters  atomic.Int64
	numPostings atomic.Int64
}

// Instrument routes the index's per-stage latencies into reg:
// index.posting.read (one observation per posting-list retrieval) and
// index.eval (one observation per match call, covering the whole candidate
// evaluation loop).
func (ix *Index) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	ix.postingReadH = reg.Histogram("index.posting.read")
	ix.evalH = reg.Histogram("index.eval")
}

// New builds an index over a node-local store, serving postings from the
// aggregated (covering) engine: filters sharing a predicate signature are
// grouped under one cover and stored as compressed bitset posting entries
// (agg.go, DESIGN.md §15). When the store was opened from a data
// directory, the in-memory shards and counters are rebuilt from the
// recovered filters and posting lists, so a restarted node resumes
// serving matches with its full pre-crash state.
func New(s *store.Store) (*Index, error) {
	return open(s, true)
}

// NewFlat builds an index serving postings from the flat per-filter
// engine — one posting entry per (term, filter) pair. It is the
// correctness oracle the equivalence battery compares the aggregated
// engine against; production nodes use New.
func NewFlat(s *store.Store) (*Index, error) {
	return open(s, false)
}

func open(s *store.Store, aggregated bool) (*Index, error) {
	ix := &Index{corpus: vsm.NewCorpus()}
	if aggregated {
		ix.agg = newAggState()
	} else {
		ix.state = newShardedState()
	}
	if !s.Durable() {
		// Nothing to recover and nowhere to persist: no write-through.
		return ix, nil
	}
	var err error
	if ix.filters, err = store.NewFilterStore(s); err != nil {
		return nil, fmt.Errorf("index: open filter store: %w", err)
	}
	if ix.postings, err = store.NewPostingStore(s); err != nil {
		return nil, fmt.Errorf("index: open posting store: %w", err)
	}
	if err := ix.loadFromStore(); err != nil {
		return nil, fmt.Errorf("index: load from store: %w", err)
	}
	return ix, nil
}

// The four write-through operations: each mirrors one shard mutation into
// the store when there is one.

func (ix *Index) storeFilter(f model.Filter) error {
	if ix.filters == nil {
		return nil
	}
	return ix.filters.Put(f)
}

func (ix *Index) storeDeleteFilter(id model.FilterID) error {
	if ix.filters == nil {
		return nil
	}
	return ix.filters.Delete(id)
}

func (ix *Index) storePosting(term string, id model.FilterID) error {
	if ix.postings == nil {
		return nil
	}
	return ix.postings.Add(term, id)
}

func (ix *Index) storeDropTerm(term string) error {
	if ix.postings == nil {
		return nil
	}
	return ix.postings.Remove(term)
}

// Aggregated reports whether this index serves postings from the
// aggregated covering engine.
func (ix *Index) Aggregated() bool { return ix.agg != nil }

// CoverStats summarizes the aggregated engine's compression state (O(1)
// atomic reads). Zero value on a flat index.
func (ix *Index) CoverStats() CoverStats {
	if ix.agg == nil {
		return CoverStats{}
	}
	a := ix.agg
	st := CoverStats{
		Covers:          int(a.coversLive.Load()),
		CoveredFilters:  int(a.membersLive.Load()),
		StoredEntries:   int(a.storedEntries.Load()),
		LogicalPostings: int(ix.numPostings.Load()),
		Singletons:      int(a.singletons.Load()),
	}
	if saved := st.LogicalPostings - st.StoredEntries; saved > 0 {
		st.PostingsSaved = saved
	}
	if st.StoredEntries > 0 {
		st.ExpansionFanoutMilli = st.LogicalPostings * 1000 / st.StoredEntries
	}
	return st
}

// loadFromStore rebuilds the sharded serving layer and counters after a
// restart: one scan of each column family. Posting lists come back
// deduplicated (PostingStore.Each merges), so the recovered numPostings
// counts distinct entries even if the live counter had drifted past that
// before the crash.
func (ix *Index) loadFromStore() error {
	if ix.agg != nil {
		return ix.aggLoad()
	}
	count := 0
	err := ix.filters.Each(func(f model.Filter) bool {
		ix.putFlat(f)
		count++
		return true
	})
	if err != nil {
		return err
	}
	ix.numFilters.Store(int64(count))
	total := 0
	err = ix.postings.Each(func(t string, ids []model.FilterID) bool {
		sh := ix.state.termShard(t)
		for _, id := range ids {
			sh.addIfAbsent(t, id)
		}
		total += len(ids)
		return true
	})
	ix.numPostings.Store(int64(total))
	return err
}

// Register stores filter f and adds it to the posting lists of
// postingTerms. On a home node postingTerms is the single responsible term
// (or the node's responsible subset of f's terms); the RS baseline passes
// all of f's terms. The definition's store write happens first, so the
// in-memory shards never serve a filter the durability layer doesn't have; a
// posting entry is written through only when the shard did not already hold
// it, so re-registering an ID does not grow the store.
//
// The Clone below is the system's single copy point for filter terms: the
// shard's copy is immutable from here on, which is what lets the match
// path return filters without cloning them back out (DESIGN.md §11).
func (ix *Index) Register(f model.Filter, postingTerms []string) error {
	if ix.agg != nil {
		return ix.aggRegister(f, postingTerms)
	}
	if err := f.Validate(); err != nil {
		return err
	}
	if err := ix.storeFilter(f); err != nil {
		return err
	}
	if ix.putFlat(f.Clone()) {
		ix.numFilters.Add(1)
	}
	ix.numPostings.Add(int64(len(postingTerms)))
	for _, t := range postingTerms {
		if ix.state.termShard(t).addIfAbsent(t, f.ID) {
			if err := ix.storePosting(t, f.ID); err != nil {
				return err
			}
		}
	}
	return nil
}

// EnsureRegistered is Register made idempotent for migration replay: a
// duplicated or retried MigrateReq batch may deliver the same (filter,
// posting terms) pair any number of times, and the counters must still
// count distinct state. created reports whether this call stored the
// filter definition (false when a copy already existed — pre-existing
// copies belong to an older placement or the home itself and must survive
// an abort of the current epoch).
//
// As in Register, the posting-shard insert runs before the store write:
// addIfAbsent's single write-lock hold is what arbitrates concurrent
// replays, so it must decide first and the store add follows only for the
// winner. A crash between the two loses only in-memory state, which the
// next replay of the same batch restores.
func (ix *Index) EnsureRegistered(f model.Filter, postingTerms []string) (bool, error) {
	if ix.agg != nil {
		return ix.aggEnsureRegistered(f, postingTerms)
	}
	if err := f.Validate(); err != nil {
		return false, err
	}
	created := false
	sh := ix.state.filters.shard(f.ID)
	sh.mu.Lock()
	if _, ok := sh.defs[f.ID]; !ok {
		// Store write before the shard publish, under the shard lock —
		// Unregister's locking mirrored — so concurrent replays agree on
		// exactly one creator and the layers never disagree.
		if err := ix.storeFilter(f); err != nil {
			sh.mu.Unlock()
			return false, err
		}
		stored := f.Clone()
		stored.Subscriber = ix.subs.share(f.Subscriber)
		sh.defs[f.ID] = stored
		created = true
	}
	sh.mu.Unlock()
	if created {
		ix.numFilters.Add(1)
	}
	for _, t := range postingTerms {
		if ix.state.termShard(t).addIfAbsent(t, f.ID) {
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
func (ix *Index) Unregister(id model.FilterID) error {
	if ix.agg != nil {
		return ix.aggUnregister(id)
	}
	_, _, err := removeDef(ix, ix.state.filters.shard(id), id)
	return err
}

// putFlat stores (or replaces) f as its ID's definition on the flat engine,
// the subscriber name shared, and reports whether the ID had none before.
func (ix *Index) putFlat(f model.Filter) (created bool) {
	f.Subscriber = ix.subs.share(f.Subscriber)
	return ix.state.filters.put(f.ID, f)
}

// removeDef deletes id's definition from the store and from sh, its shard,
// returning what the shard held when there was one.
func removeDef[V any](ix *Index, sh *filterShard[V], id model.FilterID) (V, bool, error) {
	sh.mu.Lock()
	f, present := sh.defs[id]
	if !present {
		sh.mu.Unlock()
		return f, false, nil
	}
	// Delete from the store while holding the shard lock so a concurrent
	// Register of the same ID cannot interleave between the two layers and
	// leave them disagreeing.
	if err := ix.storeDeleteFilter(id); err != nil {
		sh.mu.Unlock()
		return f, false, err
	}
	delete(sh.defs, id)
	sh.mu.Unlock()
	ix.numFilters.Add(-1)
	return f, true, nil
}

// ObserveDocument feeds corpus statistics for idf scoring. Called once per
// document arriving at a node.
func (ix *Index) ObserveDocument(d *model.Document) {
	ix.corpus.AddDocument(d.Terms)
}

// Corpus exposes the idf statistics (read-only use).
func (ix *Index) Corpus() *vsm.Corpus { return ix.corpus }

// MatchStats counts the work one match performed; the units the §IV cost
// model charges.
type MatchStats struct {
	// PostingLists is the number of posting lists retrieved ("disk seeks").
	PostingLists int
	// Postings is the total number of posting entries scanned.
	Postings int
	// Evaluated is the number of distinct filters evaluated against the
	// document.
	Evaluated int
}

// Add accumulates other into s.
func (s *MatchStats) Add(other MatchStats) {
	s.PostingLists += other.PostingLists
	s.Postings += other.Postings
	s.Evaluated += other.Evaluated
}

// MatchTerm finds the filters matching d among those on term's posting
// list only (§III.B). The caller guarantees term ∈ d (the forwarding
// engine only routes documents to home nodes of their own terms). The
// posting list is read as a lock-free snapshot, so matches on different
// terms — and matches racing registers of other filters — never contend.
//
// Returned filters are immutable shard snapshots: callers may keep them
// but must not mutate Terms (see DESIGN.md §11). Excluding the matched-
// results slice, a call on a warm index performs zero heap allocations —
// the document view is memoized and filters are returned without cloning.
func (ix *Index) MatchTerm(d *model.Document, term string) ([]model.Filter, MatchStats, error) {
	if ix.agg != nil {
		return ix.aggMatchTerm(d, term)
	}
	var st MatchStats
	readTm := ix.postingReadH.Start()
	ids := ix.state.termShard(term).snapshot(term)
	readTm.Stop()
	// Only non-empty lists count as retrievals: a miss is answered by the
	// in-memory term dictionary and never touches the list store.
	if len(ids) > 0 {
		st.PostingLists = 1
	}
	st.Postings = len(ids)
	view := d.View()
	evalTm := ix.evalH.Start()
	defer evalTm.Stop()
	// Lazily allocated: the no-match case — most posting scans, once the
	// Bloom gate has done its job — returns nil without touching the heap.
	// When something does match, size for the whole list at once: posting
	// entries are filters registered under this term, so on a routed
	// document most of them match and append-doubling would pay ~2x the
	// bytes for the same result.
	var matched []model.Filter
	for _, id := range ids {
		f, ok := ix.state.filters.shard(id).get(id)
		if !ok {
			continue // unregistered; lazy posting cleanup
		}
		st.Evaluated++
		if ix.evaluate(&f, view) {
			if matched == nil {
				matched = make([]model.Filter, 0, len(ids))
			}
			matched = append(matched, f)
		}
	}
	return matched, st, nil
}

// MatchTerms finds the filters matching d among those on the posting lists
// of terms — the multi-term counterpart of MatchTerm that serves one
// publish frame (every term of the document this node is
// responsible for) in a single pass over the sharded index. Each term's
// posting list is read once, in term order, and a filter referenced by
// several of the lists is evaluated once, so the result is the per-term
// union with duplicates removed while the PostingLists and Postings
// accounting stays exactly the sum of the equivalent per-term MatchTerm
// calls (the §IV cost model charges list retrievals and entry scans, which
// coalescing does not change — only the RPCs around them).
//
// Returned filters are immutable shard snapshots; callers must not mutate
// Terms (DESIGN.md §11).
func (ix *Index) MatchTerms(d *model.Document, terms []string) ([]model.Filter, MatchStats, error) {
	if ix.agg != nil {
		return ix.aggMatchTerms(d, terms)
	}
	if len(terms) == 1 {
		// Single-term frames keep MatchTerm's lazy exact-size allocation.
		return ix.MatchTerm(d, terms[0])
	}
	var st MatchStats
	view := d.View()
	seen := seenPool.Get().(map[model.FilterID]struct{})
	defer func() {
		clear(seen)
		seenPool.Put(seen)
	}()
	var matched []model.Filter
	evalTm := ix.evalH.Start()
	defer evalTm.Stop()
	for _, term := range terms {
		readTm := ix.postingReadH.Start()
		ids := ix.state.termShard(term).snapshot(term)
		readTm.Stop()
		if len(ids) > 0 {
			st.PostingLists++
		}
		st.Postings += len(ids)
		for _, id := range ids {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			f, ok := ix.state.filters.shard(id).get(id)
			if !ok {
				continue // unregistered; lazy posting cleanup
			}
			st.Evaluated++
			if ix.evaluate(&f, view) {
				matched = append(matched, f)
			}
		}
	}
	return matched, st, nil
}

// seenPool recycles MatchSIFT's per-call dedup map. Maps are returned
// cleared; Go retains their bucket storage, so steady-state SIFT matching
// stops paying a map grow per document.
var seenPool = sync.Pool{
	New: func() any { return make(map[model.FilterID]struct{}, 64) },
}

// MatchSIFT finds the filters matching d by retrieving the posting lists of
// every document term — the centralized SIFT algorithm the RS baseline
// runs on each flooded node. Returned filters are immutable shard
// snapshots; callers must not mutate Terms (DESIGN.md §11).
func (ix *Index) MatchSIFT(d *model.Document) ([]model.Filter, MatchStats, error) {
	if ix.agg != nil {
		return ix.aggMatchTerms(d, d.Terms)
	}
	var st MatchStats
	view := d.View()
	seen := seenPool.Get().(map[model.FilterID]struct{})
	defer func() {
		clear(seen)
		seenPool.Put(seen)
	}()
	var matched []model.Filter
	evalTm := ix.evalH.Start()
	defer evalTm.Stop()
	for _, term := range d.Terms {
		readTm := ix.postingReadH.Start()
		ids := ix.state.termShard(term).snapshot(term)
		readTm.Stop()
		// SIFT retrieves the posting list of every document term with local
		// postings; misses are answered by the in-memory dictionary. The
		// per-node retrieval count is what makes blind flooding expensive
		// (§I): every node pays it for every document.
		if len(ids) > 0 {
			st.PostingLists++
		}
		st.Postings += len(ids)
		for _, id := range ids {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			f, ok := ix.state.filters.shard(id).get(id)
			if !ok {
				continue
			}
			st.Evaluated++
			if ix.evaluate(&f, view) {
				matched = append(matched, f)
			}
		}
	}
	return matched, st, nil
}

// evaluate applies the filter's matching semantics against the memoized
// document view. Filters are short (2–3 terms, §VI.A), so membership
// probes dominate: the view answers them map-free for short documents and
// from its prebuilt set for wide ones, never allocating either way.
func (ix *Index) evaluate(f *model.Filter, view *model.DocView) bool {
	switch f.Mode {
	case model.MatchAny:
		for _, t := range f.Terms {
			if view.Contains(t) {
				return true
			}
		}
		return false
	case model.MatchAll:
		for _, t := range f.Terms {
			if !view.Contains(t) {
				return false
			}
		}
		return true
	case model.MatchThreshold:
		return ix.corpus.ContainmentScoreSorted(view.Sorted(), f.Terms) >= f.Threshold
	default:
		return false
	}
}

// NumFilters returns the number of filter definitions resident on the
// node: re-registering a live ID replaces its definition and does not
// count again.
func (ix *Index) NumFilters() int {
	return int(ix.numFilters.Load())
}

// NumPostings returns the total posting entries written (storage-cost
// accounting for Figure 9(a)).
func (ix *Index) NumPostings() int {
	return int(ix.numPostings.Load())
}

// PostingIDs returns the filter IDs on term's posting list, as a fresh
// copy the caller may keep or mutate.
func (ix *Index) PostingIDs(term string) ([]model.FilterID, error) {
	if ix.agg != nil {
		return ix.aggPostingIDs(term), nil
	}
	snap := ix.state.termShard(term).snapshot(term)
	if len(snap) == 0 {
		return nil, nil
	}
	return append([]model.FilterID(nil), snap...), nil
}

// PostingLen returns the posting-list length of term.
func (ix *Index) PostingLen(term string) (int, error) {
	if ix.agg != nil {
		return ix.aggPostingLen(term), nil
	}
	return len(ix.state.termShard(term).snapshot(term)), nil
}

// PostedUnder returns, in the order given, the terms whose posting list holds
// id — the lists a match on this node reaches the filter through, tombstoned
// entries of an unregistered ID included. Read-only: it is how a node repeats
// a posting choice (re-registration, migration) instead of making it again.
func (ix *Index) PostedUnder(id model.FilterID, terms []string) []string {
	if ix.agg != nil {
		return ix.aggPostedUnder(id, terms)
	}
	var posted []string
	for _, t := range terms {
		if slices.Contains(ix.state.termShard(t).snapshot(t), id) {
			posted = append(posted, t)
		}
	}
	return posted
}

// EachFilter visits the filter definitions resident on the node in
// ascending ID order until fn returns false. The IDs are collected first —
// each shard read-locked only while its own are copied — so fn runs under no
// lock and a filter unregistered meanwhile is skipped. Visited filters are
// immutable shard snapshots, as GetFilter's are.
func (ix *Index) EachFilter(fn func(model.Filter) bool) error {
	var ids []model.FilterID
	if ix.agg != nil {
		ids = ix.agg.defs.ids(ix.NumFilters())
	} else {
		ids = ix.state.filters.ids(ix.NumFilters())
	}
	for _, id := range ids {
		if f, ok, _ := ix.GetFilter(id); ok && !fn(f) {
			break
		}
	}
	return nil
}

// DropTerm removes a term's posting list (allocation migration moves its
// filters elsewhere) from both the serving shards and the store.
func (ix *Index) DropTerm(term string) error {
	if ix.agg != nil {
		return ix.aggDropTerm(term)
	}
	if err := ix.storeDropTerm(term); err != nil {
		return err
	}
	ix.state.termShard(term).remove(term)
	return nil
}

// GetFilter loads one filter definition. The result is an immutable shard
// snapshot — callers may keep it but must not mutate Terms.
func (ix *Index) GetFilter(id model.FilterID) (model.Filter, bool, error) {
	if ix.agg != nil {
		d, ok := ix.agg.defs.shard(id).get(id)
		if !ok {
			return model.Filter{}, false, nil
		}
		return d.filter(id), true, nil
	}
	f, ok := ix.state.filters.shard(id).get(id)
	return f, ok, nil
}
