// Package index implements a node's local filter index and the centralized
// matching the paper's nodes run:
//
//   - MatchTerm — the distributed-inverted-list matcher of §III.B: on the
//     home node of term t, retrieve only t's posting list, even though the
//     stored filters contain other terms. Used by both IL and MOVE;
//     MatchTerms serves one publish frame's routed terms in a single pass.
//   - MatchTerms over all of a document's terms — the classic SIFT matcher
//     [25] used by the RS baseline: retrieve the posting lists of all |d|
//     document terms and evaluate every referred filter.
//
// Both report MatchStats (posting lists touched, postings scanned, filters
// evaluated) so the experiment harness can charge the §IV latency model's
// y_p cost exactly where the paper says it accrues: in local (disk) reads
// of posting lists.
//
// The index is a covering index (DESIGN.md §15): filters sharing a predicate
// signature are grouped under one cover (cover.go), a posting list holds one
// compressed (term, cover) entry per signature (agg.go), and matching decides
// a cover once before expanding it to filters (agg_match.go). Terms, covers
// and filter definitions live in power-of-two in-memory shards with per-shard
// locks (shard.go), so concurrent registers, unregisters, and matches on
// different terms do not contend. A filter is one slot of its cover: the
// filter table — a flat open-addressed array per shard — maps its ID to the
// cover's ID alone, and the cover holds the predicate — once, as sorted
// dictionary IDs, inline up to four — the mode, and in the filter's slot its
// ID and subscriber. Covers are pointer-free records in a slab addressed by
// cover ID (slab.go), so a posting entry is a cover ID and a slot set, 8
// bytes, and the signature table an open-addressed array of cover IDs; only
// subscriber names and the rare member tables and long predicates hold
// pointers for the garbage collector to trace. A match result names its
// filter by ID, subscriber and mode, and only GetFilter and EachFilter, where
// a whole definition leaves the index, spell the terms back into strings.
// Every read is served from the shards. The store is a write-through
// durability layer that exists only for a node with a data directory: one
// record per filter, its definition and the terms it is posted under,
// written before the shards change and only when the call changes it, and
// read once, at startup, when the shards are rebuilt from it.
package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/store"
)

// Index is one node's filter index: full filter definitions plus posting
// lists for the terms this node is responsible for. On a durable index each
// live filter is one record of the store's filter column family, which holds
// its definition and the terms it is posted under; the posting lists are
// rebuilt from those at startup.
type Index struct {
	// filters is the write-through durability layer; nil on a node without
	// a data directory, whose mutations live in the shards alone (persist,
	// Unregister and loadFromStore are its only users).
	filters *store.FilterStore

	// The sharded in-memory serving layer every read is answered from.
	coverIDs coverIDs
	// slab holds the covers, by cover ID.
	slab coverSlab
	dict *termDict
	sig  [DefaultShards]coverSigShard
	term [DefaultShards]termShard
	// defs is the filter table: a definition is its cover, the filter a slot
	// of it.
	defs filterTable
	// coverLocks are the covers' membership locks, striped by cover ID
	// (coverMu).
	coverLocks [DefaultShards]sync.Mutex
	// subs shares subscriber names between definitions.
	subs subCache
	// extra holds the posting terms of covers outside their signatures.
	extra extraTerms

	// Optional per-stage latency instrumentation (§IV cost model: the
	// posting-list read is the "disk seek" y_seek, the evaluation loop is
	// the per-posting scan y_p). Nil histograms record nothing.
	postingReadH *metrics.Histogram
	evalH        *metrics.Histogram

	numFilters  atomic.Int64
	numPostings atomic.Int64

	coversLive    atomic.Int64
	storedEntries atomic.Int64
	// singletons counts covers that never held two members at once: up when
	// a cover gets its first member, down when it gets a slot table or
	// retires without one.
	singletons atomic.Int64
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

// New builds an index over a node-local store. When the store was opened
// from a data directory, the in-memory shards and counters are rebuilt from
// the recovered filter records, so a restarted node resumes serving matches
// with its full pre-crash state.
func New(s *store.Store) (*Index, error) {
	ix := &Index{dict: newTermDict()}
	if !s.Durable() {
		// Nothing to recover and nowhere to persist: no write-through.
		return ix, nil
	}
	ix.filters = store.NewFilterStore(s)
	if err := ix.loadFromStore(); err != nil {
		return nil, fmt.Errorf("index: load from store: %w", err)
	}
	return ix, nil
}

// CoverStats summarizes the index's compression state (O(1) atomic reads).
func (ix *Index) CoverStats() CoverStats {
	st := CoverStats{
		Covers:          int(ix.coversLive.Load()),
		CoveredFilters:  int(ix.numFilters.Load()),
		StoredEntries:   int(ix.storedEntries.Load()),
		LogicalPostings: int(ix.numPostings.Load()),
		Singletons:      int(ix.singletons.Load()),
	}
	if saved := st.LogicalPostings - st.StoredEntries; saved > 0 {
		st.PostingsSaved = saved
	}
	if st.StoredEntries > 0 {
		st.ExpansionFanoutMilli = st.LogicalPostings * 1000 / st.StoredEntries
	}
	return st
}

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

// evaluate applies the filter's matching semantics against the memoized
// document view. Filters are short (2–3 terms, §VI.A), so membership
// probes dominate: the view answers them map-free for short documents and
// from its prebuilt set for wide ones, never allocating either way.
func evaluate(f *model.Filter, view *model.DocView) bool {
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

// NumPostings returns the number of (term, filter) posting entries of the
// registered filters — the length of the plain posting lists the covering
// index stands for (storage-cost accounting for Figure 9(a)).
func (ix *Index) NumPostings() int {
	return int(ix.numPostings.Load())
}

// EachFilter visits the filter definitions resident on the node in
// ascending ID order until fn returns false. The IDs are collected first —
// each shard read-locked only while its own are copied — so fn runs under no
// lock and a filter unregistered meanwhile is skipped. Each visited filter is
// spelled as GetFilter spells it.
func (ix *Index) EachFilter(fn func(model.Filter) bool) error {
	for _, id := range ix.defs.ids(ix.NumFilters()) {
		if f, ok, _ := ix.GetFilter(id); ok && !fn(f) {
			break
		}
	}
	return nil
}

// GetFilter loads one filter definition, writing its Terms out of the index:
// in canonical (string-sorted) order, spelled from the dictionary into a
// fresh slice, or — for a filter registered in another order or with repeats
// — its own array, which is shared and must not be mutated. All of it is read
// under the filter shard's read lock, which keeps the filter's cover live.
func (ix *Index) GetFilter(id model.FilterID) (model.Filter, bool, error) {
	sh := ix.defs.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	cid := sh.cover(id)
	if cid == 0 {
		return model.Filter{}, false, nil
	}
	c := ix.slab.rec(cid)
	terms := sh.own[id]
	if terms == nil {
		terms = ix.dict.canonical(ix.slab.terms(c))
	}
	return model.Filter{ID: id, Subscriber: ix.subOf(cid, id), Terms: terms, Mode: c.mode()}, true, nil
}
