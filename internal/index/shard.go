package index

import (
	"slices"
	"sync"

	"github.com/movesys/move/internal/model"
)

// DefaultShards is the number of term shards and filter shards in an
// Index. It must be a power of two so shard selection is a mask, not a
// modulo. 32 shards keeps per-shard maps small at the paper's filter
// densities while giving concurrent registers/matches on different terms
// independent locks.
const DefaultShards = 1 << shardBits

const (
	shardBits = 5
	shardMask = DefaultShards - 1
)

// termShardFor hashes a term to its shard with FNV-1a. The low bits of
// FNV-1a are well distributed for short ASCII terms, which is exactly the
// key population here (tokenized words).
func termShardFor(term string) uint32 {
	return uint32(fnv1a(term)) & shardMask
}

func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// filterShardFor hashes a filter ID to its shard with a Fibonacci
// multiply, which spreads the low bits of sequential IDs (the common
// allocation pattern) across shards.
func filterShardFor(id model.FilterID) uint32 {
	return uint32((uint64(id)*0x9E3779B97F4A7C15)>>56) & shardMask
}

// posting is one term's in-memory posting list. ids is the published
// snapshot: readers copy the slice header under the shard's read lock and
// then iterate without any lock. Appends happen in place under the shard's
// write lock; a writer only ever stores to indexes >= every published
// snapshot's length (or into a freshly grown backing array), so a snapshot
// taken before the append never observes the written element and the two
// accesses touch disjoint memory. seen makes the append-side dedup O(1),
// mirroring PostingStore.Each's first-insertion-wins ordering.
type posting struct {
	ids  []model.FilterID
	seen map[model.FilterID]struct{}
}

// termShard holds the posting lists whose terms hash to it.
type termShard struct {
	mu    sync.RWMutex
	lists map[string]*posting
}

// addIfAbsent appends id to term's posting list, creating the list on first
// use, and reports whether id was newly inserted (posting lists are sets in
// insertion order). The check and the append happen under one write-lock
// hold, so concurrent replays of the same (term, id) pair agree on exactly
// one inserter — the caller can count distinct posting entries, and write
// each through once, without a separate read-then-write race window.
func (s *termShard) addIfAbsent(term string, id model.FilterID) bool {
	s.mu.Lock()
	p := s.lists[term]
	if p == nil {
		p = &posting{seen: make(map[model.FilterID]struct{}, 4)}
		s.lists[term] = p
	}
	_, dup := p.seen[id]
	if !dup {
		p.seen[id] = struct{}{}
		p.ids = append(p.ids, id)
	}
	s.mu.Unlock()
	return !dup
}

// snapshot returns the current posting list for term. The returned slice
// is an immutable snapshot: callers may iterate it freely but must not
// append to or mutate it.
func (s *termShard) snapshot(term string) []model.FilterID {
	s.mu.RLock()
	var ids []model.FilterID
	if p := s.lists[term]; p != nil {
		ids = p.ids
	}
	s.mu.RUnlock()
	return ids
}

// remove drops term's posting list entirely.
func (s *termShard) remove(term string) {
	s.mu.Lock()
	delete(s.lists, term)
	s.mu.Unlock()
}

// filterShard holds the filter definitions whose IDs hash to it. V is what a
// definition is stored as: the model.Filter itself on the flat engine, a def
// — (subscriber, cover) — on the aggregated one.
type filterShard[V any] struct {
	mu   sync.RWMutex
	defs map[model.FilterID]V
}

// get returns the stored definition of id, if registered.
func (s *filterShard[V]) get(id model.FilterID) (V, bool) {
	s.mu.RLock()
	v, ok := s.defs[id]
	s.mu.RUnlock()
	return v, ok
}

// filterTable is an engine's sharded filter table.
type filterTable[V any] [DefaultShards]filterShard[V]

func (t *filterTable[V]) init() {
	for i := range t {
		t[i].defs = make(map[model.FilterID]V)
	}
}

func (t *filterTable[V]) shard(id model.FilterID) *filterShard[V] {
	return &t[filterShardFor(id)]
}

// put stores (or replaces) v as id's definition and reports whether the ID
// had none before.
func (t *filterTable[V]) put(id model.FilterID, v V) (created bool) {
	sh := t.shard(id)
	sh.mu.Lock()
	_, had := sh.defs[id]
	sh.defs[id] = v
	sh.mu.Unlock()
	return !had
}

// ids returns the registered IDs in ascending order, each shard read-locked
// only while its own are copied; sizeHint sizes the result.
func (t *filterTable[V]) ids(sizeHint int) []model.FilterID {
	ids := make([]model.FilterID, 0, sizeHint)
	for i := range t {
		sh := &t[i]
		sh.mu.RLock()
		for id := range sh.defs {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	slices.Sort(ids)
	return ids
}

// shardedState is the flat engine's in-memory serving layer: every read —
// the match path's, GetFilter's, EachFilter's — is answered here, and the
// store is not read again once open has rebuilt the shards from it. A stored
// filter is an immutable snapshot sharing its Terms slice with the shard:
// Register stores a private clone and nothing mutates Terms afterwards, so
// the match path hands it out of the package without cloning. Everyone —
// shard, matcher, caller — must treat Terms as read-only (DESIGN.md §11).
type shardedState struct {
	terms   [DefaultShards]termShard
	filters filterTable[model.Filter]
}

func newShardedState() *shardedState {
	st := &shardedState{}
	for i := range st.terms {
		st.terms[i].lists = make(map[string]*posting)
	}
	st.filters.init()
	return st
}

func (st *shardedState) termShard(term string) *termShard {
	return &st.terms[termShardFor(term)]
}
