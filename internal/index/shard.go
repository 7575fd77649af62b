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

// fnv1a hashes a string with FNV-1a. The low bits are well distributed for
// short ASCII keys, which is exactly the key population here (tokenized
// words, subscriber names).
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

// filterShard holds the filter definitions whose IDs hash to it.
type filterShard struct {
	mu   sync.RWMutex
	defs map[model.FilterID]def
	// wmu serializes the writers of the shard's IDs (Register,
	// EnsureRegistered, Unregister) from first read to last write, so an ID's
	// definition, cover slot, posting bits and store operands change as one;
	// readers never take it.
	wmu sync.Mutex
}

// get returns the stored definition of id, if registered.
func (s *filterShard) get(id model.FilterID) (def, bool) {
	s.mu.RLock()
	d, ok := s.defs[id]
	s.mu.RUnlock()
	return d, ok
}

// filterTable is the index's sharded filter table.
type filterTable [DefaultShards]filterShard

func (t *filterTable) init() {
	for i := range t {
		t[i].defs = make(map[model.FilterID]def)
	}
}

func (t *filterTable) shard(id model.FilterID) *filterShard {
	return &t[filterShardFor(id)]
}

// put stores (or replaces) d as id's definition and reports whether the ID
// had none before.
func (t *filterTable) put(id model.FilterID, d def) (created bool) {
	sh := t.shard(id)
	sh.mu.Lock()
	_, had := sh.defs[id]
	sh.defs[id] = d
	sh.mu.Unlock()
	return !had
}

// ids returns the registered IDs in ascending order, each shard read-locked
// only while its own are copied; sizeHint sizes the result.
func (t *filterTable) ids(sizeHint int) []model.FilterID {
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
