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

// filterShard holds the filter definitions whose IDs hash to it: an ID's
// definition is its cover, where the predicate, the mode and — in the ID's
// slot — the subscriber are; the table's value is that one pointer.
type filterShard struct {
	mu   sync.RWMutex
	defs map[model.FilterID]*cover
	// own holds the Terms of the shard's filters registered in another order
	// than the canonical (string-sorted) one, or with repeats: rare, so a map
	// beside the table rather than a field of every definition. nil until
	// the first such filter.
	own map[model.FilterID][]string
	// wmu serializes the writers of the shard's IDs (Register,
	// EnsureRegistered, Unregister) from first read to last write, so an ID's
	// definition, cover slot, posting bits and store operands change as one;
	// readers never take it.
	wmu sync.Mutex
}

// get returns id's cover, if registered.
func (s *filterShard) get(id model.FilterID) (*cover, bool) {
	s.mu.RLock()
	c, ok := s.defs[id]
	s.mu.RUnlock()
	return c, ok
}

// filterTable is the index's sharded filter table.
type filterTable [DefaultShards]filterShard

func (t *filterTable) init() {
	for i := range t {
		t[i].defs = make(map[model.FilterID]*cover)
	}
}

func (t *filterTable) shard(id model.FilterID) *filterShard {
	return &t[filterShardFor(id)]
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
