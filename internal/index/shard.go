package index

import (
	"math/bits"
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

// probeStart returns the first slot of hash h's probe run in an
// open-addressed table of n slots: h mixed (a 64-bit finalizer, so that
// neither the low bits that pick a shard nor sequential IDs cluster) and
// scaled to n by a multiply, so n need not be a power of two.
func probeStart(h uint64, n int) int {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

// probeNext returns the slot after i in a table of n slots.
func probeNext(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

// fillsHole reports whether the entry in slot j, whose probe run starts at
// home, may move back into the empty slot hole before it in the same run:
// yes unless home lies cyclically in (hole, j], where a probe for it would
// never pass the hole. Backward-shift deletion moves such entries so that a
// linearly probed table needs no tombstones.
func fillsHole(hole, j, home int) bool {
	if j > hole {
		return home <= hole || home > j
	}
	return home <= hole && home > j
}

// filterShard holds the filter definitions whose IDs hash to it: an ID's
// definition is its cover, where the predicate, the mode and — in the ID's
// slot — the subscriber are; the table's value is that cover's ID. The table
// is flat and open-addressed: 12-byte slots of a filter ID and its cover ID,
// probed linearly from the ID's hash. A removal moves the later entries of
// its run back instead of leaving a tombstone, and the table is sized to
// what it holds — resized to half again what is live when it passes seven
// eighths full or falls under a quarter — not to a power of two.
type filterShard struct {
	mu    sync.RWMutex
	slots []filterSlot
	n     int
	// own holds the Terms of the shard's filters registered in another order
	// than the canonical (string-sorted) one, or with repeats: rare, so a map
	// beside the table rather than a field of every definition. nil until
	// the first such filter.
	own map[model.FilterID][]string
	// wmu serializes the writers of the shard's IDs (Register,
	// EnsureRegistered, Unregister) from first read to last write, so an ID's
	// definition, cover slot, posting bits and store record change as one;
	// readers never take it, but for PostedUnder, which reads a slot.
	wmu sync.Mutex
}

// filterSlot is one slot of a filter table: a filter ID, in two halves so
// that the slot packs into 12 bytes, and its cover's ID — 0 for an empty
// slot (coverIDs hands out IDs from 1).
type filterSlot struct {
	lo, hi uint32
	cid    uint32
}

func (e *filterSlot) id() model.FilterID {
	return model.FilterID(e.hi)<<32 | model.FilterID(e.lo)
}

// slot returns the slot holding id, or the empty slot ending its probe run,
// and whether id is there. Caller holds s.mu and has a table.
func (s *filterShard) slot(id model.FilterID) (int, bool) {
	i := probeStart(uint64(id), len(s.slots))
	for s.slots[i].cid != 0 {
		if s.slots[i].id() == id {
			return i, true
		}
		i = probeNext(i, len(s.slots))
	}
	return i, false
}

// cover returns id's cover, 0 when it is not registered. Caller holds s.mu.
func (s *filterShard) cover(id model.FilterID) uint32 {
	if s.n == 0 {
		return 0
	}
	if i, ok := s.slot(id); ok {
		return s.slots[i].cid
	}
	return 0
}

// get returns id's cover, if registered.
func (s *filterShard) get(id model.FilterID) (uint32, bool) {
	s.mu.RLock()
	cid := s.cover(id)
	s.mu.RUnlock()
	return cid, cid != 0
}

// put makes cid id's cover, reporting whether id had one. Caller holds s.mu
// for writing.
func (s *filterShard) put(id model.FilterID, cid uint32) (had bool) {
	if (s.n+1)*8 > len(s.slots)*7 {
		s.resize((s.n+1)*3/2 + 8)
	}
	i, had := s.slot(id)
	if !had {
		s.n++
	}
	s.slots[i] = filterSlot{lo: uint32(id), hi: uint32(id >> 32), cid: cid}
	return had
}

// delete removes id's entry, if any. Caller holds s.mu for writing.
func (s *filterShard) delete(id model.FilterID) {
	if s.n == 0 {
		return
	}
	hole, ok := s.slot(id)
	if !ok {
		return
	}
	for j := probeNext(hole, len(s.slots)); s.slots[j].cid != 0; j = probeNext(j, len(s.slots)) {
		if fillsHole(hole, j, probeStart(uint64(s.slots[j].id()), len(s.slots))) {
			s.slots[hole] = s.slots[j]
			hole = j
		}
	}
	s.slots[hole] = filterSlot{}
	if s.n--; len(s.slots) > 16 && s.n*4 < len(s.slots) {
		s.resize(s.n*3/2 + 8)
	}
}

// resize moves the table into n slots.
func (s *filterShard) resize(n int) {
	old := s.slots
	s.slots = make([]filterSlot, n)
	for _, e := range old {
		if e.cid != 0 {
			i, _ := s.slot(e.id())
			s.slots[i] = e
		}
	}
}

// filterTable is the index's sharded filter table.
type filterTable [DefaultShards]filterShard

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
		for _, e := range sh.slots {
			if e.cid != 0 {
				ids = append(ids, e.id())
			}
		}
		sh.mu.RUnlock()
	}
	slices.Sort(ids)
	return ids
}
