package stats

import (
	"errors"
	"math"
	"sort"
	"sync"
)

// SpaceSaving is the Metwally et al. heavy-hitter sketch: it tracks the
// (approximate) top-k most frequent terms in bounded memory. The §V
// coordinator needs the hottest terms out of millions of distinct ones;
// exact counters grow with the vocabulary, the sketch does not — its error
// per count is bounded by total/capacity.
type SpaceSaving struct {
	mu       sync.Mutex
	capacity int
	counts   map[string]*ssEntry
	total    int64
}

type ssEntry struct {
	count int64
	// overestimate is the count the entry inherited when it evicted the
	// previous minimum — the classic ε bound per item.
	overestimate int64
}

// ErrBadSketch reports an invalid capacity.
var ErrBadSketch = errors.New("stats: sketch capacity must be positive")

// NewSpaceSaving builds a sketch tracking at most capacity terms.
func NewSpaceSaving(capacity int) (*SpaceSaving, error) {
	if capacity < 1 {
		return nil, ErrBadSketch
	}
	return &SpaceSaving{
		capacity: capacity,
		counts:   make(map[string]*ssEntry, capacity),
	}, nil
}

// Observe records one occurrence of term.
func (s *SpaceSaving) Observe(term string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	if e, ok := s.counts[term]; ok {
		e.count++
		return
	}
	if len(s.counts) < s.capacity {
		s.counts[term] = &ssEntry{count: 1}
		return
	}
	// Evict the current minimum and inherit its count (+1); the new entry
	// may overestimate by the evicted count.
	minTerm := ""
	var minCount int64 = math.MaxInt64
	for t, e := range s.counts {
		if e.count < minCount || (e.count == minCount && t < minTerm) {
			minTerm, minCount = t, e.count
		}
	}
	delete(s.counts, minTerm)
	s.counts[term] = &ssEntry{count: minCount + 1, overestimate: minCount}
}

// ObserveSet records one item's (deduplicated) term set.
func (s *SpaceSaving) ObserveSet(terms []string) {
	for _, t := range terms {
		s.Observe(t)
	}
}

// HeavyHitter is one sketch entry.
type HeavyHitter struct {
	Term string
	// Count is the estimated occurrence count (may overestimate by at most
	// Error).
	Count int64
	// Error is the entry's maximum overestimate.
	Error int64
}

// Top returns up to k entries by descending estimated count.
func (s *SpaceSaving) Top(k int) []HeavyHitter {
	s.mu.Lock()
	out := make([]HeavyHitter, 0, len(s.counts))
	for t, e := range s.counts {
		out = append(out, HeavyHitter{Term: t, Count: e.count, Error: e.overestimate})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Term < out[j].Term
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Total returns the number of observations.
func (s *SpaceSaving) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// ErrorBound returns the worst-case overestimate of any reported count:
// total/capacity.
func (s *SpaceSaving) ErrorBound() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total / int64(s.capacity)
}

// Reset clears the sketch (window renewal).
func (s *SpaceSaving) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts = make(map[string]*ssEntry, s.capacity)
	s.total = 0
}
