// Package stats implements the statistics substrate MOVE's meta-data store
// and coordinator rely on (§V): per-term popularity p_i (fraction of filters
// containing term t_i) and frequency q_i (fraction of documents containing
// t_i), ranked distributions (Figures 4–5), Shannon entropy of frequency
// rates, and Zipf utilities shared with the synthetic dataset generators.
package stats

import (
	"math"
	"sort"
	"sync"
)

// TermCounter counts, for a stream of term sets (filters or documents), how
// many items each term appeared in. It is safe for concurrent use: every
// node updates its local counter as filters are registered and documents
// arrive, and the coordinator merges snapshots.
type TermCounter struct {
	mu     sync.RWMutex
	counts map[string]int64
	items  int64
}

// NewTermCounter returns an empty counter.
func NewTermCounter() *TermCounter {
	return &TermCounter{counts: make(map[string]int64)}
}

// Observe records one item (document or filter) with the given term set.
// Terms are assumed deduplicated, as produced by text.Terms.
func (c *TermCounter) Observe(terms []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items++
	for _, t := range terms {
		c.counts[t]++
	}
}

// Items returns the number of observed items.
func (c *TermCounter) Items() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.items
}

// Count returns the number of items that contained term t.
func (c *TermCounter) Count(t string) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.counts[t]
}

// Rate returns the fraction of observed items containing term t — p_i when
// the counter tracks filters, q_i when it tracks documents.
func (c *TermCounter) Rate(t string) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.items == 0 {
		return 0
	}
	return float64(c.counts[t]) / float64(c.items)
}

// Distinct returns the number of distinct terms observed.
func (c *TermCounter) Distinct() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.counts)
}

// Reset clears all counts; used when q_i is renewed from a fresh window of
// incoming documents (§VI.A: "every 10 minutes, the values of qi are
// renewed based on new incoming documents").
func (c *TermCounter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts = make(map[string]int64)
	c.items = 0
}

// RankedRate is one point of a ranked rate distribution: the rate of the
// term at a given popularity rank (1-based).
type RankedRate struct {
	Rank int
	Term string
	Rate float64
}

// Ranked returns the rate distribution sorted by decreasing rate, truncated
// to at most top entries (top <= 0 means all). This is exactly what Figures
// 4 and 5 of the paper plot.
func (c *TermCounter) Ranked(top int) []RankedRate {
	c.mu.RLock()
	out := make([]RankedRate, 0, len(c.counts))
	total := c.items
	for t, n := range c.counts {
		r := 0.0
		if total > 0 {
			r = float64(n) / float64(total)
		}
		out = append(out, RankedRate{Term: t, Rate: r})
	}
	c.mu.RUnlock()

	sort.Slice(out, func(i, j int) bool {
		if out[i].Rate != out[j].Rate {
			return out[i].Rate > out[j].Rate
		}
		return out[i].Term < out[j].Term
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}

// TopKMass returns the sum of rates of the k most frequent terms — e.g. the
// paper's "accumulated popularity value of the top-1000 terms is 0.437".
func (c *TermCounter) TopKMass(k int) float64 {
	ranked := c.Ranked(k)
	sum := 0.0
	for _, r := range ranked {
		sum += r.Rate
	}
	return sum
}

// TopKTerms returns the k most frequent terms.
func (c *TermCounter) TopKTerms(k int) []string {
	ranked := c.Ranked(k)
	terms := make([]string, len(ranked))
	for i, r := range ranked {
		terms[i] = r.Term
	}
	return terms
}

// Entropy returns the Shannon entropy (base 2) of the normalized term-count
// distribution, as the paper computes for the TREC frequency rates (9.4473
// for AP, 6.7593 for WT): H = -Σ w_i log2 w_i with w_i = count_i / Σcounts.
func (c *TermCounter) Entropy() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total float64
	for _, n := range c.counts {
		total += float64(n)
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, n := range c.counts {
		if n == 0 {
			continue
		}
		w := float64(n) / total
		h -= w * math.Log2(w)
	}
	return h
}

// Overlap returns the fraction of terms in a that also appear in b — used
// for the paper's query-vs-document top-1000 overlap (26.9% AP, 31.3% WT).
func Overlap(a, b []string) float64 {
	if len(a) == 0 {
		return 0
	}
	set := make(map[string]struct{}, len(b))
	for _, t := range b {
		set[t] = struct{}{}
	}
	hit := 0
	for _, t := range a {
		if _, ok := set[t]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(a))
}
