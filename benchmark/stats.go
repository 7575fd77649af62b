package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule on a sorted copy; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the mean of the two middle values for an even count, so two
// windows do not silently report the lower one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windows buckets samples by the whole second (of the harness clock,
// relative to a phase start) they belong to.
type windows struct {
	startNS int64
	byWin   map[int][]float64
}

func newWindows(startNS int64) *windows {
	return &windows{startNS: startNS, byWin: make(map[int][]float64)}
}

func (w *windows) add(atNS int64, v float64) {
	k := int((atNS - w.startNS) / 1e9)
	w.byWin[k] = append(w.byWin[k], v)
}

// medianOfMedians is the median over windows of each window's median,
// ignoring windows with fewer than minSamples samples; n is the number of
// samples that took part.
func (w *windows) medianOfMedians(minSamples int) (v float64, wins, n int) {
	var meds []float64
	for _, xs := range w.byWin {
		if len(xs) < minSamples {
			continue
		}
		meds = append(meds, median(xs))
		n += len(xs)
	}
	return median(meds), len(meds), n
}

func (w *windows) all() []float64 {
	var out []float64
	for _, xs := range w.byWin {
		out = append(out, xs...)
	}
	return out
}
