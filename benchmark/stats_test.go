package main

import (
	"math"
	"reflect"
	"testing"

	"github.com/movesys/move/internal/metrics"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.2: 1, 0.5: 3, 0.99: 5, 1: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty input must read NaN, not 0")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestWindows(t *testing.T) {
	w := newWindows(1e9)
	for i := 0; i < 30; i++ {
		w.add(1e9+int64(i)*1e8, float64(i)) // three one-second windows of ten samples
	}
	w.add(1e9+35e8, 1000) // a lone sample in a fourth window
	v, wins, n := w.medianOfMedians(5)
	if wins != 3 || n != 30 || v != 14.5 {
		t.Errorf("median of window medians = %v over %d windows / %d samples", v, wins, n)
	}
	if len(w.all()) != 31 {
		t.Errorf("all() = %d samples", len(w.all()))
	}
}

func TestDocsPerSecUsesWindowMedian(t *testing.T) {
	ps := &phaseStats{samples: []cpuSample{
		{at: 0, docs: 0, daemons: 0, harness: 0},
		{at: 1e9, docs: 100, daemons: 0.5, harness: 0.1},
		{at: 2e9, docs: 220, daemons: 1.1, harness: 0.2},
		{at: 3e9, docs: 1000, daemons: 1.6, harness: 0.3}, // one outlier window
	}}
	if v, wins := docsPerSec(ps); wins != 3 || v != 120 {
		t.Errorf("docsPerSec = %v over %d windows", v, wins)
	}
}

// A series the metrics are built on must be in every scrape: a missing
// name is reported, never read as 0; and a ratio over nothing counted is
// not a number.
func TestMissingSeriesAndEmptyRatios(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("rpc.retries")
	reg.Histogram("match.term")
	got := missingSeries("n0", reg.Dump(), []string{"rpc.retries", "rpc.giveups"}, []string{"index.cover.covers"}, []string{"match.term", "publish.home"})
	want := []string{"n0: counter rpc.giveups", "n0: gauge index.cover.covers", "n0: histogram publish.home"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("missingSeries = %q, want %q", got, want)
	}
	if v := ratio(3, 0); !math.IsNaN(v) {
		t.Errorf("ratio(3, 0) = %v, want NaN", v)
	}
	if v := mean(nil); !math.IsNaN(v) {
		t.Errorf("mean(nil) = %v, want NaN", v)
	}
}
