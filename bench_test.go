// Benchmarks regenerating every figure of the paper's evaluation (§VI) plus
// the design-choice ablations from DESIGN.md. Each figure bench reports the
// series it measures via b.ReportMetric so `go test -bench=.` output records
// paper-shape numbers alongside wall-clock cost; cmd/movebench prints the
// same series as tables.
//
// Benchmarks run at a small scale by default (MOVE_BENCH_SCALE overrides,
// e.g. MOVE_BENCH_SCALE=0.01 or 1.0 for paper scale).
package move

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/experiments"
)

// benchScale returns the workload scale for figure benches.
func benchScale() experiments.Scale {
	if s := os.Getenv("MOVE_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return experiments.Scale(v)
		}
	}
	return 0.002
}

// BenchmarkDatasetStats regenerates the §VI.A dataset statistics.
func BenchmarkDatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := experiments.RunDatasetStats(benchScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(st.MeanTermsPerFilter, "terms/filter")
		b.ReportMetric(st.TopAnchorMass, "top1000-mass")
		b.ReportMetric(st.OverlapWT, "overlapWT")
	}
}

// BenchmarkFigure4 regenerates the filter-term popularity distribution.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFigure4(benchScale(), 1, 20)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) > 0 {
			b.ReportMetric(pts[0].Rate, "head-popularity")
		}
	}
}

// BenchmarkFigure5 regenerates the document-term frequency distributions.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunFigure5(benchScale(), 1, 20)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.WT) > 0 {
			b.ReportMetric(s.WT[0].Rate, "head-freq-WT")
		}
	}
}

// benchSingleNode shares the Figures 6–7 sweep between corpora.
func benchSingleNode(b *testing.B, corpus dataset.CorpusKind, mean float64) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunSingleNode(experiments.SingleNodeParams{
			Corpus:       corpus,
			Products:     []int{20_000, 100_000},
			DocCounts:    []int{10, 100, 400},
			Seed:         1,
			Vocab:        10_000,
			MeanDocTerms: mean,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.Throughput, fmt.Sprintf("R%d-Q%d", p.R, p.Q))
		}
	}
}

// BenchmarkSingleNodeAP regenerates Figure 6 (TREC-AP-like documents).
func BenchmarkSingleNodeAP(b *testing.B) {
	benchSingleNode(b, dataset.CorpusAP, 600)
}

// BenchmarkSingleNodeWT regenerates Figure 7 (TREC-WT-like documents).
func BenchmarkSingleNodeWT(b *testing.B) {
	benchSingleNode(b, dataset.CorpusWT, 0)
}

// BenchmarkClusterVsFilters regenerates Figure 8(a).
func BenchmarkClusterVsFilters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFigure8a(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.Move, "Move@maxP")
		b.ReportMetric(last.RS, "RS@maxP")
		b.ReportMetric(last.IL, "IL@maxP")
	}
}

// BenchmarkClusterVsDocs regenerates Figure 8(b).
func BenchmarkClusterVsDocs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFigure8b(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.Move, "Move@maxQ")
		b.ReportMetric(last.RS, "RS@maxQ")
		b.ReportMetric(last.IL, "IL@maxQ")
	}
}

// BenchmarkClusterVsNodes regenerates Figure 8(c).
func BenchmarkClusterVsNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFigure8c(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.Move, "Move@100nodes")
		b.ReportMetric(last.RS, "RS@100nodes")
		b.ReportMetric(last.IL, "IL@100nodes")
	}
}

// BenchmarkLoadDistribution regenerates Figure 9(a) (storage skew).
func BenchmarkLoadDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		load, err := experiments.RunFigure9Load(benchScale(), true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(load.CVMove, "cv-Move")
		b.ReportMetric(load.CVIL, "cv-IL")
		b.ReportMetric(load.CVRS, "cv-RS")
	}
}

// BenchmarkMatchingDistribution regenerates Figure 9(b) (matching skew).
func BenchmarkMatchingDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		load, err := experiments.RunFigure9Load(benchScale(), false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(load.CVMove, "cv-Move")
		b.ReportMetric(load.CVIL, "cv-IL")
		b.ReportMetric(load.CVRS, "cv-RS")
	}
}

// BenchmarkFailureThroughput regenerates Figure 9(c).
func BenchmarkFailureThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure9Failure(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.ThroughputFail, r.Placement.String()+"@30%")
		}
	}
}

// BenchmarkFailureAvailability regenerates Figure 9(d).
func BenchmarkFailureAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure9Failure(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.AvailabilityFail, r.Placement.String()+"-avail@30%")
		}
	}
}

// BenchmarkAblationAllocFactor compares the §IV allocation formulas.
func BenchmarkAblationAllocFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunAblationStrategies(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.Throughput, p.Name)
		}
	}
}

// BenchmarkAblationBloom compares dissemination with/without the Bloom
// gate.
func BenchmarkAblationBloom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunAblationBloom(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.Throughput, p.Name)
		}
	}
}

// BenchmarkAblationPolicy compares proactive vs passive allocation timing
// (§V allocation policy).
func BenchmarkAblationPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunAblationPolicy(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.Throughput, p.Name)
		}
	}
}

// BenchmarkPublishWallClock measures real end-to-end publish latency on the
// in-process cluster (no cost model), exercising the whole dissemination
// code path.
func BenchmarkPublishWallClock(b *testing.B) {
	c, err := NewCluster(Config{Nodes: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: 2_000, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5_000; i++ {
		if _, err := c.SubscribeTerms("s", fg.Next()); err != nil {
			b.Fatal(err)
		}
	}
	dg, err := dataset.NewDocGen(dataset.CorpusConfig{Kind: dataset.CorpusWT, DistinctTerms: 2_000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	docs := make([][]string, 256)
	for i := range docs {
		docs[i] = dg.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PublishTerms(docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegisterWallClock measures real filter-registration latency.
func BenchmarkRegisterWallClock(b *testing.B) {
	c, err := NewCluster(Config{Nodes: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: 10_000, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SubscribeTerms("s", fg.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRatio compares the optimizer-chosen allocation ratio
// against the pure replication and pure separation schemes of §IV-A.
func BenchmarkAblationRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunAblationRatio(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.Throughput, p.Name)
		}
	}
}
