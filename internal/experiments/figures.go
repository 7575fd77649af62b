package experiments

import (
	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/cluster"
	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/ring"
)

// SchemePoint is one (x, throughput-per-scheme) row of Figure 8.
type SchemePoint struct {
	X    int
	Move float64
	IL   float64
	RS   float64
}

// Figure8Defaults mirror §VI.C: P = 4×10⁶ filters, Q = 10³ docs, N = 20
// nodes, C = 3×10⁶ per node — scaled.
type Figure8Defaults struct {
	Filters  int
	Docs     int
	Nodes    int
	Capacity int
	// CostScale compensates posting-list lengths for the scaled-down
	// filter set (see ClusterParams.CostScale).
	CostScale float64
	Seed      int64
}

// DefaultsAt scales the §VI.C defaults.
func DefaultsAt(scale Scale) Figure8Defaults {
	d := Figure8Defaults{
		Filters:  scale.apply(4_000_000, 4_000),
		Docs:     scale.apply(1_000, 200),
		Nodes:    20,
		Capacity: scale.apply(3_000_000, 3_000),
		Seed:     1,
	}
	// Posting lists shrink linearly with the scaled-down filter set, so
	// the per-posting scan constant is inflated by paper-P/actual-P. The
	// 0.6 factor calibrates the scan:seek balance against the paper's
	// measured scheme ratios at the §VI.C defaults (Move:RS:IL =
	// 93:70:42); see EXPERIMENTS.md for the derivation.
	d.CostScale = 0.6 * 4_000_000 / float64(d.Filters)
	return d
}

// runSchemes measures all three schemes under one parameter point.
func runSchemes(base ClusterParams) (SchemePoint, error) {
	pt := SchemePoint{}
	for _, scheme := range []cluster.Scheme{cluster.SchemeMove, cluster.SchemeIL, cluster.SchemeRS} {
		p := base
		p.Scheme = scheme
		out, err := RunCluster(p)
		if err != nil {
			return pt, err
		}
		switch scheme {
		case cluster.SchemeMove:
			pt.Move = out.Throughput
		case cluster.SchemeIL:
			pt.IL = out.Throughput
		case cluster.SchemeRS:
			pt.RS = out.Throughput
		}
	}
	return pt, nil
}

// RunFigure8a sweeps the number of filters P (paper: 10⁵ → 10⁷).
func RunFigure8a(scale Scale) ([]SchemePoint, error) {
	d := DefaultsAt(scale)
	sweep := []int{
		Scale(scale).apply(100_000, 1_000),
		Scale(scale).apply(1_000_000, 2_000),
		Scale(scale).apply(4_000_000, 4_000),
		Scale(scale).apply(10_000_000, 8_000),
	}
	var out []SchemePoint
	for _, filters := range sweep {
		pt, err := runSchemes(ClusterParams{
			Nodes:     d.Nodes,
			Filters:   filters,
			Docs:      d.Docs,
			Capacity:  d.Capacity,
			CostScale: d.CostScale,
			Corpus:    dataset.CorpusWT,
			Seed:      d.Seed,
		})
		if err != nil {
			return nil, err
		}
		pt.X = filters
		out = append(out, pt)
	}
	return out, nil
}

// RunFigure8b sweeps the number of documents Q (paper: 10 → 10⁴). The
// virtual-time cost model is rate-invariant (no queueing), so the series
// is flatter than the paper's saturation-driven decline; the smallest
// point is floored at 50 documents to keep per-point variance bounded.
func RunFigure8b(scale Scale) ([]SchemePoint, error) {
	d := DefaultsAt(scale)
	sweep := []int{
		maxI(50, d.Docs/4),
		maxI(100, d.Docs/2),
		d.Docs,
		d.Docs * 4,
	}
	var out []SchemePoint
	for _, docs := range sweep {
		pt, err := runSchemes(ClusterParams{
			Nodes:     d.Nodes,
			Filters:   d.Filters,
			Docs:      docs,
			Capacity:  d.Capacity,
			CostScale: d.CostScale,
			Corpus:    dataset.CorpusWT,
			Seed:      d.Seed,
		})
		if err != nil {
			return nil, err
		}
		pt.X = docs
		out = append(out, pt)
	}
	return out, nil
}

// RunFigure8c sweeps the cluster size N (paper: → 100 nodes).
func RunFigure8c(scale Scale) ([]SchemePoint, error) {
	d := DefaultsAt(scale)
	var out []SchemePoint
	for _, nodes := range []int{10, 20, 40, 60, 100} {
		pt, err := runSchemes(ClusterParams{
			Nodes:     nodes,
			Filters:   d.Filters,
			Docs:      d.Docs,
			Capacity:  d.Capacity,
			CostScale: d.CostScale,
			Corpus:    dataset.CorpusWT,
			Seed:      d.Seed,
		})
		if err != nil {
			return nil, err
		}
		pt.X = nodes
		out = append(out, pt)
	}
	return out, nil
}

// Figure9Load holds the Figure 9(a–b) ranked, RS-normalized load curves.
type Figure9Load struct {
	// Move/IL/RS are per-node loads ranked descending, normalized by the
	// RS scheme's mean (the paper's y-axis).
	Move, IL, RS []float64
	// CVMove, CVIL, CVRS summarize skew (coefficient of variation).
	CVMove, CVIL, CVRS float64
}

// RunFigure9Load measures the per-node storage (storage=true) or matching
// (storage=false) cost distribution of the three schemes on the default
// 20-node cluster.
func RunFigure9Load(scale Scale, storage bool) (Figure9Load, error) {
	d := DefaultsAt(scale)
	var out Figure9Load
	pick := func(o ClusterOutcome) []float64 {
		if storage {
			return o.StoragePerNode
		}
		return o.MatchPerNode
	}
	base := ClusterParams{
		Nodes:     d.Nodes,
		Filters:   d.Filters,
		Docs:      d.Docs,
		Capacity:  d.Capacity,
		CostScale: d.CostScale,
		Corpus:    dataset.CorpusWT,
		Seed:      d.Seed,
	}
	rsParams := base
	rsParams.Scheme = cluster.SchemeRS
	rsOut, err := RunCluster(rsParams)
	if err != nil {
		return out, err
	}
	rsDist := metrics.NewDistribution(pick(rsOut))
	out.RS = rsDist.NormalizedBy(rsDist.Mean)
	out.CVRS = rsDist.CV

	ilParams := base
	ilParams.Scheme = cluster.SchemeIL
	ilOut, err := RunCluster(ilParams)
	if err != nil {
		return out, err
	}
	ilDist := metrics.NewDistribution(pick(ilOut))
	out.IL = ilDist.NormalizedBy(rsDist.Mean)
	out.CVIL = ilDist.CV

	mvParams := base
	mvParams.Scheme = cluster.SchemeMove
	mvOut, err := RunCluster(mvParams)
	if err != nil {
		return out, err
	}
	mvDist := metrics.NewDistribution(pick(mvOut))
	out.Move = mvDist.NormalizedBy(rsDist.Mean)
	out.CVMove = mvDist.CV
	return out, nil
}

// Figure9Failure holds one placement strategy's throughput/availability
// under node failure (Figure 9 c–d).
type Figure9Failure struct {
	Placement ring.Placement
	// ThroughputOK / ThroughputFail: virtual throughput at 0% and 30%
	// failed nodes.
	ThroughputOK, ThroughputFail float64
	// AvailabilityOK / AvailabilityFail: live-filter fractions.
	AvailabilityOK, AvailabilityFail float64
}

// RunFigure9Failure measures the three placement strategies with
// rack-correlated failures at rate 0.3, as §VI.D does.
func RunFigure9Failure(scale Scale) ([]Figure9Failure, error) {
	d := DefaultsAt(scale)
	var out []Figure9Failure
	for _, placement := range []ring.Placement{ring.PlacementHybrid, ring.PlacementRing, ring.PlacementRack} {
		row := Figure9Failure{Placement: placement}
		base := ClusterParams{
			Scheme:    cluster.SchemeMove,
			Nodes:     d.Nodes,
			Filters:   d.Filters,
			Docs:      d.Docs,
			Capacity:  d.Capacity,
			CostScale: d.CostScale,
			Placement: placement,
			Corpus:    dataset.CorpusWT,
			Seed:      d.Seed,
		}
		ok, err := RunCluster(base)
		if err != nil {
			return nil, err
		}
		row.ThroughputOK = ok.Throughput
		row.AvailabilityOK = ok.Availability

		failed := base
		failed.FailFraction = 0.3
		failed.FailByRack = true
		fl, err := RunCluster(failed)
		if err != nil {
			return nil, err
		}
		row.ThroughputFail = fl.Throughput
		row.AvailabilityFail = fl.Availability
		out = append(out, row)
	}
	return out, nil
}

// AblationPoint is one ablation measurement.
type AblationPoint struct {
	Name       string
	Throughput float64
}

// RunAblationStrategies compares the §IV allocation-factor formulas, both
// with the full allocator (replication rows + balance separation) and
// rows-only (the pure paper formulas, suffix "-rows").
func RunAblationStrategies(scale Scale) ([]AblationPoint, error) {
	d := DefaultsAt(scale)
	var out []AblationPoint
	for _, rowsOnly := range []bool{false, true} {
		for _, s := range []alloc.Strategy{alloc.StrategyGeneral, alloc.StrategyTheorem1, alloc.StrategyTheorem2, alloc.StrategyUniform} {
			o, err := RunCluster(ClusterParams{
				Scheme:       cluster.SchemeMove,
				Nodes:        d.Nodes,
				Filters:      d.Filters,
				Docs:         d.Docs,
				Capacity:     d.Capacity,
				CostScale:    d.CostScale,
				Strategy:     s,
				NoSeparation: rowsOnly,
				Corpus:       dataset.CorpusWT,
				Seed:         d.Seed,
			})
			if err != nil {
				return nil, err
			}
			name := s.String()
			if rowsOnly {
				name += "-rows"
			}
			out = append(out, AblationPoint{Name: name, Throughput: o.Throughput})
		}
	}
	return out, nil
}

// RunAblationBloom compares dissemination with and without the Bloom gate.
func RunAblationBloom(scale Scale) ([]AblationPoint, error) {
	d := DefaultsAt(scale)
	var out []AblationPoint
	for _, disable := range []bool{false, true} {
		o, err := RunCluster(ClusterParams{
			Scheme:       cluster.SchemeMove,
			Nodes:        d.Nodes,
			Filters:      d.Filters,
			Docs:         d.Docs,
			Capacity:     d.Capacity,
			CostScale:    d.CostScale,
			Corpus:       dataset.CorpusWT,
			DisableBloom: disable,
			Seed:         d.Seed,
		})
		if err != nil {
			return nil, err
		}
		name := "bloom-on"
		if disable {
			name = "bloom-off"
		}
		out = append(out, AblationPoint{Name: name, Throughput: o.Throughput})
	}
	return out, nil
}

// RunAblationRatio compares the optimizer-chosen allocation ratio against
// the two pure schemes of §IV-A: replication alone (r=1/n) and separation
// alone (r=1). The paper argues "neither the replication nor separation
// scheme alone can minimize the latency".
func RunAblationRatio(scale Scale) ([]AblationPoint, error) {
	d := DefaultsAt(scale)
	var out []AblationPoint
	for _, tc := range []struct {
		name  string
		ratio alloc.RatioMode
	}{
		{"ratio-auto", alloc.RatioAuto},
		{"ratio-replicate", alloc.RatioReplicate},
		{"ratio-separate", alloc.RatioSeparate},
	} {
		o, err := RunCluster(ClusterParams{
			Scheme:    cluster.SchemeMove,
			Nodes:     d.Nodes,
			Filters:   d.Filters,
			Docs:      d.Docs,
			Capacity:  d.Capacity,
			CostScale: d.CostScale,
			Ratio:     tc.ratio,
			Corpus:    dataset.CorpusWT,
			Seed:      d.Seed,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Name: tc.name, Throughput: o.Throughput})
	}
	return out, nil
}

// RunAblationPolicy compares proactive and passive allocation timing.
func RunAblationPolicy(scale Scale) ([]AblationPoint, error) {
	d := DefaultsAt(scale)
	var out []AblationPoint
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"policy-proactive", PolicyProactive},
		{"policy-passive", PolicyPassive},
	} {
		o, err := RunCluster(ClusterParams{
			Scheme:    cluster.SchemeMove,
			Nodes:     d.Nodes,
			Filters:   d.Filters,
			Docs:      d.Docs,
			Capacity:  d.Capacity,
			CostScale: d.CostScale,
			Policy:    tc.policy,
			Corpus:    dataset.CorpusWT,
			Seed:      d.Seed,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Name: tc.name, Throughput: o.Throughput})
	}
	return out, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
