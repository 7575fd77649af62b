// Package experiments regenerates every figure of the paper's evaluation
// (§VI). Each Run* function builds the workload from the calibrated
// synthetic datasets, drives the real cluster (or a single real matcher for
// Figures 6–7), and returns the same series the paper plots. The package is
// shared by cmd/movebench (pretty-printing) and the repository-level
// benchmarks in bench_test.go.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/cluster"
	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/index"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/sim"
	"github.com/movesys/move/internal/stats"
	"github.com/movesys/move/internal/store"
)

// Scale shrinks the paper's workload sizes so a laptop regenerates every
// figure in minutes. Scale 1.0 is paper scale (4×10⁶ filters etc.).
type Scale float64

// DefaultScale keeps default runs around a few seconds per figure.
const DefaultScale Scale = 0.01

// apply scales a paper-sized count, keeping at least lo.
func (s Scale) apply(paper int, lo int) int {
	v := int(float64(paper) * float64(s))
	if v < lo {
		return lo
	}
	return v
}

// ErrBadParams reports invalid experiment parameters.
var ErrBadParams = errors.New("experiments: invalid parameters")

// scaledAPMean shrinks the AP document length with the scale while keeping
// the paper's AP ≫ WT relation (6054.9 vs 64.8 terms per doc) intact.
func scaledAPMean(scale Scale) float64 {
	return math.Max(3*dataset.WTMeanTermsPerDoc, dataset.APMeanTermsPerDoc*float64(scale)*10)
}

// --- §VI.A dataset statistics + Figures 4 and 5 ---

// DatasetStats reproduces the in-text statistics of §VI.A.
type DatasetStats struct {
	// MeanTermsPerFilter ↔ 2.843.
	MeanTermsPerFilter float64
	// FilterLenCDF1/2/3 ↔ 31.33% / 67.75% / 85.31%.
	FilterLenCDF1, FilterLenCDF2, FilterLenCDF3 float64
	// TopAnchorMass ↔ 0.437 (over the scaled top-1000 anchor).
	TopAnchorMass float64
	// MeanTermsWT ↔ 64.8 and MeanTermsAP ↔ 6054.9 (scaled).
	MeanTermsWT, MeanTermsAP float64
	// EntropyWT ↔ 6.7593 and EntropyAP ↔ 9.4473 (sample estimates).
	EntropyWT, EntropyAP float64
	// OverlapWT ↔ 31.3% and OverlapAP ↔ 26.9%.
	OverlapWT, OverlapAP float64
}

// RunDatasetStats generates scaled traces and measures the §VI.A numbers.
func RunDatasetStats(scale Scale, seed int64) (DatasetStats, error) {
	var out DatasetStats
	vocab := scale.apply(dataset.MSNDistinctTerms, 5_000)
	nFilters := scale.apply(4_000_000, 20_000)
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: vocab, Seed: seed})
	if err != nil {
		return out, err
	}
	fCounter := stats.NewTermCounter()
	lenCounts := make(map[int]int)
	totalTerms := 0
	for i := 0; i < nFilters; i++ {
		terms := fg.Next()
		fCounter.Observe(terms)
		lenCounts[len(terms)]++
		totalTerms += len(terms)
	}
	out.MeanTermsPerFilter = float64(totalTerms) / float64(nFilters)
	cdf := func(k int) float64 {
		c := 0
		for l, n := range lenCounts {
			if l <= k {
				c += n
			}
		}
		return float64(c) / float64(nFilters)
	}
	out.FilterLenCDF1, out.FilterLenCDF2, out.FilterLenCDF3 = cdf(1), cdf(2), cdf(3)

	anchor := int(float64(vocab) * 1000 / dataset.MSNDistinctTerms)
	if anchor < 10 {
		anchor = 10
	}
	ranked := fCounter.Ranked(0)
	var mass, all float64
	for i, r := range ranked {
		if i < anchor {
			mass += r.Rate
		}
		all += r.Rate
	}
	if all > 0 {
		out.TopAnchorMass = mass / all
	}

	docVocab := scale.apply(1_000_000, 10_000)
	nDocs := scale.apply(100_000, 1_000)
	apMean := scaledAPMean(scale)
	wt, err := dataset.NewDocGen(dataset.CorpusConfig{Kind: dataset.CorpusWT, DistinctTerms: docVocab, Seed: seed + 1})
	if err != nil {
		return out, err
	}
	ap, err := dataset.NewDocGen(dataset.CorpusConfig{Kind: dataset.CorpusAP, DistinctTerms: docVocab, MeanTerms: apMean, Seed: seed + 2})
	if err != nil {
		return out, err
	}
	wtC, apC := stats.NewTermCounter(), stats.NewTermCounter()
	wtTerms, apTerms := 0, 0
	apDocs := nDocs / 10 // AP is the smaller corpus in the paper (1050 docs)
	if apDocs < 100 {
		apDocs = 100
	}
	for i := 0; i < nDocs; i++ {
		terms := wt.Next()
		wtTerms += len(terms)
		wtC.Observe(terms)
	}
	for i := 0; i < apDocs; i++ {
		terms := ap.Next()
		apTerms += len(terms)
		apC.Observe(terms)
	}
	out.MeanTermsWT = float64(wtTerms) / float64(nDocs)
	out.MeanTermsAP = float64(apTerms) / float64(apDocs)
	out.EntropyWT = wtC.Entropy()
	out.EntropyAP = apC.Entropy()

	anchorDocs := dataset.OverlapAnchor(docVocab)
	queryTop := fCounter.TopKTerms(anchorDocs)
	out.OverlapWT = stats.Overlap(queryTop, wtC.TopKTerms(anchorDocs))
	out.OverlapAP = stats.Overlap(queryTop, apC.TopKTerms(anchorDocs))
	return out, nil
}

// RankedPoint is one point of a ranked log-log distribution (Figures 4–5).
type RankedPoint struct {
	Rank int
	Rate float64
}

// RunFigure4 returns the ranked filter-term popularity distribution.
func RunFigure4(scale Scale, seed int64, points int) ([]RankedPoint, error) {
	vocab := scale.apply(dataset.MSNDistinctTerms, 5_000)
	nFilters := scale.apply(4_000_000, 20_000)
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: vocab, Seed: seed})
	if err != nil {
		return nil, err
	}
	c := stats.NewTermCounter()
	for i := 0; i < nFilters; i++ {
		c.Observe(fg.Next())
	}
	return samplePoints(c.Ranked(0), points), nil
}

// Figure5Series holds the two corpora's ranked frequency rates.
type Figure5Series struct {
	AP []RankedPoint
	WT []RankedPoint
}

// RunFigure5 returns the ranked document-term frequency distributions.
func RunFigure5(scale Scale, seed int64, points int) (Figure5Series, error) {
	var out Figure5Series
	vocab := scale.apply(1_000_000, 10_000)
	nDocs := scale.apply(100_000, 1_000)
	wt, err := dataset.NewDocGen(dataset.CorpusConfig{Kind: dataset.CorpusWT, DistinctTerms: vocab, Seed: seed})
	if err != nil {
		return out, err
	}
	apMean := scaledAPMean(scale)
	ap, err := dataset.NewDocGen(dataset.CorpusConfig{Kind: dataset.CorpusAP, DistinctTerms: vocab, MeanTerms: apMean, Seed: seed + 1})
	if err != nil {
		return out, err
	}
	wtC, apC := stats.NewTermCounter(), stats.NewTermCounter()
	for i := 0; i < nDocs; i++ {
		wtC.Observe(wt.Next())
	}
	apDocs := nDocs / 10
	if apDocs < 100 {
		apDocs = 100
	}
	for i := 0; i < apDocs; i++ {
		apC.Observe(ap.Next())
	}
	out.WT = samplePoints(wtC.Ranked(0), points)
	out.AP = samplePoints(apC.Ranked(0), points)
	return out, nil
}

// samplePoints thins a ranked distribution to roughly log-spaced points.
func samplePoints(ranked []stats.RankedRate, points int) []RankedPoint {
	if points <= 0 || len(ranked) <= points {
		out := make([]RankedPoint, len(ranked))
		for i, r := range ranked {
			out[i] = RankedPoint{Rank: r.Rank, Rate: r.Rate}
		}
		return out
	}
	out := make([]RankedPoint, 0, points)
	maxRank := float64(len(ranked))
	step := math.Pow(maxRank, 1/float64(points-1))
	rank := 1.0
	prev := 0
	for i := 0; i < points; i++ {
		idx := int(math.Round(rank)) - 1
		if idx <= prev-1 {
			idx = prev
		}
		if idx >= len(ranked) {
			break
		}
		r := ranked[idx]
		out = append(out, RankedPoint{Rank: r.Rank, Rate: r.Rate})
		prev = idx + 1
		rank *= step
	}
	return out
}

// --- Figures 6–7: single-node throughput ---

// SingleNodePoint is one measurement of the Figures 6–7 sweep.
type SingleNodePoint struct {
	// R is the fixed product P×Q.
	R int
	// Q is the number of processed documents; P = R/Q filters.
	Q int
	P int
	// Throughput is matching throughput for the fixed R workload:
	// (P×Q document-filter pairs) / processing time. With R fixed across a
	// series this is proportional to 1/processing-time, which is the
	// paper's y-axis up to a constant; it rises as Q shrinks (per-document
	// posting-list retrievals dominate for long articles) and dips again
	// once P exceeds the disk capacity (the §VI.B "smaller Q does not
	// certainly mean higher throughput" observation).
	Throughput float64
	// BusySeconds is the raw virtual processing time.
	BusySeconds float64
}

// SingleNodeParams configures the Figures 6–7 experiment.
type SingleNodeParams struct {
	Corpus dataset.CorpusKind
	// Products are the fixed R = P×Q values (paper: 1e5, 1e6, 1e7).
	Products []int
	// DocCounts are the Q values swept (paper: 1..1000).
	DocCounts []int
	Seed      int64
	// Capacity bounds P; points whose P exceed it get the §VI.B disk-IO
	// penalty (the paper's "when P is very large, the disk IO becomes the
	// performance bottleneck"). Zero means 5×10⁶ scaled by P's magnitude.
	Capacity int
	// Vocab is the shared vocabulary size; 0 means 30,000.
	Vocab int
	// MeanDocTerms overrides the corpus preset (scaled runs shrink AP).
	MeanDocTerms float64
}

// RunSingleNode measures the matching throughput of one node as the paper
// does on a single machine: Q documents matched against P = R/Q filters
// with the centralized inverted-list algorithm. Cost is virtual time from
// the §IV model (y_p per posting entry scanned plus a per-posting-list
// retrieval charge), which reproduces the paper's disk-IO-bound shape
// deterministically.
func RunSingleNode(p SingleNodeParams) ([]SingleNodePoint, error) {
	if len(p.Products) == 0 || len(p.DocCounts) == 0 {
		return nil, fmt.Errorf("%w: empty sweep", ErrBadParams)
	}
	vocab := p.Vocab
	if vocab == 0 {
		vocab = 30_000
	}
	var out []SingleNodePoint
	for _, r := range p.Products {
		for _, q := range p.DocCounts {
			if q <= 0 || q > r {
				continue
			}
			pt, err := runSingleNodePoint(p, r, q, vocab)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// Cost constants for the single-node virtual clock: a posting-list
// retrieval is one random read (seek-dominated on the paper's spinning
// disks), each posting entry adds sequential scan time.
const (
	seekSeconds    = 5e-3
	postingSeconds = 2e-6
	// diskPenalty multiplies scan cost once the filter set exceeds the
	// node's memory/disk capacity C (Figure 6's "smaller Q does not
	// certainly mean higher throughput" dip).
	diskPenalty = 8.0
)

func runSingleNodePoint(p SingleNodeParams, r, q, vocab int) (SingleNodePoint, error) {
	nFilters := r / q
	pt := SingleNodePoint{R: r, Q: q, P: nFilters}

	st, err := store.Open("", store.Options{})
	if err != nil {
		return pt, err
	}
	ix, err := index.New(st)
	if err != nil {
		return pt, err
	}
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: vocab, Seed: p.Seed + int64(r) + int64(q)})
	if err != nil {
		return pt, err
	}
	for i := 0; i < nFilters; i++ {
		terms := fg.Next()
		f := model.Filter{ID: model.FilterID(i + 1), Subscriber: "s", Terms: terms, Mode: model.MatchAny}
		if err := ix.Register(f, terms); err != nil {
			return pt, err
		}
	}
	dg, err := dataset.NewDocGen(dataset.CorpusConfig{
		Kind:          p.Corpus,
		DistinctTerms: vocab,
		MeanTerms:     p.MeanDocTerms,
		Seed:          p.Seed + int64(r) + int64(q) + 7,
	})
	if err != nil {
		return pt, err
	}

	var lists, postings int64
	for i := 0; i < q; i++ {
		doc := model.Document{ID: uint64(i + 1), Terms: dg.Next()}
		_, ms, err := ix.MatchTerms(&doc, doc.Terms)
		if err != nil {
			return pt, err
		}
		lists += int64(ms.PostingLists)
		postings += int64(ms.Postings)
	}
	capacity := p.Capacity
	if capacity == 0 {
		capacity = 5_000_000
	}
	scan := postingSeconds
	if nFilters > capacity {
		scan *= diskPenalty
	}
	busy := seekSeconds*float64(lists) + scan*float64(postings)
	pt.BusySeconds = busy
	if busy > 0 {
		pt.Throughput = float64(r) / busy
	}
	return pt, nil
}

// --- Figure 8: cluster throughput sweeps ---

// Policy selects when allocation happens (§V "Allocation Policy").
type Policy int

// Allocation policies.
const (
	// PolicyProactive allocates from pre-registration statistics plus an
	// offline warm-up corpus, before the measured load (the paper's
	// choice).
	PolicyProactive Policy = iota
	// PolicyPassive allocates only after the hot pattern has emerged,
	// mid-measurement — paying the migration traffic inside the window.
	PolicyPassive
)

// ClusterParams configures one cluster measurement.
type ClusterParams struct {
	Scheme    cluster.Scheme
	Nodes     int
	Filters   int
	Docs      int
	Capacity  int
	Placement ring.Placement
	Strategy  alloc.Strategy
	Corpus    dataset.CorpusKind
	// Vocab is the shared vocabulary; 0 means max(10000, Filters/10).
	Vocab int
	// MeanDocTerms overrides the corpus preset.
	MeanDocTerms float64
	// WarmDocs are published before allocation so q_i statistics exist
	// (the §V proactive policy's offline corpus); 0 means Docs/10 (≥20).
	WarmDocs int
	// FailFraction crashes that share of nodes after allocation;
	// FailByRack makes failures rack-correlated.
	FailFraction float64
	FailByRack   bool
	// DisableBloom turns the dissemination Bloom gate off (ablation
	// BenchmarkAblationBloom); default off = gate enabled.
	DisableBloom bool
	// CostScale compensates for scaled-down workloads: when the filter set
	// is k× smaller than paper scale, posting lists are k× shorter, so the
	// per-posting scan constant y_p is multiplied by CostScale (≈ k) to
	// keep the scan:seek:transfer balance the paper's hardware had. 0 or
	// 1 means no compensation (paper-scale runs).
	CostScale float64
	// Policy selects proactive (default) or passive allocation timing.
	Policy Policy
	// NoSeparation disables the optimizer's balance-driven separation
	// columns (rows-only ablation of the pure §IV formulas).
	NoSeparation bool
	// Ratio overrides the §IV-B allocation-ratio choice (pure replication
	// vs pure separation ablation).
	Ratio alloc.RatioMode
	Seed  int64
}

// ClusterOutcome is one cluster measurement.
type ClusterOutcome struct {
	// Throughput is complete documents per virtual second.
	Throughput float64
	// Docs and Complete count the measured window.
	Docs, Complete int
	// StoragePerNode is each node's stored filter definitions (Fig 9a).
	StoragePerNode []float64
	// MatchPerNode is each node's term match evaluations in the measured
	// window (Fig 9b) — framing-invariant, unlike raw frame counts.
	MatchPerNode []float64
	// Availability is the live-filter fraction (Fig 9d).
	Availability float64
	// Transfers counts document transfer attempts.
	Transfers int64
	// BottleneckSeconds is the busiest node's virtual time.
	BottleneckSeconds float64
}

// RunClusterWithTraces is RunCluster on user-supplied traces instead of
// the synthetic generators — the path for reproducing on the real MSN and
// TREC data when available. filters and docs are preprocessed term sets
// (one slice per item); documents are consumed in order (wrapping) for the
// warm-up plus the measured window.
func RunClusterWithTraces(p ClusterParams, filters, docs [][]string) (ClusterOutcome, error) {
	if len(filters) == 0 || len(docs) == 0 {
		return ClusterOutcome{}, fmt.Errorf("%w: empty trace", ErrBadParams)
	}
	p.Filters = len(filters)
	if p.Docs == 0 {
		p.Docs = len(docs)
	}
	if p.Nodes < 1 {
		return ClusterOutcome{}, fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	fi, di := 0, 0
	nextFilter := func() []string {
		terms := filters[fi%len(filters)]
		fi++
		return terms
	}
	nextDoc := func() []string {
		terms := docs[di%len(docs)]
		di++
		return terms
	}
	return runCluster(p, nextFilter, nextDoc)
}

// RunCluster performs one full §VI.C/§VI.D measurement on the calibrated
// synthetic workloads.
func RunCluster(p ClusterParams) (ClusterOutcome, error) {
	if p.Nodes < 1 || p.Filters < 1 || p.Docs < 1 {
		return ClusterOutcome{}, fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	if p.Corpus == 0 {
		p.Corpus = dataset.CorpusWT
	}
	vocab := p.Vocab
	if vocab == 0 {
		// Preserve the paper's per-node term coverage: with P filters of
		// 2.84 terms over N=20 nodes and the MSN vocabulary, each node's
		// local dictionary covers a large share of the query vocabulary,
		// which is what makes RS flooding pay ~|d|·coverage posting-list
		// retrievals per node. Scaling the query vocabulary as P/10 (and
		// the document vocabulary as 2× that) keeps the ratio at any
		// scale.
		vocab = p.Filters / 10
		if vocab < 400 {
			vocab = 400
		}
	}
	// Documents draw from a larger vocabulary than queries (WT10G has far
	// more distinct terms than the MSN trace), so a sizable fraction of
	// document terms are not filter terms — the population the §V Bloom
	// gate prunes.
	docVocab := 2 * vocab
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: vocab, Seed: p.Seed + 2})
	if err != nil {
		return ClusterOutcome{}, err
	}
	dg, err := dataset.NewDocGen(dataset.CorpusConfig{
		Kind:          p.Corpus,
		DistinctTerms: docVocab,
		MeanTerms:     p.MeanDocTerms,
		Seed:          p.Seed + 3,
	})
	if err != nil {
		return ClusterOutcome{}, err
	}
	return runCluster(p, fg.Next, dg.Next)
}

// runCluster is the shared measurement core.
func runCluster(p ClusterParams, nextFilter, nextDoc func() []string) (ClusterOutcome, error) {
	var out ClusterOutcome
	c, err := cluster.New(cluster.Config{
		Scheme:            p.Scheme,
		Nodes:             p.Nodes,
		Capacity:          p.Capacity,
		Placement:         p.Placement,
		AllocStrategy:     p.Strategy,
		AllocNoSeparation: p.NoSeparation,
		AllocRatio:        p.Ratio,
		Seed:              p.Seed + 1,
		// These runs report virtual time from the cost model, so wall-clock
		// speed must not change their outcome: the 30 s default is a
		// production bound that a 100-node prepare on a slow host (2 vCPUs
		// under the race detector) overruns, aborting the allocation.
		ControlTimeout: 10 * time.Minute,
	})
	if err != nil {
		return out, err
	}
	ctx := context.Background()

	for i := 0; i < p.Filters; i++ {
		if _, err := c.Register(ctx, "sub", nextFilter(), model.MatchAny); err != nil {
			return out, err
		}
	}
	if !p.DisableBloom {
		if err := c.RefreshBloom(ctx); err != nil {
			return out, err
		}
	}

	allocate := func() error {
		_, err := c.Allocate(ctx)
		return err
	}

	// Warm-up + allocation (Move only): learn q_i, then allocate. The
	// passive policy defers allocation into the measured window instead.
	if p.Scheme == cluster.SchemeMove && p.Policy == PolicyProactive {
		warm := p.WarmDocs
		if warm == 0 {
			// The §V proactive policy estimates q_i from an offline corpus
			// before allocating; a window of half the measured load keeps
			// the node-frequency estimates stable.
			warm = p.Docs / 2
			if warm < 100 {
				warm = 100
			}
		}
		for i := 0; i < warm; i++ {
			if _, err := c.Publish(ctx, nextDoc()); err != nil {
				return out, err
			}
		}
		if err := allocate(); err != nil {
			return out, err
		}
	}

	// Failure injection happens after registration/allocation, as in the
	// paper's §VI.D methodology.
	if p.FailFraction > 0 {
		c.FailFraction(p.FailFraction, p.FailByRack)
	}

	// Measured window.
	before, err := c.PullLoads(ctx)
	if err != nil {
		return out, err
	}
	c.ResetTransferStats()
	complete := 0
	for i := 0; i < p.Docs; i++ {
		// Passive policy: the hot pattern must first be observed live, so
		// allocation (and its migration traffic) lands mid-window.
		if p.Scheme == cluster.SchemeMove && p.Policy == PolicyPassive && i == p.Docs/2 {
			if err := allocate(); err != nil {
				return out, err
			}
		}
		res, err := c.Publish(ctx, nextDoc())
		if err != nil {
			return out, err
		}
		if res.Complete {
			complete++
		}
	}
	after, err := c.PullLoads(ctx)
	if err != nil {
		return out, err
	}
	transfers := c.Transfers()

	prev := make(map[ring.NodeID]cluster.NodeLoad, len(before))
	for _, l := range before {
		prev[l.ID] = l
	}
	works := make([]sim.NodeWork, 0, len(after))
	for _, l := range after {
		w := sim.NodeWork{ID: l.ID}
		w.PostingsScanned = l.PostingsScanned - prev[l.ID].PostingsScanned
		w.PostingLists = l.PostingLists - prev[l.ID].PostingLists
		intra := transfers.PerNodeReceivedIntra[l.ID]
		w.DocsReceivedIntra = intra
		w.DocsReceivedInter = transfers.PerNodeReceived[l.ID] - intra
		works = append(works, w)
		out.StoragePerNode = append(out.StoragePerNode, float64(l.Filters))
		out.MatchPerNode = append(out.MatchPerNode, float64(l.TermsMatched-prev[l.ID].TermsMatched))
	}
	costModel := sim.DefaultCostModel()
	if p.CostScale > 1 {
		costModel.YP *= p.CostScale
	}
	res, err := sim.Evaluate(costModel, p.Docs, complete, works)
	if err != nil {
		return out, err
	}
	out.Throughput = res.Throughput
	out.Docs = p.Docs
	out.Complete = complete
	out.Availability = c.AvailableFilterFraction()
	out.Transfers = transfers.Total
	out.BottleneckSeconds = res.BottleneckSeconds
	return out, nil
}
