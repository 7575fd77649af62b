// Command movebench regenerates every figure of the paper's evaluation
// (§VI) and the three guards the repository benchmark (benchmark/) does
// not cover. Each paper figure prints the same series the paper plots,
// produced by the calibrated synthetic workloads and the virtual-time
// cost model; each guard runs an oracle-checked workload on an in-process
// cluster and writes a JSON report.
//
// Usage:
//
//	movebench -fig stats         # §VI.A dataset statistics
//	movebench -fig 4             # filter-term popularity (Figure 4)
//	movebench -fig 5             # document-term frequency (Figure 5)
//	movebench -fig 6 | 7         # single-node throughput (Figures 6–7)
//	movebench -fig 8a | 8b | 8c  # cluster throughput sweeps (Figure 8)
//	movebench -fig 9a | 9b       # load distributions (Figure 9 a–b)
//	movebench -fig 9c | 9d       # failure experiments (Figure 9 c–d)
//	movebench -fig ablation      # design-choice ablations
//	movebench -fig all           # everything above
//	movebench -fig trace         # the three schemes on -filters-trace / -docs-trace
//	movebench -fig churn         # reallocation under chaos      -> BENCH_churn.json
//	movebench -fig delivery      # fan-out to -subs live sessions -> BENCH_delivery.json
//	movebench -fig aggregate     # covering index memory         -> BENCH_aggregate.json
//
// Paper workloads are scaled by -scale (default 0.01 of paper size);
// -scale 1 runs at paper scale. The JSON-writing figures take -out and,
// to fail on a regression against a stored report, -baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"github.com/movesys/move/internal/cluster"
	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/experiments"
)

// options is the parsed command line.
type options struct {
	fig                     string
	scale                   float64
	seed                    int64
	filtersTrace, docsTrace string
	nodes                   int
	subs                    int
	out, baseline           string
}

func main() {
	var o options
	flag.StringVar(&o.fig, "fig", "all", "figure to regenerate: stats, 4, 5, 6, 7, 8a, 8b, 8c, 9a, 9b, 9c, 9d, ablation, all, trace, churn, delivery, aggregate")
	flag.Float64Var(&o.scale, "scale", float64(experiments.DefaultScale), "workload scale relative to the paper (1.0 = paper scale)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.StringVar(&o.filtersTrace, "filters-trace", "", "trace file of preprocessed filters (one per line) for -fig trace")
	flag.StringVar(&o.docsTrace, "docs-trace", "", "trace file of preprocessed documents for -fig trace")
	flag.IntVar(&o.nodes, "nodes", 20, "cluster size for -fig trace, churn and delivery")
	flag.IntVar(&o.subs, "subs", 100_000, "live subscriber sessions for -fig delivery")
	flag.StringVar(&o.out, "out", "", "report path for -fig churn, delivery and aggregate ('-' = stdout; default BENCH_<fig>.json)")
	flag.StringVar(&o.baseline, "baseline", "", "stored report of the same figure to guard against: a latency more than 10% + 25ms above it (churn, delivery), or an index memory figure more than 10% worse (aggregate), fails the run")
	pprofDir := flag.String("pprof", "", "directory to write cpu.pprof and heap.pprof profiles of the run")
	flag.Parse()

	stopProfiles, err := startProfiles(*pprofDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "movebench: %v\n", err)
		os.Exit(1)
	}
	err = dispatch(o)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "movebench: %v\n", err)
		os.Exit(1)
	}
}

func dispatch(o options) error {
	if o.out == "" { // read by the three JSON-writing figures only
		o.out = "BENCH_" + o.fig + ".json"
	}
	switch o.fig {
	case "aggregate":
		return runAggregateFig(o.out, o.baseline, aggregateFilters, aggregateCatalog, aggregateDistinctTerms, aggregateDocs, o.seed)
	case "delivery":
		return runDeliveryFig(o.out, o.baseline, o.nodes, o.subs, o.seed)
	case "churn":
		return runChurnFig(o.out, o.baseline, o.nodes, churnRounds, o.seed)
	case "trace":
		return runTrace(o.filtersTrace, o.docsTrace, o.nodes, o.seed)
	}
	return run(o.fig, experiments.Scale(o.scale), o.seed)
}

// startProfiles begins CPU profiling into dir/cpu.pprof and returns a
// stop function that finalizes it and snapshots dir/heap.pprof. With an
// empty dir both are no-ops.
func startProfiles(dir string) (func() error, error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpuF, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		cpuF.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpuF.Close(); err != nil {
			return err
		}
		heapF, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			return err
		}
		defer heapF.Close()
		runtime.GC() // flatten transient garbage so the heap profile shows retained state
		if err := pprof.WriteHeapProfile(heapF); err != nil {
			return fmt.Errorf("write heap profile: %w", err)
		}
		fmt.Printf("pprof: wrote %s and %s\n", filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof"))
		return nil
	}, nil
}

// runTrace measures the three schemes on user-supplied traces — the path
// for reproducing on the real MSN/TREC datasets when available.
func runTrace(filtersPath, docsPath string, nodes int, seed int64) error {
	if filtersPath == "" || docsPath == "" {
		return fmt.Errorf("-fig trace requires -filters-trace and -docs-trace")
	}
	filters, err := dataset.LoadTrace(filtersPath)
	if err != nil {
		return err
	}
	docs, err := dataset.LoadTrace(docsPath)
	if err != nil {
		return err
	}
	w := header(fmt.Sprintf("trace-driven run: %d filters, %d docs, %d nodes", len(filters), len(docs), nodes))
	fmt.Fprintf(w, "scheme\tthroughput\tcomplete\tavailability\n")
	for _, scheme := range []cluster.Scheme{cluster.SchemeMove, cluster.SchemeIL, cluster.SchemeRS} {
		out, err := experiments.RunClusterWithTraces(experiments.ClusterParams{
			Scheme: scheme,
			Nodes:  nodes,
			Seed:   seed,
		}, filters, docs)
		if err != nil {
			return fmt.Errorf("scheme %v: %w", scheme, err)
		}
		fmt.Fprintf(w, "%v\t%.2f\t%d/%d\t%.3f\n", scheme, out.Throughput, out.Complete, out.Docs, out.Availability)
	}
	return w.Flush()
}

func run(fig string, scale experiments.Scale, seed int64) error {
	runners := map[string]func(experiments.Scale, int64) error{
		"stats":    runStats,
		"4":        runFig4,
		"5":        runFig5,
		"6":        runFig6,
		"7":        runFig7,
		"8a":       runFig8a,
		"8b":       runFig8b,
		"8c":       runFig8c,
		"9a":       runFig9a,
		"9b":       runFig9b,
		"9c":       runFig9c,
		"9d":       runFig9d,
		"ablation": runAblation,
	}
	if fig == "all" {
		for _, name := range []string{"stats", "4", "5", "6", "7", "8a", "8b", "8c", "9a", "9b", "9c", "9d", "ablation"} {
			if err := runners[name](scale, seed); err != nil {
				return fmt.Errorf("fig %s: %w", name, err)
			}
		}
		return nil
	}
	r, ok := runners[fig]
	if !ok {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return r(scale, seed)
}

func header(title string) *tabwriter.Writer {
	fmt.Printf("\n=== %s ===\n", title)
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func runStats(scale experiments.Scale, seed int64) error {
	st, err := experiments.RunDatasetStats(scale, seed)
	if err != nil {
		return err
	}
	w := header("§VI.A dataset statistics (measured vs paper)")
	fmt.Fprintf(w, "metric\tmeasured\tpaper\n")
	fmt.Fprintf(w, "mean terms/filter\t%.3f\t%.3f\n", st.MeanTermsPerFilter, dataset.MSNMeanTermsPerFilter)
	fmt.Fprintf(w, "P(len<=1)\t%.4f\t%.4f\n", st.FilterLenCDF1, dataset.MSNLenCDF1)
	fmt.Fprintf(w, "P(len<=2)\t%.4f\t%.4f\n", st.FilterLenCDF2, dataset.MSNLenCDF2)
	fmt.Fprintf(w, "P(len<=3)\t%.4f\t%.4f\n", st.FilterLenCDF3, dataset.MSNLenCDF3)
	fmt.Fprintf(w, "top-1000-equivalent popularity mass\t%.3f\t%.3f\n", st.TopAnchorMass, dataset.MSNTop1000Mass)
	fmt.Fprintf(w, "mean terms/doc (WT)\t%.1f\t%.1f\n", st.MeanTermsWT, dataset.WTMeanTermsPerDoc)
	fmt.Fprintf(w, "mean terms/doc (AP, scaled)\t%.1f\t%.1f\n", st.MeanTermsAP, dataset.APMeanTermsPerDoc)
	fmt.Fprintf(w, "entropy WT (sample)\t%.3f\t%.4f\n", st.EntropyWT, dataset.WTEntropy)
	fmt.Fprintf(w, "entropy AP (sample)\t%.3f\t%.4f\n", st.EntropyAP, dataset.APEntropy)
	fmt.Fprintf(w, "top query∩doc overlap WT\t%.3f\t%.3f\n", st.OverlapWT, dataset.WTOverlapTop1000)
	fmt.Fprintf(w, "top query∩doc overlap AP\t%.3f\t%.3f\n", st.OverlapAP, dataset.APOverlapTop1000)
	return w.Flush()
}

func runFig4(scale experiments.Scale, seed int64) error {
	pts, err := experiments.RunFigure4(scale, seed, 25)
	if err != nil {
		return err
	}
	w := header("Figure 4: ranked filter-term popularity (log-log)")
	fmt.Fprintf(w, "rank\tpopularity\n")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%.3e\n", p.Rank, p.Rate)
	}
	return w.Flush()
}

func runFig5(scale experiments.Scale, seed int64) error {
	s, err := experiments.RunFigure5(scale, seed, 25)
	if err != nil {
		return err
	}
	w := header("Figure 5: ranked document-term frequency (log-log)")
	fmt.Fprintf(w, "rank(WT)\tfreq(WT)\trank(AP)\tfreq(AP)\n")
	n := len(s.WT)
	if len(s.AP) > n {
		n = len(s.AP)
	}
	for i := 0; i < n; i++ {
		var wr, ar string
		var wf, af string
		if i < len(s.WT) {
			wr, wf = fmt.Sprint(s.WT[i].Rank), fmt.Sprintf("%.3e", s.WT[i].Rate)
		}
		if i < len(s.AP) {
			ar, af = fmt.Sprint(s.AP[i].Rank), fmt.Sprintf("%.3e", s.AP[i].Rate)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", wr, wf, ar, af)
	}
	return w.Flush()
}

// singleNodeSweep mirrors the paper's R ∈ {1e5, 1e6, 1e7} and Q ∈
// {1..1000}, scaled.
func singleNodeSweep(scale experiments.Scale) ([]int, []int) {
	base := float64(scale) * 10 // R scales with filters×docs ≈ scale²·1e7; keep tractable
	products := []int{
		maxInt(10_000, int(1e5*base)),
		maxInt(50_000, int(1e6*base)),
		maxInt(200_000, int(1e7*base)),
	}
	docCounts := []int{2, 10, 100, 500, 1000}
	return products, docCounts
}

func runSingleNode(scale experiments.Scale, seed int64, corpus dataset.CorpusKind, title string, mean float64) error {
	products, docCounts := singleNodeSweep(scale)
	pts, err := experiments.RunSingleNode(experiments.SingleNodeParams{
		Corpus:       corpus,
		Products:     products,
		DocCounts:    docCounts,
		Seed:         seed,
		Vocab:        30_000,
		MeanDocTerms: mean,
	})
	if err != nil {
		return err
	}
	w := header(title)
	fmt.Fprintf(w, "R=PxQ\tQ docs\tP filters\tthroughput\n")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%d\t%d\t%.3g\n", p.R, p.Q, p.P, p.Throughput)
	}
	return w.Flush()
}

func runFig6(scale experiments.Scale, seed int64) error {
	return runSingleNode(scale, seed, dataset.CorpusAP,
		"Figure 6: single-node throughput, TREC-AP-like docs", 1500)
}

func runFig7(scale experiments.Scale, seed int64) error {
	return runSingleNode(scale, seed, dataset.CorpusWT,
		"Figure 7: single-node throughput, TREC-WT-like docs", 0)
}

func printSchemePoints(title, xlabel string, pts []experiments.SchemePoint) error {
	w := header(title)
	fmt.Fprintf(w, "%s\tMove\tIL\tRS\n", xlabel)
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\n", p.X, p.Move, p.IL, p.RS)
	}
	return w.Flush()
}

func runFig8a(scale experiments.Scale, seed int64) error {
	pts, err := experiments.RunFigure8a(scale)
	if err != nil {
		return err
	}
	return printSchemePoints("Figure 8(a): throughput vs number of filters P", "P filters", pts)
}

func runFig8b(scale experiments.Scale, seed int64) error {
	pts, err := experiments.RunFigure8b(scale)
	if err != nil {
		return err
	}
	return printSchemePoints("Figure 8(b): throughput vs number of documents Q", "Q docs", pts)
}

func runFig8c(scale experiments.Scale, seed int64) error {
	pts, err := experiments.RunFigure8c(scale)
	if err != nil {
		return err
	}
	return printSchemePoints("Figure 8(c): throughput vs number of nodes N", "N nodes", pts)
}

func runFig9Load(scale experiments.Scale, storage bool, title string) error {
	load, err := experiments.RunFigure9Load(scale, storage)
	if err != nil {
		return err
	}
	w := header(title)
	fmt.Fprintf(w, "node rank\tMove\tIL\tRS\n")
	for i := range load.RS {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%.2f\n", i+1, load.Move[i], load.IL[i], load.RS[i])
	}
	fmt.Fprintf(w, "CV\t%.3f\t%.3f\t%.3f\n", load.CVMove, load.CVIL, load.CVRS)
	return w.Flush()
}

func runFig9a(scale experiments.Scale, seed int64) error {
	return runFig9Load(scale, true, "Figure 9(a): storage cost per node (normalized by RS mean)")
}

func runFig9b(scale experiments.Scale, seed int64) error {
	return runFig9Load(scale, false, "Figure 9(b): matching cost per node (normalized by RS mean)")
}

func runFig9cd(scale experiments.Scale, throughput bool, title string) error {
	rows, err := experiments.RunFigure9Failure(scale)
	if err != nil {
		return err
	}
	w := header(title)
	if throughput {
		fmt.Fprintf(w, "placement\tthroughput@0%%\tthroughput@30%%\n")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\n", r.Placement, r.ThroughputOK, r.ThroughputFail)
		}
	} else {
		fmt.Fprintf(w, "placement\tavailability@0%%\tavailability@30%%\n")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.3f\t%.3f\n", r.Placement, r.AvailabilityOK, r.AvailabilityFail)
		}
	}
	return w.Flush()
}

func runFig9c(scale experiments.Scale, seed int64) error {
	return runFig9cd(scale, true, "Figure 9(c): throughput under rack-correlated node failure")
}

func runFig9d(scale experiments.Scale, seed int64) error {
	return runFig9cd(scale, false, "Figure 9(d): filter availability under rack-correlated node failure")
}

func runAblation(scale experiments.Scale, seed int64) error {
	strat, err := experiments.RunAblationStrategies(scale)
	if err != nil {
		return err
	}
	w := header("Ablation: allocation strategy (§IV factors)")
	fmt.Fprintf(w, "strategy\tthroughput\n")
	for _, p := range strat {
		fmt.Fprintf(w, "%s\t%.1f\n", p.Name, p.Throughput)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	bl, err := experiments.RunAblationBloom(scale)
	if err != nil {
		return err
	}
	w = header("Ablation: dissemination Bloom gate (§V)")
	fmt.Fprintf(w, "variant\tthroughput\n")
	for _, p := range bl {
		fmt.Fprintf(w, "%s\t%.1f\n", p.Name, p.Throughput)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	ratio, err := experiments.RunAblationRatio(scale)
	if err != nil {
		return err
	}
	w = header("Ablation: allocation ratio (§IV-A replication vs separation)")
	fmt.Fprintf(w, "variant\tthroughput\n")
	for _, p := range ratio {
		fmt.Fprintf(w, "%s\t%.1f\n", p.Name, p.Throughput)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	policy, err := experiments.RunAblationPolicy(scale)
	if err != nil {
		return err
	}
	w = header("Ablation: proactive vs passive allocation policy (§V)")
	fmt.Fprintf(w, "variant\tthroughput\n")
	for _, p := range policy {
		fmt.Fprintf(w, "%s\t%.1f\n", p.Name, p.Throughput)
	}
	return w.Flush()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
