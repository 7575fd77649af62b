package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/index"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/store"
)

// aggregateReport is the JSON document `movebench -fig aggregate` writes:
// the serving-layer memory cost of the flat per-filter index versus the
// aggregated covering index over the same synthetic Zipf filter set, plus
// the cover-compression accounting and match timing. Checked into the repo
// as BENCH_aggregate.json, the stored report `make bench-aggregate` guards
// against.
type aggregateReport struct {
	GeneratedBy   string `json:"generated_by"`
	Filters       int    `json:"filters"`
	Catalog       int    `json:"catalog"`
	DistinctTerms int    `json:"distinct_terms"`
	Docs          int    `json:"docs"`
	Seed          int64  `json:"seed"`

	// FlatBytesPerFilter / AggBytesPerFilter are the heap bytes a build
	// retains per registered filter under the flat and aggregated engines —
	// all of it the serving layer: an index over a store without a data
	// directory writes nothing through.
	FlatBytesPerFilter float64 `json:"flat_index_bytes_per_filter"`
	AggBytesPerFilter  float64 `json:"agg_index_bytes_per_filter"`
	// Reduction is 1 - agg/flat: the fraction of serving-layer index
	// memory the covering index saves. The acceptance floor is 0.30.
	Reduction float64 `json:"index_bytes_reduction"`

	// Cover-compression accounting, from Index.CoverStats and
	// Index.CoverDetailStats on the aggregated build.
	Covers               int `json:"covers"`
	CoveredFilters       int `json:"covered_filters"`
	StoredEntries        int `json:"stored_entries"`
	LogicalPostings      int `json:"logical_postings"`
	PostingsSaved        int `json:"postings_saved"`
	ExpansionFanoutMilli int `json:"expansion_fanout_milli"`
	PostingTerms         int `json:"posting_terms"`
	LiveBits             int `json:"live_bits"`

	// Match timing over the oracle document set (MatchSIFT per document).
	FlatMatchNsPerDoc float64 `json:"flat_match_ns_per_doc"`
	AggMatchNsPerDoc  float64 `json:"agg_match_ns_per_doc"`

	// OracleDocs is the number of documents whose aggregated match set
	// was verified byte-identical to the flat engine's.
	OracleDocs int `json:"oracle_docs"`
}

// The -fig aggregate workload: aggregateFilters filter instances Zipf-drawn
// from a catalog of aggregateCatalog distinct predicates over an
// aggregateDistinctTerms vocabulary, and aggregateDocs oracle-verified
// documents.
const (
	aggregateFilters       = 1_000_000
	aggregateCatalog       = 150_000
	aggregateDistinctTerms = 20_000
	aggregateDocs          = 20
)

// aggregateReductionFloor is the ISSUE acceptance criterion: the covering
// index must shave at least this fraction off the flat serving layer.
const aggregateReductionFloor = 0.30

// heapInUse settles the heap and returns the live allocation level. Two GC
// cycles let finalizer-freed objects of the previous build actually leave
// the heap before the reading.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// aggregateFilterAt builds the i-th synthetic filter over the prepared
// term sets — deterministic, so the flat and aggregated builds register
// byte-identical content.
func aggregateFilterAt(i int, terms []string) model.Filter {
	return model.Filter{
		ID:         model.FilterID(i + 1),
		Subscriber: "agg-sub-" + strconv.Itoa(i),
		Terms:      terms,
		Mode:       model.MatchAny,
	}
}

// buildAggregateIndex opens a fresh in-memory store, registers every
// filter through the given engine constructor, and returns the index plus
// the heap delta the build retained.
func buildAggregateIndex(open func(*store.Store) (*index.Index, error), filterTerms [][]string) (*index.Index, int64, error) {
	before := heapInUse()
	st, err := store.Open("", store.Options{})
	if err != nil {
		return nil, 0, err
	}
	ix, err := open(st)
	if err != nil {
		return nil, 0, err
	}
	for i, terms := range filterTerms {
		if err := ix.Register(aggregateFilterAt(i, terms), terms); err != nil {
			return nil, 0, fmt.Errorf("register filter %d: %w", i, err)
		}
	}
	return ix, int64(heapInUse()) - int64(before), nil
}

// aggregateMatchSet renders one document's match set in canonical sorted
// form for byte-identical engine comparison.
func aggregateMatchSet(ix *index.Index, doc *model.Document) (string, error) {
	fs, _, err := ix.MatchSIFT(doc)
	if err != nil {
		return "", err
	}
	ids := make([]int, len(fs))
	for i, f := range fs {
		ids[i] = int(f.ID)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d,", id)
	}
	return b.String(), nil
}

// aggregateMatchRun times MatchSIFT over the document set, returning
// ns/doc.
func aggregateMatchRun(ix *index.Index, docs []*model.Document) (float64, error) {
	start := time.Now()
	for _, d := range docs {
		if _, _, err := ix.MatchSIFT(d); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(docs)), nil
}

// runAggregateFig builds the same synthetic Zipf filter set twice — flat
// index, aggregated covering index — and prices each build's retained heap.
// Every document's aggregated match set is verified byte-identical to the
// flat engine's (the in-tree oracle), so a memory "optimization" that
// corrupts matching fails loudly here. Hard-fails when the serving-layer
// reduction drops below the 30% acceptance floor.
func runAggregateFig(outPath, baselinePath string, filters, catalog, distinctTerms, docs int, seed int64) error {
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: distinctTerms, Seed: seed})
	if err != nil {
		return err
	}
	dg, err := dataset.NewDocGen(dataset.CorpusConfig{
		Kind: dataset.CorpusWT, DistinctTerms: distinctTerms, Seed: seed + 1,
	})
	if err != nil {
		return err
	}
	// Predicate catalog: real subscription traces are Zipf-skewed at the
	// whole-predicate level too — popular keyword sets are subscribed by
	// many users (the MSN trace's duplicated queries), which is exactly the
	// sharing the covering index exploits. Draw each filter instance from a
	// Zipf-ranked catalog of distinct term sets.
	if catalog > filters {
		catalog = filters
	}
	catalogTerms := make([][]string, catalog)
	for i := range catalogTerms {
		catalogTerms[i] = model.SortTerms(fg.Next())
	}
	rng := rand.New(rand.NewSource(seed + 2))
	pick := rand.NewZipf(rng, 1.2, 1.0, uint64(catalog-1))
	filterTerms := make([][]string, filters)
	for i := range filterTerms {
		filterTerms[i] = catalogTerms[pick.Uint64()]
	}
	docSet := make([]*model.Document, docs)
	for i := range docSet {
		d := &model.Document{ID: uint64(i + 1), Terms: model.SortTerms(dg.Next())}
		d.View()
		docSet[i] = d
	}

	flat, flatBytes, err := buildAggregateIndex(index.NewFlat, filterTerms)
	if err != nil {
		return fmt.Errorf("flat build: %w", err)
	}
	oracle := make([]string, docs)
	for i, d := range docSet {
		if oracle[i], err = aggregateMatchSet(flat, d); err != nil {
			return fmt.Errorf("flat match doc %d: %w", i, err)
		}
	}
	flatNs, err := aggregateMatchRun(flat, docSet)
	if err != nil {
		return err
	}
	flat = nil // release the flat engine before the aggregated build prices its heap

	agg, aggBytes, err := buildAggregateIndex(index.New, filterTerms)
	if err != nil {
		return fmt.Errorf("aggregated build: %w", err)
	}
	if !agg.Aggregated() {
		return fmt.Errorf("index.New did not select the aggregated engine")
	}
	for i, d := range docSet {
		got, err := aggregateMatchSet(agg, d)
		if err != nil {
			return fmt.Errorf("agg match doc %d: %w", i, err)
		}
		if got != oracle[i] {
			return fmt.Errorf("doc %d: aggregated match set diverges from flat oracle\n got: %q\nwant: %q", i, got, oracle[i])
		}
	}
	aggNs, err := aggregateMatchRun(agg, docSet)
	if err != nil {
		return err
	}
	cs := agg.CoverStats()
	cd := agg.CoverDetailStats()

	if flatBytes <= 0 {
		return fmt.Errorf("flat serving layer measured %d bytes; workload too small to price", flatBytes)
	}
	n := float64(filters)
	rep := aggregateReport{
		GeneratedBy:          "movebench -fig aggregate",
		Filters:              filters,
		Catalog:              catalog,
		DistinctTerms:        distinctTerms,
		Docs:                 docs,
		Seed:                 seed,
		FlatBytesPerFilter:   float64(flatBytes) / n,
		AggBytesPerFilter:    float64(aggBytes) / n,
		Reduction:            1 - float64(aggBytes)/float64(flatBytes),
		Covers:               cs.Covers,
		CoveredFilters:       cs.CoveredFilters,
		StoredEntries:        cs.StoredEntries,
		LogicalPostings:      cs.LogicalPostings,
		PostingsSaved:        cs.PostingsSaved,
		ExpansionFanoutMilli: cs.ExpansionFanoutMilli,
		PostingTerms:         cd.Terms,
		LiveBits:             cd.LiveBits,
		FlatMatchNsPerDoc:    flatNs,
		AggMatchNsPerDoc:     aggNs,
		OracleDocs:           docs,
	}
	runtime.KeepAlive(agg)

	fmt.Printf("aggregate: %d filters -> %d covers, %d stored entries for %d logical postings over %d terms; flat %.1f B/filter, agg %.1f B/filter (%.1f%% reduction); match %.0f ns/doc flat vs %.0f ns/doc agg\n",
		rep.Filters, rep.Covers, rep.StoredEntries, rep.LogicalPostings, rep.PostingTerms,
		rep.FlatBytesPerFilter, rep.AggBytesPerFilter, rep.Reduction*100,
		rep.FlatMatchNsPerDoc, rep.AggMatchNsPerDoc)

	if rep.Reduction < aggregateReductionFloor {
		return fmt.Errorf("index memory reduction %.1f%% is below the %.0f%% acceptance floor (flat %.1f B/filter, agg %.1f B/filter)",
			rep.Reduction*100, aggregateReductionFloor*100, rep.FlatBytesPerFilter, rep.AggBytesPerFilter)
	}
	// The stored reduction may not shrink, nor the stored bytes/filter grow,
	// by more than the relative budget.
	if err := checkBaseline("aggregate", baselinePath, []guard{
		{field: "index_bytes_reduction", got: rep.Reduction, kind: atLeast, tol: guardTolerance},
		{field: "agg_index_bytes_per_filter", got: rep.AggBytesPerFilter, kind: atMost, tol: guardTolerance},
	}); err != nil {
		return err
	}
	return writeReport(outPath, rep, fmt.Sprintf("aggregate: %d docs oracle-verified", rep.OracleDocs))
}
