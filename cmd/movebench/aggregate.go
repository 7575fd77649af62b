package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/index"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/store"
)

// aggregateReport is the JSON document `movebench -fig aggregate` writes:
// the serving-layer memory cost of the covering index over a synthetic Zipf
// filter set, its cover-compression accounting and match timing. Checked
// into the repo as BENCH_aggregate.json, the stored report
// `make bench-aggregate` guards against.
type aggregateReport struct {
	GeneratedBy   string `json:"generated_by"`
	Filters       int    `json:"filters"`
	Catalog       int    `json:"catalog"`
	DistinctTerms int    `json:"distinct_terms"`
	Docs          int    `json:"docs"`
	Seed          int64  `json:"seed"`

	// AggBytesPerFilter is the heap bytes the build retains per registered
	// filter — all of it the serving layer: an index over a store without a
	// data directory writes nothing through.
	AggBytesPerFilter float64 `json:"agg_index_bytes_per_filter"`

	// Cover-compression accounting, from Index.CoverStats and
	// Index.CoverDetailStats.
	Covers               int `json:"covers"`
	CoveredFilters       int `json:"covered_filters"`
	StoredEntries        int `json:"stored_entries"`
	LogicalPostings      int `json:"logical_postings"`
	PostingsSaved        int `json:"postings_saved"`
	ExpansionFanoutMilli int `json:"expansion_fanout_milli"`
	PostingTerms         int `json:"posting_terms"`
	LiveBits             int `json:"live_bits"`

	// Match timing over the document set (the SIFT match, MatchTerms over
	// every document term).
	AggMatchNsPerDoc float64 `json:"agg_match_ns_per_doc"`

	// OracleDocs is the number of documents whose match set was verified
	// byte-identical to the brute-force oracle's.
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
// term sets — deterministic, so the oracle and the index see byte-identical
// content.
func aggregateFilterAt(i int, terms []string) model.Filter {
	return model.Filter{
		ID:         model.FilterID(i + 1),
		Subscriber: "agg-sub-" + strconv.Itoa(i),
		Terms:      terms,
		Mode:       model.MatchAny,
	}
}

// buildAggregateIndex opens a fresh in-memory store, registers every
// filter, and returns the index plus the heap delta the build retained.
func buildAggregateIndex(filterTerms [][]string) (*index.Index, int64, error) {
	before := heapInUse()
	st, err := store.Open("", store.Options{})
	if err != nil {
		return nil, 0, err
	}
	ix, err := index.New(st)
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

// aggregateOracle returns each document's expected match set, in
// oracleMatches' canonical form, from a brute-force scan of every filter.
func aggregateOracle(filterTerms [][]string, docs []*model.Document) []string {
	filters := make([]oracleFilter, len(filterTerms))
	for i, terms := range filterTerms {
		f := aggregateFilterAt(i, terms)
		filters[i] = oracleFilter{id: f.ID, sub: f.Subscriber, terms: terms}
	}
	want := make([]string, len(docs))
	for i, d := range docs {
		want[i] = oracleMatches(filters, d.Terms)
	}
	return want
}

// aggregateMatchSet renders one document's SIFT match set in oracleMatches'
// canonical form.
func aggregateMatchSet(ix *index.Index, doc *model.Document) (string, error) {
	fs, _, err := ix.MatchTerms(doc, doc.Terms)
	if err != nil {
		return "", err
	}
	ms := make([]node.Match, len(fs))
	for i, f := range fs {
		ms[i] = node.Match{Filter: f.ID, Subscriber: f.Subscriber}
	}
	return canonicalMatches(ms), nil
}

// runAggregateFig builds the covering index over a synthetic Zipf filter set
// and prices the build's retained heap. Every document's match set is
// verified byte-identical to the brute-force oracle's, so a memory
// "optimization" that corrupts matching fails loudly here.
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
	// Computed, and its filter records released, before the build prices its
	// heap.
	want := aggregateOracle(filterTerms, docSet)

	ix, aggBytes, err := buildAggregateIndex(filterTerms)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	for i, d := range docSet {
		got, err := aggregateMatchSet(ix, d)
		if err != nil {
			return fmt.Errorf("match doc %d: %w", i, err)
		}
		if got != want[i] {
			return fmt.Errorf("doc %d: match set diverges from the brute-force oracle\n got: %q\nwant: %q", i, got, want[i])
		}
	}
	start := time.Now()
	for _, d := range docSet {
		if _, _, err := ix.MatchTerms(d, d.Terms); err != nil {
			return err
		}
	}
	matchNs := float64(time.Since(start).Nanoseconds()) / float64(docs)
	cs := ix.CoverStats()
	cd := ix.CoverDetailStats()

	rep := aggregateReport{
		GeneratedBy:          "movebench -fig aggregate",
		Filters:              filters,
		Catalog:              catalog,
		DistinctTerms:        distinctTerms,
		Docs:                 docs,
		Seed:                 seed,
		AggBytesPerFilter:    float64(aggBytes) / float64(filters),
		Covers:               cs.Covers,
		CoveredFilters:       cs.CoveredFilters,
		StoredEntries:        cs.StoredEntries,
		LogicalPostings:      cs.LogicalPostings,
		PostingsSaved:        cs.PostingsSaved,
		ExpansionFanoutMilli: cs.ExpansionFanoutMilli,
		PostingTerms:         cd.Terms,
		LiveBits:             cd.Bits, // every bit is a registered filter's
		AggMatchNsPerDoc:     matchNs,
		OracleDocs:           docs,
	}

	fmt.Printf("aggregate: %d filters -> %d covers, %d stored entries for %d logical postings over %d terms; %.1f B/filter; match %.0f ns/doc\n",
		rep.Filters, rep.Covers, rep.StoredEntries, rep.LogicalPostings, rep.PostingTerms,
		rep.AggBytesPerFilter, rep.AggMatchNsPerDoc)

	// The stored bytes/filter may not grow by more than the relative budget.
	if err := checkBaseline("aggregate", baselinePath, []guard{
		{field: "agg_index_bytes_per_filter", got: rep.AggBytesPerFilter, kind: atMost, tol: guardTolerance},
	}); err != nil {
		return err
	}
	return writeReport(outPath, rep, fmt.Sprintf("aggregate: %d docs oracle-verified", rep.OracleDocs))
}
