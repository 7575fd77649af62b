package node

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/testutil"
)

// matchHeavyHome builds the repository benchmark's match_heavy shape on one
// home of a two-node ring, the way a daemon receives it: nFilters MatchAll
// filters of three and more terms drawn from internal/dataset's Zipf query
// model over a 10 k vocabulary, 64 subscribers in rotation, each registered by
// one frame through Handle carrying the filter's terms that home here (about
// half of them; a filter with none is not sent). It is the population of
// internal/index's TestMemBudget and BenchmarkIndexMatchHeavy — which call
// index.Register themselves and so post every filter under all of those terms
// — behind the register path, which keys each filter once. bytesPerFilter is
// the heap the registrations retained.
func matchHeavyHome(tb testing.TB, nFilters int) (home *Node, bytesPerFilter float64) {
	tb.Helper()
	h := newHarness(tb, 2)
	home = h.nodes[0]
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: matchHeavyVocab, Seed: matchHeavySeed})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	before := testutil.HeapNow()
	for n := 0; n < nFilters; {
		terms := model.SortTerms(fg.Next())
		if len(terms) < 3 {
			continue
		}
		mine := homedAt(tb, home, terms)
		if len(mine) == 0 {
			continue
		}
		n++
		f := model.Filter{ID: model.FilterID(n), Subscriber: fmt.Sprintf("s%03d", n%64), Terms: terms, Mode: model.MatchAll}
		if _, err := home.Handle(ctx, "client", EncodeRegister(RegisterReq{Filter: f, PostingTerms: mine})); err != nil {
			tb.Fatal(err)
		}
	}
	return home, float64(testutil.HeapNow()-before) / float64(nFilters)
}

const (
	matchHeavyVocab = 10000
	matchHeavySeed  = 20120618
)

// homedAt returns the terms whose home node is nd, in order.
func homedAt(tb testing.TB, nd *Node, terms []string) []string {
	tb.Helper()
	var mine []string
	for _, term := range terms {
		home, err := nd.cfg.Ring.HomeNode(term)
		if err != nil {
			tb.Fatal(err)
		}
		if home == nd.ID() {
			mine = append(mine, term)
		}
	}
	return mine
}

// TestMemBudget is the node's rows of make mem-budget, beside the index's
// own (internal/index TestMemBudget, whose match_heavy row registers straight
// into the index under every homed term and must not move): the match_heavy
// population registered through the node, where the home keys every MatchAll
// filter once. Posting entries per filter is exact; the heap row's ceiling is
// 5 % above the value measured when it was last set.
func TestMemBudget(t *testing.T) {
	const filters = 40000
	home, bytesPerFilter := matchHeavyHome(t, filters)
	row := func(name string, got, ceiling float64, unit string) {
		t.Helper()
		t.Logf("%-70s %8.1f %s (ceiling %.1f)", name, got, unit, ceiling)
		if got > ceiling {
			t.Errorf("%s: %.1f %s, ceiling %.1f", name, got, unit, ceiling)
		}
	}
	ix := home.Index()
	if got := ix.NumFilters(); got != filters {
		t.Fatalf("the home holds %d filters, want %d", got, filters)
	}
	row("match_heavy through the node: posting entries per filter", float64(ix.NumPostings())/filters, 1.0, "entries/filter")
	row("match_heavy through the node: 40k MatchAll, >= 3 terms of 10k, 64 subs", bytesPerFilter, 401, "B/filter")
	runtime.KeepAlive(home)
}

// BenchmarkHomeMatchConjunctive is the home node's microbench for the
// repository benchmark's match_heavy workload (ROADMAP aim 1): the population
// registered through Handle, then one iteration is one home-routed publish
// frame through Handle — decode, match under the document's terms that home
// here, encode the response — for documents of 65 terms, 20 spread over the
// 250 most popular query terms and 45 over the rest of the vocabulary, as the
// benchmark's document table spreads them. Besides ns/doc it reports the
// posting entries a document scans, the number keying a MatchAll filter once
// per home divides, the matches it finds and the heap bytes one registered
// filter costs.
func BenchmarkHomeMatchConjunctive(b *testing.B) {
	home, bytesPerFilter := matchHeavyHome(b, 35000)
	const nDocs, docTerms, hotTerms, hotVocab = 256, 65, 20, 250
	rng := rand.New(rand.NewSource(matchHeavySeed + 1))
	ctx := context.Background()
	var frames [][]byte
	matches := 0
	for len(frames) < nDocs {
		var terms []string
		for len(terms) < hotTerms {
			terms = model.SortTerms(append(terms, dataset.Term(rng.Intn(hotVocab))))
		}
		for len(terms) < docTerms {
			terms = model.SortTerms(append(terms, dataset.Term(hotVocab+rng.Intn(matchHeavyVocab-hotVocab))))
		}
		doc := model.Document{ID: uint64(len(frames) + 1), Terms: terms}
		mine := homedAt(b, home, terms)
		if len(mine) < 2 {
			continue
		}
		frame := encodePublish(false, &doc, mine...)
		// One untimed pass per document: it warms the index's scratch and
		// counts what the document matches.
		raw, err := home.Handle(ctx, "entry", frame)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := DecodeMatchResp(raw, mine)
		if err != nil {
			b.Fatal(err)
		}
		matches += len(resp.Matches)
		frames = append(frames, frame)
	}
	scanned := home.Stats().PostingsScanned
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := home.Handle(ctx, "entry", frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	scanned = home.Stats().PostingsScanned - scanned
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/doc")
	b.ReportMetric(float64(scanned)/float64(b.N), "postings/doc")
	b.ReportMetric(float64(matches)/nDocs, "matches/doc")
	b.ReportMetric(bytesPerFilter, "heapB/filter")
}
