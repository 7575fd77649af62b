package node

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"

	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/testutil"
)

// matchHeavyHomes builds the repository benchmark's match_heavy shape on a
// two-node ring, the way its daemons receive it: nFilters MatchAll filters of
// three and more terms drawn from internal/dataset's Zipf query model over a
// 10 k vocabulary, 64 subscribers in rotation, each registered by one frame
// through Handle per home carrying the filter's terms that home there (the
// harness sends every home its share; a home with none is not sent to). It is
// the population of internal/index's TestMemBudget and BenchmarkIndexMatchHeavy
// — which call index.Register themselves and so post every filter under all of
// a home's terms — behind the register path, where one home keeps each filter
// and keys it once. bytesPerFilter is the heap the registrations retained on
// both homes together, scanPerFilter the part of it the garbage collector
// scans (heapScan).
func matchHeavyHomes(tb testing.TB, nFilters int) (homes []*Node, bytesPerFilter, scanPerFilter float64) {
	return populationHomes(tb, nFilters, matchHeavyVocab, 3, model.MatchAll)
}

// populationHomes registers nFilters filters of at least minTerms terms,
// drawn from internal/dataset's Zipf query model over vocab terms, on a
// two-node ring through Handle as matchHeavyHomes describes, and returns the
// heap bytes per filter they retained on both homes together, and how many of
// those the garbage collector scans. A MatchAny filter is kept by every home
// it is sent to, under all of its terms homed there.
func populationHomes(tb testing.TB, nFilters, vocab, minTerms int, mode model.MatchMode) (homes []*Node, bytesPerFilter, scanPerFilter float64) {
	tb.Helper()
	homes = newHarness(tb, 2).nodes
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: vocab, Seed: matchHeavySeed})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	before := testutil.HeapNow()
	scanBefore := heapScan()
	for n := 0; n < nFilters; {
		terms := model.SortTerms(fg.Next())
		if len(terms) < minTerms {
			continue
		}
		n++
		f := model.Filter{ID: model.FilterID(n), Subscriber: fmt.Sprintf("s%03d", n%64), Terms: terms, Mode: mode}
		for _, home := range homes {
			mine := homedAt(tb, home, terms)
			if len(mine) == 0 {
				continue
			}
			if _, err := home.Handle(ctx, "client", EncodeRegister(RegisterReq{Filter: f, PostingTerms: mine})); err != nil {
				tb.Fatal(err)
			}
		}
	}
	after := testutil.HeapNow()
	return homes, float64(after-before) / float64(nFilters), float64(heapScan()-scanBefore) / float64(nFilters)
}

// heapScan returns the scannable heap — runtime/metrics'
// /gc/scan/heap:bytes, the live heap less the objects and object tails that
// hold no pointer, so the bytes a garbage collection traces — as the last
// collection measured it: read right after testutil.HeapNow, it is the
// figure of HeapNow's two collections.
func heapScan() uint64 {
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
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
// own (internal/index TestMemBudget, whose rows register straight into the
// index under every homed term): the match_heavy population registered
// through both homes' register paths, where the home of a MatchAll filter's
// key term keeps it, keyed once, and the other declines it — filters and
// posting entries are exact, one of each per filter cluster-wide, split
// between the homes — and the wire_mixed population of MatchAny filters, which
// every home they are sent to keeps under all of their terms homed there.
// Each population's heap row is followed by the part of it the garbage
// collector scans (/gc/scan/heap:bytes). Each heap row's ceiling is 5 % above
// the value measured when it was last set.
// The match_heavy row is also split by what holds its bytes on the homes,
// by the parts internal/index's row is split into (testutil.IndexMemComponents).
func TestMemBudget(t *testing.T) {
	const filters = 40000
	homes, bytesPerFilter, scanPerFilter := matchHeavyHomes(t, filters)
	row := func(name string, got, ceiling float64, unit string) {
		t.Helper()
		t.Logf("%-70s %8.1f %s (ceiling %.1f)", name, got, unit, ceiling)
		if got > ceiling {
			t.Errorf("%s: %.1f %s, ceiling %.1f", name, got, unit, ceiling)
		}
	}
	held, postings := 0, 0
	for _, home := range homes {
		n := home.Index().NumFilters()
		// A filter's key term is any of its terms with equal odds, so a home
		// keeps the share of term occurrences that hash to it: 40 % and 60 %
		// on this ring, where the most popular query terms home on n1.
		t.Logf("%s keeps %d of %d filters", home.ID(), n, filters)
		if n < filters/3 || n > filters*2/3 {
			t.Errorf("%s keeps %d of %d filters; the key term must spread them over both homes", home.ID(), n, filters)
		}
		held += n
		postings += home.Index().NumPostings()
	}
	if held != filters {
		t.Fatalf("the homes hold %d filters between them, want each of the %d once", held, filters)
	}
	row("match_heavy through the nodes: posting entries per filter, both homes", float64(postings)/filters, 1.0, "entries/filter")
	row("match_heavy through the nodes: 40k MatchAll, >= 3 terms of 10k, 64 subs", bytesPerFilter, 161, "B/filter")
	row("match_heavy through the nodes: of which the GC scans (/gc/scan/heap)", scanPerFilter, 71, "B/filter")
	runtime.KeepAlive(homes)

	// The same population again with every allocation profiled, split by
	// what holds the bytes on both homes — the index's parts, as
	// internal/index's TestMemBudget splits its own row, and the rest of what
	// the register frames left on the nodes. The parts sum to the row above.
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	comps := testutil.IndexMemComponents
	base := testutil.HeapByComponent(comps)
	homes, _, _ = matchHeavyHomes(t, filters)
	parts := testutil.HeapByComponent(comps)
	runtime.MemProfileRate = rate
	var covers, singletons int
	for _, home := range homes {
		cs := home.Index().CoverStats()
		covers += cs.Covers
		singletons += cs.Singletons
	}
	t.Logf("match_heavy through the nodes by component (%d covers, %d singletons):", covers, singletons)
	for i := range parts {
		name := "other"
		if i < len(comps) {
			name = comps[i].Name
		}
		t.Logf("    %-66s %8.1f B/filter", name, (parts[i]-base[i])/filters)
	}
	runtime.KeepAlive(homes)

	homes, bytesPerFilter, scanPerFilter = populationHomes(t, 20000, 16000, 1, model.MatchAny)
	row("wire_mixed through the nodes: 20k MSN-like MatchAny over 16k terms, 64 subs", bytesPerFilter, 256, "B/filter")
	row("wire_mixed through the nodes: of which the GC scans (/gc/scan/heap)", scanPerFilter, 127, "B/filter")
	runtime.KeepAlive(homes)
}

// BenchmarkHomeMatchConjunctive is the home nodes' microbench for the
// repository benchmark's match_heavy workload (ROADMAP aim 1): the population
// registered through Handle on both homes, then one iteration is one document
// — a home-routed publish frame through each home's Handle: decode, match
// under the document's terms that home there, encode the response — for
// documents of 65 terms, 20 spread over the 250 most popular query terms and
// 45 over the rest of the vocabulary, as the benchmark's document table spreads
// them. Besides ns/doc it reports the posting entries a document scans on both
// homes, the number holding a MatchAll filter on one home under one key
// divides, the matches the homes report before the entry deduplicates them and
// the heap bytes one registered filter costs.
func BenchmarkHomeMatchConjunctive(b *testing.B) {
	homes, bytesPerFilter, _ := matchHeavyHomes(b, 35000)
	const nDocs, docTerms, hotTerms, hotVocab = 256, 65, 20, 250
	rng := rand.New(rand.NewSource(matchHeavySeed + 1))
	ctx := context.Background()
	var frames [][]byte // one per home per document
	matches := 0
	for len(frames) < nDocs*len(homes) {
		var terms []string
		for len(terms) < hotTerms {
			terms = model.SortTerms(append(terms, dataset.Term(rng.Intn(hotVocab))))
		}
		for len(terms) < docTerms {
			terms = model.SortTerms(append(terms, dataset.Term(hotVocab+rng.Intn(matchHeavyVocab-hotVocab))))
		}
		doc := model.Document{ID: uint64(len(frames)/len(homes) + 1), Terms: terms}
		for _, home := range homes {
			mine := homedAt(b, home, terms)
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
	}
	scanned := func() (n int64) {
		for _, home := range homes {
			n += home.Stats().PostingsScanned
		}
		return n
	}
	before := scanned()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, home := range homes {
			if _, err := home.Handle(ctx, "entry", frames[i%nDocs*len(homes)+k]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/doc")
	b.ReportMetric(float64(scanned()-before)/float64(b.N), "postings/doc")
	b.ReportMetric(float64(matches)/nDocs, "matches/doc")
	b.ReportMetric(bytesPerFilter, "heapB/filter")
}

// TestMemChurnSoak is the node half of make mem-budget's churn soak (the
// index half is internal/index's TestMemChurnSoak): a two-home ring with a
// committed grid — each home's one column the other node, as the repository
// benchmark's allocation round leaves its daemons — takes rounds of fresh-ID
// churn at a constant live population through Handle, the way the
// benchmark's harness sends it: each home the share of a registration's
// terms homed there, which the home forwards on to its grid column, and
// every unregister to both nodes. The post-GC heap after the last round is
// within 2 % of the heap after the first.
func TestMemChurnSoak(t *testing.T) {
	const live, rounds, pairs = 1000, 5, 20000
	h := newHarness(t, 2)
	ctx := context.Background()
	send := func(nd *Node, payload []byte) {
		t.Helper()
		if _, err := nd.Handle(ctx, "client", payload); err != nil {
			t.Fatal(err)
		}
	}
	for i, home := range h.nodes {
		send(home, EncodePrepareAlloc(1, mustGrid(t, 1, 1, h.nodes[1-i].ID())))
	}
	for _, nd := range h.nodes {
		send(nd, EncodeCommitGrid(1))
	}
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: 16000, Seed: matchHeavySeed})
	if err != nil {
		t.Fatal(err)
	}
	pool := make([][]string, 4096)
	for i := range pool {
		pool[i] = model.SortTerms(fg.Next())
	}
	rng := rand.New(rand.NewSource(matchHeavySeed))
	next := model.FilterID(0)
	register := func() model.FilterID {
		next++
		f := model.Filter{ID: next, Subscriber: fmt.Sprintf("s%03d", next%64), Terms: pool[rng.Intn(len(pool))], Mode: model.MatchAny}
		for home, terms := range h.sharesOf(t, f) {
			send(h.nodeByID(home), EncodeRegister(RegisterReq{Filter: f, PostingTerms: terms}))
		}
		return next
	}
	ids := make([]model.FilterID, live)
	for i := range ids {
		ids[i] = register()
	}
	round := func() {
		for range pairs {
			j := rng.Intn(live)
			for _, nd := range h.nodes {
				send(nd, EncodeUnregister(ids[j]))
			}
			ids[j] = register()
		}
	}
	round()
	first := testutil.HeapNow()
	for k := 2; k <= rounds; k++ {
		round()
	}
	last := testutil.HeapNow()
	held := 0
	for _, nd := range h.nodes {
		held += nd.Index().NumFilters()
	}
	t.Logf("heap after round 1: %d B; after round %d: %d B (%+.2f %%); %d copies of %d live filters on the two nodes",
		first, rounds, last, 100*(float64(last)/float64(first)-1), held, live)
	if float64(last) > 1.02*float64(first) {
		t.Fatalf("heap grew from %d to %d B over %d rounds of %d fresh-ID pairs at %d live filters", first, last, rounds-1, pairs, live)
	}
	if held < live || held > 2*live {
		t.Fatalf("the nodes hold %d copies of %d live filters", held, live)
	}
}

// TestMemDocStreamSoak is make mem-budget's document-stream soak: a two-home
// ring holding a constant wire_mixed-shaped population — 20 k MSN-like
// MatchAny filters over 16 k terms, registered through Handle, each home sent
// its share — takes rounds of home-routed publish frames whose 8-term
// documents draw half their terms from the filters' vocabulary and half from
// fresh words no filter names, every home sent the document with the terms
// homed there. The post-GC heap after the last round is within 2 % of the
// heap after the first: a home's heap follows its filters, not the
// vocabulary of the documents it has seen.
func TestMemDocStreamSoak(t *testing.T) {
	const filters, vocab, rounds, docsPerRound, docTerms = 20000, 16000, 5, 5000, 8
	h := newHarness(t, 2)
	ctx := context.Background()
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: vocab, Seed: matchHeavySeed})
	if err != nil {
		t.Fatal(err)
	}
	for id := model.FilterID(1); id <= filters; id++ {
		f := model.Filter{ID: id, Subscriber: fmt.Sprintf("s%03d", id%64), Terms: model.SortTerms(fg.Next()), Mode: model.MatchAny}
		for home, terms := range h.sharesOf(t, f) {
			if _, err := h.nodeByID(home).Handle(ctx, "client", EncodeRegister(RegisterReq{Filter: f, PostingTerms: terms})); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(matchHeavySeed + 1))
	docID, fresh := uint64(0), 0
	matched := 0
	round := func() {
		for range docsPerRound {
			docID++
			var terms []string
			for len(terms) < docTerms/2 {
				terms = model.SortTerms(append(terms, dataset.Term(rng.Intn(vocab))))
			}
			for len(terms) < docTerms {
				fresh++
				terms = model.SortTerms(append(terms, fmt.Sprintf("fresh%07d", fresh)))
			}
			doc := model.Document{ID: docID, Terms: terms}
			for _, home := range h.nodes {
				mine := homedAt(t, home, terms)
				if len(mine) == 0 {
					continue
				}
				raw, err := home.Handle(ctx, "entry", encodePublish(false, &doc, mine...))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := DecodeMatchResp(raw, mine)
				if err != nil {
					t.Fatal(err)
				}
				matched += len(resp.Matches)
			}
		}
	}
	round()
	first := testutil.HeapNow()
	for k := 2; k <= rounds; k++ {
		round()
	}
	last := testutil.HeapNow()
	runtime.KeepAlive(h)
	t.Logf("heap after round 1: %d B; after round %d: %d B (%+.2f %%); %d documents, %d fresh words, %.1f matches per document",
		first, rounds, last, 100*(float64(last)/float64(first)-1), docID, fresh, float64(matched)/float64(docID))
	if float64(last) > 1.02*float64(first) {
		t.Fatalf("heap grew from %d to %d B over %d rounds of %d documents at %d filters", first, last, rounds-1, docsPerRound, filters)
	}
	if matched == 0 {
		t.Fatal("no document matched a filter: the stream never reached the population")
	}
}
