package index

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/testutil"
)

// matchHeavyDoc is one document as a home node sees it: the full term set
// (view primed, as the RPC decode does) and the terms the node serves.
type matchHeavyDoc struct {
	doc   model.Document
	terms []string
}

// homedHere splits a vocabulary in two the way a two-node ring does, so a
// filter is posted under about half of its terms and a document queries
// about half of its own.
func homedHere(term string) bool {
	h := fnv.New32a()
	h.Write([]byte(term))
	return h.Sum32()&1 == 0
}

// matchHeavyPopulation builds the repository benchmark's match_heavy shape
// on one index, deterministically: nFilters MatchAll filters of three and
// more terms drawn from internal/dataset's Zipf query model over a 10 k
// vocabulary — nearly every one its own cover — each posted under the terms
// homed here, and nDocs documents of 65 terms: 20 spread evenly over the 250
// most popular query terms (the paper's 31.3 % overlap between popular query
// and document terms, as the benchmark's document table spreads it) and 45
// over the rest of the vocabulary. A document then scans about a tenth of
// the stored posting entries and matches next to none of them.
// bytesPerFilter is the heap the registrations retained.
func matchHeavyPopulation(tb testing.TB, nFilters, nDocs int) (ix *Index, docs []matchHeavyDoc, bytesPerFilter float64) {
	tb.Helper()
	const vocab, seed = 10000, populationSeed
	regs := zipfPopulation(tb, nFilters, vocab, 3, model.MatchAll)
	const docTerms, hotTerms, hotVocab = 65, 20, 250
	rng := rand.New(rand.NewSource(seed + 1))
	for len(docs) < nDocs {
		var terms []string
		for len(terms) < hotTerms {
			terms = model.SortTerms(append(terms, dataset.Term(rng.Intn(hotVocab))))
		}
		for len(terms) < docTerms {
			terms = model.SortTerms(append(terms, dataset.Term(hotVocab+rng.Intn(vocab-hotVocab))))
		}
		d := matchHeavyDoc{doc: model.Document{ID: uint64(len(docs) + 1), Terms: terms}}
		for _, t := range d.doc.Terms {
			if homedHere(t) {
				d.terms = append(d.terms, t)
			}
		}
		if len(d.terms) < 2 {
			continue
		}
		d.doc.View()
		docs = append(docs, d)
	}

	ix, bytesPerFilter = registerPopulation(tb, regs)
	return ix, docs, bytesPerFilter
}

const populationSeed = 20120618

// zipfPopulation draws n filters of at least minTerms terms from
// internal/dataset's Zipf query model over vocab terms, 64 subscribers in
// rotation, each posted under its terms homed here.
func zipfPopulation(tb testing.TB, n, vocab, minTerms int, mode model.MatchMode) []populationReg {
	tb.Helper()
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: vocab, Seed: populationSeed})
	if err != nil {
		tb.Fatal(err)
	}
	var regs []populationReg
	for len(regs) < n {
		if terms := model.SortTerms(fg.Next()); len(terms) >= minTerms {
			regs = appendHomed(regs, terms, mode, 64)
		}
	}
	return regs
}

// populationReg is one registration of a benchmark-shaped population.
type populationReg struct {
	f     model.Filter
	terms []string // the posting terms: f's terms homed here
}

// appendHomed appends the next filter of a population — the next ID, one of
// subscribers names in rotation — unless none of its terms is homed here.
func appendHomed(regs []populationReg, terms []string, mode model.MatchMode, subscribers int) []populationReg {
	var mine []string
	for _, t := range terms {
		if homedHere(t) {
			mine = append(mine, t)
		}
	}
	if len(mine) == 0 {
		return regs
	}
	n := len(regs)
	f := model.Filter{ID: model.FilterID(n + 1), Subscriber: fmt.Sprintf("s%03d", n%subscribers), Terms: terms, Mode: mode}
	return append(regs, populationReg{f, mine})
}

// registerPopulation registers regs into a fresh index over a store without
// a data directory — what the repository benchmark's daemons and its index
// probe run — and returns the heap bytes per filter the registrations
// retained.
func registerPopulation(tb testing.TB, regs []populationReg) (*Index, float64) {
	tb.Helper()
	ix := newIndex(tb)
	before := testutil.HeapNow()
	for i := range regs {
		registerDecoded(tb, ix, regs[i])
	}
	return ix, float64(testutil.HeapNow()-before) / float64(len(regs))
}

// registerDecoded registers reg from a private copy of its strings, as a
// decoded RPC delivers them: what the index retains of it is the index's
// cost.
func registerDecoded(tb testing.TB, ix *Index, reg populationReg) {
	tb.Helper()
	f := reg.f
	f.Subscriber = string([]byte(f.Subscriber))
	f.Terms = make([]string, len(reg.f.Terms))
	for j, t := range reg.f.Terms {
		f.Terms[j] = string([]byte(t))
	}
	if err := ix.Register(f, reg.terms); err != nil {
		tb.Fatal(err)
	}
}

// TestMemBudget is the index layer's memory microbench (make mem-budget, the
// twin of make wire-budget): heap bytes per registered filter for the three
// populations the repository benchmark registers, each beside a ceiling 5 %
// above the value measured when the ceiling was last set; then match_heavy's
// figure split by what holds the bytes, the fixed heap of an empty index,
// what a departed filter leaves behind, and what a document stream leaves
// behind of the words no filter names. Past a ceiling the test fails; quote
// its table before and after any change to what Register or a match retains.
func TestMemBudget(t *testing.T) {
	matchHeavy := zipfPopulation(t, 40000, 10000, 3, model.MatchAll)
	wireMixed := zipfPopulation(t, 20000, 16000, 1, model.MatchAny)
	var fanoutHeavy []populationReg
	rng := rand.New(rand.NewSource(populationSeed))
	for len(fanoutHeavy) < 256 {
		perm := rng.Perm(18)
		terms := model.SortTerms([]string{dataset.Term(perm[0]), dataset.Term(perm[1]), dataset.Term(perm[2])})
		fanoutHeavy = appendHomed(fanoutHeavy, terms, model.MatchAny, 256)
	}
	row := func(name string, got, ceiling float64, unit string) {
		t.Helper()
		t.Logf("%-70s %8.1f %s (ceiling %.0f)", name, got, unit, ceiling)
		if got > ceiling {
			t.Errorf("%s: %.1f %s, ceiling %.0f", name, got, unit, ceiling)
		}
	}
	for _, p := range []struct {
		name    string
		regs    []populationReg
		ceiling float64
	}{
		{"match_heavy: 40k MatchAll, >= 3 terms of 10k, 64 subscribers", matchHeavy, 162},
		{"wire_mixed: 20k MSN-like MatchAny over 16k terms, 64 subscribers", wireMixed, 173},
		{"fanout_heavy: 256 three-term MatchAny over 18 terms, 256 subscribers", fanoutHeavy, 178},
	} {
		ix, got := registerPopulation(t, p.regs)
		row(p.name, got, p.ceiling, "B/filter")
		runtime.KeepAlive(ix)
	}

	// match_heavy again with every allocation profiled, for the split. The
	// parts are sized as the allocator rounds them, so they sum to the row
	// above.
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	comps := testutil.IndexMemComponents
	base := testutil.HeapByComponent(comps)
	ix, _ := registerPopulation(t, matchHeavy)
	parts := testutil.HeapByComponent(comps)
	runtime.MemProfileRate = rate
	cs := ix.CoverStats()
	t.Logf("match_heavy by component (%d covers, %d singletons):", cs.Covers, cs.Singletons)
	for i := range parts {
		// Besides the empty index: 16-byte allocator blocks a dictionary string
		// shares with a caller's temporary one are charged to the caller.
		name := "other"
		if i < len(comps) {
			name = comps[i].Name
		}
		t.Logf("    %-66s %8.1f B/filter", name, (parts[i]-base[i])/float64(len(matchHeavy)))
	}
	runtime.KeepAlive(ix)
	runtime.KeepAlive(matchHeavy) // or its array's release lands in "other"

	// The fixed heap of an index nothing is registered in: its shard tables
	// and the subscriber-name cache.
	before := testutil.HeapNow()
	ix = newIndex(t)
	row("empty index.New(store.Open(\"\"))", float64(testutil.HeapNow()-before), 88500, "B")
	runtime.KeepAlive(ix)

	// Churn: a constant population of 1 k filters, 20 k times one of them
	// unregistered and a filter with a fresh ID registered — term sets from a
	// pool of 4,096, as the benchmark's scripted writers draw them and as
	// subscribers come and go — after a first 20 k that let the dictionary
	// learn the pool's vocabulary. What grows is what the departed leave
	// behind.
	const pairs = 20000
	ch := newChurn(t, 1000)
	ch.round(t, pairs)
	before = testutil.HeapNow()
	ch.round(t, pairs)
	row("churn: 20k unregister/register-fresh-ID pairs over 1k live filters", (float64(testutil.HeapNow())-float64(before))/pairs, 8, "B/departed filter")
	runtime.KeepAlive(ch)

	// A document stream over the wire_mixed population: 8-term documents
	// through MatchTerms, half their terms from the filters' vocabulary and
	// half fresh words no filter names. What grows is what the index keeps of
	// the words it has no filter for.
	ix, _ = registerPopulation(t, wireMixed)
	docStream(t, ix, "warm", 1000) // sizes the pooled scratch
	const docs = 20000
	before = testutil.HeapNow()
	docStream(t, ix, "fresh", docs)
	row("document stream: 20k 8-term documents, half their words in no filter", (float64(testutil.HeapNow())-float64(before))/(docs*4), 1, "B/unnamed term")
	runtime.KeepAlive(ix)
}

// docStream matches n 8-term documents through ix.MatchTerms, each one a
// document's arrival: four terms drawn from the first 16 k of
// internal/dataset's terms, the wire_mixed population's vocabulary, and four
// fresh words, prefix and a number no other of the call's documents uses.
func docStream(tb testing.TB, ix *Index, prefix string, n int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(populationSeed + 2))
	for i := range n {
		var terms []string
		for len(terms) < 4 {
			terms = append(terms, dataset.Term(rng.Intn(16000)))
		}
		for j := range 4 {
			terms = append(terms, fmt.Sprintf("%s%d.%d", prefix, i, j))
		}
		d := model.Document{ID: uint64(i + 1), Terms: model.SortTerms(terms)}
		if _, _, err := ix.MatchTerms(&d, d.Terms); err != nil {
			tb.Fatal(err)
		}
	}
}

// churn is a constant population of live filters on one index that rounds
// of fresh-ID unregister/register pairs turn over: each pair unregisters a
// live filter at random and registers a filter with the next ID, its terms
// drawn from a pool of 4,096 MSN-like MatchAny term sets — as the benchmark's
// scripted writers draw them and as subscribers come and go.
type churn struct {
	ix   *Index
	pool []populationReg
	ids  []model.FilterID
	next model.FilterID
	rng  *rand.Rand
}

func newChurn(tb testing.TB, live int) *churn {
	tb.Helper()
	ch := &churn{
		ix:   newIndex(tb),
		pool: zipfPopulation(tb, 4096, 16000, 1, model.MatchAny),
		rng:  rand.New(rand.NewSource(populationSeed)),
	}
	for range live {
		ch.ids = append(ch.ids, ch.register(tb))
	}
	return ch
}

// register registers a filter of the pool with the next ID and returns it.
func (ch *churn) register(tb testing.TB) model.FilterID {
	reg := ch.pool[ch.rng.Intn(len(ch.pool))]
	ch.next++
	reg.f.ID = ch.next
	registerDecoded(tb, ch.ix, reg)
	return ch.next
}

// round runs pairs unregister/register pairs.
func (ch *churn) round(tb testing.TB, pairs int) {
	tb.Helper()
	for range pairs {
		j := ch.rng.Intn(len(ch.ids))
		if err := ch.ix.Unregister(ch.ids[j]); err != nil {
			tb.Fatal(err)
		}
		ch.ids[j] = ch.register(tb)
	}
}

// TestMemChurnSoak is the index half of make mem-budget's churn soak: rounds
// of fresh-ID churn at a constant live population, and the post-GC heap
// after the last round within 2 % of the heap after the first — the index
// holds what is registered, not what ever was. internal/node's
// TestMemChurnSoak runs the same through the register and unregister frames
// of a two-home ring.
func TestMemChurnSoak(t *testing.T) {
	const live, rounds, pairs = 1000, 6, 20000
	ch := newChurn(t, live)
	ch.round(t, pairs)
	first := testutil.HeapNow()
	for k := 2; k <= rounds; k++ {
		ch.round(t, pairs)
	}
	last := testutil.HeapNow()
	t.Logf("heap after round 1: %d B; after round %d: %d B (%+.2f %%); %d filters, %d covers",
		first, rounds, last, 100*(float64(last)/float64(first)-1), ch.ix.NumFilters(), ch.ix.CoverStats().Covers)
	if float64(last) > 1.02*float64(first) {
		t.Fatalf("heap grew from %d to %d B over %d rounds of %d fresh-ID pairs at %d live filters", first, last, rounds-1, pairs, live)
	}
	if ch.ix.NumFilters() != live || ch.ix.CoverStats().CoveredFilters != live {
		t.Fatalf("NumFilters = %d, CoverStats = %+v; want %d live filters", ch.ix.NumFilters(), ch.ix.CoverStats(), live)
	}
}

// BenchmarkIndexMatchHeavy is the index layer's microbench for the
// repository benchmark's match_heavy workload (ROADMAP aim 1): one
// iteration is one document through MatchTerms over the terms homed here.
// Besides ns/doc it reports the logical posting entries a document scans —
// the count the §IV cost model charges, which no change to the engine may
// move — the matches it finds, and the heap bytes one registered filter
// costs.
func BenchmarkIndexMatchHeavy(b *testing.B) {
	ix, docs, bytesPerFilter := matchHeavyPopulation(b, 35000, 256)
	var postings, matches int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := &docs[i%len(docs)]
		fs, st, err := ix.MatchTerms(&d.doc, d.terms)
		if err != nil {
			b.Fatal(err)
		}
		postings += st.Postings
		matches += len(fs)
		allocSinkFilters = fs
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/doc")
	b.ReportMetric(float64(postings)/float64(b.N), "postings/doc")
	b.ReportMetric(float64(matches)/float64(b.N), "matches/doc")
	b.ReportMetric(bytesPerFilter, "heapB/filter")
}
