package index

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"github.com/movesys/move/internal/model"
)

// The document frequencies behind MatchThreshold: a term's df is the number
// of documents that reached the node — MatchTerms calls, one per arrival —
// after a filter registered here named the term, and N is the number of
// documents that reached it; a term weighs idf = ln(1 + N / (1 + df)).

// arrive is one document's arrival at ix: MatchTerms over all its terms.
func arrive(t *testing.T, ix *Index, terms ...string) {
	t.Helper()
	d := model.Document{Terms: terms}
	if _, _, err := ix.MatchTerms(&d, d.Terms); err != nil {
		t.Fatal(err)
	}
}

// TestIDFFormula follows one index's counts through arrivals, probes,
// registrations and an unregistration, and checks IDF against the formula
// over the counts worked out by hand.
func TestIDFFormula(t *testing.T) {
	ix := newIndex(t)
	check := func(term string, docs, df int) {
		t.Helper()
		want := math.Log(1 + float64(docs)/(1+float64(df)))
		if got := ix.IDF(term); got != want {
			t.Fatalf("IDF(%q) = %v, want ln(1 + %d/(1 + %d)) = %v", term, got, docs, df, want)
		}
	}
	check("a", 0, 0) // an empty index weighs every term ln 1 = 0

	arrive(t, ix, "a", "b") // no filter names a or b: N only
	check("a", 1, 0)
	registerAny(t, ix, 1, "a")
	check("a", 1, 0) // registering counts nothing
	arrive(t, ix, "a", "c")
	check("a", 2, 1)
	check("c", 2, 0) // a term no filter names stays at 0

	// A probe counts nothing; both paths of MatchTerms count, a term repeated
	// in a document once.
	d := model.Document{Terms: []string{"a"}}
	if _, _, err := ix.MatchTerm(&d, "a"); err != nil {
		t.Fatal(err)
	}
	check("a", 2, 1)
	d = model.Document{Terms: []string{"a", "b", "a"}}
	if _, _, err := ix.MatchTerms(&d, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	check("a", 3, 2)
	d = model.Document{Terms: []string{"a"}}
	if _, _, err := ix.MatchTerms(&d, nil); err != nil {
		t.Fatal(err)
	}
	check("a", 4, 3)

	// The dictionary keeps a term its last filter left behind, and counts it.
	if err := ix.Unregister(1); err != nil {
		t.Fatal(err)
	}
	arrive(t, ix, "a", "b")
	check("a", 5, 4)
	check("b", 5, 0)
	registerAny(t, ix, 2, "b")
	arrive(t, ix, "b")
	check("b", 6, 1)
	check("a", 6, 4)
}

// TestIDFOrdering is the weighting's shape: over a hundred documents, a term
// in every one weighs less than a term in one, which weighs less than a term
// in none — whether a filter names the last or not — and every weight is
// finite and positive.
func TestIDFOrdering(t *testing.T) {
	ix := seededIndex(t)
	registerAny(t, ix, 2, "unseen")
	common, rare, unseen, unnamed := ix.IDF("common"), ix.IDF("rare"), ix.IDF("unseen"), ix.IDF("filler7")
	if rare <= common {
		t.Fatalf("idf(rare) = %v should exceed idf(common) = %v", rare, common)
	}
	if unseen <= rare {
		t.Fatalf("idf(unseen) = %v should exceed idf(rare) = %v", unseen, rare)
	}
	if unnamed != unseen {
		t.Fatalf("idf of a term no filter names = %v, want the unseen term's %v: it counts nothing", unnamed, unseen)
	}
	for _, w := range []float64{common, rare, unseen} {
		if math.IsInf(w, 0) || math.IsNaN(w) || w <= 0 {
			t.Fatalf("weight %v is not finite and positive", w)
		}
	}
}

// TestRareTermDominates is the ordering as a threshold filter sees it: of a
// filter's two terms, the rare one carries more than half its idf mass, so a
// document holding only the rare term passes a 0.5 threshold and one holding
// only the common term does not.
func TestRareTermDominates(t *testing.T) {
	ix := seededIndex(t)
	f := model.Filter{ID: 2, Subscriber: "s", Terms: []string{"common", "rare"}, Mode: model.MatchThreshold, Threshold: 0.5}
	if err := ix.Register(f, f.Terms); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		term string
		want bool
	}{{"rare", true}, {"common", false}} {
		d := model.Document{Terms: []string{tc.term, "noise"}}
		fs, _, err := ix.MatchTerms(&d, []string{tc.term})
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Contains(matchedIDs(fs), f.ID); got != tc.want {
			t.Fatalf("a document holding only %q matched the threshold filter: %v, want %v", tc.term, got, tc.want)
		}
	}
}

// TestDocFrequencyConcurrentUse has four writers deliver a hundred documents
// each while every arrival also scores a threshold filter off the weights
// the others are counting into. Under -race it is the counters' safety net;
// in any run the final counts must be exact: N all 400 arrivals, "shared"
// all of them, each writer's own named term its hundred, and a term no
// filter names none.
func TestDocFrequencyConcurrentUse(t *testing.T) {
	ix := newIndex(t)
	registerAny(t, ix, 1, "shared")
	thr := model.Filter{ID: 2, Subscriber: "s", Terms: []string{"shared", "w0"}, Mode: model.MatchThreshold, Threshold: 0.9}
	if err := ix.Register(thr, thr.Terms); err != nil {
		t.Fatal(err)
	}
	registerAny(t, ix, 3, "w1", "w2")
	const writers, perWriter = 4, 100
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d := model.Document{Terms: []string{"shared", "w" + strconv.Itoa(w)}}
				fs, _, err := ix.MatchTerms(&d, d.Terms)
				if err != nil {
					errs <- err
					return
				}
				// A w0 document covers the threshold filter fully: it scores
				// 1 whatever the weights read mid-count.
				if got := slices.Contains(matchedIDs(fs), thr.ID); w == 0 && !got {
					errs <- fmt.Errorf("a document holding both of the threshold filter's terms missed it (%v)", matchedIDs(fs))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	const docs = writers * perWriter
	for _, tc := range []struct {
		term string
		df   int
	}{{"shared", docs}, {"w0", perWriter}, {"w1", perWriter}, {"w2", perWriter}, {"w3", 0}} {
		want := math.Log(1 + float64(docs)/(1+float64(tc.df)))
		if got := ix.IDF(tc.term); got != want {
			t.Fatalf("IDF(%q) = %v, want ln(1 + %d/(1 + %d)) = %v", tc.term, got, docs, tc.df, want)
		}
	}
}

// TestDocumentFrequencyFromFirstFilter holds the index to the reference on
// terms documents carried before any filter named them: those documents
// count toward N but not toward the terms' df, so a threshold filter
// registered later weighs its terms by the documents since.
func TestDocumentFrequencyFromFirstFilter(t *testing.T) {
	p := newEnginePair(t)
	// "x" is in every early document, "y" in none: unnamed, both weigh the
	// same. Had x counted from the start it would weigh far less than y.
	for i := 0; i < 20; i++ {
		p.arrive(t, &model.Document{ID: uint64(i + 1), Terms: []string{"x", "z" + strconv.Itoa(i)}})
	}
	if x, y := p.ix.IDF("x"), p.ix.IDF("y"); x != y {
		t.Fatalf("before any filter names them, IDF(x) = %v and IDF(y) = %v, want equal", x, y)
	}
	thr := model.Filter{ID: 1, Subscriber: "s", Terms: []string{"x", "y"}, Mode: model.MatchThreshold, Threshold: 0.5}
	p.register(t, thr, thr.Terms)
	// The first document after the registration holds y alone, and counts
	// it: y has df 1 and x df 0, so y carries less than half the filter's
	// mass. Had the twenty earlier documents counted x, y alone would carry
	// over nine tenths of it and match.
	if fs, _ := p.compareAll(t, &model.Document{ID: 100, Terms: []string{"y"}}); len(fs) != 0 {
		t.Fatalf("a document holding only y matched %v: x counted documents from before its filter", matchedIDs(fs))
	}
	for i := 0; i < 5; i++ {
		p.compareAll(t, &model.Document{ID: uint64(101 + i), Terms: []string{"x", "w"}})
	}
	// Now x is common since the registration and y rare: x alone falls
	// short, y alone passes.
	for _, tc := range []struct {
		term string
		want int
	}{{"x", 0}, {"y", 1}} {
		fs, _ := p.compareAll(t, &model.Document{ID: 200, Terms: []string{tc.term}})
		if len(fs) != tc.want {
			t.Fatalf("a document holding only %q matched %d filters, want %d", tc.term, len(fs), tc.want)
		}
	}
	// A term named by a filter that registers later still counts from then on.
	p.register(t, allFilter(2, "v", "w"), []string{"v"})
	p.compareAll(t, &model.Document{ID: 300, Terms: []string{"v", "w", "x", "y"}})
	if got, want := p.ix.IDF("w"), p.ref.idf("w"); got != want {
		t.Fatalf("IDF(w) = %v, reference %v", got, want)
	}
}

// score is the containment score ix gives a document of docTerms for a
// threshold filter of filterTerms, read as a match of the document would
// read it, without counting the document.
func score(ix *Index, docTerms, filterTerms []string) float64 {
	d := model.Document{Terms: docTerms}
	sc := scratchPool.Get().(*matchScratch)
	sc.begin(ix.dict, d.View(), nil, false)
	defer sc.release()
	ids := make([]uint32, len(filterTerms))
	for i, t := range filterTerms {
		ids[i] = ix.dict.lookup(t)
	}
	return sc.containment(ids)
}

// seededIndex is an index over which a hundred documents arrived after
// filters named "common", in every one of them, and "rare", in one.
func seededIndex(t *testing.T) *Index {
	t.Helper()
	ix := newIndex(t)
	registerAny(t, ix, 1, "common", "rare")
	for i := 0; i < 100; i++ {
		terms := []string{"common", "filler" + strconv.Itoa(i)}
		if i == 0 {
			terms = append(terms, "rare")
		}
		arrive(t, ix, terms...)
	}
	return ix
}

// TestContainmentFullCoverageIsOne: a document holding all of a filter's
// terms scores 1 however many others it holds — long documents are not
// penalized.
func TestContainmentFullCoverageIsOne(t *testing.T) {
	ix := seededIndex(t)
	if got := score(ix, []string{"common", "rare", "noise1", "noise2"}, []string{"common", "rare"}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("containment with full coverage = %v, want 1", got)
	}
}

// TestContainmentPartial: a document holding only the rare one of a
// filter's two terms scores strictly between one half and one.
func TestContainmentPartial(t *testing.T) {
	ix := seededIndex(t)
	got := score(ix, []string{"rare"}, []string{"rare", "common"})
	if got <= 0.5 || got >= 1 {
		t.Fatalf("rare-term coverage = %v, want in (0.5, 1)", got)
	}
}

// TestContainmentEmpty: a document holding none of a filter's terms, or a
// filter with no terms, scores 0.
func TestContainmentEmpty(t *testing.T) {
	ix := seededIndex(t)
	if got := score(ix, []string{"noise"}, []string{"common", "rare"}); got != 0 {
		t.Fatalf("disjoint document scores %v, want 0", got)
	}
	if got := score(ix, []string{"common"}, nil); got != 0 {
		t.Fatalf("empty filter scores %v, want 0", got)
	}
}

// TestContainmentBoundedProperty: every score is a number in [0, 1], for
// documents and filters drawn over named and unnamed terms.
func TestContainmentBoundedProperty(t *testing.T) {
	ix := seededIndex(t)
	for i := 0; i < 40; i += 3 {
		registerAny(t, ix, model.FilterID(10+i), "t"+strconv.Itoa(i))
	}
	terms := func(raw []uint8) []string {
		var out []string
		for _, b := range raw {
			out = append(out, "t"+strconv.Itoa(int(b%40)))
		}
		return model.SortTerms(out)
	}
	prop := func(docRaw, filterRaw []uint8) bool {
		arrive(t, ix, terms(docRaw)...)
		s := score(ix, terms(docRaw), terms(filterRaw))
		return s >= 0 && s <= 1+1e-9 && !math.IsNaN(s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
