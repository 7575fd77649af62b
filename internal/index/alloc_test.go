package index

import (
	"math/rand"
	"strconv"
	"testing"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/testutil"
)

// allocSinkFilters keeps match results visibly alive so the compiler cannot
// elide the calls under test.
var allocSinkFilters []model.Filter

// allocDoc builds a document with nTerms terms including "hot", with its
// term view primed (a warm publish path primes the view at decode time, so
// steady-state matching never pays the view build).
func allocDoc(nTerms int) *model.Document {
	terms := make([]string, 0, nTerms)
	terms = append(terms, "hot")
	for i := 1; i < nTerms; i++ {
		terms = append(terms, "term-"+strconv.Itoa(i))
	}
	d := &model.Document{ID: 1, Terms: terms}
	d.View()
	return d
}

// TestMatchTermZeroAllocs is the ISSUE acceptance guard: on a warm index,
// MatchTerm performs zero heap allocations per call, excluding the
// matched-results slice. Filters here are MatchAll with one absent term, so
// every posting entry is scanned and evaluated but nothing matches — the
// results slice is never allocated and the whole call must be free.
func TestMatchTermZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ix := newIndex(t)
	for i := 0; i < 128; i++ {
		f := model.Filter{
			ID:    model.FilterID(i + 1),
			Terms: []string{"hot", "absent-" + strconv.Itoa(i)},
			Mode:  model.MatchAll,
		}
		if err := ix.Register(f, []string{"hot"}); err != nil {
			t.Fatal(err)
		}
	}
	doc := allocDoc(24)

	// Warm call: verifies the setup actually scans the posting list.
	if _, st, err := ix.MatchTerm(doc, "hot"); err != nil || st.Postings != 128 {
		t.Fatalf("warm call: scanned=%d err=%v", st.Postings, err)
	}

	allocs := testing.AllocsPerRun(500, func() {
		fs, _, err := ix.MatchTerm(doc, "hot")
		if err != nil {
			t.Fatal(err)
		}
		allocSinkFilters = fs
	})
	if allocs != 0 {
		t.Fatalf("MatchTerm on warm index: %.1f allocs/op, want 0", allocs)
	}
}

// TestMatchTermMatchedPathAllocs pins down the one allowed allocation: with
// a single matching filter, the only heap traffic is the results slice.
func TestMatchTermMatchedPathAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ix := newIndex(t)
	registerAny(t, ix, 1, "hot")
	doc := allocDoc(24)

	allocs := testing.AllocsPerRun(500, func() {
		fs, _, err := ix.MatchTerm(doc, "hot")
		if err != nil || len(fs) != 1 {
			t.Fatalf("matched %d filters, err=%v", len(fs), err)
		}
		allocSinkFilters = fs
	})
	if allocs > 1 {
		t.Fatalf("MatchTerm matched path: %.1f allocs/op, want <= 1 (results slice only)", allocs)
	}
}

// TestMatchSIFTSteadyStateAllocs guards the SIFT matcher — MatchTerms over
// every document term, most of them unknown to the dictionary — on the
// pooled scratch: with no matching filters, a warm call allocates nothing.
func TestMatchSIFTSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ix := newIndex(t)
	for i := 0; i < 64; i++ {
		f := model.Filter{
			ID:    model.FilterID(i + 1),
			Terms: []string{"hot", "absent-" + strconv.Itoa(i)},
			Mode:  model.MatchAll,
		}
		if err := ix.Register(f, []string{"hot"}); err != nil {
			t.Fatal(err)
		}
	}
	doc := allocDoc(24)

	allocs := testing.AllocsPerRun(500, func() {
		fs, _, err := ix.MatchTerms(doc, doc.Terms)
		if err != nil {
			t.Fatal(err)
		}
		allocSinkFilters = fs
	})
	if allocs != 0 {
		t.Fatalf("SIFT match on warm index: %.1f allocs/op, want 0", allocs)
	}
}

// TestMatchTermsZeroAllocs guards the covering match path:
// a warm multi-term MatchTerms call — pooled ID set, dedup map and cover
// memo, inline container iteration — performs zero heap allocations on the
// unmatched path. Runs every container shape: distinct signatures (one
// inline singleton container per cover), signatures shared by sixteen
// filters (array containers), one shared signature large enough to promote
// its entry to a bitmap container, and the repository benchmark's
// match_heavy shape — a 65-term document, half of its terms unknown to the
// dictionary, against MatchAll singleton covers of three and four terms,
// each reached under two of the queried terms.
func TestMatchTermsZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	hotAnd := func(absent func(i int) string) func(i int) (model.Filter, []string) {
		return func(i int) (model.Filter, []string) {
			return model.Filter{Terms: []string{"hot", absent(i)}, Mode: model.MatchAll}, []string{"hot"}
		}
	}
	known := func(i int) string { return "known-" + strconv.Itoa(i%32) }
	mhDoc := func() *model.Document {
		terms := make([]string, 0, 65)
		for i := 0; i < 32; i++ {
			terms = append(terms, known(i))
		}
		for len(terms) < 65 {
			terms = append(terms, "unknown-"+strconv.Itoa(len(terms)))
		}
		d := &model.Document{ID: 1, Terms: terms}
		d.View()
		return d
	}()
	for _, tc := range []struct {
		name   string
		filter func(i int) (f model.Filter, postingTerms []string)
		covers int
		// dead filters are unregistered again: their bits leave the
		// containers, and their covers keep the vacated slots.
		dead  int
		doc   *model.Document
		query []string
		// postings is what one call scans: every registered filter once per
		// queried term it is posted under.
		postings int
	}{
		{"inline-containers", hotAnd(func(i int) string { return "absent-" + strconv.Itoa(i) }), 128, 0, allocDoc(24), []string{"hot", "term-1"}, 128},
		{"array-containers", hotAnd(func(i int) string { return "absent-" + strconv.Itoa(i%8) }), 8, 5, allocDoc(24), []string{"hot", "term-1"}, 123},
		{"bitmap-container", hotAnd(func(int) string { return "absent-shared" }), 1, 5, allocDoc(24), []string{"hot", "term-1"}, 123},
		{"match-heavy", func(i int) (model.Filter, []string) {
			terms := []string{known(i), known(i + 7), "absent-" + strconv.Itoa(i)}
			if i%2 == 1 {
				terms = append(terms, known(i+13))
			}
			return model.Filter{Terms: terms, Mode: model.MatchAll}, terms[:2]
		}, 128, 0, mhDoc, mhDoc.Terms, 256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := newIndex(t)
			for i := 0; i < 128; i++ {
				f, postingTerms := tc.filter(i)
				f.ID = model.FilterID(i + 1)
				if err := ix.Register(f, postingTerms); err != nil {
					t.Fatal(err)
				}
			}
			if cs := ix.CoverStats(); cs.Covers != tc.covers {
				t.Fatalf("Covers = %d, want %d", cs.Covers, tc.covers)
			}
			for i := 0; i < tc.dead; i++ {
				if err := ix.Unregister(model.FilterID(i + 1)); err != nil {
					t.Fatal(err)
				}
			}

			// Warm call: verifies the multi-term path scans the posting
			// lists (and warms the pool).
			if _, st, err := ix.MatchTerms(tc.doc, tc.query); err != nil || st.Postings != tc.postings || st.Evaluated != 128-tc.dead {
				t.Fatalf("warm call: %+v err=%v, want %d postings / %d evaluated", st, err, tc.postings, 128-tc.dead)
			}

			allocs := testing.AllocsPerRun(500, func() {
				fs, _, err := ix.MatchTerms(tc.doc, tc.query)
				if err != nil {
					t.Fatal(err)
				}
				allocSinkFilters = fs
			})
			if allocs != 0 {
				t.Fatalf("MatchTerms on warm index: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestMatchTermsMatchedPathAllocs guards the multi-term matched path at the
// repository benchmark's fanout_heavy shape: 256 three-term MatchAny filters
// over 18 terms, each posted under all of its terms, and one 4-term document
// that matches more than half of them. However many filters match, the only
// heap traffic is the results slice: a result names its filter by ID,
// subscriber and mode, and no term is spelled.
func TestMatchTermsMatchedPathAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ix := newIndex(t)
	rng := rand.New(rand.NewSource(20120618))
	term := func(i int) string { return "f" + strconv.Itoa(i) }
	for i := 0; i < 256; i++ {
		perm := rng.Perm(18)
		f := model.Filter{
			ID:         model.FilterID(i + 1),
			Subscriber: "s" + strconv.Itoa(i),
			Terms:      model.SortTerms([]string{term(perm[0]), term(perm[1]), term(perm[2])}),
			Mode:       model.MatchAny,
		}
		if err := ix.Register(f, f.Terms); err != nil {
			t.Fatal(err)
		}
	}
	doc := &model.Document{ID: 1, Terms: model.SortTerms([]string{term(0), term(5), term(11), term(16)})}
	doc.View()

	fs, _, err := ix.MatchTerms(doc, doc.Terms)
	if err != nil || len(fs) < 120 || len(fs) > 170 {
		t.Fatalf("warm call matched %d filters (err %v), want the shape's ≈ 142", len(fs), err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		fs, _, err := ix.MatchTerms(doc, doc.Terms)
		if err != nil {
			t.Fatal(err)
		}
		allocSinkFilters = fs
	})
	if allocs > 1 {
		t.Fatalf("MatchTerms matched path: %.1f allocs/op for %d matches, want <= 1 (results slice only)", allocs, len(fs))
	}
}

// BenchmarkMatchTermsWarm measures the multi-term match (the
// coalesced-publish serving path) with -benchmem visibility; steady state
// is 0 B/op on the unmatched path.
func BenchmarkMatchTermsWarm(b *testing.B) {
	ix := newIndex(b)
	for i := 0; i < 256; i++ {
		f := model.Filter{
			ID:    model.FilterID(i + 1),
			Terms: []string{"hot", "absent-shared"},
			Mode:  model.MatchAll,
		}
		if err := ix.Register(f, []string{"hot"}); err != nil {
			b.Fatal(err)
		}
	}
	doc := allocDoc(24)
	queryTerms := []string{"hot", "term-1"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, _, err := ix.MatchTerms(doc, queryTerms)
		if err != nil {
			b.Fatal(err)
		}
		allocSinkFilters = fs
	}
}

// BenchmarkMatchTermWarm measures the home-node posting-list scan (§IV's
// y_p term) on a warm index with a primed document view. Run with
// -benchmem: the steady-state figure of merit is 0 B/op on the unmatched
// path.
func BenchmarkMatchTermWarm(b *testing.B) {
	for _, tc := range []struct {
		name     string
		matching bool
	}{
		{"unmatched", false},
		{"matched", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ix := newIndex(b)
			for i := 0; i < 256; i++ {
				terms := []string{"hot", "absent-" + strconv.Itoa(i)}
				mode := model.MatchAll
				if tc.matching {
					mode = model.MatchAny
				}
				f := model.Filter{ID: model.FilterID(i + 1), Terms: terms, Mode: mode}
				if err := ix.Register(f, []string{"hot"}); err != nil {
					b.Fatal(err)
				}
			}
			doc := allocDoc(24)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs, _, err := ix.MatchTerm(doc, "hot")
				if err != nil {
					b.Fatal(err)
				}
				allocSinkFilters = fs
			}
		})
	}
}
