package index

import (
	"reflect"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/store"
)

func newIndex(t testing.TB) *Index {
	t.Helper()
	s, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// registerAny registers an OR filter on all its terms' posting lists.
func registerAny(t testing.TB, ix *Index, id model.FilterID, terms ...string) {
	t.Helper()
	f := model.Filter{ID: id, Terms: terms, Mode: model.MatchAny}
	if err := ix.Register(f, terms); err != nil {
		t.Fatal(err)
	}
}

func matchedIDs(fs []model.Filter) []model.FilterID {
	ids := make([]model.FilterID, len(fs))
	for i, f := range fs {
		ids[i] = f.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestPaperFigure1Scenario reproduces the example of Figure 1: six filters
// over terms A–E, a document {A, B, D}.
func TestPaperFigure1Scenario(t *testing.T) {
	ix := newIndex(t)
	registerAny(t, ix, 1, "A", "E")
	registerAny(t, ix, 2, "A", "B")
	registerAny(t, ix, 3, "A", "B")
	registerAny(t, ix, 4, "A", "C")
	registerAny(t, ix, 5, "A", "C", "E")
	registerAny(t, ix, 6, "B", "E")

	doc := &model.Document{ID: 1, Terms: []string{"A", "B", "D"}}

	// On the home node of A, only A's posting list is retrieved: f1..f5.
	fs, st, err := ix.MatchTerm(doc, "A")
	if err != nil {
		t.Fatal(err)
	}
	if got := matchedIDs(fs); !reflect.DeepEqual(got, []model.FilterID{1, 2, 3, 4, 5}) {
		t.Fatalf("match on A = %v, want f1..f5", got)
	}
	if st.PostingLists != 1 {
		t.Fatalf("MatchTerm touched %d posting lists, want exactly 1", st.PostingLists)
	}
	if st.Postings != 5 || st.Evaluated != 5 {
		t.Fatalf("stats = %+v, want 5 postings / 5 evaluated", st)
	}

	// Home node of B: f2, f3, f6.
	fs, _, err = ix.MatchTerm(doc, "B")
	if err != nil {
		t.Fatal(err)
	}
	if got := matchedIDs(fs); !reflect.DeepEqual(got, []model.FilterID{2, 3, 6}) {
		t.Fatalf("match on B = %v, want f2,f3,f6", got)
	}

	// Home node of D: no filters contain D.
	fs, st, err = ix.MatchTerm(doc, "D")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 || st.Postings != 0 {
		t.Fatalf("match on D = %v (%+v), want none", fs, st)
	}
}

// TestMatchSIFTFindsAllAndUnionsLists: the SIFT matcher is MatchTerms over
// every document term.
func TestMatchSIFTFindsAllAndUnionsLists(t *testing.T) {
	ix := newIndex(t)
	registerAny(t, ix, 1, "A", "E")
	registerAny(t, ix, 2, "A", "B")
	registerAny(t, ix, 6, "B", "E")
	registerAny(t, ix, 7, "Z")

	doc := &model.Document{ID: 1, Terms: []string{"A", "B", "D"}}
	fs, st, err := ix.MatchTerms(doc, doc.Terms)
	if err != nil {
		t.Fatal(err)
	}
	if got := matchedIDs(fs); !reflect.DeepEqual(got, []model.FilterID{1, 2, 6}) {
		t.Fatalf("SIFT match = %v, want f1,f2,f6", got)
	}
	// SIFT retrieves a posting list per document term with a non-empty
	// list (A and B; D's dictionary miss never touches the list store).
	if st.PostingLists != 2 {
		t.Fatalf("SIFT touched %d posting lists, want 2", st.PostingLists)
	}
	// f2 appears on both A's and B's lists but must be evaluated once.
	if st.Evaluated != 3 {
		t.Fatalf("SIFT evaluated %d filters, want 3 (dedup)", st.Evaluated)
	}
}

func TestMatchAllSemantics(t *testing.T) {
	ix := newIndex(t)
	conj := model.Filter{ID: 10, Terms: []string{"cloud", "security"}, Mode: model.MatchAll}
	if err := ix.Register(conj, conj.Terms); err != nil {
		t.Fatal(err)
	}

	full := &model.Document{ID: 1, Terms: []string{"cloud", "security", "extra"}}
	fs, _, err := ix.MatchTerm(full, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("AND filter should match doc with both terms, got %v", fs)
	}

	partial := &model.Document{ID: 2, Terms: []string{"cloud", "other"}}
	fs, _, err = ix.MatchTerm(partial, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("AND filter must not match partial doc, got %v", fs)
	}
}

// TestUnregisterDropsCandidateEagerly: an unregistered filter leaves its
// posting list at once — a match neither scans nor evaluates it, and
// NumPostings and PostedUnder stop counting it.
func TestUnregisterDropsCandidateEagerly(t *testing.T) {
	ix := newIndex(t)
	registerAny(t, ix, 1, "A")
	registerAny(t, ix, 2, "A")
	if got := ix.NumPostings(); got != 2 {
		t.Fatalf("NumPostings = %d, want 2", got)
	}
	if err := ix.Unregister(1); err != nil {
		t.Fatal(err)
	}
	doc := &model.Document{ID: 1, Terms: []string{"A"}}
	fs, st, err := ix.MatchTerm(doc, "A")
	if err != nil {
		t.Fatal(err)
	}
	if got := matchedIDs(fs); !reflect.DeepEqual(got, []model.FilterID{2}) {
		t.Fatalf("match = %v, want only f2", got)
	}
	if st.Postings != 1 || st.Evaluated != 1 {
		t.Fatalf("stats = %+v, want 1 posting / 1 evaluated", st)
	}
	if ix.NumFilters() != 1 || ix.NumPostings() != 1 {
		t.Fatalf("NumFilters/NumPostings = %d/%d, want 1/1", ix.NumFilters(), ix.NumPostings())
	}
	if got := ix.PostedUnder(1, []string{"A"}); got != nil {
		t.Fatalf("PostedUnder(f1) = %v after its unregister, want nothing", got)
	}
	// The last one out: the list is empty, the cover gone.
	if err := ix.Unregister(2); err != nil {
		t.Fatal(err)
	}
	if n, _ := ix.PostingLen("A"); n != 0 || ix.NumPostings() != 0 || ix.CoverStats() != (CoverStats{}) {
		t.Fatalf("after both left: PostingLen(A) = %d, NumPostings = %d, %+v", n, ix.NumPostings(), ix.CoverStats())
	}
}

func TestRegisterPartialPostingTerms(t *testing.T) {
	// A home node of term A registers a filter {A,B} but builds only A's
	// posting list (the §III.B key point).
	ix := newIndex(t)
	f := model.Filter{ID: 1, Terms: []string{"A", "B"}, Mode: model.MatchAny}
	if err := ix.Register(f, []string{"A"}); err != nil {
		t.Fatal(err)
	}
	nA, err := ix.PostingLen("A")
	if err != nil || nA != 1 {
		t.Fatalf("PostingLen(A) = %d, %v", nA, err)
	}
	nB, err := ix.PostingLen("B")
	if err != nil || nB != 0 {
		t.Fatalf("PostingLen(B) = %d, %v; B's list belongs to B's home node", nB, err)
	}
	if ix.NumPostings() != 1 {
		t.Fatalf("NumPostings = %d, want 1", ix.NumPostings())
	}
}

func TestRegisterInvalidFilter(t *testing.T) {
	ix := newIndex(t)
	if err := ix.Register(model.Filter{ID: 1, Mode: model.MatchAny}, nil); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestTermsAndEachFilter(t *testing.T) {
	ix := newIndex(t)
	registerAny(t, ix, 1, "A", "B")
	registerAny(t, ix, 2, "B")
	for term, want := range map[string]int{"A": 1, "B": 2, "C": 0} {
		if n, err := ix.PostingLen(term); err != nil || n != want {
			t.Fatalf("PostingLen(%q) = %d, %v; want %d", term, n, err, want)
		}
	}
	count := 0
	if err := ix.EachFilter(func(model.Filter) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("EachFilter visited %d, want 2", count)
	}
	f, ok, err := ix.GetFilter(2)
	if err != nil || !ok || f.ID != 2 {
		t.Fatalf("GetFilter = %+v, %v, %v", f, ok, err)
	}
}

// TestMatchEquivalenceProperty: for OR filters registered on all their
// terms, the union of MatchTerm over every document term equals the SIFT
// match, MatchTerms over all of them.
func TestMatchEquivalenceProperty(t *testing.T) {
	prop := func(filterSeeds [][3]uint8, docSeed []uint8) bool {
		if len(docSeed) == 0 {
			return true
		}
		term := func(b uint8) string { return "t" + strconv.Itoa(int(b%25)) }
		ix := newIndex(t)
		for i, fs := range filterSeeds {
			terms := model.SortTerms([]string{term(fs[0]), term(fs[1]), term(fs[2])})
			f := model.Filter{ID: model.FilterID(i + 1), Terms: terms, Mode: model.MatchAny}
			if err := ix.Register(f, terms); err != nil {
				return false
			}
		}
		var docTerms []string
		for _, b := range docSeed {
			docTerms = append(docTerms, term(b))
		}
		doc := &model.Document{ID: 1, Terms: model.SortTerms(docTerms)}

		sift, _, err := ix.MatchTerms(doc, doc.Terms)
		if err != nil {
			return false
		}
		union := make(map[model.FilterID]struct{})
		for _, term := range doc.Terms {
			fs, _, err := ix.MatchTerm(doc, term)
			if err != nil {
				return false
			}
			for _, f := range fs {
				union[f.ID] = struct{}{}
			}
		}
		if len(union) != len(sift) {
			return false
		}
		for _, f := range sift {
			if _, ok := union[f.ID]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatchTerm(b *testing.B) {
	ix := newIndex(b)
	for i := 0; i < 10000; i++ {
		f := model.Filter{ID: model.FilterID(i + 1), Terms: []string{"hot", "x" + strconv.Itoa(i)}, Mode: model.MatchAny}
		if err := ix.Register(f, f.Terms); err != nil {
			b.Fatal(err)
		}
	}
	doc := &model.Document{ID: 1, Terms: []string{"hot", "cold"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.MatchTerm(doc, "hot"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchSIFTWideDoc(b *testing.B) {
	ix := newIndex(b)
	for i := 0; i < 10000; i++ {
		f := model.Filter{ID: model.FilterID(i + 1), Terms: []string{"t" + strconv.Itoa(i%500)}, Mode: model.MatchAny}
		if err := ix.Register(f, f.Terms); err != nil {
			b.Fatal(err)
		}
	}
	terms := make([]string, 64)
	for i := range terms {
		terms[i] = "t" + strconv.Itoa(i*7)
	}
	doc := &model.Document{ID: 1, Terms: terms}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.MatchTerms(doc, doc.Terms); err != nil {
			b.Fatal(err)
		}
	}
}
