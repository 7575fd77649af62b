package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/movesys/move/internal/model"
)

// propVocab is a small vocabulary so random filters and documents overlap
// often enough that the property is exercised on non-empty match sets.
var propVocab = func() []string {
	v := make([]string, 12)
	for i := range v {
		v[i] = fmt.Sprintf("t%d", i)
	}
	return v
}()

// randTerms draws 1..maxLen distinct vocabulary terms.
func randTerms(rng *rand.Rand, maxLen int) []string {
	n := 1 + rng.Intn(maxLen)
	perm := rng.Perm(len(propVocab))
	terms := make([]string, 0, n)
	for _, p := range perm[:n] {
		terms = append(terms, propVocab[p])
	}
	return terms
}

// randMode draws a matching mode.
func randMode(rng *rand.Rand) model.MatchMode {
	if rng.Intn(2) == 0 {
		return model.MatchAny
	}
	return model.MatchAll
}

// TestMatchTermSubsetOfSIFT is the §III.B correctness property linking the
// two matchers: for any filter set and document, the filters MatchTerm
// finds on the home node of term t (for every t in the document) must be a
// subset of what the centralized SIFT matcher — MatchTerms over all of the
// document's terms — finds: MatchTerm only
// narrows the posting lists read, never the answer. Conversely every SIFT
// match must be found by MatchTerm on at least one document term it was
// posted under, so the union over home nodes recovers the full match set.
func TestMatchTermSubsetOfSIFT(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := newIndex(t)
		numFilters := 1 + rng.Intn(30)
		for i := 1; i <= numFilters; i++ {
			f := model.Filter{
				ID: model.FilterID(i), Subscriber: "s",
				Terms: randTerms(rng, 4), Mode: randMode(rng),
			}
			// Home-node style: posted under every one of its terms (the
			// union property below needs each term's list to carry it).
			if err := ix.Register(f, f.Terms); err != nil {
				t.Fatal(err)
			}
		}
		doc := &model.Document{ID: uint64(seed)&0xffff + 1, Terms: randTerms(rng, 6)}
		siftMatches, _, err := ix.MatchTerms(doc, doc.Terms)
		if err != nil {
			t.Fatal(err)
		}
		sift := make(map[model.FilterID]struct{}, len(siftMatches))
		for _, f := range siftMatches {
			sift[f.ID] = struct{}{}
		}

		union := make(map[model.FilterID]struct{})
		for _, term := range doc.Terms {
			fs, _, err := ix.MatchTerm(doc, term)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fs {
				if _, ok := sift[f.ID]; !ok {
					t.Logf("seed %d: MatchTerm(%q) found %v which SIFT did not", seed, term, f.ID)
					return false
				}
				union[f.ID] = struct{}{}
			}
		}
		if !reflect.DeepEqual(union, sift) && !(len(union) == 0 && len(sift) == 0) {
			t.Logf("seed %d: union over home nodes %v != SIFT %v", seed, union, sift)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchTermsEquivalentToPerTermUnion is the coalescing correctness
// property: for any filter set, document, and term list, one MatchTerms
// pass must return exactly the deduplicated concatenation of per-term
// MatchTerm results (first-appearance order), and its wire-visible stats
// (Postings, PostingLists) must equal the per-term sums — candidate dedup
// may only reduce Evaluated, never the accounted posting work.
func TestMatchTermsEquivalentToPerTermUnion(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := newIndex(t)
		numFilters := 1 + rng.Intn(30)
		for i := 1; i <= numFilters; i++ {
			f := model.Filter{
				ID: model.FilterID(i), Subscriber: "s",
				Terms: randTerms(rng, 4), Mode: randMode(rng),
			}
			if err := ix.Register(f, f.Terms); err != nil {
				t.Fatal(err)
			}
		}
		doc := &model.Document{ID: uint64(seed)&0xffff + 1, Terms: randTerms(rng, 6)}
		// Query a random multiset of terms — duplicates included, because the
		// coalesced path must dedup candidates across repeated terms too.
		queried := make([]string, 0, 6)
		for _, term := range randTerms(rng, 4) {
			queried = append(queried, term)
			if rng.Intn(3) == 0 {
				queried = append(queried, term)
			}
		}

		fs, st, err := ix.MatchTerms(doc, queried)
		if err != nil {
			t.Fatal(err)
		}

		var wantIDs []model.FilterID
		seen := make(map[model.FilterID]struct{})
		var wantPostings, wantLists int
		for _, term := range queried {
			fs, st, err := ix.MatchTerm(doc, term)
			if err != nil {
				t.Fatal(err)
			}
			wantPostings += st.Postings
			wantLists += st.PostingLists
			for _, f := range fs {
				if _, ok := seen[f.ID]; ok {
					continue
				}
				seen[f.ID] = struct{}{}
				wantIDs = append(wantIDs, f.ID)
			}
		}
		gotIDs := make([]model.FilterID, 0, len(fs))
		for _, f := range fs {
			gotIDs = append(gotIDs, f.ID)
		}
		if !reflect.DeepEqual(gotIDs, wantIDs) && !(len(gotIDs) == 0 && len(wantIDs) == 0) {
			t.Logf("seed %d: MatchTerms %v != deduplicated per-term union %v", seed, gotIDs, wantIDs)
			return false
		}
		if st.Postings != wantPostings || st.PostingLists != wantLists {
			t.Logf("seed %d: stats (%d postings, %d lists) != per-term sums (%d, %d)",
				seed, st.Postings, st.PostingLists, wantPostings, wantLists)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
