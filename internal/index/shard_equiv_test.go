package index

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/store"
	"github.com/movesys/move/internal/vsm"
)

// refIndex is the reference implementation the index is held to: one
// RWMutex over plain maps — a posting list is the insertion-ordered,
// deduplicated list of the filter IDs posted under its term, a definition is
// the model.Filter itself — with lazy tombstones, the same evaluate logic and
// the index's counting rules. The equivalence batteries (here, cover_test.go,
// fuzz_test.go) hold the sharded covering Index to byte-identical results
// against it.
type refIndex struct {
	mu       sync.RWMutex
	filters  map[model.FilterID]model.Filter
	postings map[string][]model.FilterID
	corpus   *vsm.Corpus
	// numPostings follows Index.NumPostings: Register counts every posting
	// term it is given, EnsureRegistered only the entries it adds, and a
	// restart the distinct entries it recovers.
	numPostings int
}

func newRefIndex() *refIndex {
	return &refIndex{
		filters:  make(map[model.FilterID]model.Filter),
		postings: make(map[string][]model.FilterID),
		corpus:   vsm.NewCorpus(),
	}
}

// post appends id to term's list unless it is there, reporting whether it
// was added. Caller holds r.mu.
func (r *refIndex) post(term string, id model.FilterID) bool {
	if slices.Contains(r.postings[term], id) {
		return false
	}
	r.postings[term] = append(r.postings[term], id)
	return true
}

func (r *refIndex) register(f model.Filter, postingTerms []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.filters[f.ID] = f.Clone()
	r.numPostings += len(postingTerms)
	for _, t := range postingTerms {
		r.post(t, f.ID)
	}
}

// ensure is EnsureRegistered: an existing definition is kept, and created
// reports whether there was none.
func (r *refIndex) ensure(f model.Filter, postingTerms []string) (created bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.filters[f.ID]; !ok {
		r.filters[f.ID] = f.Clone()
		created = true
	}
	for _, t := range postingTerms {
		if r.post(t, f.ID) {
			r.numPostings++
		}
	}
	return created
}

func (r *refIndex) unregister(id model.FilterID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.filters, id)
}

func (r *refIndex) numFilters() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.filters)
}

// restarted is what a restart from a flushed data directory recovers: every
// definition and posting entry, NumPostings recounted from the deduplicated
// lists, and no idf statistics (they are not persisted).
func (r *refIndex) restarted() *refIndex {
	r.mu.RLock()
	defer r.mu.RUnlock()
	re := &refIndex{filters: maps.Clone(r.filters), postings: make(map[string][]model.FilterID, len(r.postings)), corpus: vsm.NewCorpus()}
	for t, ids := range r.postings {
		re.postings[t] = slices.Clone(ids)
		re.numPostings += len(ids)
	}
	return re
}

func (r *refIndex) evaluate(f *model.Filter, docSet map[string]struct{}) bool {
	switch f.Mode {
	case model.MatchAny:
		for _, t := range f.Terms {
			if _, ok := docSet[t]; ok {
				return true
			}
		}
		return false
	case model.MatchAll:
		for _, t := range f.Terms {
			if _, ok := docSet[t]; !ok {
				return false
			}
		}
		return true
	case model.MatchThreshold:
		return r.corpus.ContainmentScore(docSet, f.Terms) >= f.Threshold
	default:
		return false
	}
}

func (r *refIndex) matchTerm(d *model.Document, term string) ([]model.Filter, MatchStats) {
	return r.matchTerms(d, []string{term})
}

// matchTerms reads the posting list of every term in order, evaluating each
// filter it reaches once; over all of d's terms it is the SIFT matcher.
func (r *refIndex) matchTerms(d *model.Document, terms []string) ([]model.Filter, MatchStats) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var st MatchStats
	docSet := d.TermSet()
	seen := make(map[model.FilterID]struct{})
	var matched []model.Filter
	for _, term := range terms {
		ids := r.postings[term]
		if len(ids) > 0 {
			st.PostingLists++
		}
		st.Postings += len(ids)
		for _, id := range ids {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			f, ok := r.filters[id]
			if !ok {
				continue
			}
			st.Evaluated++
			if r.evaluate(&f, docSet) {
				matched = append(matched, f)
			}
		}
	}
	return matched, st
}

// postedUnder is PostedUnder: the terms, in the order given, whose list
// holds id.
func (r *refIndex) postedUnder(id model.FilterID, terms []string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var posted []string
	for _, t := range terms {
		if slices.Contains(r.postings[t], id) {
			posted = append(posted, t)
		}
	}
	return posted
}

// encodeMatches flattens a match result to bytes, so equivalence is
// byte-level: same filters, same field contents, same stats. Results are
// compared as sorted sets: the reference emits posting-insertion order while
// the index emits cover/slot order, and the system nowhere depends on
// match-result order (delivery routing keys on filter ID).
func encodeMatches(matched []model.Filter, st MatchStats) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "lists=%d postings=%d eval=%d\n", st.PostingLists, st.Postings, st.Evaluated)
	byID := append([]model.Filter(nil), matched...)
	sort.Slice(byID, func(i, j int) bool { return byID[i].ID < byID[j].ID })
	for i := range byID {
		buf.Write(byID[i].Encode())
	}
	return buf.Bytes()
}

// TestShardedMatchesReferenceByteIdentical drives random workloads
// (register / unregister / observe, across all three match modes) into the
// sharded Index and the single-lock reference, then compares MatchTerm and
// MatchTerms over every document term byte-for-byte on random documents.
// The subtest names the aggregated (covering) engine that index.New builds.
func TestShardedMatchesReferenceByteIdentical(t *testing.T) {
	t.Run("aggregated", checkShardedMatchesReference)
}

func checkShardedMatchesReference(t *testing.T) {
	vocab := make([]string, 24)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, err := store.Open("", store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := New(st)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefIndex()

		pick := func(n int) []string {
			seen := map[string]struct{}{}
			var out []string
			for len(out) < n {
				w := vocab[rng.Intn(len(vocab))]
				if _, dup := seen[w]; dup {
					continue
				}
				seen[w] = struct{}{}
				out = append(out, w)
			}
			return model.SortTerms(out)
		}
		var registered []model.FilterID
		nextID := model.FilterID(1)

		for step := 0; step < 120; step++ {
			switch op := rng.Intn(9); {
			case op < 5: // register
				f := model.Filter{
					ID:         nextID,
					Subscriber: fmt.Sprintf("s%d", rng.Intn(5)),
					Terms:      pick(1 + rng.Intn(3)),
				}
				nextID++
				switch rng.Intn(3) {
				case 0:
					f.Mode = model.MatchAny
				case 1:
					f.Mode = model.MatchAll
				default:
					f.Mode = model.MatchThreshold
					f.Threshold = 0.2 + 0.6*rng.Float64()
				}
				postingTerms := f.Terms
				if len(f.Terms) > 1 && rng.Intn(2) == 0 {
					postingTerms = f.Terms[:1+rng.Intn(len(f.Terms))]
				}
				if err := ix.Register(f, postingTerms); err != nil {
					t.Fatalf("seed %d step %d: register: %v", seed, step, err)
				}
				ref.register(f, postingTerms)
				registered = append(registered, f.ID)
			case op < 6 && len(registered) > 0: // unregister
				id := registered[rng.Intn(len(registered))]
				if err := ix.Unregister(id); err != nil {
					t.Fatalf("seed %d step %d: unregister: %v", seed, step, err)
				}
				ref.unregister(id)
			case op == 6: // feed idf statistics (threshold-mode inputs)
				doc := model.Document{ID: uint64(step), Terms: pick(1 + rng.Intn(5))}
				ix.ObserveDocument(&doc)
				ref.corpus.AddDocument(doc.Terms)
			default: // match and compare
				doc := model.Document{ID: uint64(step), Terms: pick(1 + rng.Intn(5))}
				term := doc.Terms[rng.Intn(len(doc.Terms))]
				gotM, gotSt, err := ix.MatchTerm(&doc, term)
				if err != nil {
					t.Fatalf("seed %d step %d: match term: %v", seed, step, err)
				}
				refM, refSt := ref.matchTerm(&doc, term)
				if !bytes.Equal(encodeMatches(gotM, gotSt), encodeMatches(refM, refSt)) {
					t.Logf("seed %d step %d: MatchTerm(%v, %q) diverged:\n sharded: %v %+v\n ref:     %v %+v",
						seed, step, doc.Terms, term, gotM, gotSt, refM, refSt)
					return false
				}
				gotM, gotSt, err = ix.MatchTerms(&doc, doc.Terms)
				if err != nil {
					t.Fatalf("seed %d step %d: match terms: %v", seed, step, err)
				}
				refM, refSt = ref.matchTerms(&doc, doc.Terms)
				if !bytes.Equal(encodeMatches(gotM, gotSt), encodeMatches(refM, refSt)) {
					t.Logf("seed %d step %d: MatchTerms(%v) diverged:\n sharded: %v %+v\n ref:     %v %+v",
						seed, step, doc.Terms, gotM, gotSt, refM, refSt)
					return false
				}
			}
		}
		// Counter parity with the reference's live state.
		if ix.NumFilters() != len(ref.filters) {
			t.Logf("seed %d: NumFilters = %d, reference has %d", seed, ix.NumFilters(), len(ref.filters))
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedIndexConcurrentMutationsAndMatches hammers one Index from
// concurrent registrars, unregistrars, and matchers. Run under -race this
// is the shard-layout safety net: snapshot reads must never tear, and the
// final state must reflect every registration that wasn't removed.
func TestShardedIndexConcurrentMutationsAndMatches(t *testing.T) {
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers   = 4
		matchers  = 4
		perWriter = 150
	)
	terms := make([]string, 16)
	for i := range terms {
		terms[i] = fmt.Sprintf("w%d", i)
	}
	var writerWg, matcherWg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < perWriter; i++ {
				id := model.FilterID(w*perWriter + i + 1)
				term := terms[rng.Intn(len(terms))]
				f := model.Filter{ID: id, Subscriber: "s", Terms: []string{term}, Mode: model.MatchAny}
				if err := ix.Register(f, f.Terms); err != nil {
					t.Errorf("register %v: %v", id, err)
					return
				}
				if rng.Intn(4) == 0 {
					if err := ix.Unregister(id); err != nil {
						t.Errorf("unregister %v: %v", id, err)
						return
					}
					// Re-register under the same ID: exercises the posting
					// dedup path (the ID is already on the term's list).
					if err := ix.Register(f, f.Terms); err != nil {
						t.Errorf("re-register %v: %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	for m := 0; m < matchers; m++ {
		matcherWg.Add(1)
		go func(m int) {
			defer matcherWg.Done()
			rng := rand.New(rand.NewSource(int64(100 + m)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				doc := model.Document{ID: 1, Terms: []string{terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))]}}
				doc.Terms = model.SortTerms(doc.Terms)
				if _, _, err := ix.MatchTerm(&doc, doc.Terms[0]); err != nil {
					t.Errorf("match term: %v", err)
					return
				}
				if _, _, err := ix.MatchTerms(&doc, doc.Terms); err != nil {
					t.Errorf("match terms: %v", err)
					return
				}
			}
		}(m)
	}
	writerWg.Wait()
	close(stop)
	matcherWg.Wait()

	if got, want := ix.NumFilters(), writers*perWriter; got != want {
		t.Fatalf("NumFilters after quiesce = %d, want %d", got, want)
	}
	// Every registered filter must be matchable through its term.
	total := 0
	for _, term := range terms {
		doc := model.Document{ID: 99, Terms: []string{term}}
		matched, _, err := ix.MatchTerm(&doc, term)
		if err != nil {
			t.Fatal(err)
		}
		total += len(matched)
	}
	if total != writers*perWriter {
		t.Fatalf("matchable filters = %d, want %d", total, writers*perWriter)
	}
}
