package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/store"
)

// refIndex is the reference implementation the index is held to: one
// RWMutex over plain maps — a posting list is the insertion-ordered,
// deduplicated list of the registered filter IDs posted under its term, a
// definition is the model.Filter itself — with the same evaluate logic and
// the index's posting rules: re-registered with the same signature a filter
// keeps the lists it was on, with another it is on the new posting terms'
// lists alone; unregistered it is on none. A verdict depends on the filter
// and the document alone, so matching changes nothing here and a restart
// from a data directory recovers exactly this state. The equivalence
// batteries (here, cover_test.go, fuzz_test.go) hold the sharded covering
// Index to byte-identical results against it.
type refIndex struct {
	mu       sync.RWMutex
	filters  map[model.FilterID]model.Filter
	postings map[string][]model.FilterID
	// numPostings follows Index.NumPostings: the entries on all lists.
	numPostings int
}

func newRefIndex() *refIndex {
	return &refIndex{
		filters:  make(map[model.FilterID]model.Filter),
		postings: make(map[string][]model.FilterID),
	}
}

// post appends id to the lists of terms it is not on yet. Caller holds
// r.mu.
func (r *refIndex) post(id model.FilterID, terms []string) {
	for _, t := range terms {
		if !slices.Contains(r.postings[t], id) {
			r.postings[t] = append(r.postings[t], id)
			r.numPostings++
		}
	}
}

// unpost takes id off every list. Caller holds r.mu.
func (r *refIndex) unpost(id model.FilterID) {
	for t, ids := range r.postings {
		if i := slices.Index(ids, id); i >= 0 {
			r.numPostings--
			if ids = slices.Delete(ids, i, i+1); len(ids) == 0 {
				delete(r.postings, t)
			} else {
				r.postings[t] = ids
			}
		}
	}
}

// sameSignature reports whether a and b have one predicate: mode and term
// set.
func sameSignature(a, b *model.Filter) bool {
	set := func(f *model.Filter) []string { return model.SortTerms(slices.Clone(f.Terms)) }
	return a.Mode == b.Mode && slices.Equal(set(a), set(b))
}

func (r *refIndex) register(f model.Filter, postingTerms []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.filters[f.ID]; ok && !sameSignature(&old, &f) {
		r.unpost(f.ID)
	}
	r.filters[f.ID] = f.Clone()
	r.post(f.ID, postingTerms)
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
	r.post(f.ID, postingTerms)
	return created
}

func (r *refIndex) unregister(id model.FilterID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.filters, id)
	r.unpost(id)
}

func (r *refIndex) numFilters() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.filters)
}

func evaluateRef(f *model.Filter, docSet map[string]struct{}) bool {
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
			if evaluateRef(&f, docSet) {
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
// byte-level: the same filters, each named as a match result names it — ID,
// subscriber and mode — and the same stats. Results are compared as sorted
// sets: the reference emits posting-insertion order while the index emits
// cover/slot order, and the system nowhere depends on match-result order
// (delivery routing keys on filter ID). The matched filters' terms are held
// to the reference by matchedDefinitions.
func encodeMatches(matched []model.Filter, st MatchStats) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "lists=%d postings=%d eval=%d\n", st.PostingLists, st.Postings, st.Evaluated)
	for _, f := range sortedByID(matched) {
		fmt.Fprintf(&buf, "%d %q %d\n", f.ID, f.Subscriber, f.Mode)
	}
	return buf.Bytes()
}

// encodeFilters flattens whole definitions to bytes, every field, sorted by
// ID.
func encodeFilters(fs []model.Filter) []byte {
	var buf bytes.Buffer
	for _, f := range sortedByID(fs) {
		buf.Write(f.Encode())
	}
	return buf.Bytes()
}

func sortedByID(fs []model.Filter) []model.Filter {
	byID := slices.Clone(fs)
	sort.Slice(byID, func(i, j int) bool { return byID[i].ID < byID[j].ID })
	return byID
}

// matchedDefinitions holds the index's match result to the contract the
// match-set comparison leaves out: a result carries no terms, and each
// matched ID's GetFilter is, field for field, the definition the reference
// holds for it now — canonical order, or the registration order of a filter
// registered out of it.
func matchedDefinitions(ix *Index, ref *refIndex, matched []model.Filter) error {
	ref.mu.RLock()
	defer ref.mu.RUnlock()
	for _, m := range matched {
		if m.Terms != nil {
			return fmt.Errorf("match result %+v carries terms", m)
		}
		got, ok, err := ix.GetFilter(m.ID)
		want := ref.filters[m.ID]
		if err != nil || !ok || !bytes.Equal(got.Encode(), want.Encode()) {
			return fmt.Errorf("GetFilter(%d) of a match = %+v, %v, %v; reference %+v", m.ID, got, ok, err, want)
		}
	}
	return nil
}

// TestShardedMatchesReferenceByteIdentical drives random workloads
// (register / unregister / match, across both match modes) into the
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
				f.Mode = model.MatchAny
				if rng.Intn(2) == 1 {
					f.Mode = model.MatchAll
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
			case op == 6: // a multi-term match alone
				doc := model.Document{ID: uint64(step), Terms: pick(1 + rng.Intn(5))}
				gotM, gotSt, err := ix.MatchTerms(&doc, doc.Terms)
				if err != nil {
					t.Fatalf("seed %d step %d: match terms: %v", seed, step, err)
				}
				refM, refSt := ref.matchTerms(&doc, doc.Terms)
				if !bytes.Equal(encodeMatches(gotM, gotSt), encodeMatches(refM, refSt)) {
					t.Logf("seed %d step %d: MatchTerms(%v) diverged:\n sharded: %v %+v\n ref:     %v %+v",
						seed, step, doc.Terms, gotM, gotSt, refM, refSt)
					return false
				}
				if err := matchedDefinitions(ix, ref, gotM); err != nil {
					t.Logf("seed %d step %d: MatchTerms(%v): %v", seed, step, doc.Terms, err)
					return false
				}
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
				if err := matchedDefinitions(ix, ref, gotM); err != nil {
					t.Logf("seed %d step %d: MatchTerm(%v, %q): %v", seed, step, doc.Terms, term, err)
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
				if err := matchedDefinitions(ix, ref, gotM); err != nil {
					t.Logf("seed %d step %d: MatchTerms(%v): %v", seed, step, doc.Terms, err)
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
// concurrent registrars, unregistrars, churners and matchers. Run under -race
// this is the shard-layout safety net: snapshot reads must never tear, a
// match must never return a filter its document does not satisfy — while
// churners register fresh IDs into the registrars' covers and take them out
// again, so slots are vacated and reused under the matchers, and register and
// unregister the only member of two-term covers, so covers retire and their
// IDs come back for others, and a namer registers MatchAll filters over
// terms no filter named before, so the dictionary grows under matchers
// reading it — and the final state must reflect every registration that
// wasn't removed.
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
		churners  = 2
		matchers  = 4
		perWriter = 150
		perChurn  = 400
		perNamer  = 1500
		reuseSigs = 8
		perReuse  = 2000
	)
	terms := make([]string, 16)
	for i := range terms {
		terms[i] = fmt.Sprintf("w%d", i)
	}
	var named atomic.Int64 // the namer's last fresh term
	// defs records each ID's definition before it is first registered; every
	// ID here is registered with one definition only. A match result names
	// its filter by ID, subscriber and mode, and is held to this record.
	var defs sync.Map
	register := func(f model.Filter, postingTerms []string) error {
		defs.Store(f.ID, f)
		return ix.Register(f, postingTerms)
	}
	// phantom returns why m, a match for doc, is wrong, or "".
	phantom := func(m model.Filter, doc *model.Document) string {
		v, ok := defs.Load(m.ID)
		if !ok {
			return "never registered"
		}
		f := v.(model.Filter)
		if m.Subscriber != f.Subscriber || m.Mode != f.Mode || m.Terms != nil {
			return fmt.Sprintf("names another definition than %+v", f)
		}
		if !evaluateRef(&f, doc.TermSet()) {
			return fmt.Sprintf("its definition %+v does not match", f)
		}
		return ""
	}
	var writerWg, matcherWg sync.WaitGroup
	stop := make(chan struct{})
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		// Each filter names one new term and leaves once the next one is in.
		for i := 1; i <= perNamer+1; i++ {
			id := model.FilterID(200000 + i)
			if i <= perNamer {
				f := model.Filter{ID: id, Subscriber: "namer", Terms: model.SortTerms([]string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)}), Mode: model.MatchAll}
				if err := register(f, f.Terms[:1]); err != nil {
					t.Errorf("register %v: %v", id, err)
					return
				}
				named.Store(int64(i))
			}
			if err := ix.Unregister(id - 1); err != nil {
				t.Errorf("unregister %v: %v", id-1, err)
				return
			}
		}
	}()
	matcherWg.Add(1)
	go func() {
		defer matcherWg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := named.Load()
			doc := model.Document{ID: 2, Terms: model.SortTerms([]string{fmt.Sprintf("n%d", n), fmt.Sprintf("n%d", n+1), terms[rng.Intn(len(terms))]})}
			fs, _, err := ix.MatchTerms(&doc, doc.Terms)
			if err != nil {
				t.Errorf("match terms: %v", err)
				return
			}
			for _, m := range fs {
				if why := phantom(m, &doc); why != "" {
					t.Errorf("phantom match: %+v for document %v: %s", m, doc.Terms, why)
					return
				}
			}
		}
	}()
	// Cover-ID reuse: a few distinct signatures over their own terms, each
	// held by one filter at a time, so every registration creates a cover
	// and every unregistration retires one, while a matcher scans the same
	// terms. A posting entry names its cover by ID alone: an ID handed to a
	// new cover while a call could still take it for the old one would show
	// as a phantom match.
	reuseSig := func(k int) ([]string, model.MatchMode) {
		terms := model.SortTerms([]string{fmt.Sprintf("r%d", k), fmt.Sprintf("r%d", (k+1)%reuseSigs), fmt.Sprintf("r%d", (k+3)%reuseSigs)})
		if k%2 == 1 {
			return terms, model.MatchAny
		}
		return terms, model.MatchAll
	}
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		for i := 0; i < perReuse; i++ {
			terms, mode := reuseSig(i % reuseSigs)
			f := model.Filter{ID: model.FilterID(300000 + i), Subscriber: fmt.Sprintf("reuse%d", i%reuseSigs), Terms: terms, Mode: mode}
			if err := register(f, f.Terms); err != nil {
				t.Errorf("register %v: %v", f.ID, err)
				return
			}
			if err := ix.Unregister(f.ID); err != nil {
				t.Errorf("unregister %v: %v", f.ID, err)
				return
			}
		}
	}()
	matcherWg.Add(1)
	go func() {
		defer matcherWg.Done()
		rng := rand.New(rand.NewSource(77))
		for {
			select {
			case <-stop:
				return
			default:
			}
			var doc model.Document
			for len(doc.Terms) < 2 {
				doc.Terms = nil
				for k := range reuseSigs {
					if rng.Intn(2) == 0 {
						doc.Terms = append(doc.Terms, fmt.Sprintf("r%d", k))
					}
				}
			}
			doc.ID, doc.Terms = 3, model.SortTerms(doc.Terms)
			for _, query := range [][]string{doc.Terms, doc.Terms[:1]} {
				fs, _, err := ix.MatchTerms(&doc, query)
				if err != nil {
					t.Errorf("match terms: %v", err)
					return
				}
				for _, m := range fs {
					if why := phantom(m, &doc); why != "" {
						t.Errorf("phantom match: %+v for document %v: %s", m, doc.Terms, why)
						return
					}
				}
			}
		}
	}()
	for c := 0; c < churners; c++ {
		writerWg.Add(1)
		go func(c int) {
			defer writerWg.Done()
			rng := rand.New(rand.NewSource(int64(50 + c)))
			for i := 0; i < perChurn; i++ {
				id := model.FilterID(100000 + c*perChurn + i)
				f := model.Filter{ID: id, Subscriber: "churn", Terms: []string{terms[rng.Intn(len(terms))]}, Mode: model.MatchAny}
				if i%2 == 1 {
					f.Terms = model.SortTerms([]string{terms[rng.Intn(4)], terms[4+rng.Intn(4)]})
					f.Mode = model.MatchAll
				}
				if err := register(f, f.Terms); err != nil {
					t.Errorf("register %v: %v", id, err)
					return
				}
				if err := ix.Unregister(id); err != nil {
					t.Errorf("unregister %v: %v", id, err)
					return
				}
			}
		}(c)
	}
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < perWriter; i++ {
				id := model.FilterID(w*perWriter + i + 1)
				term := terms[rng.Intn(len(terms))]
				f := model.Filter{ID: id, Subscriber: "s", Terms: []string{term}, Mode: model.MatchAny}
				if err := register(f, f.Terms); err != nil {
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
					if err := register(f, f.Terms); err != nil {
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
				for _, query := range [][]string{doc.Terms[:1], doc.Terms} {
					fs, _, err := ix.MatchTerms(&doc, query)
					if err != nil {
						t.Errorf("match terms: %v", err)
						return
					}
					for _, m := range fs {
						if why := phantom(m, &doc); why != "" {
							t.Errorf("phantom match: %+v for document %v: %s", m, doc.Terms, why)
							return
						}
					}
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
	// Nothing of the churn is left: one posting per registration, every
	// filter in a cover.
	if got, want := ix.NumPostings(), writers*perWriter; got != want {
		t.Fatalf("NumPostings = %d, want %d", got, want)
	}
	if cs := ix.CoverStats(); cs.CoveredFilters != writers*perWriter || cs.Covers != len(terms) || cs.LogicalPostings != writers*perWriter {
		t.Fatalf("CoverStats = %+v, want %d filters in %d covers", cs, writers*perWriter, len(terms))
	}
	// The reuse input and the namer each create a cover per registration,
	// perReuse + perNamer in all, besides the others': fewer IDs handed out
	// means retired IDs came back while the matchers ran. How many come back
	// depends on the schedule — a matcher descheduled mid-call holds its
	// grace phase open — so the bound is what was created, not a count.
	created := uint32(perReuse + perNamer)
	if seq := ix.coverIDs.seq.Load(); seq >= created {
		t.Fatalf("%d cover IDs handed out for more than %d covers created: no ID was reused", seq, created)
	} else {
		t.Logf("%d cover IDs handed out for more than %d covers created", seq, created)
	}
}
