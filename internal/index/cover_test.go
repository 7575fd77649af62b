package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/store"
)

// This file is the oracle-equivalence battery for the aggregated
// (covering) engine: every test drives identical operations into an
// aggregated index (New) and a flat per-filter index (NewFlat) and holds
// all three matchers to byte-identical sorted match sets and identical
// MatchStats, including register/unregister interleavings that split and
// merge covers.
//
// What MatchStats.Evaluated means where the aggregated engine skips a
// container — one evaluation of the cover's predicate said no match, and no
// member was looked at: the filters that verdict decided still count. It
// stays what the flat engine reports, the number of distinct filters with a
// live definition that the call's posting lists reach: a skipped container
// adds its live members (its cardinality, or its intersection with the
// cover's alive set when the cover has dead slots), once per call however
// many of the call's terms reach the cover. Only tests read the field;
// TestSkippedContainerEvaluated pins the cases.

// enginePair is an aggregated index and its flat oracle fed the same
// operations.
type enginePair struct {
	agg  *Index
	flat *Index
}

func newEnginePair(t *testing.T) *enginePair {
	t.Helper()
	sa, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sf, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := New(sa)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewFlat(sf)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Aggregated() || flat.Aggregated() {
		t.Fatal("engine selection broken: New must aggregate, NewFlat must not")
	}
	return &enginePair{agg: agg, flat: flat}
}

func (p *enginePair) register(t *testing.T, f model.Filter, postingTerms []string) {
	t.Helper()
	if err := p.agg.Register(f, postingTerms); err != nil {
		t.Fatalf("agg register %v: %v", f.ID, err)
	}
	if err := p.flat.Register(f, postingTerms); err != nil {
		t.Fatalf("flat register %v: %v", f.ID, err)
	}
}

func (p *enginePair) ensure(t *testing.T, f model.Filter, postingTerms []string) {
	t.Helper()
	aCreated, err := p.agg.EnsureRegistered(f, postingTerms)
	if err != nil {
		t.Fatalf("agg ensure %v: %v", f.ID, err)
	}
	fCreated, err := p.flat.EnsureRegistered(f, postingTerms)
	if err != nil {
		t.Fatalf("flat ensure %v: %v", f.ID, err)
	}
	if aCreated != fCreated {
		t.Fatalf("ensure %v: created diverged: agg=%v flat=%v", f.ID, aCreated, fCreated)
	}
}

func (p *enginePair) unregister(t *testing.T, id model.FilterID) {
	t.Helper()
	if err := p.agg.Unregister(id); err != nil {
		t.Fatalf("agg unregister %v: %v", id, err)
	}
	if err := p.flat.Unregister(id); err != nil {
		t.Fatalf("flat unregister %v: %v", id, err)
	}
}

func (p *enginePair) dropTerm(t *testing.T, term string) {
	t.Helper()
	if err := p.agg.DropTerm(term); err != nil {
		t.Fatalf("agg drop %q: %v", term, err)
	}
	if err := p.flat.DropTerm(term); err != nil {
		t.Fatalf("flat drop %q: %v", term, err)
	}
}

func (p *enginePair) observe(d *model.Document) {
	p.agg.ObserveDocument(d)
	p.flat.ObserveDocument(d)
}

// compareAll matches doc through MatchTerm (for every doc term),
// MatchTerms, and MatchSIFT on both engines and fails on any divergence
// in the sorted match set or the stats.
func (p *enginePair) compareAll(t *testing.T, doc *model.Document) {
	t.Helper()
	for _, term := range doc.Terms {
		am, ast, err := p.agg.MatchTerm(doc, term)
		if err != nil {
			t.Fatalf("agg MatchTerm(%q): %v", term, err)
		}
		fm, fst, err := p.flat.MatchTerm(doc, term)
		if err != nil {
			t.Fatalf("flat MatchTerm(%q): %v", term, err)
		}
		if !bytes.Equal(encodeMatches(am, ast), encodeMatches(fm, fst)) {
			t.Fatalf("MatchTerm(%v, %q) diverged:\n agg:  %v %+v\n flat: %v %+v",
				doc.Terms, term, am, ast, fm, fst)
		}
	}
	am, ast, err := p.agg.MatchTerms(doc, doc.Terms)
	if err != nil {
		t.Fatalf("agg MatchTerms: %v", err)
	}
	fm, fst, err := p.flat.MatchTerms(doc, doc.Terms)
	if err != nil {
		t.Fatalf("flat MatchTerms: %v", err)
	}
	if !bytes.Equal(encodeMatches(am, ast), encodeMatches(fm, fst)) {
		t.Fatalf("MatchTerms(%v) diverged:\n agg:  %v %+v\n flat: %v %+v",
			doc.Terms, am, ast, fm, fst)
	}
	am, ast, err = p.agg.MatchSIFT(doc)
	if err != nil {
		t.Fatalf("agg MatchSIFT: %v", err)
	}
	fm, fst, err = p.flat.MatchSIFT(doc)
	if err != nil {
		t.Fatalf("flat MatchSIFT: %v", err)
	}
	if !bytes.Equal(encodeMatches(am, ast), encodeMatches(fm, fst)) {
		t.Fatalf("MatchSIFT(%v) diverged:\n agg:  %v %+v\n flat: %v %+v",
			doc.Terms, am, ast, fm, fst)
	}
	if a, f := p.agg.NumFilters(), p.flat.NumFilters(); a != f {
		t.Fatalf("NumFilters diverged: agg=%d flat=%d", a, f)
	}
	if a, f := p.agg.NumPostings(), p.flat.NumPostings(); a != f {
		t.Fatalf("NumPostings diverged: agg=%d flat=%d", a, f)
	}
}

func anyFilter(id model.FilterID, terms ...string) model.Filter {
	return model.Filter{ID: id, Subscriber: fmt.Sprintf("s%d", id%7), Terms: terms, Mode: model.MatchAny}
}

func allFilter(id model.FilterID, terms ...string) model.Filter {
	return model.Filter{ID: id, Subscriber: fmt.Sprintf("s%d", id%7), Terms: terms, Mode: model.MatchAll}
}

// TestCoverSharingAndStats pins the basic aggregation contract: filters
// with the same signature share one cover and one posting entry per term,
// and CoverStats reports the physical savings while the logical counters
// stay flat-identical.
func TestCoverSharingAndStats(t *testing.T) {
	p := newEnginePair(t)
	for i := 1; i <= 10; i++ {
		p.register(t, allFilter(model.FilterID(i), "go", "news"), []string{"go", "news"})
	}
	cs := p.agg.CoverStats()
	if cs.Covers != 1 {
		t.Fatalf("Covers = %d, want 1 (identical signatures must share)", cs.Covers)
	}
	if cs.CoveredFilters != 10 {
		t.Fatalf("CoveredFilters = %d, want 10", cs.CoveredFilters)
	}
	if cs.StoredEntries != 2 {
		t.Fatalf("StoredEntries = %d, want 2 (one per term)", cs.StoredEntries)
	}
	if cs.LogicalPostings != 20 || cs.PostingsSaved != 18 {
		t.Fatalf("LogicalPostings/PostingsSaved = %d/%d, want 20/18", cs.LogicalPostings, cs.PostingsSaved)
	}
	if cs.ExpansionFanoutMilli != 10000 {
		t.Fatalf("ExpansionFanoutMilli = %d, want 10000", cs.ExpansionFanoutMilli)
	}
	p.compareAll(t, &model.Document{ID: 1, Terms: []string{"go", "news"}})
	p.compareAll(t, &model.Document{ID: 2, Terms: []string{"go"}})
	p.compareAll(t, &model.Document{ID: 3, Terms: []string{"rust"}})

	// A different signature over the same terms is a different cover.
	p.register(t, anyFilter(500, "go", "news"), []string{"go", "news"})
	if cs := p.agg.CoverStats(); cs.Covers != 2 {
		t.Fatalf("Covers after second signature = %d, want 2", cs.Covers)
	}
	p.compareAll(t, &model.Document{ID: 4, Terms: []string{"go"}})
}

// TestUnregisterCoverPromotesSurvivor is the regression test for the
// covering-filter unregister fix: removing the cover's representative must
// promote a surviving covered filter and keep every remaining member
// matchable — no orphaned postings, no phantom matches of the removed
// filter.
func TestUnregisterCoverPromotesSurvivor(t *testing.T) {
	p := newEnginePair(t)
	sig := anyFilter(1, "alpha", "beta")
	p.register(t, anyFilter(1, "alpha", "beta"), []string{"alpha", "beta"})
	p.register(t, anyFilter(2, "alpha", "beta"), []string{"alpha", "beta"})
	p.register(t, anyFilter(3, "alpha", "beta"), []string{"alpha", "beta"})
	if rep, ok := p.agg.RepFor(sig); !ok || rep != 1 {
		t.Fatalf("RepFor = %v,%v, want f1 (first member is representative)", rep, ok)
	}

	// Unregister the covering filter itself.
	p.unregister(t, 1)
	rep, ok := p.agg.RepFor(sig)
	if !ok {
		t.Fatal("cover lost its representative: no survivor was promoted")
	}
	if rep != 2 && rep != 3 {
		t.Fatalf("promoted representative = %v, want a surviving member (f2 or f3)", rep)
	}
	if cs := p.agg.CoverStats(); cs.Covers != 1 || cs.CoveredFilters != 2 {
		t.Fatalf("CoverStats after promotion = %+v, want 1 cover / 2 members", cs)
	}
	doc := &model.Document{ID: 1, Terms: []string{"alpha"}}
	matched, _, err := p.agg.MatchTerm(doc, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[model.FilterID]bool{}
	for _, m := range matched {
		ids[m.ID] = true
	}
	if ids[1] {
		t.Fatal("phantom match: unregistered covering filter f1 still matches")
	}
	if !ids[2] || !ids[3] {
		t.Fatalf("orphaned postings: survivors not matchable, got %v", matched)
	}
	p.compareAll(t, doc)

	// Remove the survivors too: the cover empties and stops counting.
	p.unregister(t, 2)
	p.unregister(t, 3)
	if _, ok := p.agg.RepFor(sig); ok {
		t.Fatal("emptied cover still has a representative")
	}
	if cs := p.agg.CoverStats(); cs.Covers != 0 || cs.CoveredFilters != 0 {
		t.Fatalf("CoverStats after emptying = %+v, want 0/0", cs)
	}
	p.compareAll(t, doc)

	// Revive one member: the cover repopulates and the revived member
	// becomes representative.
	p.register(t, anyFilter(3, "alpha", "beta"), []string{"alpha", "beta"})
	if rep, ok := p.agg.RepFor(sig); !ok || rep != 3 {
		t.Fatalf("RepFor after revive = %v,%v, want f3", rep, ok)
	}
	p.compareAll(t, doc)
}

// TestCoverSplitMergeInterleavings walks scripted re-registration
// interleavings that move a filter between covers — split (same ID
// re-registered under a new signature), merge (back to the original),
// and multi-hop chains through three signatures with overlapping posting
// terms — comparing every matcher against the flat oracle at each step.
func TestCoverSplitMergeInterleavings(t *testing.T) {
	probes := []*model.Document{
		{ID: 1, Terms: []string{"a"}},
		{ID: 2, Terms: []string{"b"}},
		{ID: 3, Terms: []string{"c"}},
		{ID: 4, Terms: []string{"a", "b"}},
		{ID: 5, Terms: []string{"a", "b", "c"}},
	}
	check := func(t *testing.T, p *enginePair) {
		t.Helper()
		for _, d := range probes {
			p.compareAll(t, &model.Document{ID: d.ID, Terms: d.Terms})
		}
	}

	t.Run("split-then-merge", func(t *testing.T) {
		p := newEnginePair(t)
		p.register(t, anyFilter(1, "a", "b"), []string{"a", "b"})
		p.register(t, anyFilter(2, "a", "b"), []string{"a", "b"})
		check(t, p)
		// Split: f2 leaves for a new signature; posting term "a" overlaps.
		p.register(t, anyFilter(2, "a", "c"), []string{"a", "c"})
		check(t, p)
		if cs := p.agg.CoverStats(); cs.Covers != 2 {
			t.Fatalf("Covers after split = %d, want 2", cs.Covers)
		}
		// Merge: f2 returns to the original signature.
		p.register(t, anyFilter(2, "a", "b"), []string{"a", "b"})
		check(t, p)
	})

	t.Run("multi-hop-rehoming", func(t *testing.T) {
		p := newEnginePair(t)
		// f1 hops through three signatures, always posting under "a"; stale
		// bits from any earlier cover must be re-homed, not duplicated.
		p.register(t, anyFilter(1, "a"), []string{"a"})
		p.register(t, anyFilter(1, "a", "b"), []string{"a", "b"})
		check(t, p)
		p.register(t, anyFilter(1, "a", "c"), []string{"a", "c"})
		check(t, p)
		p.register(t, anyFilter(1, "a"), []string{"a"})
		check(t, p)
	})

	t.Run("unregister-then-new-signature", func(t *testing.T) {
		p := newEnginePair(t)
		p.register(t, allFilter(1, "a", "b"), []string{"a", "b"})
		p.register(t, allFilter(2, "a", "b"), []string{"a", "b"})
		p.unregister(t, 1)
		check(t, p)
		// Tombstoned f1 returns under a different signature with an
		// overlapping posting term: the old cover's stale bit must clear.
		p.register(t, anyFilter(1, "a", "c"), []string{"a", "c"})
		check(t, p)
	})

	t.Run("partial-posting-terms", func(t *testing.T) {
		p := newEnginePair(t)
		// Home nodes register only their responsible subset of terms; the
		// cover still spans the full signature.
		p.register(t, allFilter(1, "a", "b", "c"), []string{"a"})
		p.register(t, allFilter(2, "a", "b", "c"), []string{"b"})
		p.register(t, allFilter(3, "a", "b", "c"), []string{"a", "c"})
		check(t, p)
		if cs := p.agg.CoverStats(); cs.Covers != 1 {
			t.Fatalf("Covers = %d, want 1 (posting subset must not split the cover)", cs.Covers)
		}
		p.unregister(t, 3)
		check(t, p)
	})

	t.Run("drop-term-mid-cover", func(t *testing.T) {
		p := newEnginePair(t)
		p.register(t, anyFilter(1, "a", "b"), []string{"a", "b"})
		p.register(t, anyFilter(2, "a", "b"), []string{"a", "b"})
		p.dropTerm(t, "a")
		check(t, p)
		p.register(t, anyFilter(3, "a", "b"), []string{"a", "b"})
		check(t, p)
	})

	t.Run("stale-member-at-match-time", func(t *testing.T) {
		p := newEnginePair(t)
		// f2 leaves {a,b} for a signature posted under other terms only, so
		// its bits under a and b stay in the old cover while its definition
		// says something else: the old cover's verdict must not decide it.
		p.register(t, allFilter(1, "a", "b"), []string{"a", "b"})
		p.register(t, allFilter(2, "a", "b"), []string{"a", "b"})
		p.register(t, anyFilter(2, "c", "d"), []string{"c", "d"})
		check(t, p)
		// {a,c}: the old cover says no match, f2's own definition matches.
		p.compareAll(t, &model.Document{ID: 6, Terms: []string{"a", "c"}})
		p.unregister(t, 2)
		check(t, p)
		p.register(t, allFilter(2, "a", "b"), []string{"a", "b"})
		check(t, p)
		p.compareAll(t, &model.Document{ID: 7, Terms: []string{"a", "c"}})
	})

	t.Run("no-document-term-in-dictionary", func(t *testing.T) {
		p := newEnginePair(t)
		p.register(t, anyFilter(1, "a", "b"), []string{"a", "b"})
		p.register(t, allFilter(2, "a", "c"), []string{"a"})
		p.compareAll(t, &model.Document{ID: 6, Terms: []string{"x", "y", "z"}})
		p.compareAll(t, &model.Document{ID: 7, Terms: []string{"x"}})
		// Half known, half not; and a query term outside the document.
		p.compareAll(t, &model.Document{ID: 8, Terms: []string{"a", "x", "c", "y"}})
		for _, ix := range []*Index{p.agg, p.flat} {
			fs, st, err := ix.MatchTerms(&model.Document{ID: 9, Terms: []string{"x", "y"}}, []string{"a", "x"})
			if err != nil || len(fs) != 0 || st.PostingLists != 1 || st.Postings != 2 || st.Evaluated != 2 {
				t.Fatalf("aggregated=%v: query term outside the document: %v %+v %v", ix.Aggregated(), fs, st, err)
			}
		}
	})

	t.Run("ensure-registered-replay", func(t *testing.T) {
		p := newEnginePair(t)
		f := allFilter(7, "a", "b")
		// Replay the same migration batch three times: idempotent counters,
		// one cover member, equivalent matches.
		for i := 0; i < 3; i++ {
			p.ensure(t, f, []string{"a", "b"})
		}
		check(t, p)
		if cs := p.agg.CoverStats(); cs.CoveredFilters != 1 || cs.StoredEntries != 2 {
			t.Fatalf("CoverStats after replay = %+v, want 1 member / 2 entries", cs)
		}
		// Replay racing an unregister: the copy comes back, still exact.
		p.unregister(t, 7)
		p.ensure(t, f, []string{"a", "b"})
		check(t, p)
	})
}

// TestAggFlatOracleQuick is the random-walk half of the battery: a
// testing/quick property driving long random interleavings of register
// (fresh and re-register), unregister, EnsureRegistered replay, drop-term
// and observe into both engines with match comparison on random
// documents after every mutation batch.
func TestAggFlatOracleQuick(t *testing.T) {
	vocab := make([]string, 20)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newEnginePair(t)
		pick := func(n int) []string {
			out := map[string]struct{}{}
			for len(out) < n {
				out[vocab[rng.Intn(len(vocab))]] = struct{}{}
			}
			terms := make([]string, 0, n)
			for w := range out {
				terms = append(terms, w)
			}
			return model.SortTerms(terms)
		}
		randFilter := func(id model.FilterID) model.Filter {
			f := model.Filter{
				ID:         id,
				Subscriber: fmt.Sprintf("s%d", rng.Intn(4)),
				Terms:      pick(1 + rng.Intn(3)),
			}
			switch rng.Intn(3) {
			case 0:
				f.Mode = model.MatchAny
			case 1:
				f.Mode = model.MatchAll
			default:
				f.Mode = model.MatchThreshold
				f.Threshold = 0.2 + 0.6*rng.Float64()
			}
			return f
		}
		var ids []model.FilterID
		nextID := model.FilterID(1)
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(12); {
			case op < 4: // fresh register
				f := randFilter(nextID)
				nextID++
				terms := f.Terms
				if len(terms) > 1 && rng.Intn(2) == 0 {
					terms = terms[:1+rng.Intn(len(terms))]
				}
				p.register(t, f, terms)
				ids = append(ids, f.ID)
			case op < 6 && len(ids) > 0: // re-register an existing ID (cover split/merge)
				f := randFilter(ids[rng.Intn(len(ids))])
				p.register(t, f, f.Terms)
			case op < 8 && len(ids) > 0: // unregister
				p.unregister(t, ids[rng.Intn(len(ids))])
			case op == 8 && len(ids) > 0: // migration replay
				f := randFilter(ids[rng.Intn(len(ids))])
				p.ensure(t, f, f.Terms)
			case op == 9: // drop a term
				p.dropTerm(t, vocab[rng.Intn(len(vocab))])
			case op == 10: // idf statistics
				d := model.Document{ID: uint64(step), Terms: pick(1 + rng.Intn(5))}
				p.observe(&d)
			default: // match and compare
				d := model.Document{ID: uint64(step), Terms: pick(1 + rng.Intn(5))}
				p.compareAll(t, &d)
			}
		}
		p.compareAll(t, &model.Document{ID: 999, Terms: vocab})
		return !t.Failed()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAggRestartRecoversCovers exercises the recovery path: covers are
// rebuilt from stored definitions, defless posting entries land in the
// orphan cover (flat tombstone parity, NumPostings included), and a
// post-restart re-registration of an orphaned ID re-homes its bits.
func TestAggRestartRecoversCovers(t *testing.T) {
	dirA, dirF := t.TempDir(), t.TempDir()
	open := func(dir string, build func(*store.Store) (*Index, error)) (*Index, *store.Store) {
		t.Helper()
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := build(s)
		if err != nil {
			t.Fatal(err)
		}
		return ix, s
	}
	agg, sa := open(dirA, New)
	flat, sf := open(dirF, NewFlat)
	p := &enginePair{agg: agg, flat: flat}
	for i := 1; i <= 20; i++ {
		p.register(t, anyFilter(model.FilterID(i), "x", fmt.Sprintf("t%d", i%4)), []string{"x", fmt.Sprintf("t%d", i%4)})
	}
	// Tombstones: unregister a third of the filters, postings stay.
	for i := 1; i <= 20; i += 3 {
		p.unregister(t, model.FilterID(i))
	}
	if err := sa.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := sf.FlushAll(); err != nil {
		t.Fatal(err)
	}

	agg2, _ := open(dirA, New)
	flat2, _ := open(dirF, NewFlat)
	p2 := &enginePair{agg: agg2, flat: flat2}
	if a, f := agg2.NumPostings(), flat2.NumPostings(); a != f {
		t.Fatalf("recovered NumPostings diverged: agg=%d flat=%d", a, f)
	}
	p2.compareAll(t, &model.Document{ID: 1, Terms: []string{"x"}})
	p2.compareAll(t, &model.Document{ID: 2, Terms: []string{"t1", "t2"}})

	// Re-register a tombstoned ID under a new signature with an
	// overlapping posting term: its orphan bit must re-home, not double.
	p2.register(t, allFilter(1, "x", "fresh"), []string{"x", "fresh"})
	p2.compareAll(t, &model.Document{ID: 3, Terms: []string{"x", "fresh"}})
	p2.compareAll(t, &model.Document{ID: 4, Terms: []string{"x"}})
}

// TestSkippedContainerEvaluated pins what Evaluated reports for containers
// the aggregated engine skips on the cover's verdict (see the file comment),
// with the flat engine as the reference on every probe.
func TestSkippedContainerEvaluated(t *testing.T) {
	p := newEnginePair(t)
	for i := 1; i <= 10; i++ {
		p.register(t, allFilter(model.FilterID(i), "go", "news"), []string{"go", "news"})
	}
	p.register(t, allFilter(11, "go", "rust"), []string{"go"})
	evaluated := func(doc *model.Document, terms []string) int {
		t.Helper()
		p.compareAll(t, doc)
		fs, st, err := p.agg.MatchTerms(doc, terms)
		if err != nil || len(fs) != 0 {
			t.Fatalf("MatchTerms(%v, %v) = %v, %v; want no match", doc.Terms, terms, fs, err)
		}
		return st.Evaluated
	}
	// Neither cover matches {go}: both containers under "go" are skipped
	// and their eleven members counted.
	doc := &model.Document{ID: 1, Terms: []string{"go", "other"}}
	if n := evaluated(doc, []string{"go"}); n != 11 {
		t.Fatalf("one term: Evaluated = %d, want 11", n)
	}
	// The ten-member cover is reached under both terms: counted once.
	if n := evaluated(doc, []string{"go", "news"}); n != 11 {
		t.Fatalf("two terms: Evaluated = %d, want 11", n)
	}
	if n := evaluated(doc, []string{"news", "go", "news"}); n != 11 {
		t.Fatalf("repeated terms: Evaluated = %d, want 11", n)
	}
	// Dead slots: the container still holds ten bits, seven of them live.
	for _, id := range []model.FilterID{2, 5, 9} {
		p.unregister(t, id)
	}
	if n := evaluated(doc, []string{"go", "news"}); n != 8 {
		t.Fatalf("three members unregistered: Evaluated = %d, want 8", n)
	}
	// A container holding only part of the cover's live members: f12 joins
	// the cover posted under "news" alone, so "go" reaches seven of eight.
	p.register(t, allFilter(12, "go", "news"), []string{"news"})
	if n := evaluated(doc, []string{"go", "news"}); n != 9 {
		t.Fatalf("partial container first: Evaluated = %d, want 9", n)
	}
	if n := evaluated(doc, []string{"news", "go"}); n != 9 {
		t.Fatalf("full container first: Evaluated = %d, want 9", n)
	}
	// An emptied cover: its one bit is a tombstone and adds nothing to the
	// seven live members "go" reaches through the other cover.
	p.unregister(t, 11)
	if n := evaluated(&model.Document{ID: 2, Terms: []string{"go", "rust"}}, []string{"go"}); n != 7 {
		t.Fatalf("emptied cover: Evaluated = %d, want 7", n)
	}
}

// TestNumFiltersCountsDefinitions is the regression test for the filter
// count the allocator reads (StatsResp.Filters): it counts definitions, so
// registering one ID three times — same signature, then a new one — reads
// one, on both engines, and only an unregister takes it back to zero.
func TestNumFiltersCountsDefinitions(t *testing.T) {
	p := newEnginePair(t)
	p.register(t, anyFilter(1, "a", "b"), []string{"a"})
	p.register(t, anyFilter(1, "a", "b"), []string{"a", "b"})
	p.register(t, allFilter(1, "a", "c"), []string{"a"})
	want := func(n int) {
		t.Helper()
		for _, ix := range []*Index{p.agg, p.flat} {
			if got := ix.NumFilters(); got != n {
				t.Fatalf("aggregated=%v: NumFilters = %d, want %d", ix.Aggregated(), got, n)
			}
		}
	}
	want(1)
	p.ensure(t, allFilter(1, "a", "c"), []string{"a", "c"})
	p.register(t, anyFilter(2, "a"), []string{"a"})
	want(2)
	p.unregister(t, 1)
	p.unregister(t, 1)
	want(1)
	p.ensure(t, anyFilter(1, "b"), []string{"b"})
	want(2)
}

// TestDictionaryBoundedByVocabulary churns registrations over a fixed
// vocabulary — fresh IDs, re-registrations under new signatures,
// unregisters — and checks that the term dictionary stops growing once
// every term has been seen: IDs are never reclaimed, so the bound is the
// distinct terms ever registered, not the operations performed.
func TestDictionaryBoundedByVocabulary(t *testing.T) {
	ix := newIndex(t)
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("v%d", i)
	}
	rng := rand.New(rand.NewSource(7))
	round := func() {
		for i := 0; i < 400; i++ {
			id := model.FilterID(1 + rng.Intn(120))
			if rng.Intn(3) == 0 {
				if err := ix.Unregister(id); err != nil {
					t.Fatal(err)
				}
				continue
			}
			terms := make([]string, 1+rng.Intn(4))
			for j := range terms {
				terms[j] = vocab[rng.Intn(len(vocab))]
			}
			f := model.Filter{ID: id, Subscriber: "s", Terms: model.SortTerms(terms), Mode: model.MatchAll}
			if err := ix.Register(f, f.Terms[:1]); err != nil {
				t.Fatal(err)
			}
		}
		// Matching maps documents through the dictionary but never adds to it.
		doc := &model.Document{ID: 1, Terms: []string{"v1", "v2", "never-registered"}}
		if _, _, err := ix.MatchTerms(doc, doc.Terms); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if got := ix.agg.dict.size(); got != len(vocab) {
		t.Fatalf("after the first round the dictionary holds %d terms, want the whole %d-term vocabulary", got, len(vocab))
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if got := ix.agg.dict.size(); got != len(vocab) {
		t.Fatalf("dictionary grew to %d terms over a %d-term vocabulary", got, len(vocab))
	}
}

// TestCoverSigCollisionChain pins the signature table's collision handling:
// two signatures that share a sigHash live on one chain, and a lookup
// compares the whole signature, not the hash. A 64-bit FNV collision cannot
// be produced on demand, so the test plants a foreign cover at the head of a
// real signature's chain.
func TestCoverSigCollisionChain(t *testing.T) {
	ix := newIndex(t)
	fa, fb := anyFilter(1, "a", "b"), allFilter(2, "c", "d", "e")
	for _, f := range []model.Filter{fa, fb} {
		if err := ix.Register(f, f.Terms); err != nil {
			t.Fatal(err)
		}
	}
	a := ix.agg
	ca, cb := a.coverOf(&fa, false), a.coverOf(&fb, false)
	if ca == nil || cb == nil || ca == cb {
		t.Fatalf("covers = %p, %p; want two distinct covers", ca, cb)
	}
	h := sigHash(ca.mode, ca.threshold, ca.ids)
	sh := &a.sig[h&shardMask]
	sh.covers[h] = &cover{id: a.seq.Add(1), mode: cb.mode, ids: cb.ids, terms: cb.terms, next: sh.covers[h]}
	if got := a.coverOf(&fa, false); got != ca {
		t.Fatalf("lookup behind a colliding cover = %p, want %p", got, ca)
	}
	if rep, ok := ix.RepFor(fa); !ok || rep != 1 {
		t.Fatalf("RepFor = %v,%v, want f1", rep, ok)
	}
	// Same terms, other mode: a different signature.
	if ca.hasSig(model.MatchAll, 0, ca.ids) || !ca.hasSig(model.MatchAny, 0, ca.ids) {
		t.Fatal("hasSig does not tell MatchAll{a,b} from MatchAny{a,b}")
	}
}
