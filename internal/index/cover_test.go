package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/store"
)

// This file is the oracle-equivalence battery for the covering index: every
// test drives identical operations into an Index (New) and the plain-map
// refIndex (shard_equiv_test.go) and holds both matchers to byte-identical
// sorted match sets and identical MatchStats, including register/unregister
// interleavings that split and merge covers.
//
// What MatchStats.Evaluated means where the index skips a container — one
// evaluation of the cover's predicate said no match, and no member was
// looked at: the filters that verdict decided still count. It stays what the
// reference reports, the number of distinct registered filters that the
// call's posting lists reach: a skipped container adds its members (its
// cardinality), once per call however many of the call's terms reach the
// cover. Only tests read the field; TestSkippedContainerEvaluated pins the
// cases.

// enginePair is an index and its reference fed the same operations.
type enginePair struct {
	ix  *Index
	ref *refIndex
}

func newEnginePair(t *testing.T) *enginePair {
	t.Helper()
	return &enginePair{ix: newIndex(t), ref: newRefIndex()}
}

func (p *enginePair) register(t *testing.T, f model.Filter, postingTerms []string) {
	t.Helper()
	if err := p.ix.Register(f, postingTerms); err != nil {
		t.Fatalf("register %v: %v", f.ID, err)
	}
	p.ref.register(f, postingTerms)
}

func (p *enginePair) ensure(t *testing.T, f model.Filter, postingTerms []string) {
	t.Helper()
	created, err := p.ix.EnsureRegistered(f, postingTerms)
	if err != nil {
		t.Fatalf("ensure %v: %v", f.ID, err)
	}
	if want := p.ref.ensure(f, postingTerms); created != want {
		t.Fatalf("ensure %v: created = %v, reference %v", f.ID, created, want)
	}
}

func (p *enginePair) unregister(t *testing.T, id model.FilterID) {
	t.Helper()
	if err := p.ix.Unregister(id); err != nil {
		t.Fatalf("unregister %v: %v", id, err)
	}
	p.ref.unregister(id)
}

// matchDoc runs MatchTerms over all of doc's terms on both sides and fails
// on any divergence in the sorted match set or the stats. It returns the
// index's result.
func (p *enginePair) matchDoc(t *testing.T, doc *model.Document) ([]model.Filter, MatchStats) {
	t.Helper()
	m, st, err := p.ix.MatchTerms(doc, doc.Terms)
	if err != nil {
		t.Fatalf("MatchTerms: %v", err)
	}
	rm, rst := p.ref.matchTerms(doc, doc.Terms)
	if !bytes.Equal(encodeMatches(m, st), encodeMatches(rm, rst)) {
		t.Fatalf("MatchTerms(%v) diverged:\n index: %v %+v\n ref:   %v %+v",
			doc.Terms, m, st, rm, rst)
	}
	if err := matchedDefinitions(p.ix, p.ref, m); err != nil {
		t.Fatalf("MatchTerms(%v): %v", doc.Terms, err)
	}
	return m, st
}

// compareAll matches doc through MatchTerm (for every doc term) and then
// MatchTerms (matchDoc) on both sides and fails on any divergence in the sorted match set or the stats, or in the counters; then
// PostedUnder must name the same lists on both for every ID the document's
// terms reach. It returns the index's MatchTerms result.
func (p *enginePair) compareAll(t *testing.T, doc *model.Document) ([]model.Filter, MatchStats) {
	t.Helper()
	for _, term := range doc.Terms {
		m, st, err := p.ix.MatchTerm(doc, term)
		if err != nil {
			t.Fatalf("MatchTerm(%q): %v", term, err)
		}
		rm, rst := p.ref.matchTerm(doc, term)
		if !bytes.Equal(encodeMatches(m, st), encodeMatches(rm, rst)) {
			t.Fatalf("MatchTerm(%v, %q) diverged:\n index: %v %+v\n ref:   %v %+v",
				doc.Terms, term, m, st, rm, rst)
		}
		if err := matchedDefinitions(p.ix, p.ref, m); err != nil {
			t.Fatalf("MatchTerm(%v, %q): %v", doc.Terms, term, err)
		}
	}
	m, st := p.matchDoc(t, doc)
	if a, r := p.ix.NumFilters(), p.ref.numFilters(); a != r {
		t.Fatalf("NumFilters diverged: index=%d ref=%d", a, r)
	}
	if a, r := p.ix.NumPostings(), p.ref.numPostings; a != r {
		t.Fatalf("NumPostings diverged: index=%d ref=%d", a, r)
	}
	// Every ID on a list of the document's terms is posted under the same of
	// those terms on both sides.
	for _, term := range doc.Terms {
		for _, id := range p.ref.postings[term] {
			if a, r := p.ix.PostedUnder(id, doc.Terms), p.ref.postedUnder(id, doc.Terms); !slices.Equal(a, r) || !slices.Contains(r, term) {
				t.Fatalf("PostedUnder(%v, %v) diverged (ID taken from %q's list): index=%v ref=%v", id, doc.Terms, term, a, r)
			}
		}
	}
	return m, st
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
// stay the reference's.
func TestCoverSharingAndStats(t *testing.T) {
	p := newEnginePair(t)
	for i := 1; i <= 10; i++ {
		p.register(t, allFilter(model.FilterID(i), "go", "news"), []string{"go", "news"})
	}
	cs := p.ix.CoverStats()
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
	if cs := p.ix.CoverStats(); cs.Covers != 2 {
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
	if rep, ok := p.ix.RepFor(sig); !ok || rep != 1 {
		t.Fatalf("RepFor = %v,%v, want f1 (first member is representative)", rep, ok)
	}

	// Unregister the covering filter itself.
	p.unregister(t, 1)
	rep, ok := p.ix.RepFor(sig)
	if !ok {
		t.Fatal("cover lost its representative: no survivor was promoted")
	}
	if rep != 2 && rep != 3 {
		t.Fatalf("promoted representative = %v, want a surviving member (f2 or f3)", rep)
	}
	if cs := p.ix.CoverStats(); cs.Covers != 1 || cs.CoveredFilters != 2 {
		t.Fatalf("CoverStats after promotion = %+v, want 1 cover / 2 members", cs)
	}
	doc := &model.Document{ID: 1, Terms: []string{"alpha"}}
	matched, _, err := p.ix.MatchTerm(doc, "alpha")
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

	// Remove the survivors too: the cover empties and retires.
	p.unregister(t, 2)
	p.unregister(t, 3)
	if _, ok := p.ix.RepFor(sig); ok {
		t.Fatal("emptied cover still has a representative")
	}
	if cs := p.ix.CoverStats(); cs.Covers != 0 || cs.CoveredFilters != 0 || cs.StoredEntries != 0 {
		t.Fatalf("CoverStats after emptying = %+v, want 0/0/0", cs)
	}
	p.compareAll(t, doc)

	// Register one member again: a new cover, whose representative it is.
	p.register(t, anyFilter(3, "alpha", "beta"), []string{"alpha", "beta"})
	if rep, ok := p.ix.RepFor(sig); !ok || rep != 3 {
		t.Fatalf("RepFor after revive = %v,%v, want f3", rep, ok)
	}
	p.compareAll(t, doc)
}

// coverShape is what TestCoverShapes reads off a cover under its lock.
type coverShape struct {
	slots            int // slot table length (1 for an inline cover)
	members          int
	promoted         bool // coverMembers allocated
	rep              model.FilterID
	first            model.FilterID
	singletonsInStat int
}

func shapeOf(t *testing.T, ix *Index, sig model.Filter) coverShape {
	t.Helper()
	cid := ix.coverOf(&sig)
	if cid == 0 {
		t.Fatalf("no cover for %v", sig.Terms)
	}
	rep := ix.rep(cid)
	mu := ix.coverMu(cid)
	mu.Lock()
	defer mu.Unlock()
	c, sub := ix.slab.rec(cid), *ix.slab.sub(cid)
	slots := 1
	m := ix.slab.membersOf(c)
	if m != nil {
		slots = len(m.slots)
		if m.slots[0] != c.first || m.subs[0] != sub || len(m.subs) != slots || c.members() != slots-len(m.vacant) {
			t.Fatalf("cover %v: slot table %v, subscribers %v (vacant %v) beside first=%v sub=%q, flags say %d members", sig.Terms, m.slots, m.subs, m.vacant, c.first, sub, c.members())
		}
	}
	return coverShape{
		slots: slots, members: c.members(), promoted: m != nil,
		rep: rep, first: c.first, singletonsInStat: ix.CoverStats().Singletons,
	}
}

// retired fails unless no cover serves sig's signature.
func retired(t *testing.T, ix *Index, sig model.Filter) {
	t.Helper()
	if cid := ix.coverOf(&sig); cid != 0 {
		t.Fatalf("cover %v (%d members) still serves its signature", sig.Terms, ix.slab.rec(cid).members())
	}
}

// TestCoverSize pins the layout the singleton shape is priced by: the cover
// record, which holds a filter's predicate, mode and slot-0 member in 32
// bytes and no pointer — a pointer-bearing field would put the whole slab
// back on the garbage collector's scan; the filter table's slot, a filter ID
// and a cover ID; and the posting entry, a cover ID and a slot set, 8 bytes
// and no pointer.
func TestCoverSize(t *testing.T) {
	if size := unsafe.Sizeof(cover{}); size != 32 {
		t.Errorf("cover is %d bytes, want 32", size)
	}
	if size := unsafe.Sizeof(postingEntry{}); size != 8 {
		t.Errorf("postingEntry is %d bytes, want 8", size)
	}
	if size := unsafe.Sizeof(filterSlot{}); size != 12 {
		t.Errorf("a filter table slot is %d bytes, want 12", size)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(cover{}), reflect.TypeOf(postingEntry{}), reflect.TypeOf(filterSlot{})} {
		if path := pointerField(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer", path)
		}
	}
}

// pointerField returns the path, below name, of the first field of type t
// that holds a pointer the garbage collector would trace, or "".
func pointerField(t reflect.Type, name string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if path := pointerField(t.Field(i).Type, name+"."+t.Field(i).Name); path != "" {
				return path
			}
		}
		return ""
	case reflect.Array:
		return pointerField(t.Elem(), name+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return name + " (" + t.String() + ")"
	}
	return ""
}

// TestCoverShapes walks a cover through the shapes its representation
// distinguishes — inline singleton, retired with its member and built again,
// promoted by a second member, a vacated slot reused, a member with its own
// term order, a member that leaves for another signature — holding every
// matcher to the reference at each step and checking the shape itself.
func TestCoverShapes(t *testing.T) {
	docs := []*model.Document{
		{ID: 1, Terms: []string{"a"}},
		{ID: 2, Terms: []string{"a", "b"}},
		{ID: 3, Terms: []string{"b", "c"}},
		{ID: 4, Terms: []string{"a", "b", "c", "d"}},
	}
	check := func(t *testing.T, p *enginePair) {
		t.Helper()
		for _, d := range docs {
			p.compareAll(t, &model.Document{ID: d.ID, Terms: d.Terms})
		}
		var got, want []model.Filter
		collect := func(into *[]model.Filter) func(model.Filter) bool {
			return func(f model.Filter) bool { *into = append(*into, f); return true }
		}
		if err := p.ix.EachFilter(collect(&got)); err != nil {
			t.Fatal(err)
		}
		for _, f := range p.ref.filters {
			want = append(want, f)
		}
		if !bytes.Equal(encodeFilters(got), encodeFilters(want)) {
			t.Fatalf("EachFilter diverged:\n index: %v\n ref:   %v", got, want)
		}
	}
	sig := allFilter(0, "a", "b")

	t.Run("singleton", func(t *testing.T) {
		p := newEnginePair(t)
		p.register(t, allFilter(7, "a", "b"), []string{"a", "b"})
		check(t, p)
		if got, want := shapeOf(t, p.ix, sig), (coverShape{slots: 1, members: 1, rep: 7, first: 7, singletonsInStat: 1}); got != want {
			t.Fatalf("shape = %+v, want %+v", got, want)
		}
		// Unregistered: the cover goes with its only member, entries and all.
		p.unregister(t, 7)
		check(t, p)
		retired(t, p.ix, sig)
		if cs := p.ix.CoverStats(); cs != (CoverStats{}) {
			t.Fatalf("CoverStats after unregister = %+v, want nothing", cs)
		}
		// Registered again, under a subset of the terms: a new cover.
		p.register(t, allFilter(7, "a", "b"), []string{"b"})
		check(t, p)
		if got, want := shapeOf(t, p.ix, sig), (coverShape{slots: 1, members: 1, rep: 7, first: 7, singletonsInStat: 1}); got != want {
			t.Fatalf("shape after re-register = %+v, want %+v", got, want)
		}
		// And once more while live: the terms add up.
		p.register(t, allFilter(7, "a", "b"), []string{"a", "b"})
		check(t, p)
		if cs := p.ix.CoverStats(); cs.Covers != 1 || cs.CoveredFilters != 1 || cs.StoredEntries != 2 {
			t.Fatalf("CoverStats = %+v, want 1 cover / 1 member / 2 entries", cs)
		}
	})

	t.Run("promotion-then-first-leaves", func(t *testing.T) {
		p := newEnginePair(t)
		p.register(t, allFilter(7, "a", "b"), []string{"a", "b"})
		p.register(t, allFilter(9, "a", "b"), []string{"a"})
		check(t, p)
		if got, want := shapeOf(t, p.ix, sig), (coverShape{slots: 2, members: 2, promoted: true, rep: 7, first: 7}); got != want {
			t.Fatalf("shape after promotion = %+v, want %+v", got, want)
		}
		p.unregister(t, 7)
		check(t, p)
		if got, want := shapeOf(t, p.ix, sig), (coverShape{slots: 2, members: 1, promoted: true, rep: 9, first: 7}); got != want {
			t.Fatalf("shape after the first member left = %+v, want %+v", got, want)
		}
		if cs := p.ix.CoverStats(); cs.Covers != 1 || cs.CoveredFilters != 1 || cs.LogicalPostings != 1 {
			t.Fatalf("CoverStats = %+v, want 1 cover / 1 member / 1 posting", cs)
		}
		// A fresh ID takes the vacated slot 0 — and the inline member's place.
		p.register(t, allFilter(11, "a", "b"), []string{"a", "b"})
		check(t, p)
		if got, want := shapeOf(t, p.ix, sig), (coverShape{slots: 2, members: 2, promoted: true, rep: 11, first: 11}); got != want {
			t.Fatalf("shape after a fresh member = %+v, want %+v", got, want)
		}
		// The first member returns: a third slot.
		p.register(t, allFilter(7, "a", "b"), []string{"a", "b"})
		check(t, p)
		if got, want := shapeOf(t, p.ix, sig), (coverShape{slots: 3, members: 3, promoted: true, rep: 11, first: 11}); got != want {
			t.Fatalf("shape after the first member returned = %+v, want %+v", got, want)
		}
	})

	t.Run("promotion-of-a-dead-singleton", func(t *testing.T) {
		// A singleton whose member left is not there to promote: the next
		// member of the signature starts a singleton of its own.
		p := newEnginePair(t)
		p.register(t, allFilter(7, "a", "b"), []string{"a", "b"})
		p.unregister(t, 7)
		retired(t, p.ix, sig)
		p.register(t, allFilter(9, "a", "b"), []string{"a", "b"})
		check(t, p)
		if got, want := shapeOf(t, p.ix, sig), (coverShape{slots: 1, members: 1, rep: 9, first: 9, singletonsInStat: 1}); got != want {
			t.Fatalf("shape = %+v, want %+v", got, want)
		}
	})

	t.Run("own-term-order", func(t *testing.T) {
		p := newEnginePair(t)
		p.register(t, allFilter(1, "a", "b"), []string{"a", "b"})
		p.register(t, allFilter(2, "b", "a"), []string{"a", "b"})
		p.register(t, allFilter(3, "a", "b", "a"), []string{"b"})
		check(t, p)
		if cs := p.ix.CoverStats(); cs.Covers != 1 || cs.CoveredFilters != 3 {
			t.Fatalf("CoverStats = %+v, want one cover of three", cs)
		}
		for id, want := range map[model.FilterID][]string{1: {"a", "b"}, 2: {"b", "a"}, 3: {"a", "b", "a"}} {
			f, ok, err := p.ix.GetFilter(id)
			if err != nil || !ok || !reflect.DeepEqual(f.Terms, want) || f.Mode != model.MatchAll {
				t.Fatalf("GetFilter(%d) = %+v, %v, %v; want terms %v", id, f, ok, err, want)
			}
		}
		// The canonical member keeps no array: its terms are the cover's IDs,
		// spelled in canonical order on the way out. A member registered out of
		// that order keeps its own, and GetFilter hands out that very array.
		for id, own := range map[model.FilterID]bool{1: false, 2: true, 3: true} {
			sh := p.ix.defs.shard(id)
			sh.mu.RLock()
			kept := sh.own[id]
			sh.mu.RUnlock()
			if (kept != nil) != own {
				t.Fatalf("filter %d: own term array %v, want one: %v", id, kept, own)
			}
			if f, _, _ := p.ix.GetFilter(id); own && unsafe.SliceData(f.Terms) != unsafe.SliceData(kept) {
				t.Fatalf("GetFilter(%d) handed out a copy of the record's own terms", id)
			}
		}
		p.unregister(t, 1)
		check(t, p)
	})

	t.Run("stale-member", func(t *testing.T) {
		p := newEnginePair(t)
		p.register(t, allFilter(7, "a", "b"), []string{"a", "b"})
		// Same ID, another signature, posted under c alone: it leaves the
		// singleton, which retires, and nothing of it stays under a or b.
		p.register(t, anyFilter(7, "a", "c"), []string{"c"})
		check(t, p)
		retired(t, p.ix, sig)
		if got, want := shapeOf(t, p.ix, anyFilter(0, "a", "c")), (coverShape{slots: 1, members: 1, rep: 7, first: 7, singletonsInStat: 1}); got != want {
			t.Fatalf("shape of the cover it joined = %+v, want %+v", got, want)
		}
		if n, _ := p.ix.PostingLen("a"); n != 0 {
			t.Fatalf("PostingLen(a) = %d after the move, want 0", n)
		}
		// A new member of the old signature, then the mover comes back to it.
		p.register(t, allFilter(8, "a", "b"), []string{"a", "b"})
		check(t, p)
		p.register(t, allFilter(7, "a", "b"), []string{"a", "b"})
		check(t, p)
		retired(t, p.ix, anyFilter(0, "a", "c"))
		if got, want := shapeOf(t, p.ix, sig), (coverShape{slots: 2, members: 2, promoted: true, rep: 8, first: 8}); got != want {
			t.Fatalf("shape after the return = %+v, want %+v", got, want)
		}
	})

	t.Run("mode-read-back", func(t *testing.T) {
		// Mode comes back from the cover: one term set under two modes is two
		// covers, and each member reads its own back.
		p := newEnginePair(t)
		p.register(t, allFilter(1, "a", "b"), []string{"a"})
		p.register(t, anyFilter(2, "a", "b"), []string{"a"})
		p.register(t, allFilter(3, "a", "b"), []string{"a"})
		check(t, p)
		if cs := p.ix.CoverStats(); cs.Covers != 2 {
			t.Fatalf("Covers = %d, want 2", cs.Covers)
		}
		for id, want := range map[model.FilterID]model.MatchMode{1: model.MatchAll, 2: model.MatchAny, 3: model.MatchAll} {
			if f, _, _ := p.ix.GetFilter(id); f.Mode != want {
				t.Fatalf("GetFilter(%v) = %+v, want mode %v", id, f, want)
			}
		}
	})
}

// TestReRegisterNewSubscriber: a live ID registered again under the same
// signature with another subscriber keeps its slot, and the new subscriber is
// what MatchTerm, MatchTerms and GetFilter report — for a singleton (slot 0,
// held inline), for a grouped member in slot 1, and for a fresh ID in a
// vacated and reused slot 0.
func TestReRegisterNewSubscriber(t *testing.T) {
	doc := &model.Document{ID: 1, Terms: []string{"a", "b"}}
	p := newEnginePair(t)
	sig := anyFilter(0, "a", "b")
	// expect holds both engines to each other, then checks every member's
	// subscriber as each matcher and GetFilter report it.
	expect := func(t *testing.T, want map[model.FilterID]string) {
		t.Helper()
		p.compareAll(t, doc)
		for _, terms := range [][]string{{"a"}, {"a", "b"}} {
			got, _, err := p.ix.MatchTerms(doc, terms)
			if err != nil || len(got) != len(want) {
				t.Fatalf("MatchTerms(%v) = %+v, %v; want %d matches", terms, got, err, len(want))
			}
			for _, m := range got {
				if m.Subscriber != want[m.ID] {
					t.Fatalf("MatchTerms(%v) reports %v for %s, want %s", terms, m.ID, m.Subscriber, want[m.ID])
				}
			}
		}
		for id, sub := range want {
			if f, ok, _ := p.ix.GetFilter(id); !ok || f.Subscriber != sub {
				t.Fatalf("GetFilter(%v) = %+v, %v; want subscriber %s", id, f, ok, sub)
			}
		}
	}
	with := func(f model.Filter, sub string) model.Filter {
		f.Subscriber = sub
		return f
	}

	p.register(t, with(anyFilter(1, "a", "b"), "alice"), []string{"a", "b"})
	p.register(t, with(anyFilter(1, "a", "b"), "bob"), []string{"a", "b"})
	expect(t, map[model.FilterID]string{1: "bob"})

	p.register(t, with(anyFilter(2, "a", "b"), "carol"), []string{"a", "b"})
	p.register(t, with(anyFilter(2, "a", "b"), "dave"), []string{"a"})
	expect(t, map[model.FilterID]string{1: "bob", 2: "dave"})

	p.unregister(t, 1)
	p.register(t, with(anyFilter(3, "a", "b"), "erin"), []string{"a", "b"})
	p.register(t, with(anyFilter(3, "a", "b"), "frank"), []string{"b"})
	expect(t, map[model.FilterID]string{2: "dave", 3: "frank"})
	if got := shapeOf(t, p.ix, sig); got.slots != 2 || got.first != 3 {
		t.Fatalf("shape = %+v, want f3 in the reused slot 0 of two", got)
	}
}

// TestMatchMemberMidMove: a member found under its old cover while it moves
// to another signature — its new definition stored, its old bits not cleared
// yet, as a match racing Register sees it — is decided by its new
// definition, its terms spelled from the dictionary, and reported with the
// new definition's mode; the old cover's verdict does not decide it.
func TestMatchMemberMidMove(t *testing.T) {
	ix := newIndex(t)
	old := allFilter(1, "a", "b")
	if err := ix.Register(old, old.Terms); err != nil {
		t.Fatal(err)
	}
	// Register's first half for the new definition, stopped before the old
	// cover's bits are dropped.
	moved := anyFilter(1, "c", "z")
	ix.join(ix.defs.shard(moved.ID), &moved)
	for _, tc := range []struct {
		doc  []string
		want []model.Filter
	}{
		{[]string{"a", "b"}, nil},
		{[]string{"a", "b", "z"}, []model.Filter{{ID: 1, Subscriber: moved.Subscriber, Mode: model.MatchAny}}},
	} {
		doc := &model.Document{ID: 1, Terms: tc.doc}
		for _, query := range [][]string{{"a"}, {"a", "b"}} {
			got, _, err := ix.MatchTerms(doc, query)
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("MatchTerms(%v, %v) = %+v, %v; want %+v", tc.doc, query, got, err, tc.want)
			}
		}
	}
}

// TestMatchWhileCoverPromotes runs MatchTerms over one term's posting list
// while second members promote the list's singleton covers one after the
// other — the match path reads a singleton's member without the cover lock
// (run under -race).
func TestMatchWhileCoverPromotes(t *testing.T) {
	ix := newIndex(t)
	const covers = 400
	doc := model.Document{ID: 1, Terms: []string{"t"}}
	for i := 0; i < covers; i++ {
		f := anyFilter(model.FilterID(i+1), "t", fmt.Sprintf("u%d", i))
		if err := ix.Register(f, []string{"t"}); err != nil {
			t.Fatal(err)
		}
	}
	doc.View()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < covers; i++ {
			f := anyFilter(model.FilterID(covers+i+1), "t", fmt.Sprintf("u%d", i))
			if err := ix.Register(f, []string{"t"}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for promoting := true; promoting; {
		select {
		case <-done:
			promoting = false
		default:
		}
		fs, st, err := ix.MatchTerms(&doc, doc.Terms)
		if err != nil {
			t.Fatal(err)
		}
		// Every filter matches {t}; a scan sees each cover's first member and
		// however many second members had joined.
		if len(fs) < covers || len(fs) > 2*covers || st.Evaluated != len(fs) {
			t.Fatalf("matched %d filters (evaluated %d), want between %d and %d", len(fs), st.Evaluated, covers, 2*covers)
		}
	}
	fs, _, err := ix.MatchTerms(&doc, doc.Terms)
	if err != nil || len(fs) != 2*covers {
		t.Fatalf("matched %d filters after the promotions (err %v), want %d", len(fs), err, 2*covers)
	}
	if cs := ix.CoverStats(); cs.Singletons != 0 || cs.Covers != covers {
		t.Fatalf("CoverStats = %+v, want %d covers, none a singleton", cs, covers)
	}
}

// TestMatchWhileSubscriberChanges runs MatchTerm, MatchTerms and GetFilter
// while a writer registers the members of two covers again under their
// signatures with other subscribers, round after round: a singleton's slot 0
// and a group's slots, rewritten in place under readers that take no cover
// lock (run under -race). Every reported subscriber is one the member was
// registered with.
func TestMatchWhileSubscriberChanges(t *testing.T) {
	ix := newIndex(t)
	subs := []string{"alice", "bob", "carol"}
	filters := []model.Filter{anyFilter(1, "t", "u"), allFilter(2, "t", "v"), allFilter(3, "t", "v"), allFilter(4, "t", "v")}
	register := func(round int) error {
		for i, f := range filters {
			f.Subscriber = subs[(round+i)%len(subs)]
			if err := ix.Register(f, []string{"t"}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := register(0); err != nil {
		t.Fatal(err)
	}
	doc := model.Document{ID: 1, Terms: []string{"t", "u", "v"}}
	doc.View()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 1; round <= 300; round++ {
			if err := register(round); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	known := func(sub string) bool { return slices.Contains(subs, sub) }
	for changing := true; changing; {
		select {
		case <-done:
			changing = false
		default:
		}
		single, _, err := ix.MatchTerm(&doc, "t")
		if err != nil {
			t.Fatal(err)
		}
		multi, _, err := ix.MatchTerms(&doc, doc.Terms)
		if err != nil {
			t.Fatal(err)
		}
		for _, fs := range [][]model.Filter{single, multi} {
			if len(fs) != len(filters) {
				t.Fatalf("matched %d filters, want %d", len(fs), len(filters))
			}
			for _, m := range fs {
				if !known(m.Subscriber) {
					t.Fatalf("filter %v matched for subscriber %q", m.ID, m.Subscriber)
				}
			}
		}
		for _, f := range filters {
			if got, ok, _ := ix.GetFilter(f.ID); !ok || !known(got.Subscriber) {
				t.Fatalf("GetFilter(%v) = %+v, %v", f.ID, got, ok)
			}
		}
	}
}

// TestCoverSplitMergeInterleavings walks scripted re-registration
// interleavings that move a filter between covers — split (same ID
// re-registered under a new signature), merge (back to the original),
// and multi-hop chains through three signatures with overlapping posting
// terms — comparing every matcher against the reference at each step.
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
		if cs := p.ix.CoverStats(); cs.Covers != 2 {
			t.Fatalf("Covers after split = %d, want 2", cs.Covers)
		}
		// Merge: f2 returns to the original signature.
		p.register(t, anyFilter(2, "a", "b"), []string{"a", "b"})
		check(t, p)
	})

	t.Run("multi-hop-rehoming", func(t *testing.T) {
		p := newEnginePair(t)
		// f1 hops through three signatures, always posting under "a"; each
		// hop takes its bits out of the cover it leaves, none duplicated.
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
		// Unregistered f1 returns under a different signature with an
		// overlapping posting term: the old cover holds nothing of it.
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
		if cs := p.ix.CoverStats(); cs.Covers != 1 {
			t.Fatalf("Covers = %d, want 1 (posting subset must not split the cover)", cs.Covers)
		}
		p.unregister(t, 3)
		check(t, p)
	})

	t.Run("stale-member-at-match-time", func(t *testing.T) {
		p := newEnginePair(t)
		// f2 leaves {a,b} for a signature posted under other terms only: its
		// bits under a and b leave with it, and the old cover's verdict can
		// decide it nowhere.
		p.register(t, allFilter(1, "a", "b"), []string{"a", "b"})
		p.register(t, allFilter(2, "a", "b"), []string{"a", "b"})
		p.register(t, anyFilter(2, "c", "d"), []string{"c", "d"})
		check(t, p)
		// {a,c}: the old cover says no match, f2's own definition matches
		// through c.
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
		doc := &model.Document{ID: 9, Terms: []string{"x", "y"}}
		fs, st, err := p.ix.MatchTerms(doc, []string{"a", "x"})
		if rfs, rst := p.ref.matchTerms(doc, []string{"a", "x"}); err != nil || len(fs) != 0 || st != rst || len(rfs) != 0 ||
			st.PostingLists != 1 || st.Postings != 2 || st.Evaluated != 2 {
			t.Fatalf("query term outside the document: %v %+v %v, reference %+v", fs, st, err, rst)
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
		if cs := p.ix.CoverStats(); cs.CoveredFilters != 1 || cs.StoredEntries != 2 {
			t.Fatalf("CoverStats after replay = %+v, want 1 member / 2 entries", cs)
		}
		// Replay racing an unregister: the copy comes back, still exact.
		p.unregister(t, 7)
		p.ensure(t, f, []string{"a", "b"})
		check(t, p)
	})
}

// TestAggRefOracleQuick is the random-walk half of the battery: a
// testing/quick property driving long random interleavings of register
// (fresh and re-register), unregister, EnsureRegistered replay and
// multi-term matches into the index and the reference with match comparison on random
// documents after every mutation batch.
func TestAggRefOracleQuick(t *testing.T) {
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
			f.Mode = model.MatchAny
			if rng.Intn(2) == 1 {
				f.Mode = model.MatchAll
			}
			return f
		}
		var ids []model.FilterID
		nextID := model.FilterID(1)
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(11); {
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
			case op == 9: // a multi-term match alone
				d := model.Document{ID: uint64(step), Terms: pick(1 + rng.Intn(5))}
				p.matchDoc(t, &d)
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
// rebuilt from the stored records, each a definition and the terms it is
// posted under — unregistered filters and signature moves superseded some of
// them, which recovery must replay to nothing — and an ID that departed
// before the restart registers again afterwards.
func TestAggRestartRecoversCovers(t *testing.T) {
	dir := t.TempDir()
	agg, sa := openDurable(t, dir, store.Options{})
	p := &enginePair{ix: agg, ref: newRefIndex()}
	for i := 1; i <= 20; i++ {
		p.register(t, anyFilter(model.FilterID(i), "x", fmt.Sprintf("t%d", i%4)), []string{"x", fmt.Sprintf("t%d", i%4)})
	}
	// Unregister a third of the filters: their records stay on disk, with
	// their deletes after them.
	for i := 1; i <= 20; i += 3 {
		p.unregister(t, model.FilterID(i))
	}
	// The shapes a cover's representation distinguishes: a singleton; a
	// promoted cover whose first member left; a member with its own term
	// order beside a canonical one; a member that left its singleton for
	// another signature; a singleton whose member unregistered.
	p.register(t, allFilter(101, "solo", "x"), []string{"solo", "x"})
	p.register(t, allFilter(102, "p", "x"), []string{"p", "x"})
	p.register(t, allFilter(103, "p", "x"), []string{"p", "x"})
	p.unregister(t, 102)
	p.register(t, allFilter(104, "x", "own"), []string{"x", "own"})
	p.register(t, allFilter(105, "own", "x"), []string{"x"})
	p.register(t, allFilter(106, "q", "x"), []string{"q", "x"})
	p.register(t, anyFilter(106, "r", "s"), []string{"r"})
	p.register(t, allFilter(107, "gone", "x"), []string{"gone", "x"})
	p.unregister(t, 107)
	shapes := &model.Document{ID: 9, Terms: []string{"gone", "own", "p", "q", "r", "solo", "x"}}
	p.compareAll(t, shapes)
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}

	agg2, _ := openDurable(t, dir, store.Options{})
	p2 := &enginePair{ix: agg2, ref: p.ref}
	if a, r := agg2.NumPostings(), p2.ref.numPostings; a != r {
		t.Fatalf("recovered NumPostings diverged: index=%d ref=%d", a, r)
	}
	p2.compareAll(t, &model.Document{ID: 1, Terms: []string{"x"}})
	p2.compareAll(t, &model.Document{ID: 2, Terms: []string{"t1", "t2"}})
	p2.compareAll(t, shapes)
	// Rebuilt from the definitions: each of these covers has the one member
	// whose definition survived, inline.
	for _, want := range []struct {
		sig   model.Filter
		shape coverShape
	}{
		{allFilter(0, "solo", "x"), coverShape{slots: 1, members: 1, rep: 101, first: 101}},
		{allFilter(0, "p", "x"), coverShape{slots: 1, members: 1, rep: 103, first: 103}},
		{anyFilter(0, "r", "s"), coverShape{slots: 1, members: 1, rep: 106, first: 106}},
		{allFilter(0, "own", "x"), coverShape{slots: 2, members: 2, promoted: true, rep: 104, first: 104}},
	} {
		got := shapeOf(t, agg2, want.sig)
		got.singletonsInStat = 0
		if got != want.shape {
			t.Fatalf("recovered cover %v = %+v, want %+v", want.sig.Terms, got, want.shape)
		}
	}
	for _, gone := range []model.Filter{allFilter(0, "gone", "x"), allFilter(0, "q", "x")} {
		if cid := agg2.coverOf(&gone); cid != 0 {
			t.Fatalf("cover %v was rebuilt though no definition names it", gone.Terms)
		}
	}
	if f, ok, _ := agg2.GetFilter(104); !ok || !reflect.DeepEqual(f.Terms, []string{"x", "own"}) {
		t.Fatalf("GetFilter(104) after restart = %+v, %v; want terms [x own]", f, ok)
	}
	if cs := agg2.CoverStats(); cs.Singletons != 3 {
		t.Fatalf("Singletons after restart = %d, want solo, p and r-s", cs.Singletons)
	}

	// An ID unregistered before the restart comes back under a new
	// signature with one of its old posting terms.
	p2.register(t, allFilter(1, "x", "fresh"), []string{"x", "fresh"})
	p2.compareAll(t, &model.Document{ID: 3, Terms: []string{"x", "fresh"}})
	p2.compareAll(t, &model.Document{ID: 4, Terms: []string{"x"}})
}

// TestSkippedContainerEvaluated pins what Evaluated reports for containers
// the index skips on the cover's verdict (see the file comment),
// with the reference on every probe.
func TestSkippedContainerEvaluated(t *testing.T) {
	p := newEnginePair(t)
	for i := 1; i <= 10; i++ {
		p.register(t, allFilter(model.FilterID(i), "go", "news"), []string{"go", "news"})
	}
	p.register(t, allFilter(11, "go", "rust"), []string{"go"})
	evaluated := func(doc *model.Document, terms []string) int {
		t.Helper()
		p.compareAll(t, doc)
		fs, st, err := p.ix.MatchTerms(doc, terms)
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
	// Three members leave: the container holds the seven others' bits.
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
	// An emptied cover retires with its entry: "go" reaches the seven
	// members of the other cover alone.
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
		if got, ref := p.ix.NumFilters(), p.ref.numFilters(); got != n || ref != n {
			t.Fatalf("NumFilters = %d, reference %d, want %d", got, ref, n)
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
	if got := ix.dict.size(); got != len(vocab) {
		t.Fatalf("after the first round the dictionary holds %d terms, want the whole %d-term vocabulary", got, len(vocab))
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if got := ix.dict.size(); got != len(vocab) {
		t.Fatalf("dictionary grew to %d terms over a %d-term vocabulary", got, len(vocab))
	}
}

// TestCoverSigCollisionChain pins the signature table's collision handling:
// two signatures can share a probe run, and a lookup compares the whole
// signature — the record's — not the hash. A 64-bit FNV collision cannot be
// produced on demand, so the test files a foreign cover under a real
// signature's hash, at the head of that signature's run.
func TestCoverSigCollisionChain(t *testing.T) {
	ix := newIndex(t)
	fa, fb := anyFilter(1, "a", "b"), allFilter(2, "c", "d", "e")
	for _, f := range []model.Filter{fa, fb} {
		if err := ix.Register(f, f.Terms); err != nil {
			t.Fatal(err)
		}
	}
	ca, cb := ix.coverOf(&fa), ix.coverOf(&fb)
	if ca == 0 || cb == 0 || ca == cb {
		t.Fatalf("covers = %d, %d; want two distinct covers", ca, cb)
	}
	slab := &ix.slab
	h := slab.sigHashOf(ca)
	sh := ix.sigShard(h)
	foreign := ix.coverIDs.take()
	slab.init(foreign, slab.rec(cb).mode(), slab.terms(slab.rec(cb)))
	head := func() uint32 {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.slots[probeStart(h, len(sh.slots))]
	}
	sh.mu.Lock()
	sh.remove(slab, h, ca)
	sh.insert(slab, h, foreign)
	sh.insert(slab, h, ca)
	sh.mu.Unlock()
	if got := head(); got != foreign {
		t.Fatalf("head of the run = cover %d, want the planted cover %d", got, foreign)
	}
	if got := ix.coverOf(&fa); got != ca {
		t.Fatalf("lookup behind a colliding cover = %d, want %d", got, ca)
	}
	if rep, ok := ix.RepFor(fa); !ok || rep != 1 {
		t.Fatalf("RepFor = %v,%v, want f1", rep, ok)
	}
	// The colliding cover leaves the table: the cover behind it moves back to
	// the head of the run and is still found.
	sh.mu.Lock()
	sh.remove(slab, h, foreign)
	sh.mu.Unlock()
	if got := head(); got != ca {
		t.Fatalf("after the colliding cover left the head of the run is cover %d, want %d", got, ca)
	}
	if got := ix.coverOf(&fa); got != ca {
		t.Fatalf("lookup after the colliding cover left = %d, want %d", got, ca)
	}
	// Same terms, other mode: a different signature.
	if c := slab.rec(ca); slab.hasSig(c, model.MatchAll, slab.terms(c)) || !slab.hasSig(c, model.MatchAny, slab.terms(c)) {
		t.Fatal("hasSig does not tell MatchAll{a,b} from MatchAny{a,b}")
	}
}

// TestCoverIDsGracePeriod pins the reuse rule of cover IDs: a retired
// cover's ID comes back only once every multi-term call that entered before
// its retirement has returned, and then it does come back — the IDs in use
// stay bounded by the covers alive at once.
func TestCoverIDsGracePeriod(t *testing.T) {
	var p coverIDs
	a, b := p.take(), p.take()
	call := p.enter() // a call that may decide a and b
	p.put(a)
	for i := 0; i < 4; i++ {
		if id := p.take(); id == a {
			t.Fatalf("take %d handed out retired ID %d while a call that entered before its retirement runs", i, id)
		}
	}
	p.exit(call)
	later := p.enter() // entered after the retirement: a is not its concern
	defer p.exit(later)
	if id := p.take(); id != a {
		t.Fatalf("take after the call returned = %d, want the retired ID %d", id, a)
	}
	p.put(b)
	if id := p.take(); id == b {
		t.Fatalf("take handed out %d, retired while a call runs", id)
	}
	if seq := p.seq.Load(); seq != 7 {
		t.Fatalf("%d IDs handed out, want 7: a, b, four while a waited and one while b did", seq)
	}
}
