package node

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/bloom"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/store"
)

// The invariant these tests pin (DESIGN.md §6, §13): outside grids a MatchAll
// filter is held by one node, the home of its key term (model.Filter.KeyTerm),
// posted there under exactly one term of that home's share — the other homes
// of its terms decline their share and hold no posting of it under theirs. The
// key home chooses the term once, at registration (conjunctiveKey), and every
// later forward and migration repeats the choice instead of making it again.

// handleRegister sends one registration frame to nd.
func handleRegister(t testing.TB, nd *Node, f model.Filter, postingTerms ...string) {
	t.Helper()
	if _, err := nd.Handle(context.Background(), "client", EncodeRegister(RegisterReq{Filter: f, PostingTerms: postingTerms})); err != nil {
		t.Fatal(err)
	}
}

// sortedIDs returns the sorted filter IDs of a match set.
func sortedIDs(matches []Match) []model.FilterID {
	ids := make([]model.FilterID, 0, len(matches))
	for _, m := range matches {
		ids = append(ids, m.Filter)
	}
	slices.Sort(ids)
	return ids
}

// bruteForce returns the sorted IDs of the filters doc matches.
func bruteForce(filters []model.Filter, doc []string) []model.FilterID {
	ids := []model.FilterID{}
	for _, f := range filters {
		held := 0
		for _, t := range f.Terms {
			if slices.Contains(doc, t) {
				held++
			}
		}
		if held == len(f.Terms) || (f.Mode == model.MatchAny && held > 0) {
			ids = append(ids, f.ID)
		}
	}
	slices.Sort(ids)
	return ids
}

// keyedID returns the first filter ID from `from` on whose MatchAll filter
// over terms has key term key.
func keyedID(terms []string, key string, from model.FilterID) model.FilterID {
	for id := from; ; id++ {
		if f := (model.Filter{ID: id, Terms: terms}); f.KeyTerm() == key {
			return id
		}
	}
}

// assertHeldOnce checks where the register path left MatchAll filter f: on
// the home of its key term it is posted under exactly one term of that home's
// share, and no other home of its terms holds a posting of it under its own
// share (it may hold one under the key home's, as that home's grid column).
// Returns the key home and the term it chose.
func assertHeldOnce(t testing.TB, h *harness, label string, f model.Filter) (ring.NodeID, string) {
	t.Helper()
	var keyHome ring.NodeID
	var posted string
	for home, share := range h.sharesOf(t, f) {
		got := h.nodeByID(home).Index().PostedUnder(f.ID, share)
		switch {
		case !slices.Contains(share, f.KeyTerm()):
			if len(got) != 0 {
				t.Fatalf("%s: MatchAll filter %v (key term %s) is posted under %v on %s, a home that declines it", label, f.ID, f.KeyTerm(), got, home)
			}
		case len(got) != 1:
			t.Fatalf("%s: MatchAll filter %v is posted under %v of its terms %v on its key home %s, want exactly one", label, f.ID, got, share, home)
		default:
			keyHome, posted = home, got[0]
		}
	}
	return keyHome, posted
}

// reportingHomes publishes doc's terms from entry as PublishEntry does and
// counts, per filter, the homes whose response carries it — the match set
// before the entry deduplicates it.
func reportingHomes(t testing.TB, entry *Node, doc *model.Document) map[model.FilterID]int {
	t.Helper()
	groups, err := entry.groupTermsByHome(bloomPassTerms(entry.bloomF, doc.Terms))
	if err != nil {
		t.Fatal(err)
	}
	homes := make(map[model.FilterID]int)
	for _, res := range entry.fanOutHomes(context.Background(), doc, groups) {
		if res.err != nil {
			t.Fatal(res.err)
		}
		for _, id := range slices.Compact(sortedIDs(res.resp.Matches)) {
			homes[id]++
		}
	}
	return homes
}

// TestConjunctiveKeyedOncePerHome registers one random population twice: on
// a cluster through the register path, every home sent its share as a
// registrar that knows nothing of key terms sends it, and on a twin cluster
// straight into each home's index under every term the home owns — the layout
// before any key, and what index.Register still does when told to. Every
// MatchAll filter must then be held once (assertHeldOnce; a MatchAny filter by
// every home under its whole share), hold that through re-registrations, and
// NumFilters (p'_i) must count on each node exactly the filters it keeps. Every
// random document must draw the same match set from both clusters — the
// brute-force one — while no MatchAll filter is reported by two homes and fewer
// posting entries are scanned.
func TestConjunctiveKeyedOncePerHome(t *testing.T) {
	keyed, allTerms := newHarness(t, 4), newHarness(t, 4)
	rng := rand.New(rand.NewSource(23))
	vocab := make([]string, 16)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	draw := func(max int) []string {
		n := 1 + rng.Intn(max)
		terms := make([]string, 0, n)
		for _, p := range rng.Perm(len(vocab))[:n] {
			terms = append(terms, vocab[p])
		}
		return model.SortTerms(terms)
	}

	var filters []model.Filter
	wantFilters := make(map[ring.NodeID]int)
	keyHomes := make(map[ring.NodeID]int) // MatchAll filters with several homes, by the one that keeps them
	for id := model.FilterID(1); id <= 150; id++ {
		f := model.Filter{ID: id, Subscriber: fmt.Sprintf("s%d", id%9), Terms: draw(5), Mode: model.MatchAll}
		if rng.Intn(4) == 0 {
			f.Mode = model.MatchAny
		}
		filters = append(filters, f)
		keyed.registerEverywhere(t, f)
		shares := keyed.sharesOf(t, f)
		for home, terms := range shares {
			if err := allTerms.nodeByID(home).Index().Register(f, terms); err != nil {
				t.Fatal(err)
			}
			if f.Mode == model.MatchAny || slices.Contains(terms, f.KeyTerm()) {
				wantFilters[home]++
				if f.Mode == model.MatchAll && len(shares) > 1 {
					keyHomes[home]++
				}
			}
		}
	}
	// The key hash spreads the filters that have a choice of home over all of
	// them (the ring's hash of the term alone would send every filter over a
	// popular term to that term's home).
	for _, nd := range keyed.nodes {
		if keyHomes[nd.ID()] < 10 {
			t.Fatalf("MatchAll filters kept per home: %v; %s keeps too few for the key to balance", keyHomes, nd.ID())
		}
	}

	keys := make(map[model.FilterID]string)
	checkLayout := func(label string) {
		t.Helper()
		for _, f := range filters {
			if f.Mode == model.MatchAll {
				_, posted := assertHeldOnce(t, keyed, label, f)
				if prev, ok := keys[f.ID]; ok && posted != prev {
					t.Fatalf("%s: MatchAll filter %v moved from key %s to %s", label, f.ID, prev, posted)
				}
				keys[f.ID] = posted
				continue
			}
			for home, terms := range keyed.sharesOf(t, f) {
				if posted := keyed.nodeByID(home).Index().PostedUnder(f.ID, terms); !slices.Equal(posted, terms) {
					t.Fatalf("%s: MatchAny filter %v is posted under %v on %s, want %v", label, f.ID, posted, home, terms)
				}
			}
		}
		for _, nd := range keyed.nodes {
			if got, want := nd.Index().NumFilters(), wantFilters[nd.ID()]; got != want {
				t.Fatalf("%s: %s holds %d filters (p'_i), want the %d it keeps", label, nd.ID(), got, want)
			}
		}
	}
	checkLayout("registered")
	// Re-register every live ID, in another order — the lists have grown
	// unevenly since, so choosing again would move keys.
	for round := 0; round < 2; round++ {
		for _, i := range rng.Perm(len(filters)) {
			keyed.registerEverywhere(t, filters[i])
		}
		checkLayout(fmt.Sprintf("re-registration %d", round+1))
	}

	ctx := context.Background()
	var scannedKeyed, scannedAll, conjunctive int
	for docID := uint64(1); docID <= 300; docID++ {
		doc := draw(9)
		entry := rng.Intn(len(keyed.nodes))
		got, resp, err := keyed.nodes[entry].PublishEntry(ctx, &model.Document{ID: docID, Terms: doc})
		if err != nil {
			t.Fatal(err)
		}
		twin, twinResp, err := allTerms.nodes[entry].PublishEntry(ctx, &model.Document{ID: docID, Terms: doc})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(filters, doc)
		if !slices.Equal(sortedIDs(got), want) || !slices.Equal(sortedIDs(twin), want) {
			t.Fatalf("doc %v: held once %v, under all terms %v, brute force %v", doc, sortedIDs(got), sortedIDs(twin), want)
		}
		homes := reportingHomes(t, keyed.nodes[entry], &model.Document{ID: docID, Terms: doc})
		for _, id := range want {
			if filters[id-1].Mode == model.MatchAll {
				conjunctive++
				if homes[id] != 1 {
					t.Fatalf("doc %v: MatchAll filter %v reached the entry from %d homes, want 1", doc, id, homes[id])
				}
			}
		}
		scannedKeyed += resp.PostingsScanned
		scannedAll += twinResp.PostingsScanned
	}
	if conjunctive < 100 {
		t.Fatalf("only %d MatchAll matches over 300 documents; the documents do not exercise the key", conjunctive)
	}
	if scannedKeyed >= scannedAll {
		t.Fatalf("postings scanned: %d held once, %d under all terms; the key must scan fewer", scannedKeyed, scannedAll)
	}
	t.Logf("postings scanned over 300 documents: %d held once per cluster, %d under every term; %d MatchAll matches, each from one home", scannedKeyed, scannedAll, conjunctive)
}

// TestConjunctiveKeyBloomRule pins which term the home keys a new MatchAll
// filter under when one of its two terms is brand new: with a Bloom filter
// installed that holds only the known term, the known term — the entry's gate
// routes a matching document under it alone until the next refresh, so the
// filter matches before RefreshBloom exactly as it did posted under both; with
// no Bloom filter installed (what moved runs), or one holding neither term,
// the shortest posting list.
func TestConjunctiveKeyBloomRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		inBloom []string // nil: none installed
		wantKey string
		// A Bloom filter holding neither term hides the filter until the
		// refresh whatever it is posted under — as it did under both.
		want []model.FilterID
	}{
		{"bloom holds the known term", []string{"known", "other"}, "known", []model.FilterID{1, 2, 3, 9}},
		{"bloom holds neither term", []string{"other"}, "fresh", []model.FilterID{}},
		{"no bloom installed", nil, "fresh", []model.FilterID{1, 2, 3, 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nd := soloNode(t) // homes every term
			for id := model.FilterID(1); id <= 3; id++ {
				handleRegister(t, nd, model.Filter{ID: id, Subscriber: "s", Terms: []string{"known"}, Mode: model.MatchAny}, "known")
			}
			if tc.inBloom != nil {
				bf, err := bloom.New(64, 0.001)
				if err != nil {
					t.Fatal(err)
				}
				for _, term := range tc.inBloom {
					bf.Add(term)
				}
				nd.InstallBloom(bf)
			}
			f := model.Filter{ID: 9, Subscriber: "s", Terms: []string{"fresh", "known"}, Mode: model.MatchAll}
			handleRegister(t, nd, f, "fresh", "known")
			if got := nd.Index().PostedUnder(f.ID, f.Terms); !slices.Equal(got, []string{tc.wantKey}) {
				t.Fatalf("posted under %v, want [%s]", got, tc.wantKey)
			}
			matches, _, err := nd.PublishEntry(context.Background(), &model.Document{ID: 1, Terms: []string{"fresh", "known"}})
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedIDs(matches); !slices.Equal(got, tc.want) {
				t.Fatalf("matched %v before any Bloom refresh, want %v", got, tc.want)
			}
		})
	}
}

// twoHomes is a two-node cluster with a term homed on each and the ID of a
// MatchAll filter over the two whose key term is a's: a keeps it, b declines.
type twoHomes struct {
	h      *harness
	a, b   *Node
	ka, kb string
	id     model.FilterID
}

func newTwoHomes(t *testing.T) *twoHomes {
	t.Helper()
	h := newHarness(t, 2)
	e := &twoHomes{h: h, a: h.nodes[0], b: h.nodes[1]}
	e.ka, e.kb = termHomedAt(t, h.ring, "ka", e.a.ID()), termHomedAt(t, h.ring, "kb", e.b.ID())
	e.id = keyedID([]string{e.ka, e.kb}, e.ka, 1)
	return e
}

// registerIn sends each home its share of f, in the order given.
func (e *twoHomes) registerIn(t *testing.T, f model.Filter, order ...*Node) {
	t.Helper()
	shares := e.h.sharesOf(t, f)
	for _, nd := range order {
		handleRegister(t, nd, f, shares[nd.ID()]...)
	}
}

// publish returns the sorted match set of a document over terms entering at
// entry, and how many homes reported each filter before the dedup.
func (e *twoHomes) publish(t *testing.T, entry *Node, terms ...string) ([]model.FilterID, map[model.FilterID]int) {
	t.Helper()
	doc := model.Document{ID: 1, Terms: terms}
	matches, resp, err := entry.PublishEntry(context.Background(), &doc)
	if err != nil || resp.Degraded {
		t.Fatalf("doc %v: %v degraded=%v", terms, err, resp.Degraded)
	}
	return sortedIDs(matches), reportingHomes(t, entry, &doc)
}

// TestDecliningHomeKeepsForwardedCopy: a node is a home for its own terms and
// a grid column for other homes at once, and its index keys one definition per
// ID. b declines a MatchAll filter whose key term homes on a while serving as
// a's grid column: whichever registration arrives first, and again when the
// live ID re-registers, b must end up holding the copy a forwarded — posted
// under a's term alone — and a publish routed through the grid must find it.
func TestDecliningHomeKeepsForwardedCopy(t *testing.T) {
	for _, keyHomeFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("key home first=%v", keyHomeFirst), func(t *testing.T) {
			e := newTwoHomes(t)
			allocate(t, e.a, 1, mustGrid(t, 1, 1, e.b.ID()))
			f := model.Filter{ID: e.id, Subscriber: "s", Terms: []string{e.ka, e.kb}, Mode: model.MatchAll}
			order := []*Node{e.a, e.b}
			if !keyHomeFirst {
				order = []*Node{e.b, e.a}
			}
			for _, label := range []string{"registered", "re-registered"} {
				e.registerIn(t, f, order...)
				if got := e.b.Index().PostedUnder(f.ID, f.Terms); !slices.Equal(got, []string{e.ka}) || e.b.Index().NumFilters() != 1 {
					t.Fatalf("%s: the grid column holds %d filters, this one posted under %v; want the forwarded copy under [%s]", label, e.b.Index().NumFilters(), got, e.ka)
				}
				for _, entry := range e.h.nodes {
					got, homes := e.publish(t, entry, e.ka, e.kb)
					if !slices.Equal(got, []model.FilterID{f.ID}) || homes[f.ID] != 1 {
						t.Fatalf("%s: a publish through the grid from %s matched %v from %d homes, want [%v] from one", label, entry.ID(), got, homes[f.ID], f.ID)
					}
				}
			}
		})
	}
}

// TestStaleBloomKeepsEveryHomesCopy pins the one case in which a home keeps a
// MatchAll filter without holding its key term: its installed Bloom filter
// rejects the key term, so no entry routes a document under it yet and the key
// term's home alone would not be reached. The filter matches before the
// refresh through the home that kept it; after the refresh both homes report
// it and the entry's dedup leaves one match; a re-registration then is
// declined and takes nothing away.
func TestStaleBloomKeepsEveryHomesCopy(t *testing.T) {
	e := newTwoHomes(t)
	install := func(terms ...string) {
		t.Helper()
		bf, err := bloom.New(64, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		for _, term := range terms {
			bf.Add(term)
		}
		for _, nd := range e.h.nodes {
			nd.InstallBloom(bf)
		}
	}
	install(e.kb) // the key term, ka, is brand new
	f := model.Filter{ID: e.id, Subscriber: "s", Terms: []string{e.ka, e.kb}, Mode: model.MatchAll}
	e.registerIn(t, f, e.a, e.b)
	if got := e.b.Index().PostedUnder(f.ID, f.Terms); !slices.Equal(got, []string{e.kb}) {
		t.Fatalf("under a Bloom filter that rejects the key term, b holds the filter under %v, want [%s]", got, e.kb)
	}
	if got, homes := e.publish(t, e.a, e.ka, e.kb); !slices.Equal(got, []model.FilterID{f.ID}) || homes[f.ID] != 1 {
		t.Fatalf("before the refresh: matched %v from %d homes, want [%v] from the one the gate routes to", got, homes[f.ID], f.ID)
	}
	install(e.ka, e.kb)
	e.registerIn(t, f, e.b, e.a) // declined on b now: its copy stays
	if got, homes := e.publish(t, e.a, e.ka, e.kb); !slices.Equal(got, []model.FilterID{f.ID}) || homes[f.ID] != 2 {
		t.Fatalf("after the refresh: matched %v from %d homes, want [%v] once, reported by both", got, homes[f.ID], f.ID)
	}
}

// TestReRegisterMovesKeyHome re-registers a live ID with another term set
// whose key term homes elsewhere: a, which held the old definition, declines
// the new one and must not keep matching the old — it removes it, or, where it
// also serves as b's grid column, holds the new definition under b's term
// alone — and NumFilters (p'_i) is exact on both homes, whichever of them
// hears of the change first.
func TestReRegisterMovesKeyHome(t *testing.T) {
	for _, tc := range []struct {
		name         string
		column       bool // a is b's grid column
		oldHomeFirst bool
	}{
		{"old home first", false, true},
		{"new home first", false, false},
		{"old home is the new one's grid column, first", true, true},
		{"old home is the new one's grid column, second", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTwoHomes(t)
			was := model.Filter{ID: e.id, Subscriber: "s", Terms: []string{e.ka, e.kb}, Mode: model.MatchAll}
			// Another term of b, under which the same ID keys on b.
			var kb2 string
			for i := 0; kb2 == ""; i++ {
				term := termHomedAt(t, e.h.ring, fmt.Sprintf("kc%d-", i), e.b.ID())
				if now := (model.Filter{ID: e.id, Terms: []string{e.ka, term}}); now.KeyTerm() == term {
					kb2 = term
				}
			}
			now := model.Filter{ID: e.id, Subscriber: "s", Terms: []string{e.ka, kb2}, Mode: model.MatchAll}
			if tc.column {
				allocate(t, e.b, 1, mustGrid(t, 1, 1, e.a.ID()))
			}
			e.registerIn(t, was, e.a, e.b)
			if a, b := e.a.Stats().Filters, e.b.Stats().Filters; a != 1 || b != 0 {
				t.Fatalf("the first definition: a holds %d filters and b %d, want 1 and 0", a, b)
			}
			order := []*Node{e.a, e.b}
			if !tc.oldHomeFirst {
				order = []*Node{e.b, e.a}
			}
			e.registerIn(t, now, order...)

			wantOnA := int64(0)
			if tc.column {
				wantOnA = 1 // b's forwarded copy
				if got := e.a.Index().PostedUnder(e.id, []string{kb2}); len(got) != 1 {
					t.Fatalf("b's grid column does not hold the ID under %s", kb2)
				}
			}
			if a, b := e.a.Stats().Filters, e.b.Stats().Filters; a != wantOnA || b != 1 {
				t.Fatalf("after the change: a holds %d filters and b %d, want %d and 1", a, b, wantOnA)
			}
			for _, entry := range e.h.nodes {
				if got, _ := e.publish(t, entry, e.ka, e.kb); len(got) != 0 {
					t.Fatalf("a document the old definition matched still draws %v (entry %s)", got, entry.ID())
				}
				// As b's column, a still reaches the ID through the posting the old
				// definition left under ka — the index evaluates the definition the
				// ID has now — and reports it a second time: a duplicate, not a
				// phantom.
				if got, homes := e.publish(t, entry, e.ka, e.kb, kb2); !slices.Equal(got, []model.FilterID{e.id}) || (homes[e.id] != 1 && !tc.column) {
					t.Fatalf("a document the new definition matches draws %v from %d homes, want [%v] from one (entry %s)", got, homes[e.id], e.id, entry.ID())
				}
			}
		})
	}
}

// TestMigrationsRepeatWhatIsPosted pins the migration half of the invariant:
// a prepare ships each filter under the owned terms it is
// posted under on the home — the key the home chose for a MatchAll filter, or
// the one a registrar sent — not under every owned term it has, which is what
// ownedBatches used to re-derive. Node a is a home and, for home b, a grid
// column at once: b's filters are replicas on it, skipped when they own
// nothing there and shipped under a's terms alone when they do.
func TestMigrationsRepeatWhatIsPosted(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.nodes[0], h.nodes[1]
	peer := func(id ring.NodeID) *Node {
		t.Helper()
		nd, err := New(Config{ID: id, Ring: h.ring})
		if err != nil {
			t.Fatal(err)
		}
		nd.Attach(h.net.Join(id, nd.Handle))
		return nd
	}
	a1, a2 := termHomedAt(t, h.ring, "x", a.ID()), termHomedAt(t, h.ring, "y", a.ID())
	b1 := termHomedAt(t, h.ring, "z", b.ID())
	all := []string{a1, a2, b1}

	// Its key term is a1: the home would decline a share without it.
	subset := model.Filter{ID: keyedID([]string{a1, a2}, a1, 10), Subscriber: "s", Terms: []string{a1, a2}, Mode: model.MatchAll}
	keyedF := model.Filter{ID: 2, Subscriber: "s", Terms: []string{a1, a2}, Mode: model.MatchAll}
	both := model.Filter{ID: 3, Subscriber: "s", Terms: []string{a1, b1}, Mode: model.MatchAny}
	replica := model.Filter{ID: 4, Subscriber: "s", Terms: []string{b1}, Mode: model.MatchAny}
	handleRegister(t, a, subset, a1)     // a registrar that keyed the filter itself
	handleRegister(t, a, keyedF, a1, a2) // keyed under a2, the shorter list
	handleRegister(t, a, both, a1)
	handleRegister(t, b, both, b1)
	handleRegister(t, b, replica, b1)
	if got := a.Index().PostedUnder(keyedF.ID, all); !slices.Equal(got, []string{a2}) {
		t.Fatalf("MatchAll filter keyed under %v on its home, want [%s]", got, a2)
	}

	ctx := context.Background()
	epoch := uint64(0)
	round := func(home *Node, target *Node) {
		t.Helper()
		epoch++
		if err := home.PrepareAllocation(ctx, epoch, mustGrid(t, 1, 1, target.ID())); err != nil {
			t.Fatal(err)
		}
		for _, nd := range []*Node{a, b, target} {
			nd.CommitGrid(epoch)
		}
	}
	wantOn := func(label string, nd *Node, want map[model.FilterID][]string) {
		t.Helper()
		if got := nd.Index().NumFilters(); got != len(want) {
			t.Fatalf("%s: %s holds %d filters, want %d", label, nd.ID(), got, len(want))
		}
		for id, terms := range want {
			if got := nd.Index().PostedUnder(id, all); !slices.Equal(got, terms) {
				t.Fatalf("%s: filter %v is posted under %v on %s, want %v", label, id, got, nd.ID(), terms)
			}
		}
	}

	// b's grid is a: a now also holds b's replicas.
	round(b, a)
	wantOn("b's column", a, map[model.FilterID][]string{subset.ID: {a1}, 2: {a2}, 3: {a1, b1}, 4: {b1}})

	c := peer("c")
	round(a, c)
	wantOn("a's column", c, map[model.FilterID][]string{subset.ID: {a1}, 2: {a2}, 3: {a1}})

	// Every term is now served off its home: a's by c, b's by a.
	filters := []model.Filter{subset, keyedF, both, replica}
	for docID, doc := range [][]string{{a1}, {a2}, {a1, a2}, {b1}, {a2, b1}, {a1, a2, b1}} {
		matches, resp, err := b.PublishEntry(ctx, &model.Document{ID: uint64(docID + 1), Terms: doc})
		if err != nil || resp.Degraded {
			t.Fatalf("doc %v: %v degraded=%v", doc, err, resp.Degraded)
		}
		if got, want := sortedIDs(matches), bruteForce(filters, doc); !slices.Equal(got, want) {
			t.Fatalf("doc %v matched %v, want %v", doc, got, want)
		}
	}
}

// TestRestartKeepsAllTermsPosting restarts a node from a data directory in
// which a MatchAll filter is posted under both of its terms, as a build from
// before the key wrote it: the data stays valid — it matches, a
// re-registration keeps the first of the lists it is already on and adds
// none, and a migration ships both.
func TestRestartKeepsAllTermsPosting(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 1)
	boot := func() *Node {
		t.Helper()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nd, err := New(Config{ID: h.nodes[0].ID(), Ring: h.ring, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		nd.Attach(h.net.Join(nd.ID(), nd.Handle))
		return nd
	}
	f := model.Filter{ID: 7, Subscriber: "s", Terms: []string{"alerts", "storm"}, Mode: model.MatchAll}
	old := boot()
	if err := old.Index().Register(f, f.Terms); err != nil {
		t.Fatal(err)
	}
	handleRegister(t, old, model.Filter{ID: 8, Subscriber: "s", Terms: []string{"alerts"}, Mode: model.MatchAny}, "alerts")

	nd := boot()
	ctx := context.Background()
	publish := func(entry *Node) []model.FilterID {
		t.Helper()
		matches, _, err := entry.PublishEntry(ctx, &model.Document{ID: 1, Terms: []string{"alerts", "storm"}})
		if err != nil {
			t.Fatal(err)
		}
		return sortedIDs(matches)
	}
	if got := publish(nd); !slices.Equal(got, []model.FilterID{7, 8}) {
		t.Fatalf("matched %v after the restart, want [7 8]", got)
	}
	// "storm" is the shorter list; the filter is already on "alerts".
	handleRegister(t, nd, f, "alerts", "storm")
	if got := nd.Index().PostedUnder(f.ID, f.Terms); !slices.Equal(got, f.Terms) || nd.Index().NumFilters() != 2 {
		t.Fatalf("after re-registering: posted under %v, %d filters; want %v and 2", got, nd.Index().NumFilters(), f.Terms)
	}
	peer, err := New(Config{ID: "peer", Ring: h.ring})
	if err != nil {
		t.Fatal(err)
	}
	peer.Attach(h.net.Join("peer", peer.Handle))
	allocate(t, nd, 1, mustGrid(t, 1, 1, "peer"))
	if got := peer.Index().PostedUnder(f.ID, f.Terms); !slices.Equal(got, f.Terms) {
		t.Fatalf("the migrated copy is posted under %v, want %v", got, f.Terms)
	}
	if got := publish(peer); !slices.Equal(got, []model.FilterID{7, 8}) {
		t.Fatalf("matched %v through the grid, want [7 8]", got)
	}
}

func mustGrid(t testing.TB, rows, cols int, nodes ...ring.NodeID) *alloc.Grid {
	t.Helper()
	g, err := alloc.NewGrid(rows, cols, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
