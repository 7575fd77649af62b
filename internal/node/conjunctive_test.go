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

// The invariant these tests pin (DESIGN.md §6, §13): on every node holding a
// copy of a MatchAll filter for a forwarding-table scope, the filter is posted
// under at least one term of that home; the home chooses the term once, at
// registration (conjunctiveKey), and every later forward and migration repeats
// the choice instead of making it again.

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

// TestConjunctiveKeyedOncePerHome registers one random population twice: on
// a cluster through the register path, and on a twin cluster straight into
// each home's index under every term the home owns — the layout before the
// key, and what index.Register still does when told to. Every MatchAll filter
// must then be posted under exactly one term per home (a MatchAny filter
// under all of them), hold that key across re-registrations without NumFilters
// moving, and every random document must draw the same match set from both
// clusters — the brute-force one — while scanning no more posting entries.
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
	homesOf := func(f model.Filter) map[ring.NodeID][]string {
		byHome := make(map[ring.NodeID][]string)
		for _, term := range f.Terms {
			home, err := keyed.ring.HomeNode(term)
			if err != nil {
				t.Fatal(err)
			}
			byHome[home] = append(byHome[home], term)
		}
		return byHome
	}

	var filters []model.Filter
	for id := model.FilterID(1); id <= 150; id++ {
		f := model.Filter{ID: id, Subscriber: fmt.Sprintf("s%d", id%9), Terms: draw(5), Mode: model.MatchAll}
		if rng.Intn(4) == 0 {
			f.Mode = model.MatchAny
		}
		filters = append(filters, f)
		keyed.registerEverywhere(t, f)
		for home, terms := range homesOf(f) {
			if err := allTerms.nodeByID(home).Index().Register(f, terms); err != nil {
				t.Fatal(err)
			}
		}
	}

	keys := make(map[model.FilterID]map[ring.NodeID][]string)
	checkLayout := func(label string) {
		t.Helper()
		for _, f := range filters {
			for home, terms := range homesOf(f) {
				posted := keyed.nodeByID(home).Index().PostedUnder(f.ID, terms)
				want := terms
				if f.Mode == model.MatchAll {
					if len(posted) != 1 {
						t.Fatalf("%s: MatchAll filter %v is posted under %v of its terms %v on %s, want exactly one", label, f.ID, posted, terms, home)
					}
					want = posted
					if prev, ok := keys[f.ID][home]; ok {
						want = prev
					}
				}
				if !slices.Equal(posted, want) {
					t.Fatalf("%s: filter %v (%v) is posted under %v on %s, want %v", label, f.ID, f.Mode, posted, home, want)
				}
				if keys[f.ID] == nil {
					keys[f.ID] = make(map[ring.NodeID][]string)
				}
				keys[f.ID][home] = posted
			}
		}
		for i, nd := range keyed.nodes {
			if got, want := nd.Index().NumFilters(), allTerms.nodes[i].Index().NumFilters(); got != want {
				t.Fatalf("%s: %s holds %d filters, its twin %d: the key must not move NumFilters (p'_i)", label, nd.ID(), got, want)
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
	var scannedKeyed, scannedAll int
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
			t.Fatalf("doc %v: keyed once %v, under all terms %v, brute force %v", doc, sortedIDs(got), sortedIDs(twin), want)
		}
		scannedKeyed += resp.PostingsScanned
		scannedAll += twinResp.PostingsScanned
	}
	if scannedKeyed >= scannedAll {
		t.Fatalf("postings scanned: %d keyed once, %d under all terms; the key must scan fewer", scannedKeyed, scannedAll)
	}
	t.Logf("postings scanned over 300 documents: %d keyed once per home, %d under every term", scannedKeyed, scannedAll)
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

// TestMigrationsRepeatWhatIsPosted pins the migration half of the invariant
// on both scopes: a prepare ships each filter under the owned terms it is
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

	subset := model.Filter{ID: 1, Subscriber: "s", Terms: []string{a1, a2}, Mode: model.MatchAll}
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
	round := func(home *Node, scope string, target *Node) {
		t.Helper()
		epoch++
		if err := home.PrepareAllocation(ctx, epoch, scope, mustGrid(t, 1, 1, target.ID())); err != nil {
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

	// b's node-wide grid is a: a now also holds b's replicas.
	round(b, "", a)
	wantOn("b's column", a, map[model.FilterID][]string{1: {a1}, 2: {a2}, 3: {a1, b1}, 4: {b1}})

	c := peer("c")
	round(a, "", c)
	wantOn("node-wide scope", c, map[model.FilterID][]string{1: {a1}, 2: {a2}, 3: {a1}})

	d := peer("d")
	round(a, a2, d)
	wantOn("term scope "+a2, d, map[model.FilterID][]string{2: {a2}})

	e := peer("e")
	round(a, a1, e)
	wantOn("term scope "+a1, e, map[model.FilterID][]string{1: {a1}, 3: {a1}})

	// Every term is now served off its home: a1 by e, a2 by d, b1 by a.
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
	if err := flushStore(old); err != nil {
		t.Fatal(err)
	}

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
