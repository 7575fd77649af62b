package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"testing"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
)

func newCluster(t testing.TB, scheme Scheme, nodes int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Scheme:   scheme,
		Nodes:    nodes,
		RackSize: 5,
		Capacity: 100_000,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// seedWorkload registers a deterministic mixed workload and returns the
// filter IDs grouped by their matching term.
func seedWorkload(t testing.TB, c *Cluster) map[string][]model.FilterID {
	t.Helper()
	ctx := context.Background()
	byTerm := make(map[string][]model.FilterID)
	specs := []struct {
		sub   string
		terms []string
	}{
		{"alice", []string{"cloud", "storage"}},
		{"bob", []string{"cloud"}},
		{"carol", []string{"quantum", "computing"}},
		{"dave", []string{"breaking", "news"}},
		{"erin", []string{"news"}},
		{"frank", []string{"football", "league", "cup"}},
	}
	for _, s := range specs {
		id, err := c.Register(ctx, s.sub, s.terms, model.MatchAny)
		if err != nil {
			t.Fatal(err)
		}
		for _, term := range s.terms {
			byTerm[term] = append(byTerm[term], id)
		}
	}
	return byTerm
}

func matchIDs(matches []node.Match) []model.FilterID {
	ids := make([]model.FilterID, len(matches))
	for i, m := range matches {
		ids[i] = m.Filter
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func wantIDs(byTerm map[string][]model.FilterID, terms ...string) []model.FilterID {
	seen := make(map[model.FilterID]struct{})
	var out []model.FilterID
	for _, t := range terms {
		for _, id := range byTerm[t] {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Scheme: SchemeMove}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero nodes: %v", err)
	}
	if _, err := New(Config{Scheme: Scheme(9), Nodes: 3}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad scheme: %v", err)
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeMove.String() != "Move" || SchemeIL.String() != "IL" || SchemeRS.String() != "RS" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(7).String() != "scheme(7)" {
		t.Fatal("unknown scheme string wrong")
	}
}

// TestAllSchemesFindSameMatches is the core correctness property: the three
// dissemination systems must agree on every document's match set.
func TestAllSchemesFindSameMatches(t *testing.T) {
	ctx := context.Background()
	docs := [][]string{
		{"cloud", "computing", "rocks"},
		{"breaking", "news", "football"},
		{"unrelated", "terms", "only"},
		{"quantum", "storage", "league"},
		{"cup"},
	}
	type outcome struct {
		scheme Scheme
		ids    [][]model.FilterID
	}
	var outcomes []outcome
	for _, scheme := range []Scheme{SchemeMove, SchemeIL, SchemeRS} {
		c := newCluster(t, scheme, 12)
		byTerm := seedWorkload(t, c)
		_ = byTerm
		var all [][]model.FilterID
		for _, d := range docs {
			res, err := c.Publish(ctx, d)
			if err != nil {
				t.Fatalf("%v publish %v: %v", scheme, d, err)
			}
			if !res.Complete {
				t.Fatalf("%v publish %v incomplete", scheme, d)
			}
			all = append(all, matchIDs(res.Matches))
		}
		outcomes = append(outcomes, outcome{scheme: scheme, ids: all})
	}
	for i := 1; i < len(outcomes); i++ {
		for d := range docs {
			a := fmt.Sprint(outcomes[0].ids[d])
			b := fmt.Sprint(outcomes[i].ids[d])
			if a != b {
				t.Fatalf("doc %d: %v found %v, %v found %v",
					d, outcomes[0].scheme, a, outcomes[i].scheme, b)
			}
		}
	}
}

func TestPublishMatchesExpectedFilters(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 10)
	byTerm := seedWorkload(t, c)

	res, err := c.Publish(ctx, []string{"cloud", "news"})
	if err != nil {
		t.Fatal(err)
	}
	want := wantIDs(byTerm, "cloud", "news")
	if got := fmt.Sprint(matchIDs(res.Matches)); got != fmt.Sprint(want) {
		t.Fatalf("matches = %v, want %v", got, want)
	}

	res, err = c.Publish(ctx, []string{"nothing", "here"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatalf("unexpected matches %v", res.Matches)
	}
}

func TestBloomGateKeepsCorrectness(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 10)
	byTerm := seedWorkload(t, c)
	if err := c.RefreshBloom(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := c.Publish(ctx, []string{"cloud", "zzz-not-a-filter-term", "news"})
	if err != nil {
		t.Fatal(err)
	}
	want := wantIDs(byTerm, "cloud", "news")
	if got := fmt.Sprint(matchIDs(res.Matches)); got != fmt.Sprint(want) {
		t.Fatalf("matches with bloom = %v, want %v", got, want)
	}
}

func TestBloomReducesForwarding(t *testing.T) {
	ctx := context.Background()
	// Without bloom: every term of the doc is forwarded; with bloom, only
	// filter terms (modulo false positives).
	run := func(withBloom bool) int64 {
		c := newCluster(t, SchemeMove, 10)
		seedWorkload(t, c)
		if withBloom {
			if err := c.RefreshBloom(ctx); err != nil {
				t.Fatal(err)
			}
		}
		c.ResetTransferStats()
		doc := []string{"cloud", "junk1", "junk2", "junk3", "junk4", "junk5"}
		if _, err := c.Publish(ctx, doc); err != nil {
			t.Fatal(err)
		}
		return c.Transfers().Total
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Fatalf("bloom should cut transfers: with=%d without=%d", with, without)
	}
}

func TestRegisterValidation(t *testing.T) {
	c := newCluster(t, SchemeMove, 4)
	if _, err := c.Register(context.Background(), "x", nil, model.MatchAny); err == nil {
		t.Fatal("expected error for empty terms")
	}
}

func TestAllocationPreservesMatches(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 15)
	byTerm := seedWorkload(t, c)

	// Register a hot-spot term so the optimizer has something to allocate:
	// many filters on one term, many documents containing it.
	for i := 0; i < 200; i++ {
		if _, err := c.Register(ctx, "hotsub"+strconv.Itoa(i), []string{"hotterm"}, model.MatchAny); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Publish(ctx, []string{"hotterm", "pad" + strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}

	report, err := c.Allocate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", report.Epoch)
	}
	if report.GridsInstalled == 0 {
		t.Fatal("no grids installed despite hot spot")
	}

	// Matching must be identical after allocation.
	res, err := c.Publish(ctx, []string{"cloud", "news", "hotterm"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("publish incomplete after allocation")
	}
	got := matchIDs(res.Matches)
	if len(got) != len(wantIDs(byTerm, "cloud", "news"))+200 {
		t.Fatalf("got %d matches, want %d", len(got), len(wantIDs(byTerm, "cloud", "news"))+200)
	}
}

func TestAllocationSpreadsHomeLoad(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 15)
	for i := 0; i < 300; i++ {
		if _, err := c.Register(ctx, "s"+strconv.Itoa(i), []string{"hot"}, model.MatchAny); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := c.Publish(ctx, []string{"hot"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Allocate(ctx); err != nil {
		t.Fatal(err)
	}

	before, err := c.PullLoads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	processed := make(map[ring.NodeID]int64, len(before))
	for _, l := range before {
		processed[l.ID] = l.DocsProcessed
	}
	for i := 0; i < 60; i++ {
		if _, err := c.Publish(ctx, []string{"hot"}); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.PullLoads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The 60 documents must have been matched by more than one node
	// (grid fan-out), unlike the unallocated case where one home node
	// serves everything.
	serving := 0
	for _, l := range after {
		if l.DocsProcessed > processed[l.ID] {
			serving++
		}
	}
	if serving < 2 {
		t.Fatalf("only %d nodes served matches after allocation", serving)
	}
}

func TestAllocateRequiresMove(t *testing.T) {
	c := newCluster(t, SchemeIL, 5)
	seedWorkload(t, c)
	if _, err := c.Allocate(context.Background()); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

func TestAllocateWithoutFilters(t *testing.T) {
	c := newCluster(t, SchemeMove, 5)
	if _, err := c.Allocate(context.Background()); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

func TestFailureLosesMatchesButPublishCompletes(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeIL, 8)
	byTerm := seedWorkload(t, c)

	// Crash the home node of "cloud": the ring evicts it (as the gossip
	// failure detector would), so the publish re-homes and completes —
	// but the filters that lived there are lost until re-registration.
	home := homeOf(t, c, "cloud")
	c.FailNodes(home)
	res, err := c.Publish(ctx, []string{"cloud"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("publish should complete against the re-homed ring")
	}
	if len(res.Matches) != 0 {
		t.Fatalf("matches = %v, want none (filters died with their home)", res.Matches)
	}
	if got := c.AvailableFilterFraction(); got >= 1 {
		t.Fatalf("availability = %v, want < 1 after losing a home node", got)
	}

	// Recovery restores the node (and, in-memory store intact, its
	// filters).
	c.RecoverNodes(home)
	res, err = c.Publish(ctx, []string{"cloud"})
	if err != nil {
		t.Fatal(err)
	}
	want := wantIDs(byTerm, "cloud")
	if got := fmt.Sprint(matchIDs(res.Matches)); got != fmt.Sprint(want) {
		t.Fatalf("matches after recovery = %v, want %v", got, want)
	}
}

func homeOf(t *testing.T, c *Cluster, term string) ring.NodeID {
	t.Helper()
	home, err := c.HomeNode(term)
	if err != nil {
		t.Fatal(err)
	}
	return home
}

func TestMoveSurvivesHomeFailureAfterAllocation(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 15)
	for i := 0; i < 300; i++ {
		if _, err := c.Register(ctx, "s"+strconv.Itoa(i), []string{"hot"}, model.MatchAny); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := c.Publish(ctx, []string{"hot"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Allocate(ctx); err != nil {
		t.Fatal(err)
	}

	// Fail one grid node: replica rows must still answer.
	home := homeOf(t, c, "hot")
	grid, _ := c.Node(home).Grid()
	if grid == nil {
		t.Skip("optimizer chose not to allocate the hot node in this configuration")
	}
	if grid.Rows() < 2 {
		t.Skipf("grid %dx%d has no replica row", grid.Rows(), grid.Cols())
	}
	victim := grid.Node(0, 0)
	c.FailNodes(victim)
	res, err := c.Publish(ctx, []string{"hot"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("publish incomplete though a replica partition exists")
	}
	if len(res.Matches) != 300 {
		t.Fatalf("got %d matches, want 300", len(res.Matches))
	}
}

func TestAvailableFilterFractionIL(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeIL, 10)
	for i := 0; i < 100; i++ {
		if _, err := c.Register(ctx, "s"+strconv.Itoa(i), []string{"term" + strconv.Itoa(i)}, model.MatchAny); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.AvailableFilterFraction(); got != 1 {
		t.Fatalf("availability = %v, want 1 before failures", got)
	}
	victims := c.FailFraction(0.3, false)
	if len(victims) != 3 {
		t.Fatalf("failed %d nodes, want 3", len(victims))
	}
	got := c.AvailableFilterFraction()
	// IL stores one copy per (single-term) filter; failing 30% of nodes
	// loses ≈30%.
	if got < 0.5 || got > 0.95 {
		t.Fatalf("availability after 30%% failures = %v, want ≈0.7", got)
	}
	c.RecoverNodes(victims...)
	if got := c.AvailableFilterFraction(); got != 1 {
		t.Fatalf("availability = %v after recovery", got)
	}
}

// TestConjunctiveFilterIsDownWithItsKeyHome prices holding a MatchAll filter
// once per cluster (DESIGN.md §6): the home of its key term is its only
// holder, so while that node is down the filter is unavailable — counted so by
// AvailableFilterFraction (Figure 9 d) and matched by nothing — where a
// MatchAny filter over the same two terms stays reachable through its other
// home. Losing the other home costs the MatchAll filter nothing, and the key
// home's recovery brings the match back.
func TestConjunctiveFilterIsDownWithItsKeyHome(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 8)
	first := "storm"
	var terms []string
	for i := 0; terms == nil; i++ {
		if second := "alerts" + strconv.Itoa(i); homeOf(t, c, second) != homeOf(t, c, first) {
			terms = model.SortTerms([]string{first, second})
		}
	}
	all, err := c.Register(ctx, "conjunctive", terms, model.MatchAll)
	if err != nil {
		t.Fatal(err)
	}
	either, err := c.Register(ctx, "disjunctive", terms, model.MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	key := (&model.Filter{ID: all, Terms: terms}).KeyTerm()
	keyHome := homeOf(t, c, key)
	otherHome := homeOf(t, c, terms[0])
	if terms[0] == key {
		otherHome = homeOf(t, c, terms[1])
	}
	expect := func(label string, availability float64, want ...model.FilterID) {
		t.Helper()
		if got := c.AvailableFilterFraction(); got != availability {
			t.Fatalf("%s: availability = %v, want %v", label, got, availability)
		}
		res, err := c.Publish(ctx, terms)
		if err != nil {
			t.Fatal(err)
		}
		if got := matchIDs(res.Matches); !slices.Equal(got, want) {
			t.Fatalf("%s: matched %v, want %v", label, got, want)
		}
	}
	expect("all nodes up", 1, all, either)
	c.FailNodes(otherHome)
	expect("the other home down", 1, all, either)
	c.RecoverNodes(otherHome)
	c.FailNodes(keyHome)
	expect("the key home down", 0.5, either)
	c.RecoverNodes(keyHome)
	expect("the key home back", 1, all, either)
}

// TestConjunctiveFilterWithFreshKeyTermMatchesBeforeRefresh: a MatchAll filter
// whose key term the installed Bloom filter does not hold yet is registered on
// every home of its terms, as all filters were — no entry routes a document
// under the key term until RefreshBloom — and on the key term's home alone
// once the Bloom filter holds it.
func TestConjunctiveFilterWithFreshKeyTermMatchesBeforeRefresh(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 8)
	seedWorkload(t, c)
	if err := c.RefreshBloom(ctx); err != nil {
		t.Fatal(err)
	}
	holdersOf := func(id model.FilterID) int {
		c.placementMu.RLock()
		defer c.placementMu.RUnlock()
		return len(c.filterHolders[id])
	}
	// A fresh term of another home than "cloud" that is the next filter's key.
	next := model.FilterID(c.TotalFilters() + 1)
	var terms []string
	for i := 0; terms == nil; i++ {
		fresh := "fresh" + strconv.Itoa(i)
		f := model.Filter{ID: next, Terms: []string{"cloud", fresh}}
		if f.KeyTerm() == fresh && homeOf(t, c, fresh) != homeOf(t, c, "cloud") {
			terms = f.Terms
		}
	}
	id, err := c.Register(ctx, "early", terms, model.MatchAll)
	if err != nil || id != next {
		t.Fatalf("Register = %v, %v; want filter %v", id, err, next)
	}
	matched := func() bool {
		t.Helper()
		res, err := c.Publish(ctx, terms)
		if err != nil {
			t.Fatal(err)
		}
		return slices.Contains(matchIDs(res.Matches), id)
	}
	if !matched() || holdersOf(id) != 2 {
		t.Fatalf("before the refresh: matched=%v on %d holders, want a match and both homes holding it", matched(), holdersOf(id))
	}
	if err := c.RefreshBloom(ctx); err != nil {
		t.Fatal(err)
	}
	again, err := c.Register(ctx, "late", terms, model.MatchAll)
	if err != nil {
		t.Fatal(err)
	}
	if !matched() || holdersOf(again) != 1 {
		t.Fatalf("after the refresh: matched=%v, the filter registered now has %d holders, want a match and one holder", matched(), holdersOf(again))
	}
}

func TestAvailableFilterFractionRSReplicated(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeRS, 10)
	for i := 0; i < 100; i++ {
		if _, err := c.Register(ctx, "s"+strconv.Itoa(i), []string{"term" + strconv.Itoa(i)}, model.MatchAny); err != nil {
			t.Fatal(err)
		}
	}
	victims := c.FailFraction(0.3, false)
	got := c.AvailableFilterFraction()
	// The key/value platform's three-fold replication keeps most filters
	// reachable: a filter is lost only when all 3 consecutive holders
	// failed.
	if got < 0.9 {
		t.Fatalf("availability after 30%% failures = %v, want >= 0.9 with RF=3", got)
	}
	c.RecoverNodes(victims...)
	if got := c.AvailableFilterFraction(); got != 1 {
		t.Fatalf("availability = %v after recovery", got)
	}
}

func TestFailFractionByRack(t *testing.T) {
	c := newCluster(t, SchemeMove, 20) // 4 racks of 5
	victims := c.FailFraction(0.25, true)
	if len(victims) != 5 {
		t.Fatalf("failed %d nodes, want 5 (one rack)", len(victims))
	}
	rack := ""
	for _, v := range victims {
		r := c.rackOf[v]
		if rack == "" {
			rack = r
		}
		if r != rack {
			t.Fatalf("rack-correlated failure spans racks %q and %q", rack, r)
		}
	}
	if c.AliveCount() != 15 {
		t.Fatalf("alive = %d, want 15", c.AliveCount())
	}
}

func TestTransferAccounting(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 10)
	seedWorkload(t, c)
	c.ResetTransferStats()
	if _, err := c.Publish(ctx, []string{"cloud", "news"}); err != nil {
		t.Fatal(err)
	}
	tr := c.Transfers()
	if tr.Total < 2 {
		t.Fatalf("transfers = %d, want >= 2 (one per term)", tr.Total)
	}
	if tr.IntraRack > tr.Total {
		t.Fatal("intra-rack exceeds total")
	}
	var sum int64
	for _, n := range tr.PerNodeReceived {
		sum += n
	}
	if sum != tr.Total {
		t.Fatalf("per-node sum %d != total %d", sum, tr.Total)
	}
}

func TestRingEvictionRehomesTerms(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 10)
	seedWorkload(t, c)
	home := homeOf(t, c, "news")
	c.FailNodes(home)

	newHome, err := c.HomeNode("news")
	if err != nil {
		t.Fatal(err)
	}
	if newHome == home {
		t.Fatal("term still homed on evicted node")
	}
	// New registrations for the term land on the new home and match.
	id, err := c.Register(ctx, "late", []string{"news"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Publish(ctx, []string{"news"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range res.Matches {
		if m.Filter == id {
			found = true
		}
	}
	if !found {
		t.Fatal("filter registered after eviction not matched")
	}
}

func TestRSFloodsEveryNode(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeRS, 9)
	seedWorkload(t, c)
	c.ResetTransferStats()
	if _, err := c.Publish(ctx, []string{"anything"}); err != nil {
		t.Fatal(err)
	}
	if tr := c.Transfers(); tr.Total != 9 {
		t.Fatalf("RS transfers = %d, want 9 (flood)", tr.Total)
	}
}

func TestCountersAndAccessors(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 6)
	seedWorkload(t, c)
	if _, err := c.Publish(ctx, []string{"news"}); err != nil {
		t.Fatal(err)
	}
	if c.TotalFilters() != 6 {
		t.Fatalf("TotalFilters = %d, want 6", c.TotalFilters())
	}
	if c.TotalDocs() != 1 {
		t.Fatalf("TotalDocs = %d, want 1", c.TotalDocs())
	}
	if c.Size() != 6 || len(c.NodeIDs()) != 6 {
		t.Fatal("size accessors wrong")
	}
	if c.Scheme() != SchemeMove {
		t.Fatal("scheme accessor wrong")
	}
}

// TestDeliveryCallback: a publish's match set lands in the hub session of
// each matched subscriber on its owner — dave's and erin's, queued for their
// first attach — and in no other session.
func TestDeliveryCallback(t *testing.T) {
	ctx := context.Background()
	c, err := New(Config{Scheme: SchemeMove, Nodes: 8, Seed: 1, Delivery: &delivery.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedWorkload(t, c)
	res, err := c.Publish(ctx, []string{"news"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"dave", "erin"} {
		owner, err := c.SubscriberOwner(sub)
		if err != nil {
			t.Fatal(err)
		}
		if ss, _ := c.DeliveryHub(owner).Snapshot(sub); !slices.Equal(ss.QueuedDocs, []uint64{res.DocID}) {
			t.Fatalf("%s's session on %s queues docs %v, want [%d]", sub, owner, ss.QueuedDocs, res.DocID)
		}
	}
	sessions := 0
	c.EachDeliveryHub(func(_ ring.NodeID, h *delivery.Hub) { sessions += h.SessionCount() })
	if sessions != 2 {
		t.Fatalf("%d sessions across the hubs, want dave's and erin's", sessions)
	}
}

func TestUnregisterRemovesMatches(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 8)
	byTerm := seedWorkload(t, c)
	victim := byTerm["cloud"][0] // alice's {cloud, storage}

	if err := c.Unregister(ctx, victim); err != nil {
		t.Fatal(err)
	}
	res, err := c.Publish(ctx, []string{"cloud", "storage"})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.Filter == victim {
			t.Fatalf("unregistered filter %v still matched", victim)
		}
	}
	// Availability bookkeeping forgets it too.
	if err := c.Unregister(ctx, victim); err == nil {
		t.Fatal("double unregister should error")
	}
}

func TestUnregisterRSRemovesAllReplicas(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeRS, 6)
	id, err := c.Register(ctx, "sub", []string{"solo"}, model.MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister(ctx, id); err != nil {
		t.Fatal(err)
	}
	res, err := c.Publish(ctx, []string{"solo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatalf("matches after RS unregister = %v", res.Matches)
	}
}

func TestAllocStrategiesRun(t *testing.T) {
	ctx := context.Background()
	for _, s := range []alloc.Strategy{alloc.StrategyTheorem1, alloc.StrategyTheorem2, alloc.StrategyGeneral, alloc.StrategyUniform} {
		c, err := New(Config{Scheme: SchemeMove, Nodes: 10, Seed: 5, AllocStrategy: s, Capacity: 1000})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if _, err := c.Register(ctx, "s", []string{"hot", "t" + strconv.Itoa(i)}, model.MatchAny); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			if _, err := c.Publish(ctx, []string{"hot"}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Allocate(ctx); err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		res, err := c.Publish(ctx, []string{"hot"})
		if err != nil || !res.Complete {
			t.Fatalf("strategy %v: publish after allocate: %v complete=%v", s, err, res.Complete)
		}
		if len(res.Matches) != 50 {
			t.Fatalf("strategy %v: %d matches, want 50", s, len(res.Matches))
		}
	}
}
