package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// churnRounds returns the soak length: short by default so the race
// detector's CI budget holds, CHURN_ROUNDS=100 for the full `make
// soak-churn` run the acceptance criteria demand.
func churnRounds(t *testing.T) int {
	if v := os.Getenv("CHURN_ROUNDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("CHURN_ROUNDS=%q is not a positive integer", v)
		}
		return n
	}
	return 12
}

// canonicalIDs renders a match list as a canonical string — the
// byte-identical comparison the zero-loss guarantee is asserted with.
func canonicalIDs(ids []model.FilterID) string {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d,", id)
	}
	return b.String()
}

// assertAggregatedCovers verifies that the covering index's compression
// accounting stayed exact across every epoch of the run: each node's live
// cover members equal its filter count (no dropped or phantom index entries
// survived migration, abort unwinding, or crash churn), the stored posting
// entries never exceed the logical postings, and the savings arithmetic is
// internally consistent.
func assertAggregatedCovers(t *testing.T, c *Cluster) {
	t.Helper()
	totalCovers, totalMembers, totalSaved := 0, 0, 0
	for _, id := range c.nodeIDs {
		ix := c.Node(id).Index()
		cs := ix.CoverStats()
		if live := ix.NumFilters(); cs.CoveredFilters != live {
			t.Fatalf("node %s: %d covered filters but the index holds %d live definitions", id, cs.CoveredFilters, live)
		}
		if cs.StoredEntries > cs.LogicalPostings {
			t.Fatalf("node %s: stored %d posting entries for only %d logical postings", id, cs.StoredEntries, cs.LogicalPostings)
		}
		if want := cs.LogicalPostings - cs.StoredEntries; cs.PostingsSaved != want {
			t.Fatalf("node %s: PostingsSaved = %d, want %d (logical %d - stored %d)",
				id, cs.PostingsSaved, want, cs.LogicalPostings, cs.StoredEntries)
		}
		if cs.CoveredFilters > 0 && cs.Covers == 0 {
			t.Fatalf("node %s: %d live filters but no live covers", id, cs.CoveredFilters)
		}
		totalCovers += cs.Covers
		totalMembers += cs.CoveredFilters
		totalSaved += cs.PostingsSaved
	}
	// The workloads register many same-signature filters, so aggregation
	// must actually have compressed: strictly fewer covers than members.
	if totalMembers > 0 && totalCovers >= totalMembers {
		t.Fatalf("no cover sharing: %d covers for %d filters", totalCovers, totalMembers)
	}
	t.Logf("cover integrity: %d covers / %d filters cluster-wide, %d posting entries saved",
		totalCovers, totalMembers, totalSaved)
}

// TestChurnSoak drives the two-phase reallocation protocol through a
// Zipf-drifting workload with flash crowds, seeded fault injection on the
// data path, and periodic crash/recover churn. On every single publish the
// reported match set must be byte-identical to a brute-force oracle —
// including publishes racing a reallocation round through its dual-read
// window. Rounds that abort (a grid target died mid-prepare) must leave the
// cluster on the old epoch with no partial state.
//
// A third of the population is conjunctive (MatchAll, up to three terms), each
// held by the home of its key term alone and keyed once there by the home
// itself (node.conjunctiveKey), live IDs register again every round, and every
// sixth round registers one on a freshly recovered home
// (registerOnRecoveredHome) — so the oracle also holds the invariant that
// every forward and migration repeats the home's key.
func TestChurnSoak(t *testing.T) {
	ctx := context.Background()
	c, err := New(Config{
		Scheme:   SchemeMove,
		Nodes:    12,
		RackSize: 3,
		Capacity: 100_000,
		Seed:     7,
		Fault: &transport.FaultConfig{
			Seed:    7,
			Default: transport.FaultProbs{Drop: 0.01, Error: 0.01, Duplicate: 0.01},
		},
		Resilience: &resilience.Policy{
			MaxAttempts:      5,
			BaseDelay:        200 * time.Microsecond,
			MaxDelay:         2 * time.Millisecond,
			BreakerThreshold: 12,
			BreakerCooldown:  20 * time.Millisecond,
			Retryable:        transport.IsAvailabilityError,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	allocate := func(ctx context.Context) error {
		_, err := c.Allocate(ctx)
		return err
	}

	// Brute-force oracle: every registered filter as the cluster stored it,
	// in registration order.
	var oracle []model.Filter
	conjMatches := 0 // MatchAll filters the oracle expected, over all publishes
	registerMode := func(sub string, terms []string, mode model.MatchMode) model.Filter {
		t.Helper()
		id, err := c.Register(ctx, sub, terms, mode)
		if err != nil {
			t.Fatal(err)
		}
		f := model.Filter{ID: id, Subscriber: sub, Terms: model.SortTerms(append([]string(nil), terms...)), Mode: mode}
		oracle = append(oracle, f)
		return f
	}
	register := func(sub string, terms []string) {
		t.Helper()
		registerMode(sub, terms, model.MatchAny)
	}
	oracleMatch := func(doc []string) string {
		set := make(map[string]struct{}, len(doc))
		for _, d := range doc {
			set[d] = struct{}{}
		}
		var ids []model.FilterID
		for _, f := range oracle {
			held := 0
			for _, ft := range f.Terms {
				if _, ok := set[ft]; ok {
					held++
				}
			}
			if held == len(f.Terms) || (f.Mode == model.MatchAny && held > 0) {
				ids = append(ids, f.ID)
				if f.Mode == model.MatchAll {
					conjMatches++
				}
			}
		}
		return canonicalIDs(ids)
	}
	// checkPublish publishes doc and asserts byte-identical match sets.
	checkPublish := func(round int, doc []string) {
		t.Helper()
		res, err := c.Publish(ctx, doc)
		if err != nil {
			t.Fatalf("round %d: publish %v: %v", round, doc, err)
		}
		got := canonicalIDs(matchIDs(res.Matches))
		if want := oracleMatch(doc); got != want {
			t.Fatalf("round %d: dropped or phantom matches for %v:\n got %s\nwant %s", round, doc, got, want)
		}
	}

	// Zipf-drifting vocabulary: 40 keyword slots; the rank→slot mapping
	// rotates every round so the hot set migrates between home nodes.
	const vocab = 40
	zipf := rand.NewZipf(rng, 1.3, 1.0, vocab-1)
	term := func(round int) string {
		return fmt.Sprintf("k%d", (int(zipf.Uint64())+round)%vocab)
	}

	// The conjunctive third of the population and the wider documents that can
	// match it draw from a stream of their own, so the disjunctive workload is
	// the one this soak has always run.
	conj := rand.New(rand.NewSource(13))
	conjZipf := rand.NewZipf(conj, 1.3, 1.0, vocab-1)
	conjTerms := func(round, n int) []string {
		terms := make([]string, n)
		for i := range terms {
			terms[i] = fmt.Sprintf("k%d", (int(conjZipf.Uint64())+round)%vocab)
		}
		return terms
	}
	// population adds one round's conjunctive filters, registers a few live
	// IDs again — same definition, same homes: the copies and keys they have
	// are the ones they keep — and checks documents wide enough to match them.
	population := func(round, filters int) {
		t.Helper()
		for i := 0; i < filters; i++ {
			registerMode(fmt.Sprintf("c%d-%d", round, i), conjTerms(round, 3), model.MatchAll)
		}
		for i := 0; i < 5; i++ {
			if _, err := c.registerFilter(ctx, oracle[conj.Intn(len(oracle))]); err != nil {
				t.Fatalf("round %d: re-register a live ID: %v", round, err)
			}
		}
		for i := 0; i < 10; i++ {
			checkPublish(round, conjTerms(round, 6))
		}
	}

	for i := 0; i < 200; i++ {
		register("seed"+strconv.Itoa(i), []string{term(0), term(0)})
	}
	population(0, 100)
	for i := 0; i < 30; i++ {
		checkPublish(0, []string{term(0), term(0)})
	}

	rounds := churnRounds(t)
	aborted, committed := 0, 0
	for round := 1; round <= rounds; round++ {
		// Drift: new filters follow the rotated keyword ranking.
		for i := 0; i < 10; i++ {
			register(fmt.Sprintf("r%d-%d", round, i), []string{term(round), term(round)})
		}
		population(round, 5)
		if round%6 == 1 {
			f := registerOnRecoveredHome(t, c, round, registerMode)
			for i := 0; i < 5; i++ {
				checkPublish(round, append(conjTerms(round, i), f.Terms...))
			}
		}
		// Flash crowd every 4th round: a cold term becomes the hottest
		// thing in the system inside one round.
		flash := ""
		if round%4 == 0 {
			flash = "flash" + strconv.Itoa(round)
			for i := 0; i < 40; i++ {
				register(fmt.Sprintf("f%d-%d", round, i), []string{flash})
			}
			for i := 0; i < 25; i++ {
				checkPublish(round, []string{flash, term(round)})
			}
		}

		if round%5 == 2 {
			// Forced-abort round. Simulate a coordinator restart (its
			// committed-grid memory is wiped, so every home re-prepares)
			// and crash the second prepare mid-round: the first
			// home has already installed a pending grid and replayed its
			// migrations when the abort broadcast goes out. Everything must
			// unwind under the live workload.
			c.gridsMu.Lock()
			if len(c.committedGrids) < 2 {
				c.gridsMu.Unlock()
				t.Fatalf("round %d: only %d committed grids; soak workload too cold to force an abort", round, len(c.committedGrids))
			}
			for home, g := range c.committedGrids {
				c.prevGrids = append(c.prevGrids, g)
				delete(c.committedGrids, home)
			}
			c.gridsMu.Unlock()
			before := c.CommittedEpoch()
			beforeCopies := totalStoredFilters(c)
			calls := 0
			c.prepareHook = func(ring.NodeID) error {
				calls++
				if calls == 2 {
					return fmt.Errorf("injected mid-prepare crash")
				}
				return nil
			}
			aerr := allocate(ctx)
			c.prepareHook = nil
			if aerr == nil {
				t.Fatalf("round %d: forced-abort round committed; the hook saw %d prepares", round, calls)
			}
			aborted++
			if got := c.CommittedEpoch(); got != before {
				t.Fatalf("round %d: aborted round moved the committed epoch %d -> %d", round, before, got)
			}
			assertNoPendingState(t, c, before)
			if after := totalStoredFilters(c); after != beforeCopies {
				t.Fatalf("round %d: abort leaked filter copies: %d -> %d", round, beforeCopies, after)
			}
			for i := 0; i < 10; i++ {
				checkPublish(round, []string{term(round), term(round)})
			}
		}

		if round%3 == 0 {
			// Churn round: crash a slice of the cluster and reallocate.
			// Publishing pauses — with nodes down, completeness is out of
			// scope (covered by TestSoakFailureRecoveryCycles); this round
			// is about the coordinator surviving and aborting cleanly.
			before := c.CommittedEpoch()
			victims := c.FailFraction(0.25, round%2 == 0)
			if err := allocate(ctx); err != nil {
				aborted++
				if got := c.CommittedEpoch(); got != before {
					t.Fatalf("round %d: aborted round moved the committed epoch %d -> %d", round, before, got)
				}
				assertNoPendingState(t, c, before)
			} else {
				committed++
				if got := c.CommittedEpoch(); got <= before {
					t.Fatalf("round %d: committed round left epoch at %d", round, got)
				}
			}
			c.RecoverNodes(victims...)
		}

		// Reallocation concurrent with live publishes: every publish below
		// races the prepare/migrate/commit pipeline and must still match
		// the oracle exactly (the dual-read window guarantee).
		done := make(chan error, 1)
		go func() { done <- allocate(context.Background()) }()
		docs := 20
		for i := 0; i < docs; i++ {
			doc := []string{term(round), term(round)}
			if flash != "" && i%3 == 0 {
				doc = append(doc, flash)
			}
			if i%4 == 3 {
				doc = conjTerms(round, 6)
			}
			checkPublish(round, doc)
		}
		if err := <-done; err != nil {
			// A data-path fault burst exhausted a migration's retries:
			// the round aborts, the old epoch keeps serving.
			aborted++
			assertNoPendingState(t, c, c.CommittedEpoch())
		} else {
			committed++
		}
		// Post-round: the cutover (or abort) settled; matching must be
		// exact with no dual-read leftovers, and the covering index's
		// accounting must have survived the epoch boundary intact.
		for i := 0; i < 10; i++ {
			checkPublish(round, []string{term(round), term(round)})
			checkPublish(round, conjTerms(round, 6))
		}
		assertAggregatedCovers(t, c)
	}

	if committed == 0 {
		t.Fatal("soak committed no reallocation rounds")
	}
	t.Logf("churn soak: %d rounds (%d committed, %d aborted), %d filters, final epoch %d",
		rounds, committed, aborted, len(oracle), c.CommittedEpoch())
	assertKeyedOncePerHome(t, c, oracle)
	if conjMatches < 30*rounds {
		t.Fatalf("the oracle expected only %d MatchAll matches over %d rounds; the documents do not exercise the conjunctive filters", conjMatches, rounds)
	}
	t.Logf("the oracle expected %d MatchAll matches", conjMatches)

	// The dual-read window instrumentation saw real cutovers and the epoch
	// gauge agrees with the coordinator.
	if h, ok := c.Metrics().Histograms()["realloc.dualread.window"]; !ok || h.Count == 0 {
		t.Fatal("realloc.dualread.window histogram is empty; no dual-read window was ever observed")
	}
	if snap := c.Metrics().Snapshot(); snap["realloc.epoch"] != int64(c.CommittedEpoch()) {
		t.Fatalf("realloc.epoch gauge = %d, coordinator says %d", snap["realloc.epoch"], c.CommittedEpoch())
	}
}

// registerOnRecoveredHome walks, on the live cluster, a registration on a
// home that has just lost its forwarding table: the home fails and recovers,
// a MatchAll filter over two terms of it registers live — keyed by the home
// under the shorter list, and forwarded nowhere — and the home's grid is
// then cut over to peers holding no copy of it, so what they answer is what
// the prepare's migration shipped. Returns the filter; the caller publishes
// against the oracle.
func registerOnRecoveredHome(t *testing.T, c *Cluster, round int, register func(sub string, terms []string, mode model.MatchMode) model.Filter) model.Filter {
	t.Helper()
	ctx := context.Background()
	// Two fresh terms of one home, so no other filter's posting decides the key.
	byHome := make(map[ring.NodeID]string)
	var home ring.NodeID
	var own, key string
	for i := 0; key == ""; i++ {
		term := fmt.Sprintf("hz%d-%d", round, i)
		h, err := c.HomeNode(term)
		if err != nil {
			t.Fatal(err)
		}
		if first, ok := byHome[h]; ok {
			home, own, key = h, first, term
		}
		byHome[h] = term
	}
	c.FailNodes(home)
	c.RecoverNodes(home)
	for i := 0; i < 6; i++ { // own's list is the longer one
		register(fmt.Sprintf("hz%d-any%d", round, i), []string{own}, model.MatchAny)
	}
	f := register(fmt.Sprintf("hz%d-all", round), []string{own, key}, model.MatchAll)
	if got := c.Node(home).Index().PostedUnder(f.ID, f.Terms); len(got) != 1 || got[0] != key {
		t.Fatalf("round %d: live filter %v is posted under %v on %s, want [%s]", round, f.ID, got, home, key)
	}
	peers, err := c.ring.AllocationNodesOf(home, 3, c.cfg.Placement)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := alloc.NewGrid(1, 3, peers)
	if err != nil {
		t.Fatal(err)
	}
	// Retry a round a data-path fault burst aborted.
	for attempt := 0; ; attempt++ {
		_, err := c.cutover(ctx, time.Now(), nil, []Prep{{Home: home, Grid: grid}})
		if err == nil {
			return f
		}
		if attempt == 4 {
			t.Fatalf("round %d: cutover of %s's grid: %v", round, home, err)
		}
	}
}

// assertKeyedOncePerHome checks the layout the soak leaves behind — through
// every forward, replay, abort and re-registration of the run: the home of a
// MatchAll filter's key term holds it, posted under exactly one term of that
// home's share; its other homes declined it, or were never sent it, and hold no
// posting of it under their own share (as grid columns they may under the key
// home's); filterHolders' home is that one node. Enough filters had a choice
// of home, and enough a choice of term on it.
func assertKeyedOncePerHome(t *testing.T, c *Cluster, filters []model.Filter) {
	t.Helper()
	declined, chose := 0, 0
	for _, f := range filters {
		if f.Mode != model.MatchAll {
			continue
		}
		byHome := make(map[ring.NodeID][]string)
		for _, term := range f.Terms {
			home, err := c.HomeNode(term)
			if err != nil {
				t.Fatal(err)
			}
			byHome[home] = append(byHome[home], term)
		}
		for home, terms := range byHome {
			got := c.Node(home).Index().PostedUnder(f.ID, terms)
			if !slices.Contains(terms, f.KeyTerm()) {
				if len(got) != 0 {
					t.Fatalf("MatchAll filter %v (key term %s) is posted under %v on %s, a home that holds no key term of it", f.ID, f.KeyTerm(), got, home)
				}
				declined++
				continue
			}
			if len(got) != 1 {
				t.Fatalf("MatchAll filter %v is posted under %v of its terms %v on its key home %s, want exactly one", f.ID, got, terms, home)
			}
			if len(terms) > 1 {
				chose++
			}
			c.placementMu.RLock()
			homes := c.homeHolders[f.ID]
			c.placementMu.RUnlock()
			if !slices.Equal(homes, []ring.NodeID{home}) {
				t.Fatalf("MatchAll filter %v: homeHolders %v, want its key home %s alone", f.ID, homes, home)
			}
		}
	}
	if declined < 50 || chose < 10 {
		t.Fatalf("%d homes held no key term of a MatchAll filter of theirs and %d key homes had two terms to choose from; the soak does not exercise the key", declined, chose)
	}
	t.Logf("held once per cluster: %d other homes hold nothing of a MatchAll filter, %d key homes chose among several terms", declined, chose)
}
