package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

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

// assertAggregatedCovers verifies the cluster serves from the aggregated
// (covering) index and that its compression accounting stayed exact across
// every epoch of the run: each node's live cover members equal its filter
// count (no dropped or phantom index entries survived migration, abort
// unwinding, or crash churn), the stored posting entries never exceed the
// flat-equivalent logical postings, and the savings arithmetic is
// internally consistent.
func assertAggregatedCovers(t *testing.T, c *Cluster) {
	t.Helper()
	totalCovers, totalMembers, totalSaved := 0, 0, 0
	for _, id := range c.nodeIDs {
		ix := c.nodes[id].Index()
		if !ix.Aggregated() {
			t.Fatalf("node %s: index is not aggregated", id)
		}
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
// data path, and periodic crash/recover churn. Every round is drawn at
// random as a per-node or a per-term one — both cut over the same way. On every single publish the
// reported match set must be byte-identical to a brute-force oracle —
// including publishes racing a reallocation round through its dual-read
// window. Rounds that abort (a grid target died mid-prepare) must leave the
// cluster on the old epoch with no partial state.
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
	// The flavor of each allocation round has its own stream so it does not
	// perturb the workload's draws.
	flavor := rand.New(rand.NewSource(11))
	perNode, perTerm := 0, 0
	allocate := func(ctx context.Context) error {
		if flavor.Intn(2) == 0 {
			perNode++
			_, err := c.Allocate(ctx)
			return err
		}
		perTerm++
		_, err := c.AllocateByTerm(ctx, 8)
		return err
	}

	// Brute-force oracle: every registered filter with its terms.
	oracle := make(map[model.FilterID][]string)
	register := func(sub string, terms []string) {
		t.Helper()
		id, err := c.Register(ctx, sub, terms, model.MatchAny, 0)
		if err != nil {
			t.Fatal(err)
		}
		oracle[id] = terms
	}
	oracleMatch := func(doc []string) string {
		set := make(map[string]struct{}, len(doc))
		for _, d := range doc {
			set[d] = struct{}{}
		}
		var ids []model.FilterID
		for id, terms := range oracle {
			for _, ft := range terms {
				if _, ok := set[ft]; ok {
					ids = append(ids, id)
					break
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

	for i := 0; i < 200; i++ {
		register("seed"+strconv.Itoa(i), []string{term(0), term(0)})
	}
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
			// committed-grid memory is wiped, so every home and hot term
			// re-prepares) and crash the second prepare mid-round: the first
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
		}
		assertAggregatedCovers(t, c)
	}

	if committed == 0 {
		t.Fatal("soak committed no reallocation rounds")
	}
	t.Logf("churn soak: %d rounds (%d committed, %d aborted; %d per-node, %d per-term), %d filters, final epoch %d",
		rounds, committed, aborted, perNode, perTerm, len(oracle), c.CommittedEpoch())
	if perNode == 0 || perTerm == 0 {
		t.Fatalf("soak drew %d per-node and %d per-term rounds; both flavors must run", perNode, perTerm)
	}

	// The dual-read window instrumentation saw real cutovers and the epoch
	// gauge agrees with the coordinator.
	if h, ok := c.Metrics().Histograms()["realloc.dualread.window"]; !ok || h.Count == 0 {
		t.Fatal("realloc.dualread.window histogram is empty; no dual-read window was ever observed")
	}
	if snap := c.Metrics().Snapshot(); snap["realloc.epoch"] != int64(c.CommittedEpoch()) {
		t.Fatalf("realloc.epoch gauge = %d, coordinator says %d", snap["realloc.epoch"], c.CommittedEpoch())
	}
}
