package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// TestSoakFailureRecoveryCycles churns the cluster through crash/recover
// cycles interleaved with publishes and allocation rounds, asserting two
// safety properties throughout:
//
//  1. no phantom matches — every reported match is a filter the oracle
//     knows (never an unregistered or fabricated one);
//  2. full recovery — once all nodes are back, matching returns to the
//     exact oracle set.
func TestSoakFailureRecoveryCycles(t *testing.T) {
	ctx := context.Background()
	c, err := New(Config{Scheme: SchemeMove, Nodes: 15, Capacity: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	filters := make(map[model.FilterID][]string)

	term := func() string { return fmt.Sprintf("t%d", rng.Intn(30)) }
	for i := 0; i < 120; i++ {
		terms := model.SortTerms([]string{term(), term()})
		id, err := c.Register(ctx, "s", terms, model.MatchAny)
		if err != nil {
			t.Fatal(err)
		}
		filters[id] = terms
	}
	oracleMatch := func(doc []string) map[model.FilterID]bool {
		set := make(map[string]struct{}, len(doc))
		for _, d := range doc {
			set[d] = struct{}{}
		}
		out := make(map[model.FilterID]bool)
		for id, terms := range filters {
			for _, ft := range terms {
				if _, ok := set[ft]; ok {
					out[id] = true
					break
				}
			}
		}
		return out
	}

	for cycle := 0; cycle < 6; cycle++ {
		// Warm publishes + allocation while healthy.
		for i := 0; i < 20; i++ {
			if _, err := c.Publish(ctx, []string{term(), term(), fmt.Sprintf("x%d", rng.Intn(100))}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Allocate(ctx); err != nil {
			t.Fatal(err)
		}

		// Crash a random 20–40% of the cluster.
		frac := 0.2 + 0.2*rng.Float64()
		victims := c.FailFraction(frac, cycle%2 == 0)
		if len(victims) == 0 {
			t.Fatal("no victims selected")
		}

		// Publishes under failure must never produce phantom matches.
		for i := 0; i < 10; i++ {
			doc := model.SortTerms([]string{term(), term()})
			res, err := c.Publish(ctx, doc)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleMatch(doc)
			for _, m := range res.Matches {
				if !want[m.Filter] {
					t.Fatalf("cycle %d: phantom match %v for doc %v", cycle, m.Filter, doc)
				}
			}
		}

		// Recover everyone; matching must return to the exact oracle set.
		c.RecoverNodes(victims...)
		if c.AliveCount() != 15 {
			t.Fatalf("cycle %d: alive=%d after recovery", cycle, c.AliveCount())
		}
		for i := 0; i < 5; i++ {
			doc := model.SortTerms([]string{term(), term()})
			res, err := c.Publish(ctx, doc)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete {
				t.Fatalf("cycle %d: incomplete publish after full recovery", cycle)
			}
			got := make(map[model.FilterID]bool, len(res.Matches))
			for _, m := range res.Matches {
				got[m.Filter] = true
			}
			want := oracleMatch(doc)
			if len(got) != len(want) {
				t.Fatalf("cycle %d: doc %v matched %d filters, oracle says %d", cycle, doc, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("cycle %d: missing match %v after recovery", cycle, id)
				}
			}
		}
	}
}

// installDeterministicGrid registers `filters` single-term filters on the
// home of "hot" and installs a hand-built 2x2 allocation grid there (the
// optimizer is bypassed so the test controls exactly which nodes hold
// which column).
func installDeterministicGrid(t *testing.T, c *Cluster, filters int) (home ring.NodeID, grid *alloc.Grid) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < filters; i++ {
		if _, err := c.Register(ctx, "s", []string{"hot"}, model.MatchAny); err != nil {
			t.Fatal(err)
		}
	}
	home, err := c.HomeNode("hot")
	if err != nil {
		t.Fatal(err)
	}
	var peers []ring.NodeID
	for _, id := range c.NodeIDs() {
		if id != home {
			peers = append(peers, id)
		}
	}
	grid, err = alloc.NewGrid(2, 2, peers[:4])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.sendTo(ctx, home, node.EncodePrepareAlloc(1, grid)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.sendTo(ctx, home, node.EncodeCommitGrid(1)); err != nil {
		t.Fatal(err)
	}
	return home, grid
}

// TestClusterReplicaRowFailover is the cluster-level acceptance scenario:
// a publish keeps returning the full match set when one node of the
// chosen partition row dies (the column fails over to the other row, and
// publish.failover increments), and degrades to exactly the surviving
// columns' filters — Degraded set, ColumnsLost counted, no error — when
// every row of a column is dead (§VI availability model).
func TestClusterReplicaRowFailover(t *testing.T) {
	ctx := context.Background()
	c, err := New(Config{Scheme: SchemeMove, Nodes: 8, Capacity: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const filters = 40
	_, grid := installDeterministicGrid(t, c, filters)

	publish := func(label string) PublishResult {
		t.Helper()
		res, err := c.Publish(ctx, []string{"hot"})
		if err != nil {
			t.Fatalf("%s: publish: %v", label, err)
		}
		return res
	}

	if res := publish("healthy"); len(res.Matches) != filters || !res.Complete {
		t.Fatalf("healthy: %d matches complete=%v, want %d/true", len(res.Matches), res.Complete, filters)
	}

	// One node down per row, different columns: failover keeps coverage.
	c.FailNodes(grid.Node(0, 0), grid.Node(1, 1))
	for i := 0; i < 4; i++ {
		res := publish("one-per-row")
		if len(res.Matches) != filters || !res.Complete || res.Degraded {
			t.Fatalf("one-per-row: matches=%d complete=%v degraded=%v, want full set via failover",
				len(res.Matches), res.Complete, res.Degraded)
		}
	}
	if got := c.Metrics().Counter("publish.failover").Value(); got == 0 {
		t.Fatal("publish.failover = 0, failover path never taken")
	}

	// Column 0 dead in every row: only column-1 filters remain reachable.
	c.FailNodes(grid.Node(1, 0))
	wantSurvivors := 0
	for i := 1; i <= filters; i++ {
		if grid.Column(model.FilterID(i)) != 0 {
			wantSurvivors++
		}
	}
	res := publish("column-dead")
	if !res.Degraded || res.ColumnsLost != 1 || res.Complete {
		t.Fatalf("column-dead: degraded=%v lost=%d complete=%v, want degraded partial result",
			res.Degraded, res.ColumnsLost, res.Complete)
	}
	if len(res.Matches) != wantSurvivors {
		t.Fatalf("column-dead: matches=%d, want %d (only surviving columns)", len(res.Matches), wantSurvivors)
	}
	if c.Metrics().Counter("publish.degraded").Value() == 0 {
		t.Fatal("publish.degraded = 0")
	}

	// Recovery resets the breakers (gossip node-up): full set returns.
	c.RecoverNodes(grid.Node(0, 0), grid.Node(1, 0), grid.Node(1, 1))
	if res := publish("recovered"); len(res.Matches) != filters || !res.Complete {
		t.Fatalf("recovered: %d matches complete=%v, want %d/true", len(res.Matches), res.Complete, filters)
	}
}

// TestClusterPublishUnderInjectedFaults churns publishes through a lossy
// fabric (5% drops, 2% duplicate deliveries on every node-to-node link)
// and asserts the §VI.A contract holds: no phantom matches, no hard
// errors (availability losses only cost completeness), duplicates never
// double-match, and the retry layer visibly engages.
func TestClusterPublishUnderInjectedFaults(t *testing.T) {
	ctx := context.Background()
	c, err := New(Config{
		Scheme: SchemeMove, Nodes: 10, Capacity: 400, Seed: 11,
		Fault: &transport.FaultConfig{
			Seed:    11,
			Default: transport.FaultProbs{Drop: 0.05, Duplicate: 0.02},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	term := func() string { return fmt.Sprintf("t%d", rng.Intn(25)) }
	filters := make(map[model.FilterID][]string)
	for i := 0; i < 80; i++ {
		terms := model.SortTerms([]string{term(), term()})
		id, err := c.Register(ctx, "s", terms, model.MatchAny)
		if err != nil {
			t.Fatal(err)
		}
		filters[id] = terms
	}

	complete := 0
	const docs = 200
	for i := 0; i < docs; i++ {
		doc := model.SortTerms([]string{term(), term()})
		res, err := c.Publish(ctx, doc)
		if err != nil {
			t.Fatalf("doc %d: publish error under injected faults: %v", i, err)
		}
		set := make(map[string]struct{}, len(doc))
		for _, d := range doc {
			set[d] = struct{}{}
		}
		seen := make(map[model.FilterID]bool, len(res.Matches))
		for _, m := range res.Matches {
			if seen[m.Filter] {
				t.Fatalf("doc %d: filter %v matched twice (duplicate delivery leaked)", i, m.Filter)
			}
			seen[m.Filter] = true
			phantom := true
			for _, ft := range filters[m.Filter] {
				if _, ok := set[ft]; ok {
					phantom = false
					break
				}
			}
			if phantom {
				t.Fatalf("doc %d: phantom match %v for %v", i, m.Filter, doc)
			}
		}
		if res.Complete {
			complete++
		}
	}
	// Retries ride out the vast majority of 5%-probability drops
	// (residual give-up probability ~p^3 per send).
	if complete < docs*9/10 {
		t.Fatalf("complete = %d/%d under 5%% drop, want >= %d", complete, docs, docs*9/10)
	}
	if c.Metrics().Counter("rpc.retries").Value() == 0 {
		t.Fatal("rpc.retries = 0, retry layer never engaged")
	}
}
