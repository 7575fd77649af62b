package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"

	"github.com/movesys/move/internal/ring"
)

// seedHotTerm registers many single-term filters on "hot" plus some noise,
// then publishes enough documents that the statistics are meaningful.
func seedHotTerm(t *testing.T, c *Cluster, filters, docs int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < filters; i++ {
		terms := []string{"hot"}
		if i%4 == 0 {
			terms = append(terms, "noise"+strconv.Itoa(i%50))
		}
		if _, err := c.Register(ctx, "s"+strconv.Itoa(i), terms, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < docs; i++ {
		if _, err := c.Publish(ctx, []string{"hot", "pad" + strconv.Itoa(i%30)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllocateByTermInstallsTermGrid(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 15)
	seedHotTerm(t, c, 300, 50)

	report, err := c.AllocateByTerm(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if report.GridsInstalled == 0 {
		t.Fatal("no per-term grids installed")
	}
	home, err := c.HomeNode("hot")
	if err != nil {
		t.Fatal(err)
	}
	if c.Node(home).TermGridCount() == 0 {
		t.Fatal("hot term's home has no term grid")
	}
	// The node-wide grid must not have been installed by the per-term
	// round.
	if g, _ := c.Node(home).Grid(); g != nil {
		t.Fatal("per-term allocation must not install a node-wide grid")
	}

	// Matching stays complete and correct.
	res, err := c.Publish(ctx, []string{"hot"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("publish incomplete after per-term allocation")
	}
	if len(res.Matches) != 300 {
		t.Fatalf("matches = %d, want 300", len(res.Matches))
	}
}

func TestAllocateByTermSpreadsHotLoad(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 15)
	seedHotTerm(t, c, 300, 50)
	if _, err := c.AllocateByTerm(ctx, 4); err != nil {
		t.Fatal(err)
	}

	before, err := c.PullLoads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	prev := make(map[string]int64)
	for _, l := range before {
		prev[string(l.ID)] = l.DocsProcessed
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
	serving := 0
	for _, l := range after {
		if l.DocsProcessed > prev[string(l.ID)] {
			serving++
		}
	}
	if serving < 2 {
		t.Fatalf("only %d nodes served hot-term matches after per-term allocation", serving)
	}
}

func TestAllocateByTermValidation(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeIL, 5)
	if _, err := c.AllocateByTerm(ctx, 4); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig for non-Move scheme", err)
	}
	cm := newCluster(t, SchemeMove, 5)
	if _, err := cm.AllocateByTerm(ctx, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig for topK=0", err)
	}
	if _, err := cm.AllocateByTerm(ctx, 4); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig with no filters", err)
	}
}

func TestAllocateByTermIgnoresNonFilterTerms(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 8)
	// Filters exist only for "hot"; documents are full of non-filter
	// terms which must not become allocation units.
	for i := 0; i < 50; i++ {
		if _, err := c.Register(ctx, "s", []string{"hot"}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := c.Publish(ctx, []string{"hot", "junk1", "junk2", "junk3"}); err != nil {
			t.Fatal(err)
		}
	}
	report, err := c.AllocateByTerm(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range report.Factors {
		if f.Key != "hot" {
			t.Fatalf("non-filter term %q became an allocation unit", f.Key)
		}
	}
}

// TestAllocateByTermAbortsCleanly fails the second term prepare of a round:
// the first hot term's home has already installed a pending term entry and
// migrated that term's filters. The round must end with every node on the
// old epoch, no term entry anywhere, and not one copy left behind — then
// commit normally once the fault clears.
func TestAllocateByTermAbortsCleanly(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 12)
	termA, termB := seedTwoHomes(t, c, 150, 40, nil)
	before := totalStoredFilters(c)

	calls := 0
	c.prepareHook = func(home ring.NodeID) error {
		if calls++; calls == 2 {
			return fmt.Errorf("injected prepare failure on %s", home)
		}
		return nil
	}
	if _, err := c.AllocateByTerm(ctx, 8); err == nil || calls < 2 {
		t.Fatalf("per-term round with a failing second prepare: err=%v after %d prepares", err, calls)
	}
	if got := c.CommittedEpoch(); got != 0 {
		t.Fatalf("CommittedEpoch after abort = %d, want 0", got)
	}
	assertNoPendingState(t, c, 0)
	for _, id := range c.nodeIDs {
		if n := c.Node(id).TermGridCount(); n != 0 {
			t.Fatalf("node %s keeps %d term entries after the abort", id, n)
		}
	}
	// Every journaled copy was unwound, so no journal outlives the round.
	if after := totalStoredFilters(c); after != before {
		t.Fatalf("stored filter copies after abort = %d, want %d (partial state leaked)", after, before)
	}
	res, err := c.Publish(ctx, []string{termA, termB})
	if err != nil || !res.Complete || len(res.Matches) != 300 {
		t.Fatalf("publish after abort: %v complete=%v matches=%d, want 300", err, res.Complete, len(res.Matches))
	}

	c.prepareHook = nil
	report, err := c.AllocateByTerm(ctx, 8)
	if err != nil || report.GridsInstalled < 2 || c.CommittedEpoch() != report.Epoch {
		t.Fatalf("retry: %v, %d grids, committed epoch %d of %d", err, report.GridsInstalled, c.CommittedEpoch(), report.Epoch)
	}
	assertNoPendingState(t, c, report.Epoch)
	res, err = c.Publish(ctx, []string{termA, termB})
	if err != nil || !res.Complete || len(res.Matches) != 300 {
		t.Fatalf("publish after retry: %v complete=%v matches=%d, want 300", err, res.Complete, len(res.Matches))
	}
}

// TestRecoveredNodeHoldsNoTermEntry: a node that crashed and came back lost
// its forwarding table, term entries included — it must not keep routing a
// hot term to placements the GC may have collected while it was away. It
// matches from its own complete store until the next round re-prepares it.
func TestRecoveredNodeHoldsNoTermEntry(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 15)
	seedHotTerm(t, c, 300, 50)
	if _, err := c.AllocateByTerm(ctx, 8); err != nil {
		t.Fatal(err)
	}
	home, err := c.HomeNode("hot")
	if err != nil {
		t.Fatal(err)
	}
	if c.Node(home).TermGridCount() == 0 {
		t.Fatal("hot term's home has no term grid to lose")
	}
	c.FailNodes(home)
	c.RecoverNodes(home)
	if n := c.Node(home).TermGridCount(); n != 0 {
		t.Fatalf("recovered node keeps %d term entries", n)
	}
	res, err := c.Publish(ctx, []string{"hot"})
	if err != nil || !res.Complete || len(res.Matches) != 300 {
		t.Fatalf("publish after recovery: %v complete=%v matches=%d, want 300", err, res.Complete, len(res.Matches))
	}
	// The coordinator forgot the grid too: the next round prepares it again
	// instead of skipping it as unchanged.
	if _, err := c.AllocateByTerm(ctx, 8); err != nil {
		t.Fatal(err)
	}
	if c.Node(home).TermGridCount() == 0 {
		t.Fatal("the round after recovery did not re-prepare the hot term")
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
