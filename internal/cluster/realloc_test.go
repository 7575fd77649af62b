package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/movesys/move/internal/ring"
)

// totalStoredFilters sums the filter copies held across every node — the
// invariant an aborted round must restore exactly.
func totalStoredFilters(c *Cluster) int {
	total := 0
	for _, id := range c.nodeIDs {
		total += c.Node(id).Index().NumFilters()
	}
	return total
}

func assertNoPendingState(t *testing.T, c *Cluster, wantEpoch uint64) {
	t.Helper()
	for _, id := range c.nodeIDs {
		committed, pending, dual := c.Node(id).EpochInfo()
		if pending != 0 || dual {
			t.Fatalf("node %s: pending=%d dual=%v, want no pending state", id, pending, dual)
		}
		if committed > wantEpoch {
			t.Fatalf("node %s: committed epoch %d beyond coordinator's %d", id, committed, wantEpoch)
		}
	}
}

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

func TestTwoPhaseAllocateCommits(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 12)
	seedHotTerm(t, c, 200, 40)

	report, err := c.Allocate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.GridsInstalled == 0 {
		t.Fatal("round installed no grids")
	}
	if got := c.CommittedEpoch(); got != report.Epoch {
		t.Fatalf("CommittedEpoch = %d, want %d", got, report.Epoch)
	}
	// The cutover completed: no node is left dual-reading.
	assertNoPendingState(t, c, report.Epoch)
	res, err := c.Publish(ctx, []string{"hot"})
	if err != nil || !res.Complete {
		t.Fatalf("publish after commit: %v complete=%v", err, res.Complete)
	}
	if len(res.Matches) != 200 {
		t.Fatalf("matches = %d, want 200", len(res.Matches))
	}
	snap := c.Metrics().Snapshot()
	if snap["realloc.rounds.committed"] == 0 {
		t.Fatal("realloc.rounds.committed not incremented")
	}
	if snap["realloc.epoch"] != int64(report.Epoch) {
		t.Fatalf("realloc.epoch gauge = %d, want %d", snap["realloc.epoch"], report.Epoch)
	}
}

// TestRecoveredNodeHoldsNoGrid: a node that crashed and came back lost its
// forwarding table — it must not keep routing its terms to placements the GC
// may have collected while it was away. It matches from its own complete
// store until the next round re-prepares it.
func TestRecoveredNodeHoldsNoGrid(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 15)
	seedHotTerm(t, c, 300, 50)
	if _, err := c.Allocate(ctx); err != nil {
		t.Fatal(err)
	}
	home, err := c.HomeNode("hot")
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := c.Node(home).Grid(); g == nil {
		t.Fatal("hot term's home has no grid to lose")
	}
	c.FailNodes(home)
	c.RecoverNodes(home)
	if g, _ := c.Node(home).Grid(); g != nil {
		t.Fatalf("recovered node keeps its grid %v", g)
	}
	res, err := c.Publish(ctx, []string{"hot"})
	if err != nil || !res.Complete || len(res.Matches) != 300 {
		t.Fatalf("publish after recovery: %v complete=%v matches=%d, want 300", err, res.Complete, len(res.Matches))
	}
	// The coordinator forgot the grid too: the next round prepares it again
	// instead of skipping it as unchanged.
	if _, err := c.Allocate(ctx); err != nil {
		t.Fatal(err)
	}
	if g, _ := c.Node(home).Grid(); g == nil {
		t.Fatal("the round after recovery did not re-prepare the hot term's home")
	}
}

// seedTwoHomes registers two independent hot terms whose home nodes differ,
// guaranteeing at least two grids per allocation round.
func seedTwoHomes(t *testing.T, c *Cluster, filtersEach, docsEach int, candidates []string) (a, b string) {
	t.Helper()
	ctx := context.Background()
	if candidates == nil {
		candidates = []string{"hota", "hotb", "hotc", "hotd", "hote", "hotf"}
	}
	a = candidates[0]
	homeA, err := c.HomeNode(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range candidates[1:] {
		home, err := c.HomeNode(cand)
		if err != nil {
			t.Fatal(err)
		}
		if home != homeA {
			b = cand
			break
		}
	}
	if b == "" {
		t.Fatal("no candidate term with a distinct home node")
	}
	for i := 0; i < filtersEach; i++ {
		if _, err := c.Register(ctx, "a"+strconv.Itoa(i), []string{a}, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Register(ctx, "b"+strconv.Itoa(i), []string{b}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < docsEach; i++ {
		if _, err := c.Publish(ctx, []string{a}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Publish(ctx, []string{b}); err != nil {
			t.Fatal(err)
		}
	}
	return a, b
}

// TestAllocateAbortsCleanly fails the second of two prepares mid-round: the
// first home has already installed a pending grid and migrated filters, so
// the abort must unwind every trace of the epoch and leave the cluster on
// the old one.
func TestAllocateAbortsCleanly(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 12)
	termA, termB := seedTwoHomes(t, c, 150, 40, nil)
	before := totalStoredFilters(c)

	calls := 0
	c.prepareHook = func(home ring.NodeID) error {
		calls++
		if calls == 2 {
			return fmt.Errorf("injected prepare failure on %s", home)
		}
		return nil
	}
	_, err := c.Allocate(ctx)
	if err == nil {
		t.Fatal("round with a failing prepare did not error")
	}
	if calls < 2 {
		t.Fatalf("only %d prepares attempted; the test needs two homes with grids", calls)
	}
	if got := c.CommittedEpoch(); got != 0 {
		t.Fatalf("CommittedEpoch after abort = %d, want 0", got)
	}
	assertNoPendingState(t, c, 0)
	if after := totalStoredFilters(c); after != before {
		t.Fatalf("stored filter copies after abort = %d, want %d (partial state leaked)", after, before)
	}
	if snap := c.Metrics().Snapshot(); snap["realloc.rounds.aborted"] == 0 {
		t.Fatal("realloc.rounds.aborted not incremented")
	}
	res, err := c.Publish(ctx, []string{termA, termB})
	if err != nil || !res.Complete {
		t.Fatalf("publish after abort: %v complete=%v", err, res.Complete)
	}
	if len(res.Matches) != 300 {
		t.Fatalf("matches after abort = %d, want 300", len(res.Matches))
	}

	// With the fault cleared the next round commits normally.
	c.prepareHook = nil
	report, err := c.Allocate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CommittedEpoch(); got != report.Epoch {
		t.Fatalf("CommittedEpoch after retry = %d, want %d", got, report.Epoch)
	}
	res, err = c.Publish(ctx, []string{termA, termB})
	if err != nil || !res.Complete || len(res.Matches) != 300 {
		t.Fatalf("publish after retry: %v complete=%v matches=%d", err, res.Complete, len(res.Matches))
	}
}

func TestPullLoadsSkipsFailedNodes(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 8)
	seedWorkload(t, c)

	bad := c.nodeIDs[3]
	c.pullHook = func(id ring.NodeID) error {
		if id == bad {
			return errors.New("injected pull failure")
		}
		return nil
	}
	loads, err := c.PullLoads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != len(c.nodeIDs)-1 {
		t.Fatalf("loads from %d nodes, want %d", len(loads), len(c.nodeIDs)-1)
	}
	for _, l := range loads {
		if l.ID == bad {
			t.Fatalf("load sample from the failing node %s", bad)
		}
	}
	if snap := c.Metrics().Snapshot(); snap["realloc.stats.skipped"] == 0 {
		t.Fatal("realloc.stats.skipped not incremented")
	}

	// Only a total blackout fails the pull.
	c.pullHook = func(ring.NodeID) error { return errors.New("injected pull failure") }
	if _, err := c.PullLoads(ctx); err == nil {
		t.Fatal("pull with zero responders did not error")
	}
}

func TestStartAutoAllocateSurvivesPanicAndBacksOff(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 10)
	seedHotTerm(t, c, 150, 30)

	var hookMu sync.Mutex
	panics := 0
	c.allocRoundHook = func() {
		hookMu.Lock()
		defer hookMu.Unlock()
		if panics < 2 {
			panics++
			panic("injected allocator bug")
		}
	}
	var errMu sync.Mutex
	var errs []error
	stop := c.StartAutoAllocate(5*time.Millisecond, func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
	})
	defer stop()

	deadline := time.Now().Add(5 * time.Second)
	for c.CommittedEpoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("loop never recovered from the panicking rounds")
		}
		if _, err := c.Publish(ctx, []string{"hot"}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()

	errMu.Lock()
	defer errMu.Unlock()
	if len(errs) < 2 {
		t.Fatalf("onErr saw %d errors, want the 2 injected panics", len(errs))
	}
	for _, err := range errs[:2] {
		if err == nil || !containsStr(err.Error(), "panicked") {
			t.Fatalf("panic not surfaced as an error: %v", err)
		}
	}
	if snap := c.Metrics().Snapshot(); snap["realloc.loop.failures"] != 0 {
		t.Fatalf("failure streak gauge = %d after a successful round, want 0", snap["realloc.loop.failures"])
	}
}

func TestKickAllocateTriggersImmediateRound(t *testing.T) {
	c := newCluster(t, SchemeMove, 10)
	seedHotTerm(t, c, 150, 30)

	// The ticker alone would not fire within the test's lifetime.
	stop := c.StartAutoAllocate(time.Minute, nil)
	defer stop()
	c.KickAllocate()

	deadline := time.Now().Add(5 * time.Second)
	for c.CommittedEpoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("kicked round never committed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
