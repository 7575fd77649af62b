package node

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// newResilientHarness is newHarness plus a shared metrics registry and a
// fast resilience executor per node, as the cluster layer wires them.
func newResilientHarness(t testing.TB, n int) (*harness, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	h := &harness{
		net:  transport.NewNetwork(transport.NetworkConfig{}),
		ring: ring.New(ring.Config{}),
	}
	for i := 0; i < n; i++ {
		id := ring.NodeID("n" + strconv.Itoa(i))
		if err := h.ring.Add(ring.Member{ID: id, Rack: "r" + strconv.Itoa(i%3)}); err != nil {
			t.Fatal(err)
		}
		ex := resilience.New(resilience.Policy{
			MaxAttempts:      2,
			BaseDelay:        time.Microsecond,
			MaxDelay:         10 * time.Microsecond,
			BreakerThreshold: 3,
			BreakerCooldown:  50 * time.Millisecond,
			Retryable:        transport.IsAvailabilityError,
			Seed:             int64(i + 1),
		}, reg)
		nd, err := New(Config{
			ID: id, Rack: "r" + strconv.Itoa(i%3), Ring: h.ring,
			Seed: int64(i + 1), Resilience: ex, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := h.net.Join(id, nd.Handle)
		nd.Attach(tr)
		h.nodes = append(h.nodes, nd)
	}
	return h, reg
}

// registerHotFilters registers n single-term ("hot") filters directly on
// the term's home node, with no allocation grid — the home matches them
// locally — and returns that node.
func registerHotFilters(t *testing.T, h *harness, n int) *Node {
	t.Helper()
	home, err := h.ring.HomeNode("hot")
	if err != nil {
		t.Fatal(err)
	}
	homeNode := h.nodeByID(home)
	for i := 1; i <= n; i++ {
		f := model.Filter{ID: model.FilterID(i), Subscriber: "s", Terms: []string{"hot"}, Mode: model.MatchAny}
		payload := EncodeRegister(RegisterReq{Filter: f, PostingTerms: []string{"hot"}})
		if _, err := homeNode.Handle(context.Background(), "test", payload); err != nil {
			t.Fatal(err)
		}
	}
	return homeNode
}

// installHotGrid registers `filters` single-term ("hot") filters on the
// term's home node and allocates them onto a hand-built 2x2 grid of peers,
// returning the home node and the grid.
func installHotGrid(t *testing.T, h *harness, filters int) (*Node, *alloc.Grid) {
	t.Helper()
	homeNode := registerHotFilters(t, h, filters)
	var peers []ring.NodeID
	for _, nd := range h.nodes {
		if nd.ID() != homeNode.ID() {
			peers = append(peers, nd.ID())
		}
	}
	grid, err := alloc.NewGrid(2, 2, peers[:4])
	if err != nil {
		t.Fatal(err)
	}
	allocate(t, homeNode, 1, grid)
	return homeNode, grid
}

// publishHome sends one home-routed publish frame straight to a home node's
// handler (as an entry node would) and returns its response.
func publishHome(t testing.TB, home *Node, doc model.Document, terms ...string) MatchResp {
	t.Helper()
	raw, err := home.Handle(context.Background(), "test", encodePublish(false, &doc, terms...))
	if err != nil {
		t.Fatalf("publish doc %d: %v", doc.ID, err)
	}
	resp, err := DecodeMatchResp(raw, terms)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestReplicaRowFailoverFullMatchSet is the acceptance scenario: with one
// node down in the chosen partition row the publish still returns the full
// match set by failing over that column to another row, and the
// publish.failover counter increments; with every row down for a column
// the result reports Degraded with non-zero ColumnsLost instead of an
// error, and the lost columns are exactly the filters that become
// unreachable (the §VI availability model).
func TestReplicaRowFailoverFullMatchSet(t *testing.T) {
	h, reg := newResilientHarness(t, 6)
	const filters = 24
	homeNode, grid := installHotGrid(t, h, filters)

	publish := func(docID uint64) MatchResp {
		t.Helper()
		return publishHome(t, homeNode, model.Document{ID: docID, Terms: []string{"hot"}}, "hot")
	}

	// Healthy baseline: the grid serves every filter.
	if resp := publish(1); len(resp.Matches) != filters || resp.Degraded {
		t.Fatalf("healthy publish: %d matches degraded=%v, want %d/false", len(resp.Matches), resp.Degraded, filters)
	}

	// One node down in each row (different columns): every column still
	// has a live replica, so the match set stays complete and at least one
	// column must have failed over to another row.
	h.net.Fail(grid.Node(0, 0))
	h.net.Fail(grid.Node(1, 1))
	before := reg.Counter("publish.failover").Value()
	for doc := uint64(2); doc <= 5; doc++ {
		resp := publish(doc)
		if len(resp.Matches) != filters {
			t.Fatalf("doc %d: matches = %d under single-row-node failure, want %d", doc, len(resp.Matches), filters)
		}
		if resp.Degraded || resp.ColumnsLost != 0 {
			t.Fatalf("doc %d: degraded=%v lost=%d, want full coverage via failover", doc, resp.Degraded, resp.ColumnsLost)
		}
	}
	if got := reg.Counter("publish.failover").Value(); got <= before {
		t.Fatalf("publish.failover = %d (was %d), want increments from row failover", got, before)
	}

	// Column 0 fully dead (both rows): the publish degrades to exactly the
	// column-1 filters — no error, Degraded set, one column lost.
	h.net.Fail(grid.Node(1, 0))
	wantSurvivors := 0
	for i := 1; i <= filters; i++ {
		if grid.Column(model.FilterID(i)) != 0 {
			wantSurvivors++
		}
	}
	resp := publish(6)
	if !resp.Degraded || resp.ColumnsLost != 1 {
		t.Fatalf("degraded=%v lost=%d, want degraded with exactly 1 lost column", resp.Degraded, resp.ColumnsLost)
	}
	if len(resp.Matches) != wantSurvivors {
		t.Fatalf("degraded matches = %d, want %d (availability model: only surviving columns)", len(resp.Matches), wantSurvivors)
	}
	for _, m := range resp.Matches {
		if grid.Column(m.Filter) == 0 {
			t.Fatalf("match %v from the dead column", m.Filter)
		}
	}
	if reg.Counter("publish.degraded").Value() == 0 {
		t.Fatal("publish.degraded counter not incremented")
	}
}

// TestPublishWaveFailoverAcrossCircuitBrokenColumn is the concurrent,
// entry-side counterpart of TestReplicaRowFailoverFullMatchSet: waves of
// simultaneous publishes are fanned out across a grid where each row has one
// dead node (so whichever row a document draws, at least one column must
// fail over — eventually through an open circuit breaker's fast-fail path),
// and every document of every wave must still see the full match set. When
// a column loses both rows, every document degrades to exactly the
// surviving columns' filters.
func TestPublishWaveFailoverAcrossCircuitBrokenColumn(t *testing.T) {
	h, reg := newResilientHarness(t, 6)
	const filters = 24
	homeNode, grid := installHotGrid(t, h, filters)
	ctx := context.Background()

	// One dead node per row, different columns: every column keeps a live
	// replica in some row, so failover preserves the exact match set.
	h.net.Fail(grid.Node(0, 0))
	h.net.Fail(grid.Node(1, 1))

	var entry *Node
	for _, nd := range h.nodes {
		if nd.ID() != homeNode.ID() {
			entry = nd
			break
		}
	}
	publishWave := func(startDoc uint64, count int) []MatchResp {
		t.Helper()
		resps := make([]MatchResp, count)
		errs := make([]error, count)
		var wg sync.WaitGroup
		for i := 0; i < count; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				doc := model.Document{ID: startDoc + uint64(i), Terms: []string{"hot"}}
				matches, resp, err := entry.PublishEntry(ctx, &doc)
				// The aggregate response carries stats and hops only; stash
				// the deduplicated matches in it for the assertions below.
				resp.Matches = matches
				resps[i], errs[i] = resp, err
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("doc %d: %v", i, err)
			}
		}
		return resps
	}

	// Several waves: the first RPCs to the dead nodes fail slowly and trip
	// their breakers (threshold 3); later waves fail over through the
	// breaker's fast-fail. Every document of every wave must see the full
	// match set regardless.
	before := reg.Counter("publish.failover").Value()
	var sawFailoverHop bool
	for wave := 0; wave < 4; wave++ {
		resps := publishWave(uint64(100+wave*10), 8)
		for i, resp := range resps {
			if len(resp.Matches) != filters {
				t.Fatalf("wave %d doc %d: matches = %d under per-row failures, want %d", wave, i, len(resp.Matches), filters)
			}
			if resp.Degraded || resp.ColumnsLost != 0 {
				t.Fatalf("wave %d doc %d: degraded=%v lost=%d, want failover coverage", wave, i, resp.Degraded, resp.ColumnsLost)
			}
			for _, hop := range resp.Hops {
				if hop.Stage == "column" && hop.Failover && hop.Err == "" {
					sawFailoverHop = true
				}
			}
		}
	}
	if got := reg.Counter("publish.failover").Value(); got <= before {
		t.Fatalf("publish.failover = %d (was %d), want increments from row failover", got, before)
	}
	if !sawFailoverHop {
		t.Fatal("no served column hop with Failover set — the trace never reported a failover")
	}
	if reg.Counter("breaker.open").Value() == 0 {
		t.Fatal("breaker.open = 0, dead replicas never tripped their breakers")
	}

	// Column 0 fully dead: every document of the wave degrades to the
	// column-1 filters, with no hard error.
	h.net.Fail(grid.Node(1, 0))
	wantSurvivors := 0
	for i := 1; i <= filters; i++ {
		if grid.Column(model.FilterID(i)) != 0 {
			wantSurvivors++
		}
	}
	resps := publishWave(500, 8)
	for i, resp := range resps {
		if !resp.Degraded || resp.ColumnsLost != 1 {
			t.Fatalf("doc %d: degraded=%v lost=%d, want degraded with 1 lost column", i, resp.Degraded, resp.ColumnsLost)
		}
		if len(resp.Matches) != wantSurvivors {
			t.Fatalf("doc %d: degraded matches = %d, want %d survivors", i, len(resp.Matches), wantSurvivors)
		}
		for _, m := range resp.Matches {
			if grid.Column(m.Filter) == 0 {
				t.Fatalf("doc %d: match %v from the dead column", i, m.Filter)
			}
		}
	}
}

// TestBreakerShortCircuitsDeadPeer: repeated sends to a crashed node trip
// its breaker on the sender, after which sends fail fast without invoking
// the transport; recovery is detected through a half-open probe.
func TestBreakerShortCircuitsDeadPeer(t *testing.T) {
	h, reg := newResilientHarness(t, 3)
	sender := h.nodes[0]
	dead := h.nodes[1].ID()
	h.net.Fail(dead)
	ctx := context.Background()

	payload := EncodeStatsPull()
	for i := 0; i < 3; i++ {
		if _, err := sender.send(ctx, dead, payload); err == nil {
			t.Fatal("send to dead node succeeded")
		}
	}
	if reg.Counter("breaker.open").Value() == 0 {
		t.Fatal("breaker.open not incremented after repeated failures")
	}
	if sender.res.State(string(dead)) != resilience.StateOpen {
		t.Fatalf("breaker state = %v, want open", sender.res.State(string(dead)))
	}
	// Fast-fail path reports the peer as down without touching the net.
	if _, err := sender.send(ctx, dead, payload); !transport.IsAvailabilityError(err) {
		t.Fatalf("breaker fast-fail err = %v, want availability error", err)
	}

	// Recovery: after the cooldown a probe goes through and closes it.
	h.net.Recover(dead)
	time.Sleep(60 * time.Millisecond)
	if _, err := sender.send(ctx, dead, payload); err != nil {
		t.Fatalf("send after recovery = %v, want success", err)
	}
	if st := sender.res.State(string(dead)); st != resilience.StateClosed {
		t.Fatalf("breaker state after recovery = %v, want closed", st)
	}
}

// TestRetryRidesOutInjectedFaults: with a Faulty transport dropping 30% of
// sends, the retry policy still completes every publish (memnet handlers
// are deterministic, so only transport-level faults are in play).
func TestRetryRidesOutInjectedFaults(t *testing.T) {
	h, reg := newResilientHarness(t, 6)
	// Re-attach every node behind a lossy decorator.
	for i, nd := range h.nodes {
		ep := h.net.Join(nd.ID(), nd.Handle)
		nd.Attach(transport.NewFaulty(ep, transport.FaultConfig{
			Seed:    int64(100 + i),
			Default: transport.FaultProbs{Drop: 0.3},
		}))
	}
	homeNode, _ := installHotGrid(t, h, 12)

	complete := 0
	const probes = 30
	for doc := uint64(1); doc <= probes; doc++ {
		resp := publishHome(t, homeNode, model.Document{ID: doc, Terms: []string{"hot"}}, "hot")
		if len(resp.Matches) == 12 && !resp.Degraded {
			complete++
		}
	}
	// With MaxAttempts=2, replica-row failover behind the retries, and all
	// nodes actually alive, the vast majority of publishes must complete.
	if complete < probes*2/3 {
		t.Fatalf("complete = %d/%d under 30%% drop, want >= %d", complete, probes, probes*2/3)
	}
	if reg.Counter("rpc.retries").Value() == 0 {
		t.Fatal("rpc.retries = 0, retries never engaged under drops")
	}
}
