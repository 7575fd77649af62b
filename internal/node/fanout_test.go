package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// termHomedAt returns a made-up term whose home node is want.
func termHomedAt(t testing.TB, r *ring.Ring, prefix string, want ring.NodeID) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		term := fmt.Sprintf("%s%d", prefix, i)
		if home, err := r.HomeNode(term); err == nil && home == want {
			return term
		}
	}
	t.Fatalf("no %s* term homes at %s", prefix, want)
	return ""
}

// fanOutEnv is the cluster the fan-out equivalence table runs on: ten
// nodes, of which home owns the terms hot and warm, entry owns cold and
// issues every publish, and the eight peers p[0..7] only ever serve as grid
// nodes. Row choice is made deterministic (document-ID derived instead of
// random) so a scenario's failover and RPC counts are exact.
type fanOutEnv struct {
	h     *harness
	home  *Node
	entry *Node
	p     []ring.NodeID
	docs  []model.Document
	// filters is the population; every one matches every document of docs.
	filters []model.Filter
}

func newFanOutEnv(t *testing.T) *fanOutEnv {
	t.Helper()
	h := newHarness(t, 10)
	for _, nd := range h.nodes {
		nd.rng = nil // PickRow falls back to the document-ID hash
	}
	e := &fanOutEnv{h: h, home: h.nodes[0], entry: h.nodes[1]}
	for _, nd := range h.nodes[2:] {
		e.p = append(e.p, nd.ID())
	}
	hot := termHomedAt(t, h.ring, "hot", e.home.ID())
	warm := termHomedAt(t, h.ring, "warm", e.home.ID())
	cold := termHomedAt(t, h.ring, "cold", e.entry.ID())

	register := func(n int, mode model.MatchMode, terms ...string) {
		for i := 0; i < n; i++ {
			e.register(t, mode, terms...)
		}
	}
	register(12, model.MatchAny, hot)
	register(12, model.MatchAny, warm)
	register(4, model.MatchAny, cold)
	register(4, model.MatchAny, hot, warm) // posted under both of the home's terms
	register(4, model.MatchAll, warm, cold)
	register(4, model.MatchAll, hot, warm) // keyed under one of the home's two lists
	// Every live ID registers again: the keys it has are the ones it keeps.
	for _, f := range e.filters {
		h.registerEverywhere(t, f)
	}

	// Every grid of the table has two rows; all documents draw row 0.
	probe, err := alloc.NewGrid(2, 1, e.p[:2])
	if err != nil {
		t.Fatal(err)
	}
	for docID := uint64(1); len(e.docs) < 4; docID++ {
		if probe.PickRow(docID, nil) == 0 {
			e.docs = append(e.docs, model.Document{ID: docID, Terms: []string{hot, warm, cold}})
		}
	}
	return e
}

// register adds the next filter of the population and returns it.
func (e *fanOutEnv) register(t *testing.T, mode model.MatchMode, terms ...string) model.Filter {
	t.Helper()
	id := model.FilterID(len(e.filters) + 1)
	f := model.Filter{ID: id, Subscriber: fmt.Sprintf("s%d", id), Terms: terms, Mode: mode}
	e.h.registerEverywhere(t, f)
	e.filters = append(e.filters, f)
	return f
}

func (e *fanOutEnv) grid(t *testing.T, nodes ...int) *alloc.Grid {
	t.Helper()
	ids := make([]ring.NodeID, len(nodes))
	for i, k := range nodes {
		ids[i] = e.p[k]
	}
	g, err := alloc.NewGrid(2, 2, ids)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// prepare runs the prepare phase on the home.
func (e *fanOutEnv) prepare(t *testing.T, epoch uint64, g *alloc.Grid) {
	t.Helper()
	if err := e.home.PrepareAllocation(context.Background(), epoch, g); err != nil {
		t.Fatal(err)
	}
}

// commit closes a round: the home promotes the grid pending under epoch.
func (e *fanOutEnv) commit(t *testing.T, epoch uint64) {
	t.Helper()
	if !e.home.CommitGrid(epoch) {
		t.Fatalf("commit of epoch %d promoted nothing", epoch)
	}
}

func (e *fanOutEnv) fail(peers ...int) {
	for _, k := range peers {
		e.h.net.Fail(e.p[k])
	}
}

// TestFanOutEquivalenceTable is the one equivalence table of the one grid
// fan-out: the publish path (PublishEntry: one frame per home) against the
// per-term oracle (PublishEntryPerTerm: one frame per term) on the same
// cluster, across grid layouts and failure regimes. The answer must be
// identical: sorted match set, PostingsScanned, PostingLists, Degraded,
// ColumnsLost. What legitimately depends on the framing is pinned exactly
// instead: a failover is counted once per (grid, column) slot per frame, so
// the oracle pays it once per term routed through the slot and PublishEntry
// once per document; and column RPCs go to distinct nodes, not columns.
func TestFanOutEquivalenceTable(t *testing.T) {
	// Grid layouts over the peers (row-major 2x2). In "shared" the pending
	// grid's (0,0) is the committed grid's (0,1).
	type layout func(t *testing.T, e *fanOutEnv)
	none := func(*testing.T, *fanOutEnv) {}
	// Every grid is built the one way there is: prepare, then commit.
	nodeWide := func(t *testing.T, e *fanOutEnv) {
		e.prepare(t, 1, e.grid(t, 0, 1, 2, 3))
		e.commit(t, 1)
	}
	pending := func(t *testing.T, e *fanOutEnv) {
		nodeWide(t, e)
		e.prepare(t, 2, e.grid(t, 3, 4, 5, 6))
	}
	shared := func(t *testing.T, e *fanOutEnv) {
		nodeWide(t, e)
		e.prepare(t, 2, e.grid(t, 1, 4, 5, 6))
	}

	cases := []struct {
		name   string
		layout layout
		down   []int // peers failed after the layout is installed
		// Expected answer, per document.
		degraded bool
		lost     int
		// Expected framing-dependent counts at the home node: failed-over
		// slots per frame, the oracle's failovers per document (one frame
		// per term), and column RPCs per frame.
		failSlots, oracleFailovers, columnRPCs int
	}{
		{name: "no grid/healthy", layout: none},

		// hot and warm both ride the node-wide grid: 2 columns, 2 RPCs.
		{name: "node-wide/healthy", layout: nodeWide, columnRPCs: 2},
		{name: "node-wide/first row of a column down", layout: nodeWide, down: []int{0},
			failSlots: 1, oracleFailovers: 2, columnRPCs: 3},
		{name: "node-wide/column lost in every row", layout: nodeWide, down: []int{0, 2},
			degraded: true, lost: 2, columnRPCs: 3},

		// Dual-read: the pending grid doubles the columns; its failures never
		// degrade, and its copies even recover what a lost committed column
		// misses.
		{name: "node-wide + pending/healthy", layout: pending, columnRPCs: 4},
		{name: "node-wide + pending/first row of a column down", layout: pending, down: []int{0},
			failSlots: 1, oracleFailovers: 2, columnRPCs: 5},
		{name: "node-wide + pending/column lost in every row", layout: pending, down: []int{0, 2},
			degraded: true, lost: 2, columnRPCs: 5},
		{name: "node-wide + pending/pending column down", layout: pending, down: []int{4, 6},
			columnRPCs: 5},

		// Row 0 is p0 | p1 committed and p1 | p4 pending: 4 columns on 3
		// nodes, the shared node's frame serving a slot of each grid.
		{name: "shared node/healthy", layout: shared, columnRPCs: 3},
		{name: "shared node/shared node down", layout: shared, down: []int{1},
			failSlots: 2, oracleFailovers: 4, columnRPCs: 5},
		{name: "shared node/column lost in every row", layout: shared, down: []int{1, 3},
			degraded: true, lost: 2, failSlots: 1, oracleFailovers: 2, columnRPCs: 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newFanOutEnv(t)
			tc.layout(t, e)
			// Whatever the grids: outside them every MatchAll filter sits on the
			// home of its key term, under one term, and nowhere else.
			for _, f := range e.filters {
				if f.Mode == model.MatchAll {
					assertHeldOnce(t, e.h, tc.name, f)
				}
			}
			e.fail(tc.down...)
			ctx := context.Background()
			// counts reads the home node's failover counter and column-RPC
			// histogram; each path below is charged its own delta.
			counts := func() (failovers, rpcs int64) {
				return e.home.failoverC.Value(), int64(e.home.reg.Histograms()["publish.column.rpc"].Count)
			}
			docs := int64(len(e.docs))

			// The oracle first: it defines the answer for each document.
			type answer struct {
				matches []Match
				resp    MatchResp
			}
			want := make([]answer, len(e.docs))
			f0, _ := counts()
			for i := range e.docs {
				m, resp, err := e.entry.PublishEntryPerTerm(ctx, &e.docs[i])
				if err != nil {
					t.Fatalf("oracle doc %d: %v", e.docs[i].ID, err)
				}
				if len(m) == 0 || resp.Degraded != tc.degraded || resp.ColumnsLost != tc.lost {
					t.Fatalf("oracle doc %d: %d matches degraded=%v lost=%d, scenario wants degraded=%v lost=%d",
						e.docs[i].ID, len(m), resp.Degraded, resp.ColumnsLost, tc.degraded, tc.lost)
				}
				// The oracle's own oracle: with no column lost, brute force —
				// every filter of the population matches every document.
				if !tc.degraded && len(m) != len(e.filters) {
					t.Fatalf("oracle doc %d: %d matches, brute force says all %d filters", e.docs[i].ID, len(m), len(e.filters))
				}
				want[i] = answer{m, resp}
			}
			f1, r1 := counts()
			if got := f1 - f0; got != docs*int64(tc.oracleFailovers) {
				t.Fatalf("oracle failovers = %d over %d docs, want %d per doc", got, docs, tc.oracleFailovers)
			}

			for i := range e.docs {
				m, resp, err := e.entry.PublishEntry(ctx, &e.docs[i])
				if err != nil {
					t.Fatalf("doc %d: %v", e.docs[i].ID, err)
				}
				assertPublishEquivalent(t, fmt.Sprintf("doc %d", e.docs[i].ID), m, want[i].matches, resp, want[i].resp)
			}
			f2, r2 := counts()
			if got := f2 - f1; got != docs*int64(tc.failSlots) {
				t.Fatalf("failovers = %d over %d docs, want %d per frame", got, docs, tc.failSlots)
			}
			if got := r2 - r1; got != docs*int64(tc.columnRPCs) {
				t.Fatalf("column RPCs = %d over %d docs, want %d per frame", got, docs, tc.columnRPCs)
			}

			// Before the entry's dedup: one home reports a MatchAll filter (none
			// when its column is lost), where two homes used to find it twice.
			for i := range e.docs {
				homes := reportingHomes(t, e.entry, &e.docs[i])
				for _, f := range e.filters {
					if n := homes[f.ID]; f.Mode == model.MatchAll && n != 1 && !(tc.degraded && n == 0) {
						t.Fatalf("doc %d: MatchAll filter %v reached the entry from %d homes, want 1", e.docs[i].ID, f.ID, n)
					}
				}
			}
		})
	}
}

// TestPendingOnlyErrorNeverFailsPublish pins the dual-read rule of the grid
// fan-out: an RPC whose slots are all pending never fails or degrades the
// publish, whatever the error class — here the pending grid's only node
// answers every request with a handler error (not an availability error,
// which would merely fail over). The committed side (local matching) is
// authoritative and complete. An RPC that also carries a committed slot
// keeps the strict rule: only unavailability fails over, anything else is
// fatal.
func TestPendingOnlyErrorNeverFailsPublish(t *testing.T) {
	h := newHarness(t, 4)
	const filters = 6
	registerHotFilters(t, h, filters)
	home, err := h.ring.HomeNode("hot")
	if err != nil {
		t.Fatal(err)
	}
	homeNode := h.nodeByID(home)
	h.net.Join("broken", func(context.Context, ring.NodeID, []byte) ([]byte, error) {
		return nil, errors.New("handler exploded")
	})
	broken, err := alloc.NewGrid(1, 1, []ring.NodeID{"broken"})
	if err != nil {
		t.Fatal(err)
	}
	if !homeNode.PrepareGrid(1, broken) {
		t.Fatal("prepare rejected")
	}
	var entry *Node
	for _, nd := range h.nodes {
		if nd.ID() != home {
			entry = nd
			break
		}
	}
	ctx := context.Background()
	check := func(label string, matches []Match, resp MatchResp, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: pending-only handler error failed the publish: %v", label, err)
		}
		if len(matches) != filters || resp.Degraded || resp.ColumnsLost != 0 {
			t.Fatalf("%s: %d matches degraded=%v lost=%d, want %d/false/0", label, len(matches), resp.Degraded, resp.ColumnsLost, filters)
		}
	}

	m, resp, err := entry.PublishEntry(ctx, &model.Document{ID: 1, Terms: []string{"hot"}})
	check("pending-only", m, resp, err)

	// The same node serving a committed column too: its handler error is
	// fatal for the publish.
	if !homeNode.CommitGrid(1) {
		t.Fatal("commit did not promote")
	}
	if _, _, err := entry.PublishEntry(ctx, &model.Document{ID: 2, Terms: []string{"hot"}}); err == nil {
		t.Fatal("a committed slot's handler error did not fail the publish")
	}
}

// TestDeliverBatchWithoutHubIsAccountedLoss: a routed delivery batch landing
// on a node with no delivery hub is refused, and the routing entry node
// accounts every notification in it as lost instead of believing it
// delivered.
func TestDeliverBatchWithoutHubIsAccountedLoss(t *testing.T) {
	r := ring.New(ring.Config{})
	net := transport.NewNetwork(transport.NetworkConfig{})
	var mu sync.Mutex
	lost := map[uint64][]string{}
	var nodes []*Node
	for _, id := range []ring.NodeID{"a", "b"} {
		if err := r.Add(ring.Member{ID: id, Rack: "r0"}); err != nil {
			t.Fatal(err)
		}
		nd, err := New(Config{
			ID: id, Rack: "r0", Ring: r, RouteDeliveries: true,
			OnDeliveryLoss: func(docID uint64, subs []string) {
				mu.Lock()
				lost[docID] = append(lost[docID], subs...)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.Attach(net.Join(id, nd.Handle))
		nodes = append(nodes, nd)
	}
	ctx := context.Background()
	batch := &delivery.Batch{DocID: 5, Terms: []string{"news"}, Notifs: []delivery.Notification{{Sub: "alice", Filters: []model.FilterID{1}}}}
	if _, err := nodes[0].Handle(ctx, "peer", encodeDeliverBatch(batch)); err == nil {
		t.Fatal("hub-less node accepted a routed delivery batch")
	}

	f := model.Filter{ID: 1, Subscriber: "alice", Terms: []string{"news"}, Mode: model.MatchAny}
	home, err := r.HomeNode("news")
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if nd.ID() == home {
			if _, err := nd.Handle(ctx, "client", EncodeRegister(RegisterReq{Filter: f, PostingTerms: f.Terms})); err != nil {
				t.Fatal(err)
			}
		}
	}
	entry := nodes[0]
	matches, _, err := entry.PublishEntry(ctx, &model.Document{ID: 9, Terms: []string{"news"}})
	if err != nil || len(matches) != 1 {
		t.Fatalf("publish = %v, %v, want the one match", matches, err)
	}
	if got := entry.routeFailures.Value(); got != 1 {
		t.Fatalf("delivery.route.failures = %d, want 1", got)
	}
	if got := entry.routeLost.Value(); got != 1 {
		t.Fatalf("delivery.route.lost = %d, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if subs := lost[9]; len(subs) != 1 || subs[0] != "alice" {
		t.Fatalf("OnDeliveryLoss for doc 9 = %v, want [alice]", subs)
	}
}

// TestConcurrentlyRunsEachOnce calls every index exactly once for fan-outs
// of zero to four destinations, and runs the last on the calling goroutine,
// so a single destination starts none.
func TestConcurrentlyRunsEachOnce(t *testing.T) {
	self := goroutineHeader()
	for n := 0; n <= 4; n++ {
		var mu sync.Mutex
		seen := make(map[int]int)
		lastInline := false
		concurrently(n, func(i int) {
			mu.Lock()
			defer mu.Unlock()
			seen[i]++
			if i == n-1 {
				lastInline = goroutineHeader() == self
			}
		})
		if len(seen) != n {
			t.Fatalf("n=%d: ran %v", n, seen)
		}
		for i, c := range seen {
			if i < 0 || i >= n || c != 1 {
				t.Fatalf("n=%d: ran %v", n, seen)
			}
		}
		if n > 0 && !lastInline {
			t.Fatalf("n=%d: the last destination ran on another goroutine", n)
		}
	}
}

// goroutineHeader is the first line of the calling goroutine's stack trace,
// "goroutine N [running]:", which names it.
func goroutineHeader() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		buf = buf[:i]
	}
	return string(buf)
}
