package node

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/bloom"
	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// harness wires n nodes over a shared ring and in-memory network.
type harness struct {
	net   *transport.Network
	ring  *ring.Ring
	nodes []*Node
}

func newHarness(t testing.TB, n int) *harness {
	t.Helper()
	h := &harness{
		net:  transport.NewNetwork(transport.NetworkConfig{}),
		ring: ring.New(ring.Config{}),
	}
	for i := 0; i < n; i++ {
		id := ring.NodeID("n" + strconv.Itoa(i))
		if err := h.ring.Add(ring.Member{ID: id, Rack: "r" + strconv.Itoa(i%3)}); err != nil {
			t.Fatal(err)
		}
		nd, err := New(Config{ID: id, Rack: "r" + strconv.Itoa(i%3), Ring: h.ring, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		tr := h.net.Join(id, nd.Handle)
		nd.Attach(tr)
		h.nodes = append(h.nodes, nd)
	}
	return h
}

// sharesOf groups f's terms by home node: what a registrar sends each home.
func (h *harness) sharesOf(t testing.TB, f model.Filter) map[ring.NodeID][]string {
	t.Helper()
	byHome := make(map[ring.NodeID][]string)
	for _, term := range f.Terms {
		home, err := h.ring.HomeNode(term)
		if err != nil {
			t.Fatal(err)
		}
		byHome[home] = append(byHome[home], term)
	}
	return byHome
}

// registerEverywhere registers a filter on the home nodes of its terms, each
// sent its share — as a registrar that knows nothing of key terms does.
func (h *harness) registerEverywhere(t testing.TB, f model.Filter) {
	t.Helper()
	for home, terms := range h.sharesOf(t, f) {
		payload := EncodeRegister(RegisterReq{Filter: f, PostingTerms: terms})
		if _, err := h.nodeByID(home).Handle(context.Background(), "test", payload); err != nil {
			t.Fatal(err)
		}
	}
}

// allocate runs one two-phase allocation round on a home node: prepare
// (migrate its filters, install g as pending) then the commit barrier.
func allocate(t testing.TB, home *Node, epoch uint64, g *alloc.Grid) {
	t.Helper()
	if err := home.PrepareAllocation(context.Background(), epoch, g); err != nil {
		t.Fatal(err)
	}
	if !home.CommitGrid(epoch) {
		t.Fatalf("commit of epoch %d did not promote the prepared grid", epoch)
	}
}

func (h *harness) nodeByID(id ring.NodeID) *Node {
	for _, nd := range h.nodes {
		if nd.ID() == id {
			return nd
		}
	}
	return nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error for empty config")
	}
	if _, err := New(Config{ID: "x"}); err == nil {
		t.Fatal("expected error for nil ring")
	}
}

func TestHandleRejectsGarbage(t *testing.T) {
	h := newHarness(t, 2)
	nd := h.nodes[0]
	if _, err := nd.Handle(context.Background(), "peer", nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := nd.Handle(context.Background(), "peer", []byte{99}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := nd.Handle(context.Background(), "peer", []byte{msgRegister, 0xFF}); err == nil {
		t.Fatal("corrupt register accepted")
	}
	if _, err := nd.Handle(context.Background(), "peer", []byte{msgGossip, 1, 0}); err == nil {
		t.Fatal("gossip without handler accepted")
	}
	// Type 11, the one-ID unregister, is retired: EncodeUnregister sends a
	// one-ID batch.
	if _, err := nd.Handle(context.Background(), "peer", []byte{11, 3}); err == nil || !strings.Contains(err.Error(), "unknown message type 11") {
		t.Fatalf("retired unregister frame: err = %v, want unknown message type 11", err)
	}
	// Type 26, the deliver batch that always carried its document, is
	// retired: msgDeliverBatch is 30.
	inline := encodeDeliverBatch(&delivery.Batch{DocID: 5, Terms: []string{"news"}, Notifs: []delivery.Notification{{Sub: "alice"}}})
	inline[0] = 26
	if _, err := nd.Handle(context.Background(), "peer", inline); err == nil || !strings.Contains(err.Error(), "unknown message type 26") {
		t.Fatalf("retired deliver batch frame: err = %v, want unknown message type 26", err)
	}

	// A reference the node cannot resolve — from a sender that never sent
	// the document, or naming other terms under its ID — answers "not
	// held" and enqueues nothing; the one it can resolve enqueues.
	hub := delivery.NewHub(delivery.Config{})
	defer hub.Stop()
	nd.cfg.Delivery = hub
	doc := &model.Document{ID: 5, Terms: []string{"news", "today"}}
	if _, err := nd.Handle(context.Background(), "entry", encodePublish(false, doc, doc.Terms...)); err != nil {
		t.Fatal(err)
	}
	enqueued := hub.Metrics().Counter("delivery.enqueued")
	ref := func(terms ...string) []byte {
		return encodeDeliverBatch(&delivery.Batch{DocID: doc.ID, Terms: terms, Ref: true, Notifs: []delivery.Notification{{Sub: "alice"}}})
	}
	for _, tc := range []struct {
		name, from string
		terms      []string
	}{
		{"unknown sender", "stranger", doc.Terms},
		{"wrong digest", "entry", []string{"news", "yesterday"}},
	} {
		resp, err := nd.Handle(context.Background(), ring.NodeID(tc.from), ref(tc.terms...))
		if err != nil || !reflect.DeepEqual(resp, []byte{deliverNotHeld}) || enqueued.Value() != 0 {
			t.Fatalf("%s: answer %v, %v with %d enqueued; want not held and none", tc.name, resp, err, enqueued.Value())
		}
	}
	if resp, err := nd.Handle(context.Background(), "entry", ref(doc.Terms...)); err != nil || resp != nil || enqueued.Value() != 1 {
		t.Fatalf("held reference: answer %v, %v with %d enqueued; want empty and 1", resp, err, enqueued.Value())
	}
	if got := nd.routeUnheld.Value(); got != 2 {
		t.Fatalf("delivery.route.unheld = %d, want 2", got)
	}
}

// TestRegisterRefusesModeThree: a register frame whose filter has mode 3 —
// the layout that carried a score threshold, an 8-byte float after the mode
// byte — is refused with model.ErrBadMode whatever the float, and the node
// holds nothing afterwards.
func TestRegisterRefusesModeThree(t *testing.T) {
	h := newHarness(t, 1)
	nd := h.nodes[0]
	for _, threshold := range []float64{0.3, 0.5, 0.6, 1} {
		w := codec.NewWriter(64)
		w.Uint8(msgRegister)
		w.Uvarint(7)
		w.String("erin")
		w.StringSlice([]string{"baking", "sourdough", "starter"})
		w.Uint8(3)
		w.Float64(threshold)
		w.StringSlice([]string{"baking", "sourdough", "starter"})
		if _, err := nd.Handle(context.Background(), "peer", w.Bytes()); !errors.Is(err, model.ErrBadMode) {
			t.Fatalf("threshold %v: err = %v, want model.ErrBadMode", threshold, err)
		}
	}
	if n := nd.ix.NumFilters(); n != 0 {
		t.Fatalf("node holds %d filters, want 0", n)
	}
	if n := nd.ix.NumPostings(); n != 0 {
		t.Fatalf("node holds %d posting entries, want 0", n)
	}
}

func TestPublishEntryEndToEnd(t *testing.T) {
	h := newHarness(t, 5)
	h.registerEverywhere(t, model.Filter{ID: 1, Subscriber: "alice", Terms: []string{"go", "cluster"}, Mode: model.MatchAny})
	h.registerEverywhere(t, model.Filter{ID: 2, Subscriber: "bob", Terms: []string{"rust"}, Mode: model.MatchAny})

	doc := &model.Document{ID: 1, Terms: []string{"cluster", "systems"}}
	matches, total, err := h.nodes[0].PublishEntry(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Filter != 1 || matches[0].Subscriber != "alice" {
		t.Fatalf("matches = %+v", matches)
	}
	if total.PostingLists == 0 {
		t.Fatal("no posting lists accounted")
	}
}

func TestPublishEntryDeduplicatesAcrossTerms(t *testing.T) {
	h := newHarness(t, 5)
	// Filter shares two terms with the document; both home nodes report it;
	// the entry node must return it once.
	h.registerEverywhere(t, model.Filter{ID: 7, Subscriber: "x", Terms: []string{"alpha", "beta"}, Mode: model.MatchAny})
	doc := &model.Document{ID: 1, Terms: []string{"alpha", "beta"}}
	matches, _, err := h.nodes[1].PublishEntry(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("matches = %+v, want single deduplicated hit", matches)
	}
}

func TestPublishEntryValidatesDoc(t *testing.T) {
	h := newHarness(t, 2)
	if _, _, err := h.nodes[0].PublishEntry(context.Background(), &model.Document{ID: 1}); !errors.Is(err, model.ErrNoTerms) {
		t.Fatalf("err = %v", err)
	}
}

func TestBloomGateSkipsNonFilterTerms(t *testing.T) {
	h := newHarness(t, 4)
	h.registerEverywhere(t, model.Filter{ID: 1, Subscriber: "a", Terms: []string{"indexed"}, Mode: model.MatchAny})
	bf := bloom.MustNew(128, 0.01)
	bf.Add("indexed")
	for _, nd := range h.nodes {
		nd.InstallBloom(bf)
	}
	doc := &model.Document{ID: 1, Terms: []string{"indexed", "junk1", "junk2"}}
	matches, total, err := h.nodes[0].PublishEntry(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("matches = %v", matches)
	}
	// Only the indexed term should have been routed: one posting list.
	if total.PostingLists != 1 {
		t.Fatalf("posting lists = %d, want 1 (bloom should prune junk terms)", total.PostingLists)
	}
}

func TestGridFanOutMatchesAllSubsets(t *testing.T) {
	h := newHarness(t, 6)
	home, err := h.ring.HomeNode("hot")
	if err != nil {
		t.Fatal(err)
	}
	homeNode := h.nodeByID(home)

	// Register 40 filters on the home node.
	for i := 1; i <= 40; i++ {
		f := model.Filter{ID: model.FilterID(i), Subscriber: "s" + strconv.Itoa(i), Terms: []string{"hot"}, Mode: model.MatchAny}
		payload := EncodeRegister(RegisterReq{Filter: f, PostingTerms: []string{"hot"}})
		if _, err := homeNode.Handle(context.Background(), "test", payload); err != nil {
			t.Fatal(err)
		}
	}
	// Build a 2x2 grid from other nodes and allocate.
	var peers []ring.NodeID
	for _, nd := range h.nodes {
		if nd.ID() != home {
			peers = append(peers, nd.ID())
		}
	}
	grid, err := alloc.NewGrid(2, 2, peers[:4])
	if err != nil {
		t.Fatal(err)
	}
	allocate(t, homeNode, 1, grid)
	if g, epoch := homeNode.Grid(); g == nil || epoch != 1 {
		t.Fatal("grid not installed")
	}

	// Publish through an entry node: matches must be complete (40 hits).
	doc := &model.Document{ID: 9, Terms: []string{"hot"}}
	matches, _, err := h.nodes[0].PublishEntry(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 40 {
		t.Fatalf("matches = %d, want 40", len(matches))
	}
	ids := make([]int, len(matches))
	for i, m := range matches {
		ids[i] = int(m.Filter)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != i+1 {
			t.Fatalf("missing filter %d in grid fan-out", i+1)
		}
	}
}

func TestGridFailoverToReplicaRow(t *testing.T) {
	h := newHarness(t, 6)
	home, err := h.ring.HomeNode("hot")
	if err != nil {
		t.Fatal(err)
	}
	homeNode := h.nodeByID(home)
	for i := 1; i <= 10; i++ {
		f := model.Filter{ID: model.FilterID(i), Subscriber: "s", Terms: []string{"hot"}, Mode: model.MatchAny}
		payload := EncodeRegister(RegisterReq{Filter: f, PostingTerms: []string{"hot"}})
		if _, err := homeNode.Handle(context.Background(), "test", payload); err != nil {
			t.Fatal(err)
		}
	}
	var peers []ring.NodeID
	for _, nd := range h.nodes {
		if nd.ID() != home {
			peers = append(peers, nd.ID())
		}
	}
	grid, err := alloc.NewGrid(2, 2, peers[:4])
	if err != nil {
		t.Fatal(err)
	}
	allocate(t, homeNode, 1, grid)

	// Kill all of row 0; the fan-out must fail over to row 1.
	for _, id := range grid.RowNodes(0) {
		h.net.Fail(id)
	}
	doc := &model.Document{ID: 5, Terms: []string{"hot"}}
	matches, total, err := h.nodes[0].PublishEntry(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 10 {
		t.Fatalf("matches = %d, want 10 after failover", len(matches))
	}
	if total.Degraded || total.ColumnsLost != 0 {
		t.Fatalf("failover result degraded=%v lost=%d, want full coverage", total.Degraded, total.ColumnsLost)
	}

	// Kill row 1 as well: with no live replica in any row the publish
	// reports the lost columns instead of failing outright.
	for _, id := range grid.RowNodes(1) {
		h.net.Fail(id)
	}
	matches, total, err = h.nodes[0].PublishEntry(context.Background(), &model.Document{ID: 6, Terms: []string{"hot"}})
	if err != nil {
		t.Fatalf("all-rows-down publish = %v, want degraded result instead of error", err)
	}
	if !total.Degraded || total.ColumnsLost != 2 {
		t.Fatalf("degraded=%v lost=%d, want degraded with 2 lost columns", total.Degraded, total.ColumnsLost)
	}
	if len(matches) != 0 {
		t.Fatalf("matches = %d with every grid replica down, want 0", len(matches))
	}
}

func TestInstallGridEpochOrdering(t *testing.T) {
	h := newHarness(t, 4)
	nd := h.nodes[0]
	g1, err := alloc.NewGrid(1, 2, []ring.NodeID{"n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := alloc.NewGrid(2, 1, []ring.NodeID{"n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	if !nd.PrepareGrid(5, g1) || !nd.CommitGrid(5) {
		t.Fatal("epoch 5 did not install")
	}
	if nd.PrepareGrid(3, g2) || nd.CommitGrid(3) { // stale epoch must be ignored
		t.Fatal("stale epoch 3 accepted over committed epoch 5")
	}
	g, epoch := nd.Grid()
	if epoch != 5 || g.Cols() != 2 {
		t.Fatalf("grid = %dx%d at epoch %d, want the epoch-5 grid", g.Rows(), g.Cols(), epoch)
	}
	nd.DropGrid()
	if g, _ := nd.Grid(); g != nil {
		t.Fatal("DropGrid did not clear")
	}
}

func TestStatsCounters(t *testing.T) {
	h := newHarness(t, 3)
	h.registerEverywhere(t, model.Filter{ID: 1, Subscriber: "a", Terms: []string{"x", "y"}, Mode: model.MatchAny})
	doc := &model.Document{ID: 1, Terms: []string{"x"}}
	if _, _, err := h.nodes[0].PublishEntry(context.Background(), doc); err != nil {
		t.Fatal(err)
	}
	home, err := h.ring.HomeNode("x")
	if err != nil {
		t.Fatal(err)
	}
	st := h.nodeByID(home).Stats()
	if st.HomePublishes != 1 {
		t.Fatalf("HomePublishes = %d, want 1", st.HomePublishes)
	}
	if st.DocsProcessed != 1 || st.PostingsScanned != 1 {
		t.Fatalf("stats = %+v", st)
	}
	h.nodeByID(home).ResetWindowCounters()
	if st := h.nodeByID(home).Stats(); st.HomePublishes != 0 {
		t.Fatalf("HomePublishes after reset = %d", st.HomePublishes)
	}
}

func TestStatsRPCRoundTrip(t *testing.T) {
	h := newHarness(t, 2)
	h.registerEverywhere(t, model.Filter{ID: 1, Subscriber: "a", Terms: []string{"x"}, Mode: model.MatchAny})
	raw, err := h.nodes[0].Handle(context.Background(), "coord", EncodeStatsPull())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeStatsResp(raw); err != nil {
		t.Fatal(err)
	}
}

func TestUnregisterRPC(t *testing.T) {
	h := newHarness(t, 2)
	f := model.Filter{ID: 3, Subscriber: "a", Terms: []string{"solo"}, Mode: model.MatchAny}
	h.registerEverywhere(t, f)
	home, err := h.ring.HomeNode("solo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.nodeByID(home).Handle(context.Background(), "coord", EncodeUnregister(3)); err != nil {
		t.Fatal(err)
	}
	doc := &model.Document{ID: 1, Terms: []string{"solo"}}
	matches, _, err := h.nodes[0].PublishEntry(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("matches after unregister = %v", matches)
	}
}

func TestMatchRespRoundTrip(t *testing.T) {
	resp := MatchResp{
		Matches:         []Match{{Filter: 1, Subscriber: "a"}, {Filter: 900, Subscriber: "b"}},
		PostingsScanned: 42,
		PostingLists:    3,
	}
	got, err := DecodeMatchResp(EncodeMatchResp(resp, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("round trip: %+v != %+v", got, resp)
	}
	if _, err := DecodeMatchResp([]byte{0xFF}, nil); err == nil {
		t.Fatal("corrupt resp accepted")
	}
}

func TestMigrateRPCRoundTrip(t *testing.T) {
	h := newHarness(t, 2)
	req := MigrateReq{
		Epoch: 4,
		Entries: []RegisterReq{
			{Filter: model.Filter{ID: 1, Subscriber: "a", Terms: []string{"t"}, Mode: model.MatchAny}, PostingTerms: []string{"t"}},
			{Filter: model.Filter{ID: 2, Subscriber: "b", Terms: []string{"t", "u"}, Mode: model.MatchAny}, PostingTerms: []string{"u"}},
		},
	}
	if _, err := h.nodes[1].Handle(context.Background(), "peer", EncodeMigrate(req)); err != nil {
		t.Fatal(err)
	}
	if n := h.nodes[1].Index().NumFilters(); n != 2 {
		t.Fatalf("filters after migrate = %d, want 2", n)
	}
}
