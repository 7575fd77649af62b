package node

import (
	"context"
	"testing"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/store"
	"github.com/movesys/move/internal/transport"
)

func soloNode(t *testing.T) *Node {
	t.Helper()
	r := ring.New(ring.Config{})
	if err := r.Add(ring.Member{ID: "solo", Rack: "r0"}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{ID: "solo", Rack: "r0", Ring: r, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(transport.NetworkConfig{})
	nd.Attach(net.Join("solo", nd.Handle))
	return nd
}

// TestPrepareCommitAbortStateMachine walks the §13 epoch transitions of the
// one forwarding-table entry on one node: stale prepares rejected,
// re-prepares idempotent, an abort before any commit leaves the table empty,
// commit promotes exactly the matching pending epoch, abort restores the
// committed state.
func TestPrepareCommitAbortStateMachine(t *testing.T) {
	// "scope=" names the node-wide scope, the forwarding table's one entry.
	t.Run("scope=", func(t *testing.T) {
		nd := soloNode(t)
		g, err := alloc.NewGrid(1, 1, []ring.NodeID{"solo"})
		if err != nil {
			t.Fatal(err)
		}

		if nd.PrepareGrid(0, g) {
			t.Fatal("prepare epoch 0 accepted; epochs start at 1")
		}
		if !nd.PrepareGrid(1, g) {
			t.Fatal("prepare epoch 1 rejected")
		}
		if err := nd.AbortGrid(1); err != nil {
			t.Fatal(err)
		}
		if committed, pending, dual := nd.EpochInfo(); committed != 0 || pending != 0 || dual || nd.table.committed != nil || nd.table.pending != nil {
			t.Fatalf("after aborting a never-committed grid: committed=%d pending=%d dual=%v table=%+v, want 0/0/false/empty",
				committed, pending, dual, nd.table)
		}

		if !nd.PrepareGrid(2, g) {
			t.Fatal("prepare epoch 2 rejected")
		}
		if !nd.PrepareGrid(2, g) {
			t.Fatal("re-prepare of the same epoch must be idempotent, not an error")
		}
		if committed, pending, dual := nd.EpochInfo(); committed != 0 || pending != 2 || !dual {
			t.Fatalf("after prepare: committed=%d pending=%d dual=%v, want 0/2/true", committed, pending, dual)
		}

		if nd.CommitGrid(3) {
			t.Fatal("commit of a never-prepared epoch promoted something")
		}
		if !nd.CommitGrid(2) {
			t.Fatal("commit of the prepared epoch did not promote")
		}
		if committed, pending, dual := nd.EpochInfo(); committed != 2 || pending != 0 || dual {
			t.Fatalf("after commit: committed=%d pending=%d dual=%v, want 2/0/false", committed, pending, dual)
		}
		if nd.PrepareGrid(2, g) {
			t.Fatal("prepare at the committed epoch accepted; must be stale")
		}
		if committed, _ := nd.Grid(); committed != g {
			t.Fatalf("after commit: grid=%v, want the prepared one", committed)
		}

		if !nd.PrepareGrid(3, g) {
			t.Fatal("prepare epoch 3 rejected")
		}
		if err := nd.AbortGrid(3); err != nil {
			t.Fatal(err)
		}
		if committed, pending, dual := nd.EpochInfo(); committed != 2 || pending != 0 || dual || nd.table.committed != g {
			t.Fatalf("after abort: committed=%d pending=%d dual=%v grid=%v, want 2/0/false and the epoch-2 grid", committed, pending, dual, nd.table.committed)
		}
		if nd.CommitGrid(3) {
			t.Fatal("commit of an aborted epoch promoted something")
		}
	})
}

// TestMigrateReplayIsNoop replays the same migration batch three times —
// the transport duplicates RPCs and the coordinator retries prepares, so
// handleMigrate must be idempotent down to the counters.
func TestMigrateReplayIsNoop(t *testing.T) {
	nd := soloNode(t)
	ctx := context.Background()
	req := MigrateReq{Epoch: 3}
	for i := 1; i <= 5; i++ {
		req.Entries = append(req.Entries, RegisterReq{
			Filter:       model.Filter{ID: model.FilterID(i), Subscriber: "s", Terms: []string{"alerts"}, Mode: model.MatchAny},
			PostingTerms: []string{"alerts"},
		})
	}
	payload := EncodeMigrate(req)
	for i := 0; i < 3; i++ {
		if _, err := nd.Handle(ctx, "home", payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := nd.Index().NumFilters(); got != 5 {
		t.Fatalf("NumFilters after 3 replays = %d, want 5", got)
	}
	if got := nd.Index().NumPostings(); got != 5 {
		t.Fatalf("NumPostings after 3 replays = %d, want 5", got)
	}
	// The journal saw each copy once: abort removes all five, exactly once.
	if err := nd.AbortGrid(3); err != nil {
		t.Fatal(err)
	}
	if got := nd.Index().NumFilters(); got != 0 {
		t.Fatalf("NumFilters after abort = %d, want 0", got)
	}
	// Posting entries for unregistered filters are lazy tombstones; what
	// matters is that they can no longer match.
	matches, _, err := nd.PublishEntry(ctx, &model.Document{ID: 1, Terms: []string{"alerts"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("matches after abort = %v, want none", matches)
	}
}

// TestAbortPreservesPreexistingCopies aborts an epoch whose migrations
// included a filter the target already held: only the copies the epoch
// created may be unwound, and the home's table is left empty.
func TestAbortPreservesPreexistingCopies(t *testing.T) {
	// "scope=" names the node-wide scope, the forwarding table's one entry.
	t.Run("scope=", func(t *testing.T) {
		h := newHarness(t, 1) // n0 is the only ring member: it homes every term
		home := h.nodes[0]
		peer, err := New(Config{ID: "peer", Ring: h.ring})
		if err != nil {
			t.Fatal(err)
		}
		peer.Attach(h.net.Join("peer", peer.Handle))
		ctx := context.Background()
		filter := func(id model.FilterID, term string) RegisterReq {
			return RegisterReq{
				Filter:       model.Filter{ID: id, Subscriber: "s", Terms: []string{term}, Mode: model.MatchAny},
				PostingTerms: []string{term},
			}
		}
		for _, req := range []RegisterReq{filter(1, "alerts"), filter(2, "alerts"), filter(3, "other")} {
			if _, err := home.Handle(ctx, "client", EncodeRegister(req)); err != nil {
				t.Fatal(err)
			}
		}
		// The peer already holds filter 1 (an older placement).
		if _, err := peer.Handle(ctx, "client", EncodeRegister(filter(1, "alerts"))); err != nil {
			t.Fatal(err)
		}

		grid, err := alloc.NewGrid(1, 1, []ring.NodeID{"peer"})
		if err != nil {
			t.Fatal(err)
		}
		if err := home.PrepareAllocation(ctx, 7, grid); err != nil {
			t.Fatal(err)
		}
		if got := peer.Index().NumFilters(); got != 3 {
			t.Fatalf("peer NumFilters after prepare = %d, want 3 (every filter homed here)", got)
		}
		// A stale epoch's abort touches nothing.
		if err := peer.AbortGrid(6); err != nil || peer.Index().NumFilters() != 3 {
			t.Fatalf("abort of epoch 6 disturbed epoch 7's copies: %v, %d filters", err, peer.Index().NumFilters())
		}
		for _, nd := range []*Node{home, peer} {
			if err := nd.AbortGrid(7); err != nil {
				t.Fatal(err)
			}
		}
		if got := peer.Index().NumFilters(); got != 1 {
			t.Fatalf("peer NumFilters after abort = %d, want 1 (pre-existing copy kept)", got)
		}
		if got := home.Index().NumFilters(); got != 3 || home.table.committed != nil || home.table.pending != nil {
			t.Fatalf("home after abort: %d filters, table %+v; want 3 and an empty table", got, home.table)
		}
		matches, _, err := peer.PublishEntry(ctx, &model.Document{ID: 1, Terms: []string{"alerts"}})
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 2 {
			t.Fatalf("matches after abort = %v, want filters 1 and 2 from the home", matches)
		}
	})
}

// TestRegistrationRacingPrepareReachesItsColumn registers filters on the
// home while its prepare is in flight, on both sides of the prepare's filter
// scan: one after the pending grid is installed but before
// the scan (the scan migrates it, the registration forwards it — delivered
// twice, harmlessly), one after the scan while its migrations are still on
// the wire (only the registration's own pending-aware forward can deliver
// it). After the commit the home is served by the grid alone, so a filter
// that missed its column would be missing from every publish.
func TestRegistrationRacingPrepareReachesItsColumn(t *testing.T) {
	h := newHarness(t, 3)
	ctx := context.Background()
	home := registerHotFilters(t, h, 6)
	var peers []*Node
	for _, nd := range h.nodes {
		if nd != home {
			peers = append(peers, nd)
		}
	}
	grid, err := alloc.NewGrid(1, 2, []ring.NodeID{peers[0].ID(), peers[1].ID()})
	if err != nil {
		t.Fatal(err)
	}
	register := func(id model.FilterID) {
		f := model.Filter{ID: id, Subscriber: "s", Terms: []string{"hot"}, Mode: model.MatchAny}
		if _, err := home.Handle(ctx, "client", EncodeRegister(RegisterReq{Filter: f, PostingTerms: f.Terms})); err != nil {
			t.Error(err)
		}
	}
	// Once armed, each grid node's next inbound frame — a migration batch of
	// the prepare, so its scan is over — registers one more filter first.
	late := map[ring.NodeID]model.FilterID{peers[0].ID(): 9, peers[1].ID(): 10}
	armed := false
	for _, peer := range peers {
		fired := false
		h.net.Join(peer.ID(), func(ctx context.Context, from ring.NodeID, payload []byte) ([]byte, error) {
			if armed && !fired {
				fired = true
				register(late[peer.ID()])
			}
			return peer.Handle(ctx, from, payload)
		})
	}

	if !home.PrepareGrid(1, grid) {
		t.Fatal("prepare rejected")
	}
	register(7) // pending installed, scan not started
	register(8)
	armed = true
	if err := home.PrepareAllocation(ctx, 1, grid); err != nil {
		t.Fatal(err)
	}
	for _, nd := range h.nodes {
		nd.CommitGrid(1)
	}
	if local, _ := home.splitByGrid(); local {
		t.Fatal("hot still matches locally after the commit; the test would not see a missed column")
	}
	matches, resp, err := peers[0].PublishEntry(ctx, &model.Document{ID: 1, Terms: []string{"hot"}})
	if err != nil || resp.Degraded {
		t.Fatalf("publish: %v degraded=%v", err, resp.Degraded)
	}
	got := make(map[model.FilterID]bool, len(matches))
	for _, m := range matches {
		got[m.Filter] = true
	}
	for id := model.FilterID(1); id <= 10; id++ {
		if !got[id] {
			t.Fatalf("filter %d missing from the grid's match set %v", id, matches)
		}
	}
	if held := peers[0].Index().NumFilters() + peers[1].Index().NumFilters(); held != 10 {
		t.Fatalf("grid nodes hold %d copies, want 10 (one per filter, replays included)", held)
	}
}

// TestRestartMidPrepareRejoinsAtCorrectEpoch crashes a home node between
// prepare and commit. The coordinator aborts the orphaned epoch, the node
// reboots from its store at the old committed epoch with no pending state,
// and the next round prepares and commits cleanly — no duplicate and no
// missing filter copies anywhere.
func TestRestartMidPrepareRejoinsAtCorrectEpoch(t *testing.T) {
	dir := t.TempDir()
	// Only the home is a ring member: it owns every term. The grid peers
	// exist solely as migration targets on the shared network.
	r := ring.New(ring.Config{})
	if err := r.Add(ring.Member{ID: "h", Rack: "r0"}); err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(transport.NetworkConfig{})

	peer := func(id ring.NodeID) *Node {
		t.Helper()
		st, err := store.Open("", store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nd, err := New(Config{ID: id, Rack: "r1", Ring: r, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		nd.Attach(net.Join(id, nd.Handle))
		return nd
	}
	bootHome := func() *Node {
		t.Helper()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nd, err := New(Config{ID: "h", Rack: "r0", Ring: r, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		nd.Attach(net.Join("h", nd.Handle))
		return nd
	}

	a, b := peer("a"), peer("b")
	h := bootHome()
	ctx := context.Background()
	const filters = 20
	for i := 1; i <= filters; i++ {
		f := model.Filter{ID: model.FilterID(i), Subscriber: "s", Terms: []string{"alerts"}, Mode: model.MatchAny}
		if _, err := h.Handle(ctx, "client", EncodeRegister(RegisterReq{Filter: f, PostingTerms: []string{"alerts"}})); err != nil {
			t.Fatal(err)
		}
	}
	grid, err := alloc.NewGrid(1, 3, []ring.NodeID{"h", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}

	// Round 1 prepares... and then the home dies before the commit.
	if err := h.PrepareAllocation(ctx, 1, grid); err != nil {
		t.Fatal(err)
	}
	h = bootHome() // crash + restart: pending grid and epoch are gone
	if committed, pending, dual := h.EpochInfo(); committed != 0 || pending != 0 || dual {
		t.Fatalf("restarted home: committed=%d pending=%d dual=%v, want 0/0/false", committed, pending, dual)
	}
	if got := h.Index().NumFilters(); got != filters {
		t.Fatalf("restarted home NumFilters = %d, want %d", got, filters)
	}
	// The coordinator resolves the orphaned round with an epoch-wide abort.
	for _, nd := range []*Node{h, a, b} {
		if err := nd.AbortGrid(1); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Index().NumFilters() + b.Index().NumFilters(); got != 0 {
		t.Fatalf("peers hold %d filters after abort, want 0", got)
	}

	// Round 2 runs to commit. Replay against the already-aborted peers must
	// recreate exactly one copy per placement.
	if err := h.PrepareAllocation(ctx, 2, grid); err != nil {
		t.Fatal(err)
	}
	for _, nd := range []*Node{h, a, b} {
		nd.CommitGrid(2)
	}
	if committed, pending, dual := h.EpochInfo(); committed != 2 || pending != 0 || dual {
		t.Fatalf("after round 2: committed=%d pending=%d dual=%v, want 2/0/false", committed, pending, dual)
	}
	// Column c of the 1×3 grid holds the filters with ID%3 == c; the home
	// keeps its full copy on top of its column share.
	wantA, wantB := 0, 0
	for i := 1; i <= filters; i++ {
		switch grid.Column(model.FilterID(i)) {
		case 1:
			wantA++
		case 2:
			wantB++
		}
	}
	if got := a.Index().NumFilters(); got != wantA {
		t.Fatalf("peer a NumFilters = %d, want %d", got, wantA)
	}
	if got := b.Index().NumFilters(); got != wantB {
		t.Fatalf("peer b NumFilters = %d, want %d", got, wantB)
	}
	if got := h.Index().NumFilters(); got != filters {
		t.Fatalf("home NumFilters = %d, want %d", got, filters)
	}
	matches, _, err := h.PublishEntry(ctx, &model.Document{ID: 42, Terms: []string{"alerts"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != filters {
		t.Fatalf("matches after cutover = %d, want %d", len(matches), filters)
	}
}
