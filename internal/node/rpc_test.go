package node

import (
	"context"
	"sort"
	"strings"
	"testing"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/bloom"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
)

// TestFullRPCSurface drives every message type through Handle, as a remote
// coordinator would.
func TestFullRPCSurface(t *testing.T) {
	h := newHarness(t, 6)
	ctx := context.Background()
	nd := h.nodes[0]

	// Register via RPC.
	f := model.Filter{ID: 1, Subscriber: "a", Terms: []string{"alpha"}, Mode: model.MatchAny}
	if _, err := nd.Handle(ctx, "coord", EncodeRegister(RegisterReq{Filter: f, PostingTerms: f.Terms})); err != nil {
		t.Fatal(err)
	}

	// SIFT match via RPC.
	doc := model.Document{ID: 1, Terms: []string{"alpha", "beta"}}
	raw, err := nd.Handle(ctx, "coord", EncodeSIFT(&doc))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeMatchResp(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 1 || resp.Matches[0].Filter != 1 {
		t.Fatalf("SIFT resp = %+v", resp)
	}

	// Publish-home via RPC (the movectl path).
	if resp = publishHome(t, nd, doc, "alpha"); len(resp.Matches) != 1 {
		t.Fatalf("publish-home resp = %+v", resp)
	}

	// Two-phase allocation via RPC: prepare migrates and opens the dual-read
	// window, commit promotes, a later prepare is unwound by abort, and drop
	// clears the grid.
	grid, err := alloc.NewGrid(1, 2, []ring.NodeID{h.nodes[1].ID(), h.nodes[2].ID()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Handle(ctx, "coord", EncodePrepareAlloc(3, grid)); err != nil {
		t.Fatal(err)
	}
	if committed, pending, dual := nd.EpochInfo(); committed != 0 || pending != 3 || !dual {
		t.Fatalf("after prepare RPC: committed=%d pending=%d dual=%v, want 0/3/true", committed, pending, dual)
	}
	if _, err := nd.Handle(ctx, "coord", EncodeCommitGrid(3)); err != nil {
		t.Fatal(err)
	}
	if g, epoch := nd.Grid(); g == nil || epoch != 3 {
		t.Fatal("grid not committed via RPC")
	}
	if _, err := nd.Handle(ctx, "coord", EncodePrepareAlloc(4, grid)); err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Handle(ctx, "coord", EncodeAbortGrid(4)); err != nil {
		t.Fatal(err)
	}
	if committed, pending, dual := nd.EpochInfo(); committed != 3 || pending != 0 || dual {
		t.Fatalf("after abort RPC: committed=%d pending=%d dual=%v, want 3/0/false", committed, pending, dual)
	}
	// The retired hard-flip and drop frames are refused, not decoded as
	// something else.
	for _, retired := range []byte{7, 10, 12, 13} {
		if _, err := nd.Handle(ctx, "coord", []byte{retired}); err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Fatalf("retired message type %d: err = %v, want unknown message type", retired, err)
		}
	}

	// Bloom install via RPC.
	bf := bloom.MustNew(64, 0.01)
	bf.Add("alpha")
	if _, err := nd.Handle(ctx, "coord", EncodeInstallBloom(bf.Marshal())); err != nil {
		t.Fatal(err)
	}

	// Gossip envelope without a handler must error.
	if _, err := nd.Handle(ctx, "coord", EncodeGossip([]byte{1})); err == nil {
		t.Fatal("gossip without handler accepted")
	}
}

// TestRegistrationReachesGridAfterAllocation pins the regression the
// cluster oracle found: filters registered after an allocation round must
// be forwarded to their grid column.
func TestRegistrationReachesGridAfterAllocation(t *testing.T) {
	h := newHarness(t, 6)
	ctx := context.Background()
	home, err := h.ring.HomeNode("live")
	if err != nil {
		t.Fatal(err)
	}
	homeNode := h.nodeByID(home)
	// One pre-allocation filter so the grid has content.
	f0 := model.Filter{ID: 100, Subscriber: "s", Terms: []string{"live"}, Mode: model.MatchAny}
	if _, err := homeNode.Handle(ctx, "c", EncodeRegister(RegisterReq{Filter: f0, PostingTerms: f0.Terms})); err != nil {
		t.Fatal(err)
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

	// Register AFTER allocation; the match must still be found via the
	// grid fan-out.
	f1 := model.Filter{ID: 101, Subscriber: "late", Terms: []string{"live"}, Mode: model.MatchAny}
	if _, err := homeNode.Handle(ctx, "c", EncodeRegister(RegisterReq{Filter: f1, PostingTerms: f1.Terms})); err != nil {
		t.Fatal(err)
	}
	doc := &model.Document{ID: 9, Terms: []string{"live"}}
	matches, _, err := h.nodes[0].PublishEntry(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, len(matches))
	for _, m := range matches {
		ids = append(ids, int(m.Filter))
	}
	sort.Ints(ids)
	if len(ids) != 2 || ids[0] != 100 || ids[1] != 101 {
		t.Fatalf("matches = %v, want [100 101]", ids)
	}
}

func TestNodeAccessors(t *testing.T) {
	h := newHarness(t, 2)
	if h.nodes[0].Rack() != "r0" {
		t.Fatalf("Rack = %q", h.nodes[0].Rack())
	}
}
