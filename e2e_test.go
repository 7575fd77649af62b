package move

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/gossip"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/text"
	"github.com/movesys/move/internal/transport"
)

// tcpCluster is a real-sockets deployment: N server nodes over TCP with
// live gossip, exactly what cmd/moved runs.
type tcpCluster struct {
	ringView *ring.Ring
	nodes    []*node.Node
	tns      []*transport.TCPNode
	gossips  []*gossip.Gossiper
	addrs    map[ring.NodeID]string
}

func startTCPCluster(t *testing.T, n int) *tcpCluster {
	t.Helper()
	tc := &tcpCluster{
		ringView: ring.New(ring.Config{}),
		addrs:    make(map[ring.NodeID]string),
	}
	var mu sync.Mutex
	resolver := func(id ring.NodeID) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		a, ok := tc.addrs[id]
		if !ok {
			return "", transport.ErrNodeDown
		}
		return a, nil
	}

	for i := 0; i < n; i++ {
		id := ring.NodeID(fmt.Sprintf("tcp-%d", i))
		rack := fmt.Sprintf("rack-%d", i%2)
		if err := tc.ringView.Add(ring.Member{ID: id, Rack: rack}); err != nil {
			t.Fatal(err)
		}
		gIdx := i
		nd, err := node.New(node.Config{
			ID:   id,
			Rack: rack,
			Ring: tc.ringView,
			Gossip: func(from ring.NodeID, digest []byte) ([]byte, error) {
				return tc.gossips[gIdx].Handle(from, digest)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tn, err := transport.NewTCP(id, "127.0.0.1:0", nd.Handle, resolver)
		if err != nil {
			t.Fatal(err)
		}
		nd.Attach(tn)
		t.Cleanup(func() { _ = tn.Close() })
		mu.Lock()
		tc.addrs[id] = tn.Addr()
		mu.Unlock()
		tc.nodes = append(tc.nodes, nd)
		tc.tns = append(tc.tns, tn)
	}

	// Live gossip between the real sockets.
	for i := 0; i < n; i++ {
		tn := tc.tns[i]
		g, err := gossip.New(gossip.Config{
			Self:     gossip.Member{ID: tn.Self(), Addr: tn.Addr()},
			Interval: 20 * time.Millisecond,
			Send: func(ctx context.Context, to ring.NodeID, digest []byte) ([]byte, error) {
				return tn.Send(ctx, to, node.EncodeGossip(digest))
			},
			Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.gossips = append(tc.gossips, g)
	}
	for i := 1; i < n; i++ {
		tc.gossips[i].SeedPeers(gossip.Member{ID: tc.tns[0].Self(), Addr: tc.tns[0].Addr()})
	}
	for _, g := range tc.gossips {
		g.Start()
		t.Cleanup(g.Stop)
	}
	return tc
}

// register places a filter on the home nodes of its terms via real TCP, as
// movectl does.
func (tc *tcpCluster) register(t *testing.T, id model.FilterID, sub, query string) []string {
	t.Helper()
	terms := text.Terms(query, text.Options{})
	f := model.Filter{ID: id, Subscriber: sub, Terms: terms, Mode: model.MatchAny}
	byHome := make(map[ring.NodeID][]string)
	for _, term := range terms {
		home, err := tc.ringView.HomeNode(term)
		if err != nil {
			t.Fatal(err)
		}
		byHome[home] = append(byHome[home], term)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for home, postingTerms := range byHome {
		payload := node.EncodeRegister(node.RegisterReq{Filter: f, PostingTerms: postingTerms})
		if _, err := tc.tns[0].Send(ctx, home, payload); err != nil {
			t.Fatalf("register on %s: %v", home, err)
		}
	}
	return terms
}

func TestEndToEndOverRealTCP(t *testing.T) {
	tc := startTCPCluster(t, 5)

	tc.register(t, 1, "alice", "breaking news")
	tc.register(t, 2, "bob", "football results")
	tc.register(t, 3, "carol", "news")

	// Publish through a node's entry path over real sockets.
	doc := &model.Document{ID: 42, Terms: text.Terms("breaking news from the football pitch", text.Options{})}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	matches, total, err := tc.nodes[2].PublishEntry(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	var subs []string
	for _, m := range matches {
		subs = append(subs, m.Subscriber)
	}
	sort.Strings(subs)
	want := []string{"alice", "bob", "carol"}
	if fmt.Sprint(subs) != fmt.Sprint(want) {
		t.Fatalf("subscribers = %v, want %v", subs, want)
	}
	if total.PostingLists == 0 {
		t.Fatal("no posting lists accounted over TCP")
	}

	// Gossip must converge to full membership.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if len(tc.gossips[4].Alive()) == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip did not converge: %d alive", len(tc.gossips[4].Alive()))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Stats pull over TCP.
	raw, err := tc.tns[0].Send(ctx, tc.tns[1].Self(), node.EncodeStatsPull())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.DecodeStatsResp(raw); err != nil {
		t.Fatal(err)
	}
}

func TestTCPAllocationRoundTrip(t *testing.T) {
	tc := startTCPCluster(t, 5)

	// 60 filters on one hot term, all homed on one node.
	for i := 1; i <= 60; i++ {
		tc.register(t, model.FilterID(i), fmt.Sprintf("u%d", i), "hotspot")
	}
	home, err := tc.ringView.HomeNode("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	var homeNode *node.Node
	var peers []ring.NodeID
	for _, nd := range tc.nodes {
		if nd.ID() == home {
			homeNode = nd
		} else {
			peers = append(peers, nd.ID())
		}
	}

	// Allocate over real TCP: migrate to a 2x2 grid.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	grid, err := allocGrid(peers[:4])
	if err != nil {
		t.Fatal(err)
	}
	if err := homeNode.PrepareAllocation(ctx, 1, "", grid); err != nil {
		t.Fatal(err)
	}
	if !homeNode.CommitGrid(1) {
		t.Fatal("commit did not promote the prepared grid")
	}

	doc := &model.Document{ID: 7, Terms: []string{"hotspot"}}
	matches, _, err := tc.nodes[0].PublishEntry(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 60 {
		t.Fatalf("matches after TCP migration = %d, want 60", len(matches))
	}
}

// allocGrid builds a 2x2 grid from four peers.
func allocGrid(peers []ring.NodeID) (*alloc.Grid, error) {
	return alloc.NewGrid(2, 2, peers)
}
