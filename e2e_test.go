package move

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/cluster"
	"github.com/movesys/move/internal/daemon"
	"github.com/movesys/move/internal/gossip"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/text"
	"github.com/movesys/move/internal/transport"
)

// tcpCluster is a real-sockets deployment: N daemons over TCP with live
// gossip, booted by daemon.Start as cmd/moved boots one.
type tcpCluster struct {
	ringView *ring.Ring
	daemons  []*daemon.Daemon
	tns      []*transport.TCPNode
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
	var ids []ring.NodeID
	for i := 0; i < n; i++ {
		id := ring.NodeID(fmt.Sprintf("tcp-%d", i))
		if err := tc.ringView.Add(ring.Member{ID: id, Rack: fmt.Sprintf("rack-%d", i%2)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// Every daemon but the first gossips with the first one to begin with.
	for i, id := range ids {
		cfg := daemon.Config{
			ID: id, Rack: fmt.Sprintf("rack-%d", i%2), Ring: tc.ringView,
			Resilience: resilience.Policy{Retryable: transport.IsAvailabilityError},
			Gossip:     &gossip.Config{Interval: 20 * time.Millisecond, Seed: int64(i + 1)},
		}
		if i > 0 {
			cfg.Peers = []gossip.Member{{ID: ids[0], Addr: tc.addrs[ids[0]]}}
		}
		var tn *transport.TCPNode
		d, err := daemon.Start(cfg, func(h transport.Handler) (transport.Transport, error) {
			var err error
			tn, err = transport.NewTCP(id, "127.0.0.1:0", h, resolver)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			tc.addrs[id] = tn.Addr()
			mu.Unlock()
			return tn, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		tc.daemons = append(tc.daemons, d)
		tc.tns = append(tc.tns, tn)
	}
	return tc
}

// register places a filter on the home nodes of its terms via real TCP, as
// movectl does.
func (tc *tcpCluster) register(t *testing.T, id model.FilterID, sub, query string) []string {
	t.Helper()
	terms := text.Terms(query, text.Options{})
	f := model.Filter{ID: id, Subscriber: sub, Terms: terms, Mode: model.MatchAny}
	shares, err := cluster.RegisterShares(tc.ringView, &f, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for home, postingTerms := range shares {
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
	matches, total, err := tc.daemons[2].Node.PublishEntry(ctx, doc)
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
		if len(tc.daemons[4].Gossip.Alive()) == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip did not converge: %d alive", len(tc.daemons[4].Gossip.Alive()))
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
	for _, d := range tc.daemons {
		if nd := d.Node; nd.ID() == home {
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
	if err := homeNode.PrepareAllocation(ctx, 1, grid); err != nil {
		t.Fatal(err)
	}
	if !homeNode.CommitGrid(1) {
		t.Fatal("commit did not promote the prepared grid")
	}

	doc := &model.Document{ID: 7, Terms: []string{"hotspot"}}
	matches, _, err := tc.daemons[0].Node.PublishEntry(ctx, doc)
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
