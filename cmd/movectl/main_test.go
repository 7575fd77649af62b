package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/text"
	"github.com/movesys/move/internal/transport"
)

// testCluster is two node.Nodes on real loopback TCP, wired as cmd/moved
// wires them: each with its RPC listener and — when hubs is set — a delivery
// hub behind a subscriber-session listener.
type testCluster struct {
	peers    string // the -peers flag value
	nodes    map[ring.NodeID]*node.Node
	subAddrs map[ring.NodeID]string
}

func startCluster(t *testing.T, hubs bool) *testCluster {
	t.Helper()
	ids := []ring.NodeID{"n0", "n1"}
	r := ring.New(ring.Config{})
	for _, id := range ids {
		if err := r.Add(ring.Member{ID: id, Rack: "rack-0"}); err != nil {
			t.Fatal(err)
		}
	}
	// The listeners pick their own ports, so the address table fills in as
	// they come up; nothing is sent before it is complete.
	var mu sync.Mutex
	addrs := map[ring.NodeID]string{}
	resolve := func(id ring.NodeID) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		if a, ok := addrs[id]; ok {
			return a, nil
		}
		return "", fmt.Errorf("no address for %s: %w", id, transport.ErrNodeDown)
	}
	tc := &testCluster{nodes: map[ring.NodeID]*node.Node{}, subAddrs: map[ring.NodeID]string{}}
	var parts []string
	for _, id := range ids {
		var hub *delivery.Hub
		if hubs {
			hub = delivery.NewHub(delivery.Config{})
			t.Cleanup(hub.Stop)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := delivery.Serve(ln, hub, 5*time.Second)
			t.Cleanup(func() { _ = srv.Close() })
			tc.subAddrs[id] = srv.Addr().String()
		}
		nd, err := node.New(node.Config{ID: id, Rack: "rack-0", Ring: r, Delivery: hub, RouteDeliveries: hubs})
		if err != nil {
			t.Fatal(err)
		}
		tn, err := transport.NewTCP(id, "127.0.0.1:0", nd.Handle, resolve)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tn.Close() })
		nd.Attach(tn)
		mu.Lock()
		addrs[id] = tn.Addr()
		mu.Unlock()
		tc.nodes[id] = nd
		parts = append(parts, fmt.Sprintf("%s=%s", id, tn.Addr()))
	}
	tc.peers = strings.Join(parts, ",")
	return tc
}

func (tc *testCluster) client(t *testing.T) (*client, *bytes.Buffer) {
	t.Helper()
	out := &bytes.Buffer{}
	c, err := newClient(tc.peers, out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.close)
	return c, out
}

// publish runs client.publish and splits what it printed into the document
// ID of the header line and the lines after it.
func publish(t *testing.T, c *client, out *bytes.Buffer, content string) (docID uint64, rest []string) {
	t.Helper()
	out.Reset()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.publish(ctx, content, false); err != nil {
		t.Fatalf("publish %q: %v\n%s", content, err, out)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if _, err := fmt.Sscanf(lines[0], "published doc %d with", &docID); err != nil {
		t.Fatalf("header line %q: %v", lines[0], err)
	}
	return docID, lines[1:]
}

// TestRegisterPublishDeliver drives the register and publish commands
// against two hub-equipped nodes: the matching subscriber's session on its
// owner node receives the event, matches print in filter-ID order, and the
// same publish returns the same match set after the term's home node is cut
// over to a committed two-node grid.
func TestRegisterPublishDeliver(t *testing.T) {
	tc := startCluster(t, true)
	c, out := tc.client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A dozen subscribers on one term, so a two-column grid splits them
	// across both nodes; alice also holds a second filter.
	const hotFilters = 12
	for i := 1; i <= hotFilters; i++ {
		sub := fmt.Sprintf("sub%02d", i)
		if i == 7 {
			sub = "alice"
		}
		if err := c.register(ctx, model.FilterID(i), sub, "breaking"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.register(ctx, 99, "alice", "storm warning"); err != nil {
		t.Fatal(err)
	}

	owner, err := c.ring.HomeNode("subscriber/alice")
	if err != nil {
		t.Fatal(err)
	}
	session, err := delivery.Dial(tc.subAddrs[owner], "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()

	docID, matched := publish(t, c, out, "Breaking: storm tonight")
	if len(matched) != hotFilters+1 {
		t.Fatalf("%d match lines, want %d:\n%s", len(matched), hotFilters+1, out)
	}
	if want := "  -> alice (" + model.FilterID(7).String() + ")"; matched[6] != want {
		t.Fatalf("seventh match line = %q, want %q (filter-ID order)", matched[6], want)
	}
	if want := "  -> alice (" + model.FilterID(99).String() + ")"; matched[hotFilters] != want {
		t.Fatalf("last match line = %q, want %q (filter-ID order)", matched[hotFilters], want)
	}

	// (a) alice's session on her owner node receives the event.
	msg, err := session.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Events) != 1 {
		t.Fatalf("session received %d event(s), want 1", len(msg.Events))
	}
	ev := msg.Events[0]
	got := slices.Clone(ev.Filters)
	slices.Sort(got)
	if ev.DocID != docID || !slices.Equal(got, []model.FilterID{7, 99}) {
		t.Fatalf("event doc=%d filters=%v, want doc=%d filters=[7 99]", ev.DocID, ev.Filters, docID)
	}

	// (b) Cut the term's home node over to a one-row, two-column grid of
	// both nodes — prepare on the home, commit everywhere, as allocate does
	// (which never grants a grid on a two-node ring: a grid excludes its
	// home) — and publish the same text through it.
	home, err := c.ring.HomeNode(text.Terms("breaking", text.Options{})[0])
	if err != nil {
		t.Fatal(err)
	}
	grid, err := alloc.NewGrid(1, 2, []ring.NodeID{"n0", "n1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.tn.Send(ctx, home, node.EncodePrepareAlloc(1, grid)); err != nil {
		t.Fatal(err)
	}
	if err := c.broadcast(ctx, c.ring.Members(), node.EncodeCommitGrid(1)); err != nil {
		t.Fatal(err)
	}
	if g, epoch := tc.nodes[home].Grid(); g == nil || g.Size() != 2 || epoch != 1 {
		t.Fatalf("home %s: grid=%v epoch=%d, want the committed two-node grid at epoch 1", home, g, epoch)
	}
	_, again := publish(t, c, out, "Breaking: storm tonight")
	if !slices.Equal(again, matched) {
		t.Fatalf("match set through the grid:\n%s\nwant:\n%s", strings.Join(again, "\n"), strings.Join(matched, "\n"))
	}
	columns := 0
	for _, h := range tc.nodes[home].Traces().Last(1)[0].Hops {
		if h.Stage == "column" {
			columns++
		}
	}
	if columns != 2 {
		t.Fatalf("home %s served the publish through %d column hop(s), want 2", home, columns)
	}
}

// TestPublishReportsUnreachedSubscriber: when the matched subscriber's owner
// node has no delivery hub it refuses the routed batch; publish still prints
// the match, reports the subscriber as not reached, and succeeds.
func TestPublishReportsUnreachedSubscriber(t *testing.T) {
	tc := startCluster(t, false)
	c, out := tc.client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.register(ctx, 1, "alice", "breaking news"); err != nil {
		t.Fatal(err)
	}
	_, rest := publish(t, c, out, "breaking story")
	want := []string{
		"  -> alice (" + model.FilterID(1).String() + ")",
		"1 subscriber(s) not reached: alice",
	}
	if !slices.Equal(rest, want) {
		t.Fatalf("publish printed:\n%s\nwant after the header:\n%s", out, strings.Join(want, "\n"))
	}
}
