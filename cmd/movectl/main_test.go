package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/daemon"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/text"
	"github.com/movesys/move/internal/transport"
)

// testCluster is n daemons on real loopback TCP, booted by daemon.Start as
// cmd/moved boots one: each with its RPC listener and — when hubs is set — a
// delivery hub behind a subscriber-session listener. They share one metrics
// registry.
type testCluster struct {
	peers    string // the -peers flag value
	nodes    map[ring.NodeID]*node.Node
	tns      map[ring.NodeID]*transport.TCPNode
	subAddrs map[ring.NodeID]string
	reg      *metrics.Registry

	// refuse, when set, sees every inbound frame before the node does; a
	// non-nil error is the node's answer.
	refuseMu sync.Mutex
	refuse   func(id ring.NodeID, payload []byte) error
}

func startCluster(t *testing.T, n int, hubs bool) *testCluster {
	t.Helper()
	var ids []ring.NodeID
	for i := 0; i < n; i++ {
		ids = append(ids, ring.NodeID(fmt.Sprintf("n%d", i)))
	}
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
	tc := &testCluster{
		nodes: map[ring.NodeID]*node.Node{}, tns: map[ring.NodeID]*transport.TCPNode{},
		subAddrs: map[ring.NodeID]string{}, reg: metrics.NewRegistry(),
	}
	var parts []string
	for _, id := range ids {
		cfg := daemon.Config{
			ID: id, Rack: "rack-0", Ring: r, Metrics: tc.reg,
			Resilience: resilience.Policy{Retryable: transport.IsAvailabilityError},
		}
		if hubs {
			cfg.Delivery, cfg.SubscribeAddr = &delivery.Config{}, "127.0.0.1:0"
		}
		d, err := daemon.Start(cfg, func(h transport.Handler) (transport.Transport, error) {
			handle := func(ctx context.Context, from ring.NodeID, payload []byte) ([]byte, error) {
				tc.refuseMu.Lock()
				refuse := tc.refuse
				tc.refuseMu.Unlock()
				if refuse != nil {
					if err := refuse(id, payload); err != nil {
						return nil, err
					}
				}
				return h(ctx, from, payload)
			}
			tn, err := transport.NewTCP(id, "127.0.0.1:0", handle, resolve)
			if err != nil {
				return nil, err
			}
			tc.tns[id] = tn
			return tn, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		mu.Lock()
		addrs[id] = tc.tns[id].Addr()
		mu.Unlock()
		tc.nodes[id] = d.Node
		if hubs {
			tc.subAddrs[id] = d.Sub.Addr().String()
		}
		parts = append(parts, fmt.Sprintf("%s=%s", id, tc.tns[id].Addr()))
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
	tc := startCluster(t, 2, true)
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
	for _, m := range c.ring.Members() {
		if _, err := c.tn.Send(ctx, m.ID, node.EncodeCommitGrid(1)); err != nil {
			t.Fatal(err)
		}
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
	tc := startCluster(t, 2, false)
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

// seedHotHomes registers perHome single-term filters on one term homed at
// each node (30 over a capacity of 20 earns the home a grid), publishes docs
// documents per term so the homes have a document frequency, and returns the
// terms. Filter IDs are 1..perHome*len(nodes).
func seedHotHomes(t *testing.T, tc *testCluster, c *client, perHome, docs int) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var terms []string
	homed := map[ring.NodeID]bool{}
	for i := 0; len(terms) < len(tc.nodes) && i < 1000; i++ {
		term := fmt.Sprintf("topic%c%c", 'a'+i/26%26, 'a'+i%26)
		if stemmed := text.Terms(term, text.Options{}); len(stemmed) != 1 || stemmed[0] != term {
			continue
		}
		if home, err := c.ring.HomeNode(term); err == nil && !homed[home] {
			homed[home] = true
			terms = append(terms, term)
		}
	}
	if len(terms) != len(tc.nodes) {
		t.Fatalf("found terms for %d of %d homes", len(terms), len(tc.nodes))
	}
	id := model.FilterID(1)
	for _, term := range terms {
		for i := 0; i < perHome; i++ {
			if err := c.register(ctx, id, fmt.Sprintf("sub%03d", id), term); err != nil {
				t.Fatal(err)
			}
			id++
		}
		for i := 0; i < docs; i++ {
			if err := c.publish(ctx, term, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	return terms
}

// TestAllocate drives the allocate command against three nodes with one hot
// term each: every home the round prepared reports the committed epoch with
// no pending state, the same publish returns the same match set through the
// grids, and a second round over unchanged statistics creates no filter copy.
func TestAllocate(t *testing.T) {
	tc := startCluster(t, 3, false)
	c, out := tc.client(t)
	terms := seedHotHomes(t, tc, c, 30, 5)
	content := strings.Join(terms, " ")
	_, before := publish(t, c, out, content)
	if len(before) != 90+1 { // 90 matches and the not-reached line (no hubs)
		t.Fatalf("publish before the round printed %d lines, want 91:\n%s", len(before), out)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out.Reset()
	if err := c.allocate(ctx, 20, 5, 10*time.Second); err != nil {
		t.Fatalf("allocate: %v\n%s", err, out)
	}
	prepared := 0
	for id, nd := range tc.nodes {
		committed, pending, dual := nd.EpochInfo()
		if pending != 0 || dual {
			t.Fatalf("%s: pending=%d dual=%v after a committed round", id, pending, dual)
		}
		if strings.Contains(out.String(), fmt.Sprintf("prepared %s onto", id)) {
			prepared++
			if g, _ := nd.Grid(); committed != 5 || g == nil {
				t.Fatalf("%s was prepared but reports epoch %d, grid %v; want the committed epoch 5", id, committed, g)
			}
		}
	}
	if want := fmt.Sprintf("allocation epoch 5: %d grid(s) committed across 3 nodes", prepared); prepared == 0 || !strings.Contains(out.String(), want) {
		t.Fatalf("allocate printed:\n%swant %q with at least one prepared home", out, want)
	}
	_, after := publish(t, c, out, content)
	if !slices.Equal(after, before) {
		t.Fatalf("match set through the grids:\n%s\nwant:\n%s", strings.Join(after, "\n"), strings.Join(before, "\n"))
	}

	migrated := tc.reg.Counter("realloc.filters.migrated").Value()
	if migrated == 0 {
		t.Fatal("the first round migrated no filter copy")
	}
	out.Reset()
	if err := c.allocate(ctx, 20, 6, 10*time.Second); err != nil {
		t.Fatalf("second allocate: %v\n%s", err, out)
	}
	if got := tc.reg.Counter("realloc.filters.migrated").Value(); got != migrated {
		t.Fatalf("a round over unchanged statistics migrated %d more filter copies", got-migrated)
	}
}

// TestAllocateAbortsWhenANodeDiesMidRound closes one node's listener after
// the statistics pull — its next inbound frame, a prepare or another home's
// migration batch, is refused and the node goes away. The command returns the
// failed prepare joined with the abort broadcast's error for the dead node,
// prints no commit, and the survivors hold no pending epoch and no copy the
// round created.
func TestAllocateAbortsWhenANodeDiesMidRound(t *testing.T) {
	tc := startCluster(t, 3, false)
	c, out := tc.client(t)
	seedHotHomes(t, tc, c, 30, 5)
	stored := func() (total int) {
		for id, nd := range tc.nodes {
			if id != "n2" {
				total += nd.Index().NumFilters()
			}
		}
		return total
	}
	before := stored()

	statsPull := node.EncodeStatsPull()[0]
	var dead atomic.Bool
	tc.refuseMu.Lock()
	tc.refuse = func(id ring.NodeID, payload []byte) error {
		if id != "n2" || (payload[0] == statsPull && !dead.Load()) {
			return nil
		}
		if dead.CompareAndSwap(false, true) {
			go tc.tns["n2"].Close()
		}
		return fmt.Errorf("n2 is gone")
	}
	tc.refuseMu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out.Reset()
	err := c.allocate(ctx, 20, 5, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "epoch 5 aborted: prepare on") || !strings.Contains(err.Error(), "epoch control on n2") {
		t.Fatalf("allocate with n2 dying mid-round returned %v; want the prepare error joined with the abort error on n2", err)
	}
	if strings.Contains(out.String(), "committed") {
		t.Fatalf("an aborted round printed a commit:\n%s", out)
	}
	for _, id := range []ring.NodeID{"n0", "n1"} {
		if committed, pending, dual := tc.nodes[id].EpochInfo(); committed != 0 || pending != 0 || dual {
			t.Fatalf("%s after the abort: committed=%d pending=%d dual=%v, want 0/0/false", id, committed, pending, dual)
		}
	}
	if after := stored(); after != before {
		t.Fatalf("survivors hold %d filter copies after the abort, %d before the round", after, before)
	}
}
