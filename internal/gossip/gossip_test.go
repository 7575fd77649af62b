package gossip

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// fakeClock is a manually advanced clock shared by a test cluster.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// testCluster wires n gossipers over an in-memory network.
type testCluster struct {
	net   *transport.Network
	clock *fakeClock
	gs    []*Gossiper
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{
		net:   transport.NewNetwork(transport.NetworkConfig{}),
		clock: newFakeClock(),
	}
	eps := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		id := ring.NodeID("g" + strconv.Itoa(i))
		gIdx := i
		eps[i] = tc.net.Join(id, func(ctx context.Context, from ring.NodeID, payload []byte) ([]byte, error) {
			return tc.gs[gIdx].Handle(from, payload)
		})
	}
	for i := 0; i < n; i++ {
		ep := eps[i]
		g, err := New(Config{
			Self: Member{ID: ep.Self(), Rack: "rack-" + strconv.Itoa(i%3), Addr: "addr-" + strconv.Itoa(i)},
			Send: func(ctx context.Context, to ring.NodeID, payload []byte) ([]byte, error) {
				return ep.Send(ctx, to, payload)
			},
			Interval:     time.Second,
			SuspectAfter: 3 * time.Second,
			EvictAfter:   5 * time.Second,
			Now:          tc.clock.Now,
			Seed:         int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.gs = append(tc.gs, g)
	}
	return tc
}

// tickAll advances the clock and runs one round on every gossiper.
func (tc *testCluster) tickAll() {
	tc.clock.Advance(time.Second)
	for _, g := range tc.gs {
		g.Tick(context.Background())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	if _, err := New(Config{Self: Member{ID: "a"}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig (nil sender)", err)
	}
}

func TestMembershipConverges(t *testing.T) {
	tc := newTestCluster(t, 10)
	// Everyone only knows g0 initially (a seed contact).
	for i := 1; i < 10; i++ {
		tc.gs[i].SeedPeers(Member{ID: "g0", Addr: "addr-0", Rack: "rack-0"})
	}
	for round := 0; round < 12; round++ {
		tc.tickAll()
	}
	for i, g := range tc.gs {
		alive := g.Alive()
		if len(alive) != 10 {
			t.Fatalf("g%d sees %d alive members, want 10", i, len(alive))
		}
	}
}

func TestMetadataPropagates(t *testing.T) {
	tc := newTestCluster(t, 4)
	for i := 1; i < 4; i++ {
		tc.gs[i].SeedPeers(Member{ID: "g0"})
	}
	for round := 0; round < 8; round++ {
		tc.tickAll()
	}
	for _, m := range tc.gs[0].Members() {
		if m.Addr == "" {
			t.Fatalf("member %s has empty addr after convergence", m.ID)
		}
	}
}

func TestFailureDetection(t *testing.T) {
	tc := newTestCluster(t, 5)
	for i := 1; i < 5; i++ {
		tc.gs[i].SeedPeers(Member{ID: "g0"})
	}
	for round := 0; round < 10; round++ {
		tc.tickAll()
	}
	// Crash g4: it stops ticking and the network drops its messages.
	tc.net.Fail("g4")
	for round := 0; round < 4; round++ {
		tc.clock.Advance(time.Second)
		for _, g := range tc.gs[:4] {
			g.Tick(context.Background())
		}
	}
	if st := tc.gs[0].StatusOf("g4"); st != StatusSuspect {
		t.Fatalf("g4 status = %v, want suspect", st)
	}
	for round := 0; round < 10; round++ {
		tc.clock.Advance(time.Second)
		for _, g := range tc.gs[:4] {
			g.Tick(context.Background())
		}
	}
	if st := tc.gs[0].StatusOf("g4"); st != StatusDead {
		t.Fatalf("g4 status = %v, want dead", st)
	}
	if n := len(tc.gs[0].Alive()); n != 4 {
		t.Fatalf("alive = %d, want 4", n)
	}
}

func TestRecoveryAfterEviction(t *testing.T) {
	tc := newTestCluster(t, 3)
	for i := 1; i < 3; i++ {
		tc.gs[i].SeedPeers(Member{ID: "g0"})
	}
	for round := 0; round < 6; round++ {
		tc.tickAll()
	}
	tc.net.Fail("g2")
	for round := 0; round < 20; round++ {
		tc.clock.Advance(time.Second)
		tc.gs[0].Tick(context.Background())
		tc.gs[1].Tick(context.Background())
	}
	if st := tc.gs[0].StatusOf("g2"); st != StatusDead {
		t.Fatalf("g2 = %v, want dead", st)
	}
	// g2 comes back with advancing heartbeats.
	tc.net.Recover("g2")
	for round := 0; round < 6; round++ {
		tc.tickAll()
	}
	if st := tc.gs[0].StatusOf("g2"); st != StatusAlive {
		t.Fatalf("g2 = %v, want alive after recovery", st)
	}
}

func TestOnJoinOnLeaveCallbacks(t *testing.T) {
	tc := newTestCluster(t, 3)
	var mu sync.Mutex
	joined := make(map[ring.NodeID]bool)
	left := make(map[ring.NodeID]bool)
	// Rebuild g0 with callbacks.
	ep := tc.net.Join("g0", func(ctx context.Context, from ring.NodeID, payload []byte) ([]byte, error) {
		return tc.gs[0].Handle(from, payload)
	})
	g0, err := New(Config{
		Self: Member{ID: "g0"},
		Send: func(ctx context.Context, to ring.NodeID, payload []byte) ([]byte, error) {
			return ep.Send(ctx, to, payload)
		},
		Interval:     time.Second,
		SuspectAfter: 3 * time.Second,
		EvictAfter:   5 * time.Second,
		Now:          tc.clock.Now,
		Seed:         77,
		OnJoin: func(m Member) {
			mu.Lock()
			joined[m.ID] = true
			mu.Unlock()
		},
		OnLeave: func(id ring.NodeID) {
			mu.Lock()
			left[id] = true
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.gs[0] = g0
	for i := 1; i < 3; i++ {
		tc.gs[i].SeedPeers(Member{ID: "g0"})
	}
	for round := 0; round < 6; round++ {
		tc.tickAll()
	}
	mu.Lock()
	if !joined["g1"] || !joined["g2"] {
		t.Fatalf("joins = %v, want g1 and g2", joined)
	}
	mu.Unlock()

	tc.net.Fail("g2")
	for round := 0; round < 25; round++ {
		tc.clock.Advance(time.Second)
		tc.gs[0].Tick(context.Background())
		tc.gs[1].Tick(context.Background())
	}
	mu.Lock()
	defer mu.Unlock()
	if !left["g2"] {
		t.Fatalf("leaves = %v, want g2", left)
	}
}

func TestStartStop(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	ep := net.Join("solo", func(ctx context.Context, from ring.NodeID, payload []byte) ([]byte, error) {
		return nil, nil
	})
	g, err := New(Config{
		Self:     Member{ID: "solo"},
		Send:     ep.Send,
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	g.Start() // idempotent
	time.Sleep(10 * time.Millisecond)
	g.Stop()
	g.Stop() // idempotent
}

// TestHandleBeforeStart is moved's startup window: the node's listener
// accepts before the gossip loop starts, so a peer's digest frame can reach
// the node's router first. A gossiper built (not started) before the node
// answers it with its own digest, merges the sender, and sends nothing.
func TestHandleBeforeStart(t *testing.T) {
	g, err := New(Config{
		Self: Member{ID: "late", Addr: "127.0.0.1:1"},
		Send: func(context.Context, ring.NodeID, []byte) ([]byte, error) {
			t.Error("Send invoked before Start")
			return nil, errors.New("not started")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := ring.New(ring.Config{})
	if err := r.Add(ring.Member{ID: "late"}); err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{ID: "late", Ring: r, Gossip: g.Handle})
	if err != nil {
		t.Fatal(err)
	}
	peer := newTestCluster(t, 1).gs[0]
	peer.mu.Lock()
	frame := node.EncodeGossip(peer.digestLocked())
	peer.mu.Unlock()
	raw, err := nd.Handle(context.Background(), "g0", frame)
	if err != nil {
		t.Fatal(err)
	}
	members, err := decodeDigest(raw)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[ring.NodeID]bool{}
	for _, m := range members {
		seen[m.ID] = true
	}
	if !seen["late"] || !seen["g0"] {
		t.Fatalf("digest answered before Start lists %v, want late and g0", members)
	}
}

func TestHandleRejectsCorruptDigest(t *testing.T) {
	tc := newTestCluster(t, 2)
	if _, err := tc.gs[0].Handle("g1", []byte{0xFF, 0xFF}); err == nil {
		t.Fatal("expected error for corrupt digest")
	}
	// A digest claiming many members but carrying none must be rejected.
	if _, err := tc.gs[0].Handle("g1", []byte{200}); err == nil {
		t.Fatal("expected error for overclaiming digest")
	}
}

// TestHandleRejectsEmptyMemberID: a digest naming a member with an empty ID
// is refused whole, so that member never enters the table, Members() or the
// digests this node spreads.
func TestHandleRejectsEmptyMemberID(t *testing.T) {
	tc := newTestCluster(t, 2)
	w := codec.NewWriter(16)
	w.Uvarint(1)
	w.String("")
	w.String("rack-0")
	w.String("127.0.0.1:1")
	w.Uvarint(5)
	w.Uint8(uint8(StatusAlive))
	if _, err := tc.gs[0].Handle("g1", w.Bytes()); err == nil {
		t.Fatal("digest with an empty member id accepted")
	}
	for _, m := range tc.gs[0].Members() {
		if m.ID == "" {
			t.Fatalf("Members() lists an empty id: %+v", tc.gs[0].Members())
		}
	}
}

func TestStatusOfUnknown(t *testing.T) {
	tc := newTestCluster(t, 2)
	if st := tc.gs[0].StatusOf("ghost"); st != StatusDead {
		t.Fatalf("unknown member status = %v, want dead", st)
	}
}

func TestStatusString(t *testing.T) {
	if StatusAlive.String() != "alive" || StatusSuspect.String() != "suspect" || StatusDead.String() != "dead" {
		t.Fatal("status names wrong")
	}
	if Status(9).String() != "status(9)" {
		t.Fatal("unknown status string wrong")
	}
}
