package node

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/testutil"
	"github.com/movesys/move/internal/transport"
)

// refNet is a two-node ring, n0 and n1, each with a delivery hub, and an
// entry node outside the ring that routes deliveries — over the in-memory
// network or loopback TCP. Each ring node sits behind a slot so a test can
// restart it (a fresh Node, the same hub and sessions). hook runs on the
// entry between the match and the routing: once per publish, before the
// entry's transport sends the first deliver batch (hookTransport).
type refNet struct {
	t     *testing.T
	ring  *ring.Ring
	entry *Node
	slots map[ring.NodeID]*atomic.Pointer[Node]
	trs   map[ring.NodeID]transport.Transport
	hubs  map[ring.NodeID]*delivery.Hub
	hook  func()
	once  *sync.Once

	mu  sync.Mutex
	got map[string][]received

	nextFilter model.FilterID
	nextDoc    uint64
	retired    int64 // delivery.route.unheld of the nodes restart replaced
}

type received struct {
	doc   uint64
	terms []string
}

var refIDs = []ring.NodeID{"n0", "n1"}

func newRefNet(t *testing.T, tcp bool) *refNet {
	rn := &refNet{
		t:     t,
		ring:  ring.New(ring.Config{}),
		slots: make(map[ring.NodeID]*atomic.Pointer[Node]),
		trs:   make(map[ring.NodeID]transport.Transport),
		hubs:  make(map[ring.NodeID]*delivery.Hub),
		got:   make(map[string][]received),
	}
	for _, id := range refIDs {
		if err := rn.ring.Add(ring.Member{ID: id, Rack: "r0"}); err != nil {
			t.Fatal(err)
		}
	}
	var join func(id ring.NodeID, h transport.Handler) transport.Transport
	if tcp {
		var mu sync.Mutex
		addrs := make(map[ring.NodeID]string)
		resolve := func(id ring.NodeID) (string, error) {
			mu.Lock()
			defer mu.Unlock()
			if a, ok := addrs[id]; ok {
				return a, nil
			}
			return "", fmt.Errorf("no address for %s: %w", id, transport.ErrNodeDown)
		}
		join = func(id ring.NodeID, h transport.Handler) transport.Transport {
			tn, err := transport.NewTCP(id, "127.0.0.1:0", h, resolve)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tn.Close() })
			mu.Lock()
			addrs[id] = tn.Addr()
			mu.Unlock()
			return tn
		}
	} else {
		net := transport.NewNetwork(transport.NetworkConfig{})
		join = func(id ring.NodeID, h transport.Handler) transport.Transport { return net.Join(id, h) }
	}
	for _, id := range refIDs {
		hub := delivery.NewHub(delivery.Config{})
		t.Cleanup(hub.Stop)
		rn.hubs[id] = hub
		slot := &atomic.Pointer[Node]{}
		rn.slots[id] = slot
		rn.trs[id] = join(id, func(ctx context.Context, from ring.NodeID, p []byte) ([]byte, error) {
			return slot.Load().Handle(ctx, from, p)
		})
		rn.restart(id)
	}
	entry, err := New(Config{
		ID: "entry", Ring: rn.ring, RouteDeliveries: true,
		OnDeliveryLoss: func(doc uint64, subs []string) { t.Errorf("doc %d: delivery to %v lost", doc, subs) },
	})
	if err != nil {
		t.Fatal(err)
	}
	entry.Attach(hookTransport{Transport: join("entry", entry.Handle), rn: rn})
	rn.entry = entry
	return rn
}

// hookTransport is the entry's transport: before the first deliver batch of
// a publish leaves, it runs the publish's hook. The batches of one publish
// go out concurrently; the Once holds them all until the hook has returned.
type hookTransport struct {
	transport.Transport
	rn *refNet
}

func (h hookTransport) Send(ctx context.Context, to ring.NodeID, payload []byte) ([]byte, error) {
	if len(payload) > 0 && payload[0] == msgDeliverBatch && h.rn.hook != nil {
		h.rn.once.Do(h.rn.hook)
	}
	return h.Transport.Send(ctx, to, payload)
}

// restart replaces id's node with a fresh one on the same hub: everything it
// held is gone, its sessions are not.
func (rn *refNet) restart(id ring.NodeID) {
	if old := rn.slots[id].Load(); old != nil {
		rn.retired += old.routeUnheld.Value()
	}
	nd, err := New(Config{ID: id, Rack: "r0", Ring: rn.ring, Delivery: rn.hubs[id]})
	if err != nil {
		rn.t.Fatal(err)
	}
	nd.Attach(rn.trs[id])
	rn.slots[id].Store(nd)
}

func (rn *refNet) node(id ring.NodeID) *Node { return rn.slots[id].Load() }

// terms returns n terms homed on id, named after tag.
func (rn *refNet) terms(id ring.NodeID, tag string, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		term := fmt.Sprintf("%s-%d", tag, i)
		if home, err := rn.ring.HomeNode(term); err == nil && home == id {
			out = append(out, term)
		}
	}
	return out
}

// subscribe attaches a session for a new subscriber whose owner is id.
func (rn *refNet) subscribe(id ring.NodeID, tag string) string {
	for i := 0; ; i++ {
		sub := fmt.Sprintf("%s-sub%d", tag, i)
		if owner, err := rn.ring.HomeNode("subscriber/" + sub); err != nil || owner != id {
			continue
		}
		if _, _, err := rn.hubs[id].Attach(sub, &recConn{rn: rn, hub: rn.hubs[id], sub: sub}, 0); err != nil {
			rn.t.Fatal(err)
		}
		return sub
	}
}

// register gives sub a filter on term, registered on term's home.
func (rn *refNet) register(sub, term string) {
	home, err := rn.ring.HomeNode(term)
	if err != nil {
		rn.t.Fatal(err)
	}
	rn.nextFilter++
	f := model.Filter{ID: rn.nextFilter, Subscriber: sub, Terms: []string{term}, Mode: model.MatchAny}
	if _, err := rn.node(home).Handle(context.Background(), "registrar", EncodeRegister(RegisterReq{Filter: f, PostingTerms: f.Terms})); err != nil {
		rn.t.Fatal(err)
	}
}

// holds reports whether nd holds document id from sender from.
func holds(nd *Node, from ring.NodeID, id uint64) bool {
	nd.held.mu.Lock()
	defer nd.held.mu.Unlock()
	for _, d := range nd.held.slots {
		if d.terms != nil && d.from == from && d.id == id {
			return true
		}
	}
	return false
}

// publish runs doc through the entry and waits until every hub has flushed
// and been acked, so what the subscribers received is final.
func (rn *refNet) publish(doc *model.Document, hook func()) {
	rn.t.Helper()
	rn.hook, rn.once = hook, &sync.Once{}
	defer func() { rn.hook = nil }()
	if _, _, err := rn.entry.PublishEntry(context.Background(), doc); err != nil {
		rn.t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		busy := 0
		for _, hub := range rn.hubs {
			busy += hub.Pending()
		}
		if busy == 0 {
			return
		}
		if time.Now().After(deadline) {
			rn.t.Fatalf("doc %d: %d event(s) still pending", doc.ID, busy)
		}
	}
}

// received returns what sub has been sent, in order.
func (rn *refNet) received(sub string) []received {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return slices.Clone(rn.got[sub])
}

// counters are the entry's re-sends and the ring nodes' unresolved
// references, summed over the nodes now in the slots.
func (rn *refNet) counters() (resent, unheld int64) {
	unheld = rn.retired
	for _, id := range refIDs {
		unheld += rn.node(id).routeUnheld.Value()
	}
	return rn.entry.routeResent.Value(), unheld
}

// recConn records every event a session sends, terms copied (the hub
// recycles its events), and acks at once.
type recConn struct {
	rn  *refNet
	hub *delivery.Hub
	sub string
}

func (c *recConn) SendHello(delivery.HelloInfo) error { return nil }
func (c *recConn) SendPing() error                    { return nil }
func (c *recConn) SendBye(string) error               { return nil }
func (c *recConn) Close() error                       { return nil }

func (c *recConn) SendEvents(evs []*delivery.Event) error {
	c.rn.mu.Lock()
	for _, ev := range evs {
		c.rn.got[c.sub] = append(c.rn.got[c.sub], received{doc: ev.DocID, terms: slices.Clone(ev.Terms)})
	}
	c.rn.mu.Unlock()
	c.hub.Ack(c.sub, evs[len(evs)-1].Seq)
	return nil
}

// TestDeliverByReference drives the last mile's two document forms end to
// end, over the in-memory network and loopback TCP, with one subscriber
// owned by each node: a batch to an owner that answered the publish names the
// document (the owner held it while the entry routed, and the batch used it
// up), one to an owner that did not carries it, and an owner that no longer
// holds the named document — evicted by heldCap+1 newer ones, restarted, or
// holding only another document under the same sender and ID — answers "not
// held" and gets it inline. Every subscriber receives each document once,
// with the published terms; the entry's delivery.route.resent and the
// owners' delivery.route.unheld count the misses, one each.
func TestDeliverByReference(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := "memnet"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			rn := newRefNet(t, tcp)
			// fill sends n0 count home-routed publishes from the entry, each
			// with ID id, or a fresh ID when id is 0.
			fill := func(count int, id uint64, terms []string) {
				for i := 0; i < count; i++ {
					doc := &model.Document{ID: id, Terms: terms}
					if id == 0 {
						doc.ID = uint64(1_000_000 + i)
					}
					if _, err := rn.node("n0").Handle(context.Background(), "entry", encodePublish(false, doc, terms[0])); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, tc := range []struct {
				name    string
				spansN1 bool // n1 is a home of the documents, not only n0
				reuse   bool // a second document, published under the first's ID
				hook    func(doc int, first []string)
				misses  int64
			}{
				{name: "hit", spansN1: true},
				{name: "owner not a home"},
				{name: "evicted", spansN1: true, misses: 1,
					hook: func(int, []string) { fill(heldCap+1, 0, []string{"filler"}) }},
				{name: "owner restarted", spansN1: true, misses: 1,
					hook: func(int, []string) { rn.restart("n0") }},
				{name: "reused DocID", spansN1: true, reuse: true, misses: 1,
					// The second document finds n0 holding only copies of
					// the first under (entry, ID).
					hook: func(doc int, first []string) {
						if doc == 1 {
							fill(heldCap, rn.nextDoc, first)
						}
					}},
			} {
				t.Run(tc.name, func(t *testing.T) {
					resent0, unheld0 := rn.counters()
					subs := []string{rn.subscribe("n0", tc.name), rn.subscribe("n1", tc.name)}
					docs := 1
					if tc.reuse {
						docs = 2
					} else {
						rn.nextDoc++
					}
					var want []received
					var first []string
					for d := 0; d < docs; d++ {
						tag := fmt.Sprintf("%s-%d", tc.name, d)
						terms := rn.terms("n0", tag, 3)
						if tc.spansN1 {
							terms = append(terms, rn.terms("n1", tag, 3)...)
						}
						if d == 0 {
							first = terms
						}
						// Both subscribers match through a term homed on n0.
						for _, sub := range subs {
							rn.register(sub, terms[0])
						}
						doc := &model.Document{ID: rn.nextDoc, Terms: terms}
						rn.publish(doc, func() {
							for _, id := range refIDs {
								if home := id == "n0" || tc.spansN1; holds(rn.node(id), "entry", doc.ID) != home {
									t.Errorf("while routing, %s holds doc %d: %v, want %v", id, doc.ID, !home, home)
								}
							}
							if tc.hook != nil {
								tc.hook(d, first)
							}
						})
						want = append(want, received{doc: doc.ID, terms: terms})
						if tc.hook == nil && holds(rn.node("n0"), "entry", doc.ID) {
							t.Errorf("doc %d is still held on n0: its batch carried it inline", doc.ID)
						}
					}
					for _, sub := range subs {
						if got := rn.received(sub); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s received %v, want %v", sub, got, want)
						}
					}
					resent, unheld := rn.counters()
					if resent-resent0 != tc.misses || unheld-unheld0 != tc.misses {
						t.Fatalf("delivery.route.resent +%d, delivery.route.unheld +%d; want +%d each", resent-resent0, unheld-unheld0, tc.misses)
					}
				})
			}
		})
	}
}

// heldDocBytes is what one held match_heavy document keeps alive: its
// 65-element term slice (1,040 B, in the 1,152 B size class) and its 65
// eight-byte term strings, two to a 16 B tiny-allocator block — 33 blocks,
// the last one holding a single string.
const heldDocBytes = 1152 + 33*16

// TestHeldTableCost prices the recent-document table at capacity where
// match_heavy fills it: a home sent heldCap 65-term documents of eight-byte
// terms as home-routed publish frames through Handle. No filter names the
// terms, so nothing in the index keeps a copy of them. What the held
// documents alone keep alive — the heap the table frees when emptied — must
// stay within heldDocBytes a document; the table's own slots are a fixed
// array in the Node.
func TestHeldTableCost(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap figures are meaningless under -race")
	}
	hub := delivery.NewHub(delivery.Config{})
	defer hub.Stop()
	nd := soloNode(t)
	nd.cfg.Delivery = hub
	for i := 0; i < heldCap; i++ {
		doc := &model.Document{ID: uint64(i + 1)}
		for j := 0; j < 65; j++ {
			doc.Terms = append(doc.Terms, fmt.Sprintf("t%07d", i*65+j))
		}
		if _, err := nd.Handle(context.Background(), "entry", encodePublish(false, doc, doc.Terms[0])); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	full := heap()
	nd.held.mu.Lock()
	for i := range nd.held.slots {
		if nd.held.slots[i].terms == nil {
			t.Fatalf("slot %d is empty after %d documents", i, heldCap)
		}
		nd.held.slots[i] = heldDoc{}
	}
	nd.held.mu.Unlock()
	perDoc := float64(full-heap()) / heldCap
	runtime.KeepAlive(nd)
	t.Logf("a full table of %d match_heavy documents holds %.0f B each, %.0f KiB in all, beside its %d B of slots", heldCap, perDoc, perDoc*heldCap/1024, unsafe.Sizeof(nd.held.slots))
	if perDoc > heldDocBytes {
		t.Fatalf("a held 65-term document keeps %.0f B alive, more than its %d B of terms", perDoc, heldDocBytes)
	}
}
