package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// deliveryRounds returns the delivery soak length: short by default so the
// race detector's CI budget holds, SOAK_DELIVERY_ROUNDS=40 for the full
// `make soak-delivery` run.
func deliveryRounds(t *testing.T) int {
	if v := os.Getenv("SOAK_DELIVERY_ROUNDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("SOAK_DELIVERY_ROUNDS=%q is not a positive integer", v)
		}
		return n
	}
	return 8
}

// deliveryLedger is the accounting side of the delivery-equivalence oracle:
// every event a subscriber connection received, every event a full queue
// shed (via delivery.Config.OnDrop), and every notification lost to a failed
// owner RPC (via Config.OnDeliveryLoss). dups counts receipts of a
// (subscriber, document) pair after its first — at-least-once redelivery
// and duplicated frames — which the oracle logs but does not bound.
type deliveryLedger struct {
	mu       sync.Mutex
	received map[string]map[uint64]bool
	dropped  map[string]map[uint64]bool
	lost     map[string]map[uint64]bool
	dups     int
}

func newDeliveryLedger() *deliveryLedger {
	return &deliveryLedger{
		received: make(map[string]map[uint64]bool),
		dropped:  make(map[string]map[uint64]bool),
		lost:     make(map[string]map[uint64]bool),
	}
}

func markLedger(m map[string]map[uint64]bool, sub string, doc uint64) {
	inner := m[sub]
	if inner == nil {
		inner = make(map[uint64]bool)
		m[sub] = inner
	}
	inner[doc] = true
}

func (l *deliveryLedger) markReceived(sub string, doc uint64) {
	l.mu.Lock()
	if l.received[sub][doc] {
		l.dups++
	}
	markLedger(l.received, sub, doc)
	l.mu.Unlock()
}

func (l *deliveryLedger) onDrop(sub string, doc uint64) {
	l.mu.Lock()
	markLedger(l.dropped, sub, doc)
	l.mu.Unlock()
}

func (l *deliveryLedger) onLost(doc uint64, subs []string) {
	l.mu.Lock()
	for _, sub := range subs {
		markLedger(l.lost, sub, doc)
	}
	l.mu.Unlock()
}

func (l *deliveryLedger) has(m map[string]map[uint64]bool, sub string, doc uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return m[sub][doc]
}

// chaosConn is an in-process subscriber connection for the chaos harness:
// it records every event into the ledger and acks at once, unless stalled:
// a stalled reader withholds its acks, so its window fills, its queue backs
// up and sheds its oldest events.
type chaosConn struct {
	hub     *delivery.Hub
	sub     string
	led     *deliveryLedger
	stalled atomic.Bool
	last    atomic.Uint64 // highest sequence number received
}

func (c *chaosConn) SendHello(delivery.HelloInfo) error { return nil }
func (c *chaosConn) SendPing() error                    { return nil }
func (c *chaosConn) SendBye(string) error               { return nil }
func (c *chaosConn) Close() error                       { return nil }

func (c *chaosConn) SendEvents(evs []*delivery.Event) error {
	for _, ev := range evs {
		c.led.markReceived(c.sub, ev.DocID)
	}
	seq := evs[len(evs)-1].Seq
	c.last.Store(seq)
	if !c.stalled.Load() {
		c.hub.Ack(c.sub, seq)
	}
	return nil
}

// setStalled switches the reader; one that stops stalling acks what it
// withheld. SendEvents stores last before it reads stalled and setStalled
// stores stalled before it reads last, so one of the two acks the newest
// event.
func (c *chaosConn) setStalled(stalled bool) {
	c.stalled.Store(stalled)
	if !stalled {
		c.hub.Ack(c.sub, c.last.Load())
	}
}

// runDeliveryChaos drives the full dissemination path — register, publish
// through entry/home/grid fan-out (under SchemeRS, the flood), route to
// session owners, enqueue, flush to subscriber connections — under seeded
// data-path fault injection, subscriber connect/disconnect churn, stalled
// readers, node crash/recover cycles, and live reallocation rounds. It then settles the cluster and
// proves the delivery-equivalence invariant for every published document:
//
//	for every subscriber the publish matched, the notification was either
//	received, still pending in a bounded queue, shed by a full queue
//	(accounted via OnDrop), or lost to a failed owner RPC
//	(accounted via OnDeliveryLoss) — and nothing was delivered to a
//	subscriber the brute-force oracle says should not have it.
//
// shards sets the hub's registry stripe count so the suite proves the
// sharded registry behaves identically to the degenerate single-map layout
// (shards=1) under churn. Without faults there is no data-path fault
// injection and no crash: every deliver batch to an owner that matched the
// document resolves its reference, so none is re-sent inline. SchemeRS has
// no allocation, so its reallocation rounds fail and are not counted.
func runDeliveryChaos(t *testing.T, scheme Scheme, rounds int, seed int64, shards int, faults bool) {
	ctx := context.Background()
	led := newDeliveryLedger()
	var fault *transport.FaultConfig
	if faults {
		fault = &transport.FaultConfig{
			Seed:    seed,
			Default: transport.FaultProbs{Drop: 0.01, Error: 0.01, Duplicate: 0.01},
		}
	}
	c, err := New(Config{
		Scheme:   scheme,
		Nodes:    12,
		RackSize: 3,
		Capacity: 100_000,
		Seed:     seed,
		Fault:    fault,
		Resilience: &resilience.Policy{
			MaxAttempts:      5,
			BaseDelay:        200 * time.Microsecond,
			MaxDelay:         2 * time.Millisecond,
			BreakerThreshold: 12,
			BreakerCooldown:  20 * time.Millisecond,
			Retryable:        transport.IsAvailabilityError,
		},
		// Tight bounds so stalled readers overflow and the queues really
		// shed during the soak (asserted at the end).
		Delivery: &delivery.Config{
			QueueCap:   8,
			WindowCap:  8,
			FlushBatch: 4,
			Workers:    2,
			Shards:     shards,
			OnDrop:     led.onDrop,
		},
		OnDeliveryLoss: led.onLost,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(seed))

	// Oracle state: every subscriber's filter terms (a subscriber may own
	// several filters — delivery is per subscriber).
	subTerms := make(map[string][][]string)
	var subs []string
	// Two of these terms spell more than a deliver batch's reference
	// (9 bytes), so the batches to owners that matched a document name it.
	term := func(i int) string { return fmt.Sprintf("term%d", i%24) }
	register := func(sub string, terms []string) {
		t.Helper()
		if _, err := c.Register(ctx, sub, terms, model.MatchAny); err != nil {
			t.Fatal(err)
		}
		if _, known := subTerms[sub]; !known {
			subs = append(subs, sub)
		}
		subTerms[sub] = append(subTerms[sub], terms)
	}
	subMatches := func(sub string, doc []string) bool {
		docSet := make(map[string]struct{}, len(doc))
		for _, d := range doc {
			docSet[d] = struct{}{}
		}
		for _, terms := range subTerms[sub] {
			for _, ft := range terms {
				if _, ok := docSet[ft]; ok {
					return true
				}
			}
		}
		return false
	}

	for i := 0; i < 60; i++ {
		register("sub"+strconv.Itoa(i), []string{term(rng.Intn(24)), term(rng.Intn(24))})
	}

	// Session plumbing: attach/detach subscriber connections on the owner
	// node's hub.
	conns := make(map[string]*chaosConn)
	sessions := make(map[string]*delivery.Session)
	attach := func(sub string) {
		t.Helper()
		owner, err := c.SubscriberOwner(sub)
		if err != nil {
			t.Fatal(err)
		}
		hub := c.DeliveryHub(owner)
		conn := &chaosConn{hub: hub, sub: sub, led: led}
		sess, _, err := hub.Attach(sub, conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		conns[sub] = conn
		sessions[sub] = sess
	}
	detach := func(sub string) {
		if sess, ok := sessions[sub]; ok {
			sess.Detach(conns[sub])
			delete(sessions, sub)
			delete(conns, sub)
		}
	}
	// Two thirds connected up front; the rest accumulate detached backlogs.
	for i, sub := range subs {
		if i%3 != 2 {
			attach(sub)
		}
	}

	type pubRecord struct {
		doc     []string
		matched []string // subscribers the publish reported
	}
	published := make(map[uint64]pubRecord)
	degraded := false // a node is currently failed
	publish := func(doc []string) {
		t.Helper()
		res, err := c.Publish(ctx, doc)
		if err != nil && !availabilityOnly(err) {
			t.Fatalf("publish %v: %v", doc, err)
		}
		rec := pubRecord{doc: doc}
		seen := make(map[string]struct{})
		for _, m := range res.Matches {
			// Phantom check at the match layer: the oracle must agree this
			// subscriber's filters match the document.
			if !subMatches(m.Subscriber, doc) {
				t.Fatalf("phantom match: doc %v delivered to %s", doc, m.Subscriber)
			}
			if _, dup := seen[m.Subscriber]; !dup {
				seen[m.Subscriber] = struct{}{}
				rec.matched = append(rec.matched, m.Subscriber)
			}
		}
		if !degraded && err == nil {
			// Healthy cluster: the match set must be complete — every
			// subscriber the brute-force oracle names is in it.
			for sub := range subTerms {
				if subMatches(sub, doc) {
					if _, ok := seen[sub]; !ok {
						t.Fatalf("lost match: doc %v missing subscriber %s", doc, sub)
					}
				}
			}
		}
		published[res.DocID] = rec
	}

	reallocs := 0
	for round := 1; round <= rounds; round++ {
		// Workload drift: new subscribers (some never connect).
		for i := 0; i < 3; i++ {
			sub := fmt.Sprintf("r%d-%d", round, i)
			register(sub, []string{term(rng.Intn(24)), term(round)})
			if i%2 == 0 {
				attach(sub)
			}
		}
		// Subscriber churn: disconnect a few, reconnect a few, stall a few.
		for i := 0; i < 6; i++ {
			sub := subs[rng.Intn(len(subs))]
			if _, connected := conns[sub]; connected {
				if rng.Intn(2) == 0 {
					detach(sub)
				} else {
					conns[sub].setStalled(rng.Intn(2) == 0)
				}
			} else {
				attach(sub)
			}
		}

		for i := 0; i < 15; i++ {
			publish([]string{term(rng.Intn(24)), term(round)})
		}

		if faults && round%3 == 0 {
			// Crash a slice of the cluster, publish into the hole (routing
			// to dead owners must surface as accounted loss, not silence),
			// then recover and reallocate.
			victims := c.FailFraction(0.25, round%2 == 0)
			degraded = true
			for i := 0; i < 8; i++ {
				publish([]string{term(rng.Intn(24)), term(round)})
			}
			c.RecoverNodes(victims...)
			degraded = false
			if _, err := c.Allocate(ctx); err == nil {
				reallocs++
			}
		} else if round%2 == 0 {
			// Reallocation racing live publishes and deliveries.
			done := make(chan error, 1)
			go func() {
				_, err := c.Allocate(context.Background())
				done <- err
			}()
			for i := 0; i < 10; i++ {
				publish([]string{term(rng.Intn(24)), term(round)})
			}
			if err := <-done; err == nil {
				reallocs++
			}
		}
	}

	// Settle: every connected reader stops stalling and acks what it
	// withheld, which frees its window for the rest of its queue. Detached
	// sessions keep their backlog — that is the "pending in bounded queues"
	// side of the union.
	for _, conn := range conns {
		conn.setStalled(false)
	}

	// Pending side of the union: every queued or unacked event across
	// every hub.
	pending := make(map[string]map[uint64]bool)
	deadline := time.Now().Add(5 * time.Second)
	for {
		clear(pending)
		busy := false
		c.EachDeliveryHub(func(_ ring.NodeID, h *delivery.Hub) {
			h.Each(func(ss delivery.SessionSnapshot) {
				if ss.Attached && ss.Queued+ss.Window > 0 {
					busy = true
				}
				for _, doc := range ss.QueuedDocs {
					markLedger(pending, ss.Sub, doc)
				}
				for _, doc := range ss.WindowDocs {
					markLedger(pending, ss.Sub, doc)
				}
			})
		})
		if !busy || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// The delivery-equivalence union, per published document and matched
	// subscriber: received ∪ pending ∪ queue-dropped ∪ route-lost must
	// cover the match set. Anything uncovered is a silently lost delivery.
	unaccounted := 0
	for docID, rec := range published {
		for _, sub := range rec.matched {
			if led.has(led.received, sub, docID) || pending[sub][docID] ||
				led.has(led.dropped, sub, docID) || led.has(led.lost, sub, docID) {
				continue
			}
			unaccounted++
			t.Errorf("doc %d (%v): delivery to %s silently lost (not received, pending, dropped, or lost-accounted)", docID, rec.doc, sub)
		}
	}
	if unaccounted > 0 {
		t.Fatalf("%d unaccounted deliveries", unaccounted)
	}

	// Phantom side: nothing was delivered to a subscriber whose filters
	// never matched the document (at-least-once allows duplicates, never
	// fabrications).
	led.mu.Lock()
	defer led.mu.Unlock()
	for sub, docs := range led.received {
		for docID := range docs {
			rec, ok := published[docID]
			if !ok {
				t.Fatalf("subscriber %s received unknown doc %d", sub, docID)
			}
			if !subMatches(sub, rec.doc) {
				t.Fatalf("phantom delivery: doc %d (%v) received by %s", docID, rec.doc, sub)
			}
		}
	}

	// The delivery tier rode the aggregated index the whole run: verify
	// the cover accounting came through every reallocation intact.
	assertAggregatedCovers(t, c)

	reg := c.Metrics()
	drops := reg.Counter("delivery.drops.oldest").Value()
	t.Logf("delivery chaos (%v, seed %d): %d docs, %d subs, %d reallocs; enqueued=%d delivered=%d redelivered=%d drops.oldest=%d duplicates=%d route.rpcs=%d route.resent=%d route.lost=%d",
		scheme, seed, len(published), len(subs), reallocs,
		reg.Counter("delivery.enqueued").Value(), reg.Counter("delivery.delivered").Value(),
		reg.Counter("delivery.redelivered").Value(), drops, led.dups,
		reg.Counter("delivery.route.rpcs").Value(), reg.Counter("delivery.route.resent").Value(),
		reg.Counter("delivery.route.lost").Value())
	if resent := reg.Counter("delivery.route.resent").Value(); !faults && resent != 0 {
		t.Fatalf("delivery.route.resent = %d without faults, want 0: a deliver batch named a document its owner did not hold", resent)
	}

	// The tight bounds must have made the queues shed during the run.
	if drops == 0 {
		t.Fatal("no queue shed an event: drops.oldest=0")
	}
}

// TestDeliveryOracle is the oracle-backed delivery equivalence suite: the
// union rule with fault injection, stalled readers, subscriber churn, node
// crashes, and reallocation all active. Seed 11 runs across shard counts
// {1, 4, 32} so the lock-striped registry is proven equivalent to the
// single-map layout; seeds 13 and 17 pin intermediate stripe counts.
func TestDeliveryOracle(t *testing.T) {
	for _, shards := range []int{1, 4, 32} {
		shards := shards
		t.Run(fmt.Sprintf("drop-oldest/shards=%d", shards), func(t *testing.T) {
			runDeliveryChaos(t, SchemeMove, 6, 11, shards, true)
		})
	}
	t.Run("drop-oldest/shards=4/seed=13", func(t *testing.T) { runDeliveryChaos(t, SchemeMove, 6, 13, 4, true) })
	t.Run("drop-oldest/shards=32/seed=17", func(t *testing.T) { runDeliveryChaos(t, SchemeMove, 6, 17, 32, true) })
	t.Run("fault-free/drop-oldest/shards=4", func(t *testing.T) { runDeliveryChaos(t, SchemeMove, 6, 19, 4, false) })
	t.Run("rs/drop-oldest/shards=4", func(t *testing.T) { runDeliveryChaos(t, SchemeRS, 6, 29, 4, true) })
}

// TestDeliverySoak is the long-run chaos soak (`make soak-delivery`):
// the same harness at SOAK_DELIVERY_ROUNDS length under -race, on the
// full production shard count.
func TestDeliverySoak(t *testing.T) {
	runDeliveryChaos(t, SchemeMove, deliveryRounds(t), 23, delivery.DefaultShards, true)
}
