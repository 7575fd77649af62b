package move

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/ring"
)

func newTestCluster(t testing.TB, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Nodes: nodes, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

func TestSubscribePublishDeliver(t *testing.T) {
	c := newTestCluster(t, 6)
	sub, err := c.Subscribe("alice", "breaking news")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Terms) != 2 {
		t.Fatalf("terms = %v, want [break new]", sub.Terms)
	}
	receipt, err := c.Publish("Breaking News: something happened today")
	if err != nil {
		t.Fatal(err)
	}
	if !receipt.Complete || receipt.Matched != 1 {
		t.Fatalf("receipt = %+v", receipt)
	}
	select {
	case n := <-sub.C:
		if n.Subscriber != "alice" || n.FilterID != sub.ID {
			t.Fatalf("notification = %+v", n)
		}
	case <-time.After(time.Second):
		t.Fatal("no notification delivered")
	}
}

// TestConcurrentPublishReceiptsCarryTheirDocID: publishes racing each other
// each get a receipt naming the document they sequenced — the one their
// content's notification carries.
func TestConcurrentPublishReceiptsCarryTheirDocID(t *testing.T) {
	const publishers = 32
	c := newTestCluster(t, 4)
	sub, err := c.SubscribeTerms("ann", []string{"news"})
	if err != nil {
		t.Fatal(err)
	}
	receipts := make([]PublishReceipt, publishers)
	errs := make([]error, publishers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			receipts[i], errs[i] = c.PublishTerms([]string{"news", fmt.Sprintf("story%d", i)})
		}(i)
	}
	close(start)
	wg.Wait()
	// The DocID of the notification each publish's content produced.
	delivered := make(map[string]uint64, publishers)
	for range publishers {
		select {
		case n := <-sub.C:
			for _, term := range n.Terms {
				if strings.HasPrefix(term, "story") {
					delivered[term] = n.DocID
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d notifications delivered", len(delivered), publishers)
		}
	}
	seen := make(map[uint64]int, publishers)
	for i, r := range receipts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if j, dup := seen[r.DocID]; dup {
			t.Errorf("publishes %d and %d both got DocID %d", j, i, r.DocID)
		}
		seen[r.DocID] = i
		if want := delivered[fmt.Sprintf("story%d", i)]; r.DocID != want {
			t.Errorf("publish %d: receipt DocID %d, its notification's %d", i, r.DocID, want)
		}
	}
}

func TestStemmingUnifiesSubscriptionAndContent(t *testing.T) {
	c := newTestCluster(t, 4)
	sub, err := c.Subscribe("bob", "running marathons")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish("She runs a marathon every year"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.C:
	case <-time.After(time.Second):
		t.Fatal("stem mismatch: 'marathons' should match 'marathon'")
	}
}

func TestNoFalseDeliveries(t *testing.T) {
	c := newTestCluster(t, 4)
	sub, err := c.Subscribe("carol", "quantum computing")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish("a story about gardening and cooking"); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.C:
		t.Fatalf("unexpected notification %+v", n)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestMatchAllSemantics(t *testing.T) {
	c := newTestCluster(t, 4)
	sub, err := c.Subscribe("dave", "go cluster", SubscribeOptions{Mode: MatchAll})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish("a cluster of machines"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.C:
		t.Fatal("MatchAll fired with only one term present")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := c.Publish("go run your cluster"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.C:
	case <-time.After(time.Second):
		t.Fatal("MatchAll did not fire with both terms present")
	}
}

func TestEmptyInputs(t *testing.T) {
	c := newTestCluster(t, 3)
	if _, err := c.Subscribe("x", "the and of"); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("stop-word-only query: %v", err)
	}
	if _, err := c.Publish(""); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("empty publish: %v", err)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	c := newTestCluster(t, 4)
	sub, err := c.Subscribe("erin", "football")
	if err != nil {
		t.Fatal(err)
	}
	c.Unsubscribe(sub)
	if _, err := c.Publish("football match tonight"); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.C:
		t.Fatalf("delivery after unsubscribe: %+v", n)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSubscriptionOverflowDrops(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 3, SubscriptionBuffer: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("frank", "alerts")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Publish("alerts keep firing"); err != nil {
			t.Fatal(err)
		}
	}
	// The session hands notifications over after Publish returns: wait
	// for the last of them.
	for deadline := time.Now().Add(5 * time.Second); sub.Dropped() < 4 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if sub.Dropped() != 4 {
		t.Fatalf("Dropped = %d, want 4 (buffer of 1)", sub.Dropped())
	}
}

func TestAllocateAndBloom(t *testing.T) {
	c := newTestCluster(t, 10)
	for i := 0; i < 50; i++ {
		if _, err := c.Subscribe("s", "hot topic"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Publish("hot topic of the day"); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := c.RefreshBloom(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(ctx); err != nil {
		t.Fatal(err)
	}
	receipt, err := c.Publish("still a hot topic")
	if err != nil {
		t.Fatal(err)
	}
	if receipt.Matched != 50 || !receipt.Complete {
		t.Fatalf("after allocation: %+v", receipt)
	}
}

func TestStatsAndFailover(t *testing.T) {
	c := newTestCluster(t, 10)
	if _, err := c.Subscribe("a", "term one two"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Nodes != 10 || st.Alive != 10 || st.Filters != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AvailableFilters != 1 {
		t.Fatalf("availability = %v, want 1", st.AvailableFilters)
	}
	if n := c.FailNodes(0.3, false); n != 3 {
		t.Fatalf("failed %d nodes, want 3", n)
	}
	if st := c.Stats(); st.Alive != 7 {
		t.Fatalf("alive = %d, want 7", st.Alive)
	}
}

func TestSchemeBaselinesThroughPublicAPI(t *testing.T) {
	for _, scheme := range []Scheme{SchemeIL, SchemeRS} {
		c, err := NewCluster(Config{Nodes: 5, Scheme: scheme, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sub, err := c.Subscribe("u", "database systems")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Publish("database systems conference"); err != nil {
			t.Fatal(err)
		}
		select {
		case <-sub.C:
		case <-time.After(time.Second):
			t.Fatalf("scheme %d: no delivery", scheme)
		}
	}
}

// TestCloseStopsGoroutines: Close stops what NewCluster started, the
// delivery hubs' flush workers included.
func TestCloseStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := NewCluster(Config{Nodes: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("gail", "leak check")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish("a leak check"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.C:
	case <-time.After(time.Second):
		t.Fatal("no notification delivered")
	}
	if running := runtime.NumGoroutine(); running <= before {
		t.Fatalf("%d goroutines with the cluster up, %d before: no hub workers to stop", running, before)
	}
	c.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewCluster", runtime.NumGoroutine(), before)
		}
	}
}

// TestLibraryDeliveryOracle holds the delivery identity for library
// subscribers, one filter per subscriber name, each drained by a slow reader
// through a two-slot channel: once no hub has anything pending, every
// (filter, document) pair a publish matched was received on the channel,
// counted in Dropped, shed by the session (delivery.drops.*) or lost on the
// way to the session owner (delivery.route.lost) — the counts add up to the
// receipts' Matched, and nothing is received twice or against the
// brute-force oracle. The failure row crashes nodes halfway: a filter stays
// available through the terms whose home survived, and a subscriber whose
// session owner died keeps receiving on the session its new owner already
// has.
func TestLibraryDeliveryOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail float64
	}{{name: "healthy"}, {name: "owner failed", fail: 0.25}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(Config{Nodes: 8, SubscriptionBuffer: 2, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(9))
			vocab := make([]string, 10)
			for i := range vocab {
				vocab[i] = fmt.Sprintf("topic%d", i)
			}
			pick := func(n int) []string {
				terms := make([]string, n)
				for i, j := range rng.Perm(len(vocab))[:n] {
					terms[i] = vocab[j]
				}
				return terms
			}

			subs := make([]*Subscription, 24)
			for i := range subs {
				if subs[i], err = c.SubscribeTerms(fmt.Sprintf("sub%02d", i), pick(2)); err != nil {
					t.Fatal(err)
				}
			}
			// A term is served while its home at registration is alive:
			// only that node posts the filters under it.
			regHome := make(map[string]ring.NodeID, len(vocab))
			for _, term := range vocab {
				if regHome[term], err = c.inner.HomeNode(term); err != nil {
					t.Fatal(err)
				}
			}
			served := func(term string) bool {
				home, err := c.inner.HomeNode(term)
				return err == nil && home == regHome[term]
			}
			owners := make([]ring.NodeID, len(subs))
			for i, sub := range subs {
				if owners[i], err = c.inner.SubscriberOwner(sub.Subscriber); err != nil {
					t.Fatal(err)
				}
			}

			// Slow readers: each sleeps after every notification, so its
			// channel fills while the publisher runs ahead.
			var mu sync.Mutex
			got := make([][]Notification, len(subs))
			received := func(i int) []Notification {
				mu.Lock()
				defer mu.Unlock()
				return slices.Clone(got[i])
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i, sub := range subs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case n := <-sub.C:
							mu.Lock()
							got[i] = append(got[i], n)
							mu.Unlock()
							time.Sleep(200 * time.Microsecond)
						case <-stop:
							return
						}
					}
				}()
			}

			docs := make(map[uint64][]string)
			oracle := make([]map[uint64]bool, len(subs)) // the pairs each filter matched
			for i := range oracle {
				oracle[i] = make(map[uint64]bool)
			}
			matched := 0
			publish := func(terms []string) uint64 {
				t.Helper()
				r, err := c.PublishTerms(terms)
				if err != nil {
					t.Fatal(err)
				}
				want := 0
				for i, sub := range subs {
					for _, term := range sub.Terms {
						if slices.Contains(terms, term) && served(term) {
							oracle[i][r.DocID] = true
							want++
							break
						}
					}
				}
				if r.Matched != want {
					t.Fatalf("doc %d %v matched %d filters, the oracle %d", r.DocID, terms, r.Matched, want)
				}
				docs[r.DocID] = slices.Clone(terms)
				slices.Sort(docs[r.DocID])
				matched += r.Matched
				return r.DocID
			}
			settle := func() {
				t.Helper()
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					pending := 0
					c.inner.EachDeliveryHub(func(_ ring.NodeID, h *delivery.Hub) { pending += h.Pending() })
					if pending == 0 {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("%d notification(s) still pending", pending)
					}
				}
			}

			const publishes = 200
			for i := 0; i < publishes; i++ {
				if tc.fail > 0 && i == publishes/2 {
					if c.FailNodes(tc.fail, false) == 0 {
						t.Fatal("no node failed")
					}
				}
				publish(pick(3))
			}
			settle()

			if tc.fail > 0 {
				// A subscriber whose owner died, through a term still served.
				orphan, term := -1, ""
				for i, sub := range subs {
					owner, err := c.inner.SubscriberOwner(sub.Subscriber)
					if err != nil {
						t.Fatal(err)
					}
					for _, tm := range sub.Terms {
						if owner != owners[i] && served(tm) && orphan < 0 {
							orphan, term = i, tm
						}
					}
				}
				if orphan < 0 {
					t.Fatal("no subscriber lost its owner with a filter still served")
				}
				for deadline := time.Now().Add(5 * time.Second); len(subs[orphan].C) > 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%s's reader never drained its channel", subs[orphan].Subscriber)
					}
				}
				doc := publish([]string{term})
				settle()
				for deadline := time.Now().Add(5 * time.Second); !slices.ContainsFunc(received(orphan), func(n Notification) bool { return n.DocID == doc }); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%s, owner %s failed, never received doc %d on %q", subs[orphan].Subscriber, owners[orphan], doc, term)
					}
				}
			}
			close(stop)
			wg.Wait()

			accounted, dropped := 0, int64(0)
			for i, sub := range subs {
				seen := make(map[uint64]bool)
				for _, n := range received(i) {
					switch {
					case n.FilterID != sub.ID || n.Subscriber != sub.Subscriber:
						t.Fatalf("%s's channel got %+v", sub.Subscriber, n)
					case !oracle[i][n.DocID]:
						t.Fatalf("phantom: %s received doc %d %v", sub.Subscriber, n.DocID, n.Terms)
					case seen[n.DocID]:
						t.Fatalf("%s received doc %d twice", sub.Subscriber, n.DocID)
					case !slices.Equal(n.Terms, docs[n.DocID]):
						t.Fatalf("doc %d reached %s with terms %v, published %v", n.DocID, sub.Subscriber, n.Terms, docs[n.DocID])
					}
					seen[n.DocID] = true
				}
				// Whatever is still in the channel was handed over too.
				for len(sub.C) > 0 {
					n := <-sub.C
					if !oracle[i][n.DocID] || seen[n.DocID] {
						t.Fatalf("%s's channel holds doc %d: a phantom or a repeat", sub.Subscriber, n.DocID)
					}
					seen[n.DocID] = true
				}
				if len(seen)+int(sub.Dropped()) > len(oracle[i]) {
					t.Fatalf("%s: %d received + %d dropped, but only %d matched", sub.Subscriber, len(seen), sub.Dropped(), len(oracle[i]))
				}
				accounted += len(seen)
				dropped += sub.Dropped()
			}
			m := c.Metrics()
			shed, lost := m["delivery.drops.oldest"], m["delivery.route.lost"]
			t.Logf("%d pairs matched: %d received, %d dropped on a full channel, %d shed by sessions, %d lost in routing", matched, accounted, dropped, shed, lost)
			if int64(accounted)+dropped+shed+lost != int64(matched) {
				t.Fatalf("%d received + %d dropped + %d shed + %d lost != %d matched", accounted, dropped, shed, lost, matched)
			}
			if dropped == 0 {
				t.Fatal("no reader fell behind: the channels never overflowed")
			}
		})
	}
}
