package move

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestCluster(t testing.TB, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Nodes: nodes, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
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
	sub, err := c.Subscribe("frank", "alerts")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Publish("alerts keep firing"); err != nil {
			t.Fatal(err)
		}
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
