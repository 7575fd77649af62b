package cluster

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestReallocationRoundsKeepMatching(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 12)
	seedHotTerm(t, c, 200, 40)

	r1, err := c.Allocate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The load pattern shifts: a second hot term emerges.
	for i := 0; i < 150; i++ {
		if _, err := c.Register(ctx, "x"+strconv.Itoa(i), []string{"newhot"}, 1); err != nil {
			t.Fatal(err)
		}
	}
	c.RenewWindow()
	for i := 0; i < 40; i++ {
		if _, err := c.Publish(ctx, []string{"newhot"}); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := c.Allocate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Epoch != r1.Epoch+1 {
		t.Fatalf("epochs = %d then %d", r1.Epoch, r2.Epoch)
	}

	// Both hot sets still match completely after re-allocation.
	res, err := c.Publish(ctx, []string{"hot", "newhot"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("publish incomplete after re-allocation")
	}
	if len(res.Matches) != 200+150 {
		t.Fatalf("matches = %d, want 350", len(res.Matches))
	}
}

func TestRenewWindowResetsStats(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 6)
	seedWorkload(t, c)
	if _, err := c.Publish(ctx, []string{"news"}); err != nil {
		t.Fatal(err)
	}
	loads, err := c.PullLoads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var before int64
	for _, l := range loads {
		before += l.HomePublishes
	}
	if before == 0 {
		t.Fatal("no publishes recorded")
	}
	c.RenewWindow()
	loads, err = c.PullLoads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range loads {
		if l.HomePublishes != 0 {
			t.Fatalf("node %s still has %d windowed publishes", l.ID, l.HomePublishes)
		}
	}
}

func TestStartAutoAllocate(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 10)
	seedHotTerm(t, c, 150, 30)

	var mu sync.Mutex
	var errs []error
	stop := c.StartAutoAllocate(20*time.Millisecond, func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	})
	defer stop()

	deadline := time.Now().Add(3 * time.Second)
	for c.allocEpoch.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("auto-allocator did not run two rounds")
		}
		// Keep feeding documents so each window has statistics.
		if _, err := c.Publish(ctx, []string{"hot"}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent

	mu.Lock()
	defer mu.Unlock()
	for _, err := range errs {
		t.Errorf("allocation round error: %v", err)
	}
	res, err := c.Publish(ctx, []string{"hot"})
	if err != nil || !res.Complete {
		t.Fatalf("publish after auto rounds: %v complete=%v", err, res.Complete)
	}
	if len(res.Matches) != 150 {
		t.Fatalf("matches = %d, want 150", len(res.Matches))
	}
}
