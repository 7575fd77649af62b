// Failover: reproduces the operational story behind Figure 9(c–d). Three
// identical clusters place allocated filter replicas with the ring, rack,
// and hybrid strategies; half the racks are then crashed and the example
// reports how much of the filter population each strategy kept reachable.
// Rack-local replicas die with their home's rack (lowest availability);
// ring-successor replicas are spread across racks (highest availability);
// the hybrid sits in between — which is why MOVE combines both (§V).
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"github.com/movesys/move"
)

// topics are single-keyword subscriptions: each topic's filters live on one
// home node (plus its allocation-grid replicas), which is exactly the
// placement-sensitive population of Figure 9(d).
var topics = []string{
	"alerts", "weather", "sports", "finance", "music",
	"science", "travel", "politics",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "failover: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	for _, placement := range []move.Placement{move.PlacementRing, move.PlacementRack, move.PlacementHybrid} {
		if err := runPlacement(placement); err != nil {
			return err
		}
	}
	return nil
}

func placementName(p move.Placement) string {
	switch p {
	case move.PlacementRing:
		return "ring"
	case move.PlacementRack:
		return "rack"
	default:
		return "hybrid"
	}
}

func runPlacement(placement move.Placement) error {
	cluster, err := move.NewCluster(move.Config{
		Nodes:    20,
		RackSize: 5,
		// A tight per-node capacity keeps allocation grids small (~3
		// nodes), so the placement strategy — not grid size — decides
		// how failure-correlated the replicas are.
		Capacity:  60,
		Placement: placement,
		Seed:      3,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()
	rng := rand.New(rand.NewSource(3))

	// 50 subscribers per topic: hot enough that every topic's home node
	// receives an allocation grid.
	for i := 0; i < 400; i++ {
		topic := topics[i%len(topics)]
		if _, err := cluster.SubscribeTerms(fmt.Sprintf("u%03d", i), []string{topic}); err != nil {
			return err
		}
	}
	ctx := context.Background()
	if err := cluster.RefreshBloom(ctx); err != nil {
		return err
	}
	for i := 0; i < 150; i++ {
		if _, err := cluster.PublishTerms(post(rng)); err != nil {
			return err
		}
	}
	if err := cluster.Allocate(ctx); err != nil {
		return err
	}

	before := cluster.Stats()
	// Crash half the racks — the correlated failure mode that kills
	// rack-local replica sets along with their home nodes.
	failed := cluster.FailNodes(0.5, true)
	after := cluster.Stats()

	complete, degraded := 0, 0
	const probes = 50
	for i := 0; i < probes; i++ {
		receipt, err := cluster.PublishTerms(post(rng))
		if err != nil {
			return err
		}
		if receipt.Complete {
			complete++
		}
		if receipt.Degraded {
			degraded++
		}
	}
	m := cluster.Metrics()
	fmt.Printf("placement=%-6s failed %d/%d nodes (whole racks): availability %.3f -> %.3f, %d/%d publishes complete, %d degraded\n",
		placementName(placement), failed, before.Nodes,
		before.AvailableFilters, after.AvailableFilters, complete, probes, degraded)
	fmt.Printf("    resilience: %d retries, %d give-ups, %d breaker opens, %d row failovers\n",
		m["rpc.retries"], m["rpc.giveups"], m["breaker.open"], m["publish.failover"])
	return nil
}

func post(rng *rand.Rand) []string {
	terms := []string{topics[rng.Intn(len(topics))], fmt.Sprintf("ticker%d", rng.Intn(500))}
	if rng.Float64() < 0.5 {
		terms = append(terms, topics[rng.Intn(len(topics))])
	}
	return terms
}
