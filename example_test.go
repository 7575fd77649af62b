package move_test

import (
	"context"
	"fmt"

	"github.com/movesys/move"
)

// ExampleNewCluster demonstrates the minimal subscribe→publish→deliver
// flow on an embedded cluster.
func ExampleNewCluster() {
	cluster, err := move.NewCluster(move.Config{Nodes: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	sub, err := cluster.Subscribe("alice", "distributed systems")
	if err != nil {
		panic(err)
	}
	if _, err := cluster.Publish("a survey of distributed systems"); err != nil {
		panic(err)
	}
	n := <-sub.C
	fmt.Println(n.Subscriber, "received a matching document")
	// Output: alice received a matching document
}

// ExampleCluster_Subscribe shows conjunctive (AND) matching semantics.
func ExampleCluster_Subscribe() {
	cluster, err := move.NewCluster(move.Config{Nodes: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	sub, err := cluster.Subscribe("bob", "golang concurrency",
		move.SubscribeOptions{Mode: move.MatchAll})
	if err != nil {
		panic(err)
	}
	// Only one of the two terms — no delivery.
	if _, err := cluster.Publish("a post about golang generics"); err != nil {
		panic(err)
	}
	// Both terms — delivered.
	if _, err := cluster.Publish("golang concurrency patterns"); err != nil {
		panic(err)
	}
	n := <-sub.C
	fmt.Println("delivered doc", n.DocID)
	// Output: delivered doc 2
}

// ExampleCluster_Allocate shows the proactive allocation round after a
// registration burst.
func ExampleCluster_Allocate() {
	cluster, err := move.NewCluster(move.Config{Nodes: 10, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	for i := 0; i < 100; i++ {
		if _, err := cluster.Subscribe("user", "trending topic"); err != nil {
			panic(err)
		}
	}
	ctx := context.Background()
	if err := cluster.RefreshBloom(ctx); err != nil {
		panic(err)
	}
	// Teach the coordinator the document-term frequencies, then allocate.
	for i := 0; i < 30; i++ {
		if _, err := cluster.Publish("the trending topic of the day"); err != nil {
			panic(err)
		}
	}
	if err := cluster.Allocate(ctx); err != nil {
		panic(err)
	}
	receipt, err := cluster.Publish("still the trending topic")
	if err != nil {
		panic(err)
	}
	fmt.Println("matched filters:", receipt.Matched, "complete:", receipt.Complete)
	// Output: matched filters: 100 complete: true
}
