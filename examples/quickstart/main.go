// Quickstart: boot an embedded MOVE cluster, register keyword filters, and
// publish documents — the minimal end-to-end use of the public API.
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/movesys/move"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// An 8-node in-process cluster: filters are spread over a
	// consistent-hash ring exactly as they would be across machines.
	cluster, err := move.NewCluster(move.Config{Nodes: 8})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Subscriptions are raw keyword queries; the same preprocessing
	// pipeline (stop words, Porter stemming) is applied to filters and
	// documents, so "marathons" matches "marathon".
	alice, err := cluster.Subscribe("alice", "breaking news")
	if err != nil {
		return err
	}
	bob, err := cluster.Subscribe("bob", "marathon running")
	if err != nil {
		return err
	}

	docs := []string{
		"Breaking news: a storm is approaching the coast",
		"She ran her first marathon in under four hours",
		"A quiet day with nothing to report",
	}
	for _, d := range docs {
		receipt, err := cluster.Publish(d)
		if err != nil {
			return err
		}
		fmt.Printf("published %q -> %d match(es)\n", d, receipt.Matched)
	}

	// Drain the delivery channels.
	for _, sub := range []*move.Subscription{alice, bob} {
		for {
			select {
			case n := <-sub.C:
				fmt.Printf("%s received doc %d (filter %d, terms %v)\n",
					sub.Subscriber, n.DocID, n.FilterID, n.Terms)
			case <-time.After(100 * time.Millisecond):
				goto next
			}
		}
	next:
	}

	st := cluster.Stats()
	fmt.Printf("cluster: %d nodes, %d filters, %d docs published\n", st.Nodes, st.Filters, st.Docs)
	return nil
}
