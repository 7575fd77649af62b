// Newsalerts: a Google-Alerts-like scenario — the application the paper's
// introduction motivates. Thousands of users register short keyword alerts;
// a stream of news articles is pushed through the cluster; after a warm-up
// window the coordinator runs the §IV allocation so hot alert terms stop
// being hot spots.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"github.com/movesys/move"
)

// topics skew the workload: "election" and "storm" are both popular in
// alerts and frequent in articles, exactly the coupled head the paper's
// allocation targets.
var topics = []string{
	"election", "storm", "economy", "football", "energy", "health",
	"science", "travel", "housing", "markets",
}

var rareTopics = []string{
	"beekeeping", "origami", "curling", "philately", "speleology",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "newsalerts: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	cluster, err := move.NewCluster(move.Config{Nodes: 12, Seed: 7})
	if err != nil {
		return err
	}
	defer cluster.Close()
	rng := rand.New(rand.NewSource(7))

	// 2000 users register alerts; popularity is Zipf-ish over topics.
	const users = 2000
	for i := 0; i < users; i++ {
		topic := topics[int(rng.ExpFloat64())%len(topics)]
		query := topic
		if rng.Float64() < 0.4 {
			query += " " + topics[rng.Intn(len(topics))]
		}
		if rng.Float64() < 0.1 {
			query = rareTopics[rng.Intn(len(rareTopics))]
		}
		if _, err := cluster.Subscribe(fmt.Sprintf("user-%04d", i), query); err != nil {
			return err
		}
	}
	fmt.Printf("registered %d alert subscriptions\n", users)

	ctx := context.Background()
	if err := cluster.RefreshBloom(ctx); err != nil {
		return err
	}

	// Warm-up stream teaches the coordinator the document-term frequency
	// q_i, then the allocation round replicates/separates the hot filter
	// sets (proactive policy, §V).
	for i := 0; i < 100; i++ {
		if _, err := cluster.Publish(article(rng)); err != nil {
			return err
		}
	}
	if err := cluster.Allocate(ctx); err != nil {
		return err
	}
	fmt.Println("allocation round complete")

	// Live stream.
	matched, complete := 0, 0
	const live = 300
	for i := 0; i < live; i++ {
		receipt, err := cluster.Publish(article(rng))
		if err != nil {
			return err
		}
		matched += receipt.Matched
		if receipt.Complete {
			complete++
		}
	}
	fmt.Printf("published %d articles: %d fully disseminated, %.1f alerts fired per article\n",
		live, complete, float64(matched)/live)
	st := cluster.Stats()
	fmt.Printf("cluster: %d/%d nodes alive, %d filters, availability %.3f\n",
		st.Alive, st.Nodes, st.Filters, st.AvailableFilters)
	return nil
}

// article synthesizes a headline + body with skewed topic mentions.
func article(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("today report update ")
	n := 5 + rng.Intn(15)
	for i := 0; i < n; i++ {
		b.WriteString(topics[int(rng.ExpFloat64()*1.5)%len(topics)])
		b.WriteByte(' ')
	}
	if rng.Float64() < 0.05 {
		b.WriteString(rareTopics[rng.Intn(len(rareTopics))])
	}
	return b.String()
}
