// Socialstream: the fine-grained-filtering scenario from the paper's
// introduction. Coarse "follow everything" feeds (Facebook-style) flood
// users with every posting; MOVE's keyword filters deliver only relevant
// postings. The example contrasts the two and demonstrates the OR and AND
// matching semantics.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"github.com/movesys/move"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "socialstream: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	cluster, err := move.NewCluster(move.Config{Nodes: 6, Seed: 11})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Carol follows her friends' postings but only wants hiking content —
	// boolean OR over two keywords (the paper's default model).
	carol, err := cluster.Subscribe("carol", "hiking trail")
	if err != nil {
		return err
	}
	// Dan wants posts about both go AND concurrency (conjunctive filter).
	dan, err := cluster.Subscribe("dan", "golang concurrency",
		move.SubscribeOptions{Mode: move.MatchAll})
	if err != nil {
		return err
	}
	// Erin wants only posts naming all three of her baking words.
	erin, err := cluster.Subscribe("erin", "sourdough baking starter",
		move.SubscribeOptions{Mode: move.MatchAll})
	if err != nil {
		return err
	}

	posts := []string{
		"just finished an amazing hiking trip on the coastal trail",
		"my sourdough starter doubled overnight, baking tomorrow",
		"hot take: golang channels make concurrency pleasant",
		"golang generics are fine I guess",
		"brunch photos from sunday",
		"new trail shoes arrived",
		"reading about concurrency bugs in distributed systems",
		"sourdough crumb shot — the baking obsession continues",
	}
	rng := rand.New(rand.NewSource(1))
	// Pad the stream with posts no filter matches.
	for i := 0; i < 60; i++ {
		posts = append(posts, noisePost(rng, i))
	}

	delivered := map[string]int{}
	for _, p := range posts {
		if _, err := cluster.Publish(p); err != nil {
			return err
		}
	}
	for _, sub := range []*move.Subscription{carol, dan, erin} {
		for {
			select {
			case n := <-sub.C:
				delivered[sub.Subscriber]++
				fmt.Printf("%-5s <- doc %d %v\n", sub.Subscriber, n.DocID, n.Terms)
			case <-time.After(100 * time.Millisecond):
				goto next
			}
		}
	next:
	}

	total := len(posts)
	fmt.Printf("\ncoarse follow-all would deliver %d posts to each user\n", total)
	for _, u := range []string{"carol", "dan", "erin"} {
		fmt.Printf("fine-grained filtering delivered %d/%d to %s (%.0f%% suppressed)\n",
			delivered[u], total, u, 100*(1-float64(delivered[u])/float64(total)))
	}
	return nil
}

var noiseWords = []string{
	"coffee", "meeting", "weather", "music", "movie", "garden", "cat",
	"dog", "lunch", "traffic", "game", "book", "photo", "weekend",
}

func noisePost(rng *rand.Rand, i int) string {
	var b strings.Builder
	n := 4 + rng.Intn(8)
	for j := 0; j < n; j++ {
		b.WriteString(noiseWords[rng.Intn(len(noiseWords))])
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "post%d", i)
	return b.String()
}
