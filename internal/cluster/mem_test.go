package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/testutil"
)

// TestClusterDocStreamHeapFlat is make mem-budget's library soak: a two-node
// SchemeMove cluster holding a constant population of filters takes rounds of
// Cluster.Publish whose documents carry four terms of the filters' vocabulary
// and four fresh words no filter names. The post-GC heap after the last round
// is within 2 % of the heap after the first: the library's heap follows its
// filters, not the vocabulary of the documents it has published.
func TestClusterDocStreamHeapFlat(t *testing.T) {
	const filters, vocab, rounds, docsPerRound, docTerms = 2000, 1000, 6, 4000, 8
	ctx := context.Background()
	c := newCluster(t, SchemeMove, 2)
	rng := rand.New(rand.NewSource(5))
	word := func() string { return fmt.Sprintf("w%04d", rng.Intn(vocab)) }
	for i := 0; i < filters; i++ {
		if _, err := c.Register(ctx, fmt.Sprintf("s%02d", i%64), []string{word(), word()}, model.MatchAny); err != nil {
			t.Fatal(err)
		}
	}
	fresh, matched := 0, 0
	round := func() {
		t.Helper()
		for range docsPerRound {
			terms := make([]string, 0, docTerms)
			for len(terms) < docTerms/2 {
				terms = append(terms, word())
			}
			for len(terms) < docTerms {
				fresh++
				terms = append(terms, fmt.Sprintf("fresh%07d", fresh))
			}
			res, err := c.Publish(ctx, terms)
			if err != nil {
				t.Fatal(err)
			}
			matched += len(res.Matches)
		}
	}
	round()
	first := testutil.HeapNow()
	for k := 2; k <= rounds; k++ {
		round()
	}
	last := testutil.HeapNow()
	runtime.KeepAlive(c)
	docs := rounds * docsPerRound
	t.Logf("heap after round 1: %d B; after round %d: %d B (%+.2f %%); %d documents, %d fresh words, %.1f matches per document",
		first, rounds, last, 100*(float64(last)/float64(first)-1), docs, fresh, float64(matched)/float64(docs))
	if float64(last) > 1.02*float64(first) {
		t.Fatalf("heap grew from %d to %d B over %d rounds of %d documents at %d filters", first, last, rounds-1, docsPerRound, filters)
	}
	if matched == 0 {
		t.Fatal("no document matched a filter: the stream never reached the population")
	}
}
