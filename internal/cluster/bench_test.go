package cluster

import (
	"context"
	"strconv"
	"testing"

	"github.com/movesys/move/internal/model"
)

// benchCluster builds a warm Move cluster with a realistic filter load so
// publish benchmarks exercise routing, fan-out, and matching end to end.
func benchCluster(b *testing.B, nodes, filters int) *Cluster {
	b.Helper()
	c := newCluster(b, SchemeMove, nodes)
	ctx := context.Background()
	for i := 0; i < filters; i++ {
		terms := []string{
			"topic-" + strconv.Itoa(i%64),
			"tag-" + strconv.Itoa(i%256),
		}
		if _, err := c.Register(ctx, "sub-"+strconv.Itoa(i), terms, model.MatchAny); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// benchDoc returns a deterministic document term set touching a handful of
// hot topics.
func benchDoc(i int) []string {
	return []string{
		"topic-" + strconv.Itoa(i%64),
		"tag-" + strconv.Itoa(i%256),
		"noise-" + strconv.Itoa(i%17),
		"noise-" + strconv.Itoa(i%29),
		"filler-a", "filler-b", "filler-c", "filler-d",
	}
}

// BenchmarkPublish measures a single-document publish through the full
// stack — home-node routing, grid fan-out over the in-memory transport, and
// match-and-reply. Run with -benchmem to watch the pooled wire path.
func BenchmarkPublish(b *testing.B) {
	c := benchCluster(b, 10, 2000)
	ctx := context.Background()
	// Warm pools and document caches before measuring.
	if _, err := c.Publish(ctx, benchDoc(0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Publish(ctx, benchDoc(i))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			b.Fatal("incomplete publish")
		}
	}
}
