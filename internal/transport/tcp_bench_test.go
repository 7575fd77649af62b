package transport

import (
	"context"
	"testing"

	"github.com/movesys/move/internal/ring"
)

// BenchmarkTCPRoundTrip is the RPC tier's microbench (`make bench-rpc`): one
// warm round trip between two in-process nodes over loopback TCP, a 600-byte
// request — the median home RPC of the match_heavy workload — and an empty
// answer, as a registration gets. "serial" has one caller, so every round
// trip pays the full wake-up chain; "parallel" has GOMAXPROCS callers on the
// default stripes, so frames share writes.
func BenchmarkTCPRoundTrip(b *testing.B) {
	addrs := make(map[ring.NodeID]string)
	resolver := StaticResolverLive(&addrs)
	srv, err := NewTCP("b", "127.0.0.1:0", func(context.Context, ring.NodeID, []byte) ([]byte, error) {
		return nil, nil
	}, resolver)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewTCP("a", "127.0.0.1:0", nil, resolver)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	addrs["b"] = srv.Addr()
	payload := make([]byte, 600)
	ctx := context.Background()
	for i := 0; i < 64; i++ { // dial every stripe, warm the pools
		if _, err := cli.Send(ctx, "b", payload); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cli.Send(ctx, "b", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := cli.Send(ctx, "b", payload); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
