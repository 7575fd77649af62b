package transport

import (
	"bufio"
	"context"
	"net"
	"testing"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/frame"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/testutil"
)

// TestTCPWarmRoundTripAllocs guards the warm request/response cycle over a
// real socket. A round trip can never be zero-alloc — the response must be
// copied out of the transport-owned read buffer (§11) — but the framing and
// read paths are pooled (codec writers, waiters, request/response frame
// buffers, send-queue rounds), the caller reads its own response, and the
// server runs the handler on the connection's reader, so the count must stay
// small and constant regardless of payload size. A regression to per-frame
// fresh buffers, to a per-call waiter, or to a goroutine per request, shows
// up here immediately.
func TestTCPWarmRoundTripAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	resp := []byte("pongpongpongpong")
	addrs := make(map[ring.NodeID]string)
	resolver := StaticResolverLive(&addrs)
	b, err := NewTCP("b", "127.0.0.1:0", func(context.Context, ring.NodeID, []byte) ([]byte, error) {
		return resp, nil
	}, resolver)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCP("a", "127.0.0.1:0", nil, resolver)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	addrs["b"] = b.Addr()

	ctx := context.Background()
	payload := make([]byte, 4096)
	// Warm the pool: dial every stripe, populate buffer pools.
	for i := 0; i < 32; i++ {
		if _, err := a.Send(ctx, "b", payload); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(300, func() {
		got, err := a.Send(ctx, "b", payload)
		if err != nil || len(got) != len(resp) {
			t.Fatalf("got=%q err=%v", got, err)
		}
	})
	// Measured 1 alloc/op warm, on the client: the response copy. The
	// server side allocates nothing per frame (TestTCPServeFrameAllocs).
	const maxAllocs = 1
	if allocs > maxAllocs {
		t.Fatalf("warm TCP round trip: %.1f allocs/op, want ≤ %d", allocs, maxAllocs)
	}
}

// TestTCPServeFrameAllocs guards the server's share of a warm round trip
// alone: a raw client writes pre-encoded request frames and reads the
// answers into one buffer, so every allocation counted is the serving
// side's — reading the frame, the reader's handler context, the response
// framing and its write. It must be none: the reader's state is built once
// per reader goroutine, not per frame.
func TestTCPServeFrameAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	resp := []byte("pongpongpongpong")
	b, err := NewTCP("b", "127.0.0.1:0", func(context.Context, ring.NodeID, []byte) ([]byte, error) {
		return resp, nil
	}, StaticResolver(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := codec.NewWriter(4200)
	w.Uvarint(1)
	w.String("raw")
	w.Bytes0(make([]byte, 4096))
	req, err := frame.Append(nil, w.Bytes(), maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(c, readBufSize)
	var buf []byte
	roundTrip := func() {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := frame.Read(br, &buf, maxFrame); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(300, roundTrip); allocs > 0 {
		t.Fatalf("serving a warm frame: %.1f allocs/op, want 0", allocs)
	}
}

// StaticResolverLive resolves from a map the caller may still be filling —
// test-only helper so nodes can be constructed before addresses are known.
func StaticResolverLive(addrs *map[ring.NodeID]string) Resolver {
	return func(id ring.NodeID) (string, error) {
		a, ok := (*addrs)[id]
		if !ok {
			return "", ErrNodeDown
		}
		return a, nil
	}
}
