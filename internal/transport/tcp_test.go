package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/movesys/move/internal/frame"
	"github.com/movesys/move/internal/ring"
)

// startTCPPair boots two TCP nodes that can reach each other.
func startTCPPair(t *testing.T, hb Handler) (*TCPNode, *TCPNode) {
	t.Helper()
	addrs := make(map[ring.NodeID]string)
	var mu sync.Mutex
	resolver := func(id ring.NodeID) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		a, ok := addrs[id]
		if !ok {
			return "", ErrNodeDown
		}
		return a, nil
	}
	a, err := NewTCP("a", "127.0.0.1:0", echoHandler(""), resolver)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	if hb == nil {
		hb = echoHandler("")
	}
	b, err := NewTCP("b", "127.0.0.1:0", hb, resolver)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	mu.Lock()
	addrs["a"] = a.Addr()
	addrs["b"] = b.Addr()
	mu.Unlock()
	return a, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := startTCPPair(t, nil)
	resp, err := a.Send(context.Background(), "b", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "a:ping" {
		t.Fatalf("resp = %q", resp)
	}
	resp, err = b.Send(context.Background(), "a", []byte("pong"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "b:pong" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestTCPConcurrentPipelined(t *testing.T) {
	a, _ := startTCPPair(t, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := "a:" + strconv.Itoa(i)
			resp, err := a.Send(context.Background(), "b", []byte(strconv.Itoa(i)))
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != want {
				errs <- errors.New("mismatched response " + string(resp) + " want " + want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPRemoteError(t *testing.T) {
	a, _ := startTCPPair(t, func(context.Context, ring.NodeID, []byte) ([]byte, error) {
		return nil, errors.New("match failed")
	})
	_, err := a.Send(context.Background(), "b", []byte("x"))
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := startTCPPair(t, nil)
	if _, err := a.Send(context.Background(), "ghost", nil); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
}

func TestTCPPeerShutdown(t *testing.T) {
	a, b := startTCPPair(t, nil)
	if _, err := a.Send(context.Background(), "b", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// The pooled connection is now dead; Send must fail (and evict).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := a.Send(ctx, "b", []byte("again")); err == nil {
		t.Fatal("expected error sending to closed peer")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, _ := startTCPPair(t, nil)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Send(context.Background(), "b", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Double close is fine.
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	a, _ := startTCPPair(t, nil)
	payload := bytes.Repeat([]byte("term "), 200000) // ~1MB
	resp, err := a.Send(context.Background(), "b", payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(payload)+2 {
		t.Fatalf("resp len = %d, want %d", len(resp), len(payload)+2)
	}
}

func TestTCPContextCancelDuringSlowHandler(t *testing.T) {
	release := make(chan struct{})
	a, _ := startTCPPair(t, func(context.Context, ring.NodeID, []byte) ([]byte, error) {
		<-release
		return []byte("late"), nil
	})
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := a.Send(ctx, "b", []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Send blocked past context deadline")
	}
}

func TestStaticResolver(t *testing.T) {
	r := StaticResolver(map[ring.NodeID]string{"n1": "127.0.0.1:9999"})
	addr, err := r("n1")
	if err != nil || addr != "127.0.0.1:9999" {
		t.Fatalf("resolve n1 = %q, %v", addr, err)
	}
	if _, err := r("n2"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("resolve n2: %v, want ErrNodeDown", err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	w := newConnWriter(server, newWireMetrics(nil))
	defer w.closeWith(ErrClosed)
	if err := w.send(make([]byte, maxFrame+1)); err == nil {
		t.Fatal("send accepted oversized frame")
	}
	// A hostile header claiming a huge frame must be rejected on read.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	var buf []byte
	if _, err := frame.Read(bytes.NewReader(hostile), &buf, maxFrame); err == nil {
		t.Fatal("frame.Read accepted oversized header")
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("n0=127.0.0.1:7000, n1=127.0.0.1:7001")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers["n0"] != "127.0.0.1:7000" || peers["n1"] != "127.0.0.1:7001" {
		t.Fatalf("peers = %v", peers)
	}
	empty, err := ParsePeers("  ")
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty = %v, %v", empty, err)
	}
	for _, bad := range []string{"n0", "n0=", "=addr", "n0=a,n0=b"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}
