package transport

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/frame"
	"github.com/movesys/move/internal/ring"
)

// TestTCPDetachedHandlerFreesConnection pins the serving model's escape
// hatch: on one connection (Conns: 1) a handler that calls Detach and then
// blocks on a channel does not delay the request behind it, which is read
// and answered while the first still waits. Without the Detach the second
// request would sit behind the first on the connection's reader.
func TestTCPDetachedHandlerFreesConnection(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	p := startTCPPairOpts(t, func(ctx context.Context, _ ring.NodeID, payload []byte) ([]byte, error) {
		if string(payload) == "wait" {
			Detach(ctx)
			Detach(ctx) // a second call on the same frame is free
			close(entered)
			<-release
		}
		return append([]byte("re:"), payload...), nil
	}, TCPOptions{Conns: 1})

	waited := make(chan error, 1)
	go func() {
		resp, err := p.a.Send(context.Background(), "b", []byte("wait"))
		if err == nil && string(resp) != "re:wait" {
			err = fmt.Errorf("answered %q", resp)
		}
		waited <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := p.a.Send(ctx, "b", []byte("quick"))
	if err != nil || string(resp) != "re:quick" {
		t.Fatalf("request behind a detached handler: %q, %v", resp, err)
	}
	select {
	case err := <-waited:
		t.Fatalf("the waiting handler returned (%v) before it was released", err)
	default:
	}
	close(release)
	if err := <-waited; err != nil {
		t.Fatalf("the detached handler's request: %v", err)
	}
	if st := p.b.Stats(); st.Inbound != 1 {
		t.Fatalf("b serves %d inbound connections, want the one stripe", st.Inbound)
	}
}

// TestTCPAttachedHandlersAnswerInArrivalOrder pins the other half: handlers
// that never detach run one at a time on the connection's reader, so their
// answers leave in the order the requests arrived — even when the earlier
// requests take longer, which a goroutine per request would reorder.
func TestTCPAttachedHandlersAnswerInArrivalOrder(t *testing.T) {
	const n = 16
	var inFlight, most atomic.Int32
	p := startTCPPairOpts(t, func(_ context.Context, _ ring.NodeID, payload []byte) ([]byte, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			m := most.Load()
			if cur <= m || most.CompareAndSwap(m, cur) {
				break
			}
		}
		i, _ := strconv.Atoi(string(payload))
		time.Sleep(time.Duration(n-i) * 200 * time.Microsecond)
		return payload, nil
	}, TCPOptions{Conns: 1})

	c, err := net.Dial("tcp", p.b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	var round []byte
	for i := 0; i < n; i++ {
		w := codec.NewWriter(16)
		w.Uvarint(uint64(100 + i))
		w.String("raw")
		w.Bytes0([]byte(strconv.Itoa(i)))
		if round, err = frame.Append(round, w.Bytes(), maxFrame); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Write(round); err != nil { // all n in one write: they arrive together
		t.Fatal(err)
	}
	var buf []byte
	for i := 0; i < n; i++ {
		resp, err := frame.Read(c, &buf, maxFrame)
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		r := codec.NewReader(resp)
		id, _ := r.Uvarint()
		status, _ := r.Uint8()
		body, _ := r.Bytes0()
		if id != uint64(100+i) || status != 0 || string(body) != strconv.Itoa(i) {
			t.Fatalf("answer %d: id %d status %d body %q, want request %d's", i, id, status, body, 100+i)
		}
	}
	if m := most.Load(); m != 1 {
		t.Fatalf("%d handlers ran at once on one connection, want 1", m)
	}
}
