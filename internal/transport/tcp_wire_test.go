package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/frame"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/ring"
)

// tcpPair is startTCPPair plus explicit wire options and a mutable address
// table, so tests can kill and restart a peer.
type tcpPair struct {
	a, b *TCPNode

	mu    sync.Mutex
	addrs map[ring.NodeID]string
}

func (p *tcpPair) setAddr(id ring.NodeID, addr string) {
	p.mu.Lock()
	p.addrs[id] = addr
	p.mu.Unlock()
}

func (p *tcpPair) resolver() Resolver {
	return func(id ring.NodeID) (string, error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		a, ok := p.addrs[id]
		if !ok {
			return "", ErrNodeDown
		}
		return a, nil
	}
}

func startTCPPairOpts(t *testing.T, hb Handler, opts TCPOptions) *tcpPair {
	t.Helper()
	p := &tcpPair{addrs: make(map[ring.NodeID]string)}
	if hb == nil {
		hb = echoHandler("")
	}
	var err error
	p.a, err = NewTCPOpts("a", "127.0.0.1:0", echoHandler(""), p.resolver(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.a.Close() })
	p.b, err = NewTCPOpts("b", "127.0.0.1:0", hb, p.resolver(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.b.Close() })
	p.setAddr("a", p.a.Addr())
	p.setAddr("b", p.b.Addr())
	return p
}

// TestTCPPeerKilledMidRequest kills the peer while a request is in flight:
// the caller must get an availability error (not hang), and once a
// replacement peer is up the next Send must redial cleanly.
func TestTCPPeerKilledMidRequest(t *testing.T) {
	var inHandler sync.WaitGroup
	inHandler.Add(1)
	var once sync.Once
	p := startTCPPairOpts(t, func(context.Context, ring.NodeID, []byte) ([]byte, error) {
		once.Do(inHandler.Done)
		time.Sleep(300 * time.Millisecond)
		return []byte("late"), nil
	}, TCPOptions{DialBackoff: 10 * time.Millisecond})

	errCh := make(chan error, 1)
	go func() {
		_, err := p.a.Send(context.Background(), "b", []byte("doomed"))
		errCh <- err
	}()
	inHandler.Wait()
	go func() { _ = p.b.Close() }() // tears accepted conns down immediately

	select {
	case err := <-errCh:
		if !IsAvailabilityError(err) {
			t.Fatalf("mid-request kill: err = %v, want availability error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send hung after peer was killed")
	}

	// A replacement peer comes up (new port; the resolver is updated the
	// way a config/gossip refresh would). Sends must recover.
	b2, err := NewTCPOpts("b", "127.0.0.1:0", echoHandler(""), p.resolver(), TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b2.Close() })
	p.setAddr("b", b2.Addr())

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := p.a.Send(context.Background(), "b", []byte("hello"))
		if err == nil {
			if string(resp) != "a:hello" {
				t.Fatalf("resp = %q", resp)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never redialed replacement peer: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTCPCloseDuringInflightNoGoroutineLeak closes the node while Sends are
// in flight and asserts every transport goroutine (accept, serve, read,
// write) exits.
func TestTCPCloseDuringInflightNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	p := startTCPPairOpts(t, func(_ context.Context, _ ring.NodeID, b []byte) ([]byte, error) {
		time.Sleep(time.Duration(len(b)%7) * time.Millisecond)
		return b, nil
	}, TCPOptions{Conns: 4})

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// Errors are expected once Close lands; the assertion is that
			// nothing hangs or leaks.
			_, _ = p.a.Send(context.Background(), "b", []byte(strconv.Itoa(i)))
		}(i)
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	if err := p.a.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := p.b.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPStripedPoolSurvivesBrokenConn breaks one stripe's socket out from
// under the pool: the other stripes keep serving, the broken stripe evicts
// and redials, and the pool heals back to full width.
func TestTCPStripedPoolSurvivesBrokenConn(t *testing.T) {
	const stripes = 4
	p := startTCPPairOpts(t, nil, TCPOptions{Conns: stripes, DialBackoff: 10 * time.Millisecond})

	// Warm every stripe (round-robin pick walks the slots in order).
	for i := 0; i < stripes*2; i++ {
		if _, err := p.a.Send(context.Background(), "b", []byte("warm")); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.a.Stats(); st.PerPeer["b"].Conns != stripes {
		t.Fatalf("warm pool = %+v, want %d conns to b", st, stripes)
	}

	// Sever one stripe's socket behind the pool's back.
	p.a.mu.Lock()
	pool := p.a.pools["b"]
	p.a.mu.Unlock()
	pool.mu.Lock()
	broken := pool.conns[0]
	pool.mu.Unlock()
	_ = broken.raw.Close()

	// Every stripe gets traffic; at most the in-flight casualties on the
	// broken conn may fail, and a retry must succeed (evict + redial).
	failures := 0
	for i := 0; i < stripes*4; i++ {
		if _, err := p.a.Send(context.Background(), "b", []byte("x")); err != nil {
			failures++
			if !IsAvailabilityError(err) {
				t.Fatalf("unexpected error class: %v", err)
			}
			// Retry after backoff: must land on a healthy or redialed conn.
			deadline := time.Now().Add(3 * time.Second)
			for {
				if _, err := p.a.Send(context.Background(), "b", []byte("retry")); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("stripe never recovered: %v", err)
				}
				time.Sleep(15 * time.Millisecond)
			}
		}
	}
	if failures > stripes {
		t.Fatalf("%d failures from one broken conn (want ≤ %d)", failures, stripes)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		for i := 0; i < stripes; i++ {
			_, _ = p.a.Send(context.Background(), "b", []byte("heal"))
		}
		if st := p.a.Stats(); st.PerPeer["b"].Conns == stripes {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never healed: %+v", p.a.Stats())
		}
		time.Sleep(15 * time.Millisecond)
	}
}

// TestTCPDialBackoffSuppressesRedialStorm points a node at a dead address
// and hammers it with concurrent Sends: the per-peer breaker must collapse
// the storm to a handful of real dial attempts.
func TestTCPDialBackoffSuppressesRedialStorm(t *testing.T) {
	// Reserve a port that is guaranteed dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	_ = ln.Close()

	reg := metrics.NewRegistry()
	a, err := NewTCPOpts("a", "127.0.0.1:0", echoHandler(""), StaticResolver(map[ring.NodeID]string{
		"dead": deadAddr,
	}), TCPOptions{DialBackoff: time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })

	var wg sync.WaitGroup
	var sendErrs atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Send(context.Background(), "dead", []byte("x")); errors.Is(err, ErrNodeDown) {
				sendErrs.Add(1)
			}
		}()
	}
	wg.Wait()

	if got := sendErrs.Load(); got != 64 {
		t.Fatalf("ErrNodeDown sends = %d, want 64", got)
	}
	dials := reg.Counter("transport.tcp.dials").Value()
	suppressed := reg.Counter("transport.tcp.redial.suppressed").Value()
	if dials > 3 {
		t.Fatalf("dial storm not suppressed: %d dials for 64 concurrent Sends", dials)
	}
	if suppressed < 32 {
		t.Fatalf("redial.suppressed = %d, want most of the storm", suppressed)
	}
}

// TestTCPCoalescingMetricsAndStats drives concurrent pipelined traffic and
// checks the wire instrumentation: flush syscalls recorded, frames ≥
// syscalls (coalescing can only merge), and Stats reports the striped pool.
func TestTCPCoalescingMetricsAndStats(t *testing.T) {
	reg := metrics.NewRegistry()
	p := startTCPPairOpts(t, nil, TCPOptions{Conns: 2, Metrics: reg})

	var wg sync.WaitGroup
	for i := 0; i < 128; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := "a:" + strconv.Itoa(i)
			resp, err := p.a.Send(context.Background(), "b", []byte(strconv.Itoa(i)))
			if err != nil || string(resp) != want {
				t.Errorf("send %d: %q, %v", i, resp, err)
			}
		}(i)
	}
	wg.Wait()

	frames := reg.Counter("transport.tcp.flush.frames").Value()
	syscalls := reg.Counter("transport.tcp.flush.syscalls").Value()
	if syscalls == 0 || frames < 128 {
		t.Fatalf("flush metrics: frames=%d syscalls=%d", frames, syscalls)
	}
	if frames < syscalls {
		t.Fatalf("frames (%d) < syscalls (%d): impossible", frames, syscalls)
	}
	if reg.Histogram("transport.tcp.frames_per_syscall").Count() == 0 {
		t.Fatal("frames_per_syscall histogram empty")
	}

	st := p.a.Stats()
	if st.Peers != 1 || st.PerPeer["b"].Conns < 1 || st.PerPeer["b"].Conns > 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.PeerList(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("peer list = %v", got)
	}
	if reg.Gauge("transport.tcp.conns").Value() < 1 {
		t.Fatal("conns gauge not tracking live connections")
	}
}

// wedgeConn reports each Write as it starts, so a test can tell a sender
// wedged in its Write from one that never reached it.
type wedgeConn struct {
	net.Conn
	writing chan struct{}
}

func (c wedgeConn) Write(b []byte) (int, error) {
	select {
	case c.writing <- struct{}{}:
	default:
	}
	return c.Conn.Write(b)
}

// TestConnWriterBackpressure pins the bounded send queue of a writer with no
// goroutine: with the peer not reading, the first sender finds the
// connection idle and wedges in its own Write; the senders after it queue
// their frames and return until the queue reaches maxQueueBytes, and the
// ones after that block — until the peer drains (every frame then arrives
// intact, each once, the first and the queued ones in send order) or the
// writer is closed (the wedged writer and every blocked sender get the
// close error). A third case has 8 goroutines send continuously against a
// reading peer: every send returns and every frame arrives, each sender's
// in its send order — no frame is left queued with no writer.
func TestConnWriterBackpressure(t *testing.T) {
	const total = 12 // > one in-flight round + maxQueueBytes of 1 MiB frames
	payloads := make([][]byte, total)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, 1<<20)
	}
	errClosed := errors.New("closed under backpressure")

	for _, release := range []string{"drain", "close"} {
		t.Run(release, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			writing := make(chan struct{}, 1)
			w := newConnWriter(wedgeConn{server, writing}, newWireMetrics(nil))
			defer w.closeWith(ErrClosed)

			done := make([]chan error, total)
			start := func(i int) {
				done[i] = make(chan error, 1)
				go func() { done[i] <- w.send(payloads[i]) }()
			}

			// Nobody reads the pipe: the first sender writes and wedges...
			start(0)
			select {
			case <-writing:
			case <-time.After(10 * time.Second):
				t.Fatal("first sender never reached Write")
			}
			// ...the next ones queue and return until the queue is full...
			queued := 1
			for ; w.queuedBytes() < maxQueueBytes; queued++ {
				if queued == total {
					t.Fatalf("%d frames queued below the %d-byte bound", total-1, maxQueueBytes)
				}
				start(queued)
				select {
				case err := <-done[queued]:
					if err != nil {
						t.Fatalf("send %d with the queue at %d bytes: %v", queued, w.queuedBytes(), err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("send %d blocked with the queue at %d bytes", queued, w.queuedBytes())
				}
			}
			// ...and the rest block behind the bound, as does the writer.
			for i := queued; i < total; i++ {
				start(i)
			}
			time.Sleep(50 * time.Millisecond)
			blocked := []int{0}
			for i := queued; i < total; i++ {
				blocked = append(blocked, i)
			}
			for _, i := range blocked {
				select {
				case err := <-done[i]:
					t.Fatalf("send %d returned (%v) with the peer not reading and the queue at its bound", i, err)
				default:
				}
			}
			if n := w.queuedBytes(); n < maxQueueBytes || n > maxQueueBytes+(1<<20)+8 {
				t.Fatalf("queue holds %d bytes, want the %d-byte bound plus at most one frame", n, maxQueueBytes)
			}

			if release == "close" {
				w.closeWith(errClosed)
				for _, i := range blocked {
					if err := <-done[i]; !errors.Is(err, errClosed) {
						t.Fatalf("blocked send %d returned %v, want the close error", i, err)
					}
				}
				return
			}
			var buf []byte
			seen := make([]bool, total)
			for k := 0; k < total; k++ {
				got, err := frame.Read(client, &buf, maxFrame)
				if err != nil || len(got) == 0 {
					t.Fatalf("frame %d: %d bytes, %v", k, len(got), err)
				}
				i := int(got[0])
				if i >= total || seen[i] || !bytes.Equal(got, payloads[i]) {
					t.Fatalf("frame %d: not one of the sent frames, or a repeat (tag %d)", k, i)
				}
				if k < queued && i != k {
					t.Fatalf("frame %d is send %d's: the first %d went out of send order", k, i, queued)
				}
				seen[i] = true
			}
			for _, i := range blocked {
				if err := <-done[i]; err != nil {
					t.Fatalf("send %d after drain: %v", i, err)
				}
			}
		})
	}

	t.Run("eight senders", func(t *testing.T) {
		const senders, perSender = 8, 100
		client, server := net.Pipe()
		defer client.Close()
		w := newConnWriter(server, newWireMetrics(nil))
		defer w.closeWith(ErrClosed)
		// Frame q of sender s: s, q (uvarint), then up to 64 KiB of byte(s+q),
		// so the queue reaches its bound while the peer reads.
		body := func(s, q int) []byte {
			out := binary.AppendUvarint([]byte{byte(s)}, uint64(q))
			return append(out, bytes.Repeat([]byte{byte(s + q)}, (s*7919+q*104729)%(64<<10))...)
		}
		read := make(chan error, 1)
		go func() {
			br := bufio.NewReaderSize(client, readBufSize)
			next := make([]int, senders)
			var buf []byte
			for k := 0; k < senders*perSender; k++ {
				got, err := frame.Read(br, &buf, maxFrame)
				if err != nil {
					read <- fmt.Errorf("frame %d: %w", k, err)
					return
				}
				s := int(got[0])
				q, _ := binary.Uvarint(got[1:])
				if s >= senders || int(q) != next[s] || !bytes.Equal(got, body(s, int(q))) {
					read <- fmt.Errorf("frame %d: sender %d seq %d, want seq %d intact", k, s, q, next[s])
					return
				}
				next[s]++
			}
			read <- nil
		}()
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := 0; q < perSender; q++ {
					if err := w.send(body(s, q)); err != nil {
						t.Errorf("sender %d, frame %d: %v", s, q, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-read:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("the peer is still waiting for frames: one was left queued with no writer")
		}
	})
}

// rawFrame frames one payload as the wire carries it.
func rawFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	out, err := frame.Append(nil, payload, maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTCPServerAnswersMalformedRequest speaks to a node over a raw socket. A
// request whose ID parses but whose remainder does not used to be dropped
// without a word, leaving the caller to wait out its deadline; it is answered
// under its ID with status 1 and the decode error, and the connection keeps
// serving. A request whose ID itself is unreadable closes the connection.
func TestTCPServerAnswersMalformedRequest(t *testing.T) {
	p := startTCPPairOpts(t, nil, TCPOptions{})
	c, err := net.Dial("tcp", p.b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))

	good := codec.NewWriter(32)
	good.Uvarint(8)
	good.String("raw")
	good.Bytes0([]byte("ping"))
	for _, tc := range []struct {
		name    string
		request []byte
		id      uint64
		status  uint8
		text    string
	}{
		{"sender cut short", []byte{7, 9, 'a'}, 7, 1, "malformed request: sender"},
		{"body cut short", []byte{9, 1, 'a', 40, 'x'}, 9, 1, "malformed request: body"},
		{"no remainder at all", []byte{5}, 5, 1, "malformed request: sender"},
		{"well-formed, after the three", good.Bytes(), 8, 0, "raw:ping"},
	} {
		if _, err := c.Write(rawFrame(t, tc.request)); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		resp, err := frame.Read(c, &buf, maxFrame)
		if err != nil {
			t.Fatalf("%s: no answer: %v", tc.name, err)
		}
		r := codec.NewReader(resp)
		id, _ := r.Uvarint()
		status, _ := r.Uint8()
		text, err := r.String()
		if err != nil || id != tc.id || status != tc.status || !strings.Contains(text, tc.text) {
			t.Fatalf("%s: answer = id %d, status %d, %q (%v); want id %d, status %d, text containing %q",
				tc.name, id, status, text, err, tc.id, tc.status, tc.text)
		}
	}

	// 0x80 opens a varint and ends: there is no ID to answer under.
	if _, err := c.Write(rawFrame(t, []byte{0x80})); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Read(make([]byte, 1)); err == nil || n != 0 {
		t.Fatalf("after a frame with no readable ID the server sent %d byte(s) (%v), want the connection closed", n, err)
	}
}

// TestTCPClientFailsOnMalformedResponse puts a node's outbound side against a
// raw listener. A response that names its request but cannot be parsed past
// the ID fails that one call with a protocol error — not at its deadline —
// and leaves the call pipelined beside it to complete. A response whose ID is
// unreadable fails everything pending on the connection as ErrNodeDown.
func TestTCPClientFailsOnMalformedResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := NewTCPOpts("a", "127.0.0.1:0", echoHandler(""), StaticResolver(map[ring.NodeID]string{"raw": ln.Addr().String()}), TCPOptions{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	type call struct {
		resp []byte
		err  error
	}
	send := func(body string) chan call {
		ch := make(chan call, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			resp, err := a.Send(ctx, "raw", []byte(body))
			ch <- call{resp, err}
		}()
		return ch
	}
	await := func(what string, ch chan call) call {
		t.Helper()
		select {
		case c := <-ch:
			return c
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Send still blocked after 5s", what)
			return call{}
		}
	}
	// readRequests takes n request frames off the raw side and returns
	// body → request ID.
	var peer net.Conn
	var buf []byte
	readRequests := func(n int) map[string]uint64 {
		t.Helper()
		ids := make(map[string]uint64, n)
		for i := 0; i < n; i++ {
			req, err := frame.Read(peer, &buf, maxFrame)
			if err != nil {
				t.Fatal(err)
			}
			r := codec.NewReader(req)
			id, _ := r.Uvarint()
			_, _ = r.String()
			body, err := r.Bytes0()
			if err != nil {
				t.Fatal(err)
			}
			ids[string(body)] = id
		}
		return ids
	}

	one, two := send("one"), send("two")
	if peer, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	_ = peer.SetDeadline(time.Now().Add(5 * time.Second))
	ids := readRequests(2)
	// "one": status 0, then a body length with no body behind it.
	if _, err := peer.Write(rawFrame(t, []byte{byte(ids["one"]), 0, 50, 'x'})); err != nil {
		t.Fatal(err)
	}
	if c := await("malformed response", one); !errors.Is(c.err, errMalformedResponse) || IsAvailabilityError(c.err) {
		t.Fatalf("call answered by a malformed response = %q, %v; want the protocol error", c.resp, c.err)
	}
	if _, err := peer.Write(rawFrame(t, []byte{byte(ids["two"]), 0, 2, 'o', 'k'})); err != nil {
		t.Fatal(err)
	}
	if c := await("the call pipelined beside it", two); c.err != nil || string(c.resp) != "ok" {
		t.Fatalf("call beside the malformed one = %q, %v; want ok", c.resp, c.err)
	}

	three, four := send("three"), send("four")
	readRequests(2)
	if _, err := peer.Write(rawFrame(t, []byte{0x80})); err != nil {
		t.Fatal(err)
	}
	for what, ch := range map[string]chan call{"three": three, "four": four} {
		if c := await("unreadable response id, call "+what, ch); !errors.Is(c.err, ErrNodeDown) {
			t.Fatalf("call %s after an unreadable response id = %v, want ErrNodeDown", what, c.err)
		}
	}
}
