package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/frame"
	"github.com/movesys/move/internal/ring"
)

// rawPeer is a listener the test answers by hand, so it decides when each
// response byte reaches the caller's socket.
type rawPeer struct {
	t  *testing.T
	ln net.Listener
}

func newRawPeer(t *testing.T) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	return &rawPeer{t: t, ln: ln}
}

// node starts a client node whose one stripe to "raw" dials this listener.
func (p *rawPeer) node() *TCPNode {
	p.t.Helper()
	a, err := NewTCPOpts("a", "127.0.0.1:0", echoHandler(""), StaticResolver(map[ring.NodeID]string{"raw": p.ln.Addr().String()}), TCPOptions{Conns: 1})
	if err != nil {
		p.t.Fatal(err)
	}
	p.t.Cleanup(func() { _ = a.Close() })
	return a
}

// accept takes the next connection and a reader for its requests.
func (p *rawPeer) accept() (net.Conn, *bufio.Reader) {
	p.t.Helper()
	c, err := p.ln.Accept()
	if err != nil {
		p.t.Fatal(err)
	}
	p.t.Cleanup(func() { _ = c.Close() })
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, bufio.NewReader(c)
}

// readRequest takes one request frame and returns its ID and body.
func readRequest(t *testing.T, br *bufio.Reader) (uint64, string) {
	t.Helper()
	var buf []byte
	req, err := frame.Read(br, &buf, maxFrame)
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
	return id, string(body)
}

// responseFrame frames a successful response to request id.
func responseFrame(t *testing.T, id uint64, body []byte) []byte {
	w := codec.NewWriter(len(body) + 16)
	w.Uvarint(id)
	w.Uint8(0)
	w.Bytes0(body)
	return rawFrame(t, w.Bytes())
}

// stripe returns the one outbound connection a has to peer to.
func stripe(t *testing.T, a *TCPNode, to ring.NodeID) *tcpConn {
	t.Helper()
	a.mu.Lock()
	p := a.pools[to]
	a.mu.Unlock()
	if p == nil {
		t.Fatalf("no pool to %s", to)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns[0]
}

// waitConn polls c's call state until cond holds.
func waitConn(t *testing.T, c *tcpConn, what string, cond func(reading bool, parked int) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		parked := 0
		for _, w := range c.pending {
			if w.state == waitParked {
				parked++
			}
		}
		ok := cond(c.reading, parked)
		c.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

type sendResult struct {
	resp []byte
	err  error
	at   time.Time
}

// sendAsync sends body to "raw" on its own goroutine.
func sendAsync(ctx context.Context, a *TCPNode, body string) chan sendResult {
	ch := make(chan sendResult, 1)
	go func() {
		resp, err := a.Send(ctx, "raw", []byte(body))
		ch <- sendResult{resp, err, time.Now()}
	}()
	return ch
}

func awaitSend(t *testing.T, what string, ch chan sendResult) sendResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Send still blocked after 5s", what)
		return sendResult{}
	}
}

// TestTCPReaderCancelledMidFrame cancels the reading caller while a response
// frame for the caller parked beside it is half on the wire. The cancelled
// caller returns at once, and the parked one, made the reader, resumes the
// frame where it was cut and gets its response intact.
func TestTCPReaderCancelledMidFrame(t *testing.T) {
	p := newRawPeer(t)
	a := p.node()

	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := sendAsync(leaderCtx, a, "leader")
	raw, br := p.accept()
	readRequest(t, br)
	c := stripe(t, a, "raw")
	waitConn(t, c, "the first caller reading", func(reading bool, _ int) bool { return reading })

	follower := sendAsync(context.Background(), a, "follower")
	fid, _ := readRequest(t, br)
	waitConn(t, c, "the second caller parked", func(_ bool, parked int) bool { return parked == 1 })

	want := bytes.Repeat([]byte("f"), 300)
	resp := responseFrame(t, fid, want)
	if _, err := raw.Write(resp[:len(resp)/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // the reader takes the half and blocks for the rest
	cancelled := time.Now()
	cancel()
	r := awaitSend(t, "cancelled reader", leader)
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled reader: err = %v, want context.Canceled", r.err)
	}
	if d := r.at.Sub(cancelled); d > time.Second {
		t.Fatalf("cancelled reader returned %v after its cancellation", d)
	}
	if _, err := raw.Write(resp[len(resp)/2:]); err != nil {
		t.Fatal(err)
	}
	r = awaitSend(t, "parked caller", follower)
	if r.err != nil || !bytes.Equal(r.resp, want) {
		t.Fatalf("parked caller = %d bytes, %v; want its %d-byte response intact", len(r.resp), r.err, len(want))
	}
}

// TestTCPReaderPassesOnWithItsResponse answers the reading caller first while
// two others are parked: it returns, one of them is made the reader, and
// both complete.
func TestTCPReaderPassesOnWithItsResponse(t *testing.T) {
	p := newRawPeer(t)
	a := p.node()

	leader := sendAsync(context.Background(), a, "leader")
	raw, br := p.accept()
	lid, _ := readRequest(t, br)
	c := stripe(t, a, "raw")
	waitConn(t, c, "the first caller reading", func(reading bool, _ int) bool { return reading })
	followers := map[string]chan sendResult{
		"one": sendAsync(context.Background(), a, "one"),
		"two": sendAsync(context.Background(), a, "two"),
	}
	ids := make(map[string]uint64)
	for range followers {
		id, body := readRequest(t, br)
		ids[body] = id
	}
	waitConn(t, c, "two callers parked", func(_ bool, parked int) bool { return parked == 2 })

	if _, err := raw.Write(responseFrame(t, lid, []byte("leader"))); err != nil {
		t.Fatal(err)
	}
	if r := awaitSend(t, "reader", leader); r.err != nil || string(r.resp) != "leader" {
		t.Fatalf("reader = %q, %v", r.resp, r.err)
	}
	waitConn(t, c, "a parked caller made the reader", func(reading bool, parked int) bool { return reading && parked == 1 })
	for body, ch := range followers {
		if _, err := raw.Write(responseFrame(t, ids[body], []byte(body))); err != nil {
			t.Fatal(err)
		}
		if r := awaitSend(t, "parked caller "+body, ch); r.err != nil || string(r.resp) != body {
			t.Fatalf("parked caller %s = %q, %v", body, r.resp, r.err)
		}
	}
	waitConn(t, c, "the connection left unread", func(reading bool, _ int) bool { return !reading })
}

// TestTCPStaleDeadlineDoesNotFailNextCaller leaves a past read deadline on
// an idle stripe — what a former reader's interrupt that fired too late to
// be stopped leaves behind — and sends on it, without and with a context that
// can end: both calls succeed on the same connection.
func TestTCPStaleDeadlineDoesNotFailNextCaller(t *testing.T) {
	pair := startTCPPairOpts(t, nil, TCPOptions{Conns: 1})
	if _, err := pair.a.Send(context.Background(), "b", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	c := stripe(t, pair.a, "b")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, ctx := range []context.Context{context.Background(), ctx} {
		c.interrupt()
		resp, err := pair.a.Send(ctx, "b", []byte("again"))
		if err != nil || string(resp) != "a:again" {
			t.Fatalf("send after a stale deadline = %q, %v", resp, err)
		}
	}
	if got := stripe(t, pair.a, "b"); got != c {
		t.Fatal("the stripe was replaced: a stale deadline broke the connection")
	}
}

// TestTCPOutboundStripeHoldsNoGoroutine warms every stripe to a peer and
// finds no goroutine in the outbound connection's code: the callers read.
func TestTCPOutboundStripeHoldsNoGoroutine(t *testing.T) {
	pair := startTCPPairOpts(t, nil, TCPOptions{Conns: 4})
	for i := 0; i < 8; i++ {
		if _, err := pair.a.Send(context.Background(), "b", []byte("warm")); err != nil {
			t.Fatal(err)
		}
	}
	if st := pair.a.Stats(); st.PerPeer["b"].Conns != 4 {
		t.Fatalf("stats = %+v, want 4 stripes to b", st)
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	if strings.Contains(stacks, "(*tcpConn)") {
		t.Fatalf("a goroutine runs in an idle outbound stripe:\n%s", stacks)
	}
}

// TestTCPPeerClosesIdleStripe closes the peer's end of an idle stripe. No
// goroutine watches it, so the next Send finds out: it fails with
// ErrNodeDown, the stripe is evicted, and the Send after it redials.
func TestTCPPeerClosesIdleStripe(t *testing.T) {
	p := newRawPeer(t)
	a := p.node()

	first := sendAsync(context.Background(), a, "first")
	raw, br := p.accept()
	id, _ := readRequest(t, br)
	if _, err := raw.Write(responseFrame(t, id, []byte("ok"))); err != nil {
		t.Fatal(err)
	}
	if r := awaitSend(t, "first", first); r.err != nil || string(r.resp) != "ok" {
		t.Fatalf("first = %q, %v", r.resp, r.err)
	}
	c := stripe(t, a, "raw")
	_ = raw.Close()

	if _, err := a.Send(context.Background(), "raw", []byte("second")); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("send on a stripe its peer closed: err = %v, want ErrNodeDown", err)
	}
	if got := stripe(t, a, "raw"); got != nil {
		t.Fatal("the closed stripe was not evicted")
	}

	third := sendAsync(context.Background(), a, "third")
	raw, br = p.accept()
	id, body := readRequest(t, br)
	if body != "third" {
		t.Fatalf("redialed stripe carried %q, want third", body)
	}
	if _, err := raw.Write(responseFrame(t, id, []byte("ok"))); err != nil {
		t.Fatal(err)
	}
	if r := awaitSend(t, "third", third); r.err != nil || string(r.resp) != "ok" {
		t.Fatalf("third = %q, %v", r.resp, r.err)
	}
	if got := stripe(t, a, "raw"); got == nil || got == c {
		t.Fatal("the stripe was not redialed")
	}
}

// interruptingReader serves a stream one byte per Read and fails exactly one
// Read, at byte offset at, with the error a read deadline gives.
type interruptingReader struct {
	data []byte
	off  int
	at   int
	done bool
}

func (r *interruptingReader) Read(p []byte) (int, error) {
	if r.off == r.at && !r.done {
		r.done = true
		return 0, os.ErrDeadlineExceeded
	}
	if r.off == len(r.data) {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0] = r.data[r.off]
	r.off++
	return 1, nil
}

// TestFrameReaderResumesAtEveryOffset cuts the resumable reader short at
// every byte offset of a multi-frame stream — inside prefixes, payloads, and
// between frames — and resumes it: its frames must equal frame.Read's. It
// refuses what frame.Read refuses: a length past the bound, and a prefix
// that is not minimal.
func TestFrameReaderResumesAtEveryOffset(t *testing.T) {
	var stream []byte
	for _, size := range []int{0, 1, 5, 127, 128, 300, 2} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(size + i)
		}
		stream = append(stream, rawFrame(t, payload)...)
	}
	var want [][]byte
	var buf []byte
	for src := bytes.NewReader(stream); ; {
		f, err := frame.Read(src, &buf, maxFrame)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, append([]byte(nil), f...))
	}

	for at := 0; at <= len(stream); at++ {
		src := &interruptingReader{data: stream, at: at}
		r := frameReader{br: bufio.NewReader(src)}
		var got [][]byte
		for {
			f, err := r.next()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("cut at %d: %v", at, err)
			}
			got = append(got, append([]byte(nil), f...))
		}
		if len(got) != len(want) {
			t.Fatalf("cut at %d: %d frames, want %d", at, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut at %d: frame %d = %x, want %x", at, i, got[i], want[i])
			}
		}
	}

	for _, bad := range [][]byte{
		{0xff, 0xff, 0xff, 0xff},    // past maxFrame
		{0x80, 0x00},                // 0 in two bytes
		{0x85, 0x80, 0x00, 1, 2, 3}, // 5 in three bytes
	} {
		if _, err := frame.Read(bytes.NewReader(bad), &buf, maxFrame); err == nil {
			t.Fatalf("frame.Read accepted %x", bad)
		}
		r := frameReader{br: bufio.NewReader(bytes.NewReader(bad))}
		if _, err := r.next(); err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
			t.Fatalf("frameReader on %x: err = %v, want a refusal", bad, err)
		}
	}
}

// TestTCPReaderHandsOffUnderCancellation runs many callers on one stripe
// with deadlines that often end mid-wait — as the reader, as a parked caller,
// or just as the reading is passed to them. Every call returns its own
// response or its context's error, none hangs, and the stripe still serves
// afterwards.
func TestTCPReaderHandsOffUnderCancellation(t *testing.T) {
	pair := startTCPPairOpts(t, func(_ context.Context, _ ring.NodeID, b []byte) ([]byte, error) {
		time.Sleep(time.Duration(len(b)%3) * 200 * time.Microsecond)
		return b, nil
	}, TCPOptions{Conns: 1})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				body := fmt.Sprintf("%d/%d", g, i)
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration((g+i)%5)*150*time.Microsecond)
				resp, err := pair.a.Send(ctx, "b", []byte(body))
				cancel()
				switch {
				case err == nil && string(resp) != body:
					errs <- fmt.Errorf("call %s got %q", body, resp)
					return
				case err != nil && !errors.Is(err, context.DeadlineExceeded):
					errs <- fmt.Errorf("call %s: %v", body, err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("callers hung:\n%s", buf[:runtime.Stack(buf, true)])
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if resp, err := pair.a.Send(context.Background(), "b", []byte("after")); err != nil || string(resp) != "after" {
		t.Fatalf("stripe after the storm = %q, %v", resp, err)
	}
}
