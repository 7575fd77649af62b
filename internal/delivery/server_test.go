package delivery

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/frame"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/testutil"
)

func startServer(t *testing.T, cfg Config) (*Hub, *Server) {
	t.Helper()
	hub := NewHub(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, hub, time.Second)
	t.Cleanup(func() {
		_ = srv.Close()
		hub.Stop()
	})
	return hub, srv
}

// TestServerEndToEnd runs the full wire protocol over loopback TCP:
// hello/hello-ok, streamed events, cumulative acks, disconnect, and
// resumed redelivery on reconnect.
func TestServerEndToEnd(t *testing.T) {
	hub, srv := startServer(t, Config{Workers: 2, FlushBatch: 4})
	addr := srv.Addr().String()

	cl, err := Dial(addr, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if h := cl.Hello(); h.AckSeq != 0 || h.NextSeq != 1 || h.Redeliver != 0 {
		t.Fatalf("hello = %+v", h)
	}

	for doc := uint64(1); doc <= 5; doc++ {
		hub.Deliver("alice", doc, []model.FilterID{model.FilterID(doc * 10)}, []string{"news", "tech"})
	}
	var got []*Event
	for len(got) < 5 {
		msg, err := cl.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Bye != "" {
			t.Fatalf("unexpected bye: %s", msg.Bye)
		}
		got = append(got, msg.Events...)
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) || ev.DocID != uint64(i+1) {
			t.Fatalf("event %d = seq %d doc %d", i, ev.Seq, ev.DocID)
		}
		if len(ev.Terms) != 2 || ev.Terms[0] != "news" {
			t.Fatalf("event %d terms = %v", i, ev.Terms)
		}
	}

	// Ack 3 of 5, drop the connection, reconnect with the same cursor:
	// exactly 4 and 5 come back.
	if err := cl.Ack(3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "server-side ack", func() bool {
		ss, _ := hub.Snapshot("alice")
		return ss.AckSeq == 3
	})
	_ = cl.Close()
	waitFor(t, "detach", func() bool {
		ss, _ := hub.Snapshot("alice")
		return !ss.Attached
	})

	cl2, err := Dial(addr, "alice", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if h := cl2.Hello(); h.AckSeq != 3 || h.Redeliver != 2 {
		t.Fatalf("resume hello = %+v, want ack 3, redeliver 2", h)
	}
	got = got[:0]
	for len(got) < 2 {
		msg, err := cl2.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, msg.Events...)
	}
	if got[0].Seq != 4 || got[1].Seq != 5 {
		t.Fatalf("redelivered seqs = %d,%d want 4,5", got[0].Seq, got[1].Seq)
	}
	if err := cl2.Ack(5); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "window drained", func() bool {
		ss, _ := hub.Snapshot("alice")
		return ss.Window == 0 && ss.AckSeq == 5
	})
}

// TestServerTakeoverBye asserts a second connection for the same
// subscriber receives the flow while the first is told "replaced".
func TestServerTakeoverBye(t *testing.T) {
	hub, srv := startServer(t, Config{Workers: 1})
	addr := srv.Addr().String()

	cl1, err := Dial(addr, "bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	cl2, err := Dial(addr, "bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	msg, err := cl1.Recv()
	if err == nil && msg.Bye != "replaced" {
		t.Fatalf("first conn got %+v, want bye replaced", msg)
	}
	hub.Deliver("bob", 1, []model.FilterID{1}, []string{"t"})
	msg, err = cl2.Recv()
	if err != nil || len(msg.Events) != 1 {
		t.Fatalf("second conn recv = %+v, %v", msg, err)
	}
}

// TestServerHeartbeat runs a real janitor: the client's transparent pong
// keeps an otherwise silent session attached across several idle timeouts.
func TestServerHeartbeat(t *testing.T) {
	const hb = 25 * time.Millisecond // an idle timeout is idleHeartbeats × hb
	hub, srv := startServer(t, Config{Workers: 1, HeartbeatEvery: hb})
	addr := srv.Addr().String()

	cl, err := Dial(addr, "carol", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := cl.Recv(); err != nil {
				return
			}
		}
	}()

	time.Sleep(3 * idleHeartbeats * hb) // 3x the idle timeout
	if ss, _ := hub.Snapshot("carol"); !ss.Attached {
		t.Fatal("session detached, want attached (pongs keep it alive)")
	}
	_ = cl.Close()
	<-done
	waitFor(t, "idle kick or detach", func() bool {
		ss, _ := hub.Snapshot("carol")
		return !ss.Attached
	})
}

// TestServerRejectsHostileFirstFrame covers what an unidentified socket can
// make the server do with one header. Announcing a frame just under the
// event-frame bound must not be believed (the server used to allocate it —
// 16 MiB pinned per connection for four bytes), a prefix that is not the
// shortest form of its length is not a frame, and an empty frame has no type
// byte to be a hello. Either way the connection is closed and nothing
// attaches.
func TestServerRejectsHostileFirstFrame(t *testing.T) {
	hub, srv := startServer(t, Config{Workers: 1})

	for _, tc := range []struct {
		name   string
		header []byte
	}{
		{"oversized", binary.AppendUvarint(nil, 16<<20)},
		{"non-minimal", []byte{0x82, 0x00}},
		{"empty", []byte{0}},
	} {
		name, header := tc.name, tc.header
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := c.Write(header); err != nil {
			t.Fatal(err)
		}
		// The server closes without waiting for the announced payload; a
		// bye may precede the close, and closing on header bytes it never
		// needed to read resets the connection instead of ending it.
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, c); err != nil && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("%s header: connection still open after 5s: %v", name, err)
		}
		runtime.ReadMemStats(&m1)
		_ = c.Close()
		// The race detector's shadow allocations are not the frame's.
		if grew := m1.TotalAlloc - m0.TotalAlloc; !testutil.RaceEnabled && grew > 1<<20 {
			t.Fatalf("%s header: process allocated %d bytes, limit 1 MiB", name, grew)
		}
	}
	if n := hub.SessionCount(); n != 0 {
		t.Fatalf("%d sessions exist after three rejected connections", n)
	}
}

// countingConn counts the reads a Client issues against its socket.
type countingConn struct {
	net.Conn
	reads atomic.Int32
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestClientReadsARoundInOneRead: the server puts a flush round on the wire
// in one write, and the client takes it off in one read — not a header read
// and a payload read per frame.
func TestClientReadsARoundInOneRead(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	_ = server.SetDeadline(time.Now().Add(5 * time.Second))
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))

	// frames encodes payload builders back-to-back, as a flush round is.
	frames := func(build ...func(w *codec.Writer)) []byte {
		var wire []byte
		for _, b := range build {
			w := codec.NewWriter(64)
			b(w)
			var err error
			if wire, err = frame.Append(wire, w.Bytes(), maxFrame); err != nil {
				t.Fatal(err)
			}
		}
		return wire
	}
	go func() {
		var buf []byte
		if _, err := frame.Read(server, &buf, maxInboundFrame); err != nil {
			return
		}
		_, _ = server.Write(frames(func(w *codec.Writer) { AppendHelloOK(w, HelloInfo{NextSeq: 1}) }))
		var enc EventEncoder
		events := func(seq uint64) func(w *codec.Writer) {
			return func(w *codec.Writer) {
				enc.Append(w, []*Event{{Seq: seq, DocID: seq, Filters: fid(seq), Terms: []string{"t"}}})
			}
		}
		_, _ = server.Write(frames(events(1), events(2), events(3)))
	}()

	cc := &countingConn{Conn: client}
	cl, err := NewClient(cc, "s", 0)
	if err != nil {
		t.Fatal(err)
	}
	afterHello := cc.reads.Load()
	for seq := uint64(1); seq <= 3; seq++ {
		msg, err := cl.Recv()
		if err != nil || len(msg.Events) != 1 || msg.Events[0].Seq != seq {
			t.Fatalf("frame %d of the round = %+v, %v", seq, msg, err)
		}
	}
	if got := cc.reads.Load() - afterHello; got != 1 {
		t.Fatalf("a three-frame round cost the client %d reads, want 1", got)
	}
}

// TestServerReadsQueuedAcksInOneRead: a subscriber's acks are a few bytes
// each, and the server takes what has arrived off the socket in one read — not
// a prefix read and a payload read per frame — while a hello larger than its
// read buffer still attaches.
func TestServerReadsQueuedAcksInOneRead(t *testing.T) {
	hub := NewHub(Config{Workers: 1})
	defer hub.Stop()
	client, server := net.Pipe()
	defer client.Close()
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	srv := &Server{hub: hub, conns: make(map[net.Conn]struct{})}
	cc := &countingConn{Conn: server}
	srv.wg.Add(1)
	go srv.handle(cc)
	defer srv.wg.Wait()
	defer server.Close()

	sub := strings.Repeat("n", 4*inboundBuffer)
	cl, err := NewClient(client, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	for doc := uint64(1); doc <= 3; doc++ {
		hub.Deliver(sub, doc, fid(doc), []string{"t"})
	}
	for got := 0; got < 3; {
		msg, err := cl.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got += len(msg.Events)
	}
	before := cc.reads.Load()
	var acks []byte
	for seq := uint64(1); seq <= 3; seq++ {
		w := codec.NewWriter(16)
		AppendAck(w, seq)
		if acks, err = frame.Append(acks, w.Bytes(), maxInboundFrame); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Write(acks); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the third ack", func() bool {
		ss, _ := hub.Snapshot(sub)
		return ss.AckSeq == 3
	})
	// The read the acks arrive in and the one the server then waits in; one
	// more if it had not started waiting when the count was taken.
	if got := cc.reads.Load() - before; got > 2 {
		t.Fatalf("three queued acks cost the server %d reads, want at most 2", got)
	}
}
