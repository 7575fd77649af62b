package delivery

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/frame"
)

// Server accepts subscriber TCP connections and binds them to hub sessions.
// The protocol is length-prefixed codec frames: the client opens with a
// hello (subscriber name + resume ack), the server replies hello-ok and
// streams event frames; the client sends cumulative acks and pong replies.
type Server struct {
	hub          *Hub
	ln           net.Listener
	writeTimeout time.Duration

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve starts accepting subscriber connections on ln. writeTimeout bounds
// each frame write to a subscriber (0 means no deadline); a timed-out write
// detaches the session (the stream may hold a partial frame, so the
// connection is not reusable — the bounded queue holds the backlog for the
// reconnect).
func Serve(ln net.Listener, hub *Hub, writeTimeout time.Duration) *Server {
	s := &Server{hub: hub, ln: ln, writeTimeout: writeTimeout, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every live subscriber connection, and waits
// for the per-connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(c)
	}
}

func (s *Server) forget(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer s.forget(c)
	wc := &wireConn{c: c, writeTimeout: s.writeTimeout, hub: s.hub}

	// First frame must be the hello. Nothing a subscriber sends is large,
	// so the bound applies before the peer has identified itself; buf is
	// reused for every inbound frame (the decoders copy what they keep).
	// An ack is a handful of bytes: through a small buffered reader its prefix
	// and payload — and any acks queued behind it — cost one read call, not
	// two each; a frame larger than the buffer is still read straight into buf.
	in := bufio.NewReaderSize(c, inboundBuffer)
	var buf []byte
	payload, err := frame.Read(in, &buf, maxInboundFrame)
	if err != nil {
		_ = c.Close()
		return
	}
	r := codec.NewReader(payload)
	t, err := r.Uint8()
	if err != nil || t != frameHello {
		_ = wc.SendBye("protocol: expected hello")
		_ = c.Close()
		return
	}
	sub, resumeAck, err := DecodeHello(r)
	if err != nil || sub == "" {
		_ = wc.SendBye("protocol: bad hello")
		_ = c.Close()
		return
	}
	sess, _, err := s.hub.Attach(sub, wc, resumeAck)
	if err != nil {
		_ = c.Close()
		return
	}

	// Inbound loop: acks and pongs. A dead socket detaches the session;
	// its queue and window survive for the reconnect.
	for {
		payload, err := frame.Read(in, &buf, maxInboundFrame)
		if err != nil {
			sess.Detach(wc)
			_ = c.Close()
			return
		}
		r := codec.NewReader(payload)
		t, err := r.Uint8()
		if err != nil {
			sess.Detach(wc)
			_ = c.Close()
			return
		}
		switch t {
		case frameAck:
			seq, err := DecodeAck(r)
			if err != nil {
				sess.Detach(wc)
				_ = c.Close()
				return
			}
			sess.Ack(seq)
		case framePong:
			sess.Touch()
		default:
			_ = wc.SendBye(fmt.Sprintf("protocol: unexpected frame %d", t))
			sess.Detach(wc)
			_ = c.Close()
			return
		}
	}
}

// wireConn adapts one subscriber TCP connection to the Conn sink. Writes
// are serialized (flush workers and the janitor both send) and bounded by
// the server's write timeout. A failed or timed-out write returns its error
// and the hub detaches the session: the stream may carry a partial frame, so
// it is dropped, never retried.
//
// What it adds to the shared flush round (frame.Batch, DESIGN.md §16) is
// when the round goes out: SendEvents only appends, and the pending frames
// reach the wire in one Write when the hub's flush round ends (Flush), when
// they pass frame.RoundBytes (the size bound), or when a control frame
// (hello, ping, bye) needs the stream ordered now. The write runs under the
// mutex — the caller is a hub flush worker, so there is no writer goroutine
// to hand it to.
//
// Event frames are coded against the connection's state (events), so every
// frame is encoded under the mutex: the state advances in the order frames
// reach pending.
type wireConn struct {
	c            net.Conn
	writeTimeout time.Duration
	hub          *Hub

	wmu     sync.Mutex
	closed  bool
	pending frame.Batch
	events  EventEncoder
}

var errConnClosed = errors.New("delivery: connection closed")

// flushLocked writes every pending frame as one round (requires wmu).
func (w *wireConn) flushLocked() error {
	out, frames := w.pending.Take()
	if frames == 0 {
		return nil
	}
	w.hub.flushBytesC.Add(int64(len(out)))
	err := w.hub.flushStats.WriteRound(w.c, w.writeTimeout, out, frames)
	w.pending.Recycle(out)
	return err
}

// writeFrame builds and buffers one frame under wmu; immediate forces the
// round to the wire before returning (control frames).
func (w *wireConn) writeFrame(immediate bool, build func(enc *codec.Writer)) error {
	enc := codec.GetWriter()
	defer codec.PutWriter(enc)
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.closed {
		return errConnClosed
	}
	build(enc)
	if err := w.pending.Append(enc.Bytes(), maxFrame); err != nil {
		return err
	}
	if immediate || w.pending.Len() >= frame.RoundBytes {
		return w.flushLocked()
	}
	return nil
}

func (w *wireConn) SendHello(info HelloInfo) error {
	return w.writeFrame(true, func(enc *codec.Writer) { AppendHelloOK(enc, info) })
}

// SendEvents advances the connection's event state even when pending refuses
// the frame (one past maxFrame). That never desynchronizes a client: the hub
// detaches and closes a connection on any error SendEvents returns, and a
// reattach is a new wireConn with a fresh state.
func (w *wireConn) SendEvents(evs []*Event) error {
	return w.writeFrame(false, func(enc *codec.Writer) { w.events.Append(enc, evs) })
}

func (w *wireConn) SendPing() error {
	return w.writeFrame(true, func(enc *codec.Writer) { enc.Uint8(framePing) })
}

func (w *wireConn) SendBye(reason string) error {
	return w.writeFrame(true, func(enc *codec.Writer) { AppendBye(enc, reason) })
}

// Flush implements Flusher: the hub calls it at the end of each flush round
// to put the coalesced event frames on the wire.
func (w *wireConn) Flush() error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.closed {
		return errConnClosed
	}
	return w.flushLocked()
}

func (w *wireConn) Close() error {
	w.wmu.Lock()
	if w.closed {
		w.wmu.Unlock()
		return nil
	}
	w.closed = true
	w.pending = frame.Batch{}
	w.wmu.Unlock()
	return w.c.Close()
}
