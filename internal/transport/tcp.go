package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/frame"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/ring"
)

// maxFrame bounds a single message; documents are at most a few hundred KB
// of terms, so 64 MiB leaves ample slack while stopping a corrupt length
// prefix from allocating unbounded memory.
const maxFrame = 64 << 20

// readBufSize sizes the per-connection bufio reader so one read syscall
// can drain an entire coalesced flush round from the socket.
const readBufSize = frame.RoundBytes

// Resolver maps a node ID to its listen address ("host:port").
type Resolver func(ring.NodeID) (string, error)

// ParsePeers parses a "id=host:port,id=host:port" cluster map — the flag
// format shared by cmd/moved and cmd/movectl.
func ParsePeers(s string) (map[ring.NodeID]string, error) {
	out := make(map[ring.NodeID]string)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("transport: bad peer entry %q (want id=host:port)", part)
		}
		id := ring.NodeID(kv[0])
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("transport: duplicate peer id %q", kv[0])
		}
		out[id] = kv[1]
	}
	return out, nil
}

// StaticResolver builds a Resolver from a fixed address table.
func StaticResolver(addrs map[ring.NodeID]string) Resolver {
	table := make(map[ring.NodeID]string, len(addrs))
	for id, a := range addrs {
		table[id] = a
	}
	return func(id ring.NodeID) (string, error) {
		a, ok := table[id]
		if !ok {
			return "", fmt.Errorf("no address for %s: %w", id, ErrNodeDown)
		}
		return a, nil
	}
}

// TCPOptions tunes the wire fast path (DESIGN.md §16). The zero value asks
// for defaults everywhere: a GOMAXPROCS-derived stripe count and dial backoff
// on.
type TCPOptions struct {
	// Conns is the number of striped connections kept per peer. Concurrent
	// Sends round-robin across stripes so high in-flight counts stop
	// serializing on one connection's send queue and reader. 0 derives from
	// GOMAXPROCS, clamped to [2, 8].
	Conns int

	// DialBackoff is the cooldown after a failed dial during which further
	// dial attempts to that peer fail fast with ErrNodeDown instead of
	// redialing (per-peer breaker, threshold 1). 0 → 250ms.
	DialBackoff time.Duration

	// Metrics receives the transport.tcp.* counters, gauges, and
	// histograms. nil uses a private registry (metrics still collected,
	// just not exported anywhere).
	Metrics *metrics.Registry
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.Conns <= 0 {
		o.Conns = runtime.GOMAXPROCS(0) / 2
		if o.Conns < 2 {
			o.Conns = 2
		}
		if o.Conns > 8 {
			o.Conns = 8
		}
	}
	if o.DialBackoff <= 0 {
		o.DialBackoff = 250 * time.Millisecond
	}
	return o
}

// TCPNode is a Transport over real TCP sockets: a listening server for
// inbound requests plus a striped per-peer connection pool for outbound
// ones. Frames are length-prefixed; responses are matched to requests by ID
// so connections are pipelined, and both directions go through a
// frame-coalescing writer (one deadline-bounded syscall per flush round).
type TCPNode struct {
	id       ring.NodeID
	handler  Handler
	resolver Resolver
	listener net.Listener
	opts     TCPOptions
	met      *wireMetrics

	mu       sync.Mutex
	pools    map[ring.NodeID]*peerPool
	accepted map[net.Conn]*connWriter
	closed   bool
	wg       sync.WaitGroup
}

var _ Transport = (*TCPNode)(nil)

// NewTCP starts a node endpoint listening on listenAddr with default
// options. Pass ":0" to pick an ephemeral port (see Addr).
func NewTCP(id ring.NodeID, listenAddr string, h Handler, r Resolver) (*TCPNode, error) {
	return NewTCPOpts(id, listenAddr, h, r, TCPOptions{})
}

// NewTCPOpts is NewTCP with explicit wire-path tuning.
func NewTCPOpts(id ring.NodeID, listenAddr string, h Handler, r Resolver, opts TCPOptions) (*TCPNode, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	n := &TCPNode{
		id:       id,
		handler:  h,
		resolver: r,
		listener: ln,
		opts:     opts.withDefaults(),
		met:      newWireMetrics(opts.Metrics),
		pools:    make(map[ring.NodeID]*peerPool),
		accepted: make(map[net.Conn]*connWriter),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the actual listen address.
func (n *TCPNode) Addr() string { return n.listener.Addr().String() }

// Self returns the node ID.
func (n *TCPNode) Self() ring.NodeID { return n.id }

// Close shuts the listener and all pooled connections down and waits for
// the inbound readers, and the handlers running on them, to exit. Calls in
// flight on the outbound connections fail with ErrClosed.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	var conns []*tcpConn
	for _, p := range n.pools {
		conns = append(conns, p.drain()...)
	}
	n.pools = make(map[ring.NodeID]*peerPool)
	inbound := make([]*connWriter, 0, len(n.accepted))
	for _, w := range n.accepted {
		inbound = append(inbound, w)
	}
	n.mu.Unlock()

	err := n.listener.Close()
	for _, c := range conns {
		c.close(ErrClosed)
	}
	// Accepted connections must be torn down too, or their readers block
	// in frame.Read and wg.Wait never returns. Closing the writer closes
	// the raw conn.
	for _, w := range inbound {
		w.closeWith(ErrClosed)
	}
	n.wg.Wait()
	return err
}

// TCPPeerStats is one peer's slice of Stats.
type TCPPeerStats struct {
	Conns       int `json:"conns"`
	QueuedBytes int `json:"queued_bytes"`
}

// TCPStats is a point-in-time view of the wire state for /healthz.
type TCPStats struct {
	Peers       int                     `json:"peers"`
	Conns       int                     `json:"conns"`
	Inbound     int                     `json:"inbound"`
	QueuedBytes int                     `json:"queued_bytes"`
	PerPeer     map[string]TCPPeerStats `json:"per_peer,omitempty"`
}

// Stats reports live connection counts and send-queue depth per peer.
func (n *TCPNode) Stats() TCPStats {
	n.mu.Lock()
	pools := make(map[ring.NodeID]*peerPool, len(n.pools))
	for id, p := range n.pools {
		pools[id] = p
	}
	inbound := make([]*connWriter, 0, len(n.accepted))
	for _, w := range n.accepted {
		inbound = append(inbound, w)
	}
	n.mu.Unlock()

	st := TCPStats{PerPeer: make(map[string]TCPPeerStats, len(pools)), Inbound: len(inbound)}
	for id, p := range pools {
		var ps TCPPeerStats
		for _, c := range p.snapshot() {
			ps.Conns++
			ps.QueuedBytes += c.wr.queuedBytes()
		}
		if ps.Conns == 0 {
			continue
		}
		st.Peers++
		st.Conns += ps.Conns
		st.QueuedBytes += ps.QueuedBytes
		st.PerPeer[string(id)] = ps
	}
	for _, w := range inbound {
		st.QueuedBytes += w.queuedBytes()
	}
	st.Conns += st.Inbound
	return st
}

// PeerList returns the peers with at least one live outbound connection,
// sorted — a stable, compact form for health endpoints.
func (s TCPStats) PeerList() []string {
	out := make([]string, 0, len(s.PerPeer))
	for id := range s.PerPeer {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		c := &inbound{n: n, conn: conn, wr: newConnWriter(conn, n.met), br: bufio.NewReaderSize(conn, readBufSize)}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.accepted[conn] = c.wr
		c.startReader()
		n.mu.Unlock()
		n.met.conns.Add(1)
	}
}

// reqBufPool recycles inbound request-frame buffers across readers. A
// reader keeps its buffer from frame to frame; one that detaches hands it
// back here once its handler returns (the handler contract, §11, says the
// payload is transport-owned and must not be retained, and the response
// has been copied into the send queue by then), and the reader started in
// its place takes one from here.
var reqBufPool = sync.Pool{New: func() any { return new([]byte) }}

// inbound is one accepted connection. Exactly one goroutine at a time reads
// it — its reader — and each request's handler runs on the reader that read
// it, so a request that never waits costs no goroutine hand-off. A handler
// about to wait calls Detach, which starts a fresh reader; the old one
// finishes its handler, writes the response and exits.
type inbound struct {
	n    *TCPNode
	conn net.Conn
	wr   *connWriter
	br   *bufio.Reader
}

// readerKey is the context key under which a handler's context carries its
// reader.
type readerKey struct{}

// reader is one goroutine's turn at reading an inbound connection, with the
// context its handlers receive and the sender ID of its last frame (both
// kept across frames, so a warm frame allocates neither). attached is set
// while a handler runs on the reader; Detach clears it, and a reader that
// finds it cleared when its handler returns has been replaced and exits.
type reader struct {
	c        *inbound
	ctx      context.Context
	from     ring.NodeID
	attached atomic.Bool
}

// startReader starts a reader goroutine on c. The caller holds n.mu or runs
// on a goroutine n.wg counts, so Close's Wait cannot miss it.
func (c *inbound) startReader() {
	rd := &reader{c: c}
	rd.ctx = context.WithValue(context.Background(), readerKey{}, rd)
	c.n.wg.Add(1)
	go rd.run()
}

// Detach tells the transport that the handler serving ctx is about to wait
// on something other than the CPU — a nested RPC, an fsync, a long match.
// Inside a TCP handler it hands the connection's reading to a fresh
// goroutine, so the requests behind this one are read and served while it
// waits; at most once per frame, and the later calls are free. Outside a
// TCP handler (memnet, a client's own context) it does nothing.
func Detach(ctx context.Context) {
	rd, _ := ctx.Value(readerKey{}).(*reader)
	if rd != nil && rd.attached.CompareAndSwap(true, false) {
		rd.c.startReader()
	}
}

// run reads request frames and serves each on this goroutine until a read
// fails (the connection is then torn down) or a handler detaches.
func (rd *reader) run() {
	c := rd.c
	defer c.n.wg.Done()
	bp := reqBufPool.Get().(*[]byte)
	defer reqBufPool.Put(bp)
	for {
		req, err := frame.Read(c.br, bp, maxFrame)
		if err != nil {
			c.wr.closeWith(ErrClosed)
			c.n.met.conns.Add(-1)
			c.n.mu.Lock()
			delete(c.n.accepted, c.conn)
			c.n.mu.Unlock()
			return
		}
		rd.attached.Store(true)
		rd.handleFrame(req)
		if !rd.attached.CompareAndSwap(true, false) {
			return // detached: another reader owns the connection now
		}
	}
}

// handleFrame serves one request frame. A frame whose request ID parses but
// whose remainder does not is answered with the decode error, so the caller
// fails now rather than at its deadline; one whose ID does not parse has no
// caller to answer and leaves the stream untrustworthy, so the connection is
// closed and every call pending on it fails on the peer as ErrNodeDown.
func (rd *reader) handleFrame(req []byte) {
	r := codec.NewReader(req)
	reqID, err := r.Uvarint()
	if err != nil {
		rd.c.wr.closeWith(fmt.Errorf("transport: request id: %w", err))
		return
	}
	resp, herr := rd.serve(r)

	// The response framing buffer is pooled: send copies its bytes into
	// the connection's send queue before returning, so the writer may be
	// recycled immediately. (resp itself is handler-owned and merely copied
	// through.)
	w := codec.GetWriter()
	w.Uvarint(reqID)
	if herr != nil {
		w.Uint8(1)
		w.String(herr.Error())
	} else {
		w.Uint8(0)
		w.Bytes0(resp)
	}
	_ = rd.c.wr.send(w.Bytes())
	codec.PutWriter(w)
}

// serve decodes the rest of a request frame — sender and body — and runs the
// handler on it.
func (rd *reader) serve(r *codec.Reader) ([]byte, error) {
	from, err := r.Bytes0()
	if err != nil {
		return nil, fmt.Errorf("transport: malformed request: sender: %w", err)
	}
	body, err := r.Bytes0()
	if err != nil {
		return nil, fmt.Errorf("transport: malformed request: body: %w", err)
	}
	if string(from) != string(rd.from) { // a connection carries one sender
		rd.from = ring.NodeID(from)
	}
	return rd.c.n.handler(rd.ctx, rd.from, body)
}

// Send implements Transport.
func (n *TCPNode) Send(ctx context.Context, to ring.NodeID, payload []byte) ([]byte, error) {
	c, err := n.conn(to)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, n.id, payload)
	if err != nil {
		// A broken connection is evicted (only its stripe) so a later Send
		// redials it; the peer's other stripes keep serving.
		if !errors.Is(err, ErrRemote) && !errors.Is(err, errMalformedResponse) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			n.evict(to, c)
		}
		return nil, err
	}
	return resp, nil
}

// conn picks a striped connection to the peer, dialing its slot lazily.
func (n *TCPNode) conn(to ring.NodeID) (*tcpConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	p, ok := n.pools[to]
	if !ok {
		p = newPeerPool(n, to)
		n.pools[to] = p
	}
	n.mu.Unlock()
	return p.get()
}

func (n *TCPNode) evict(to ring.NodeID, c *tcpConn) {
	n.mu.Lock()
	p := n.pools[to]
	n.mu.Unlock()
	if p != nil {
		p.evict(c)
	}
	c.close(ErrNodeDown)
}

// peerPool holds the striped outbound connections to one peer. Slots dial
// lazily under a single-flight mutex; a per-peer breaker (threshold 1)
// turns a dead peer into fast ErrNodeDown failures for DialBackoff instead
// of a redial storm from every concurrent Send.
type peerPool struct {
	n      *TCPNode
	to     ring.NodeID
	rr     atomic.Uint32
	redial *resilience.Breaker

	dialMu sync.Mutex // single-flight: one dial to this peer at a time

	mu    sync.Mutex
	conns []*tcpConn // len == stripe count; nil slots not yet dialed
}

func newPeerPool(n *TCPNode, to ring.NodeID) *peerPool {
	return &peerPool{n: n, to: to, conns: make([]*tcpConn, n.opts.Conns), redial: resilience.NewBreaker(resilience.BreakerConfig{
		Threshold:      1,
		Cooldown:       n.opts.DialBackoff,
		HalfOpenProbes: 1,
	})}
}

func (p *peerPool) get() (*tcpConn, error) {
	slot := int(p.rr.Add(1)) % len(p.conns)
	p.mu.Lock()
	c := p.conns[slot]
	p.mu.Unlock()
	if c != nil {
		return c, nil
	}
	return p.dial(slot)
}

func (p *peerPool) dial(slot int) (*tcpConn, error) {
	p.dialMu.Lock()
	defer p.dialMu.Unlock()
	p.mu.Lock()
	if c := p.conns[slot]; c != nil {
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()

	if !p.redial.Allow() {
		p.n.met.redialSuppressed.Inc()
		return nil, fmt.Errorf("dial %s suppressed by backoff: %w", p.to, ErrNodeDown)
	}
	addr, err := p.n.resolver(p.to)
	if err != nil {
		p.redial.RecordFailure()
		return nil, err
	}
	p.n.met.dials.Inc()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		p.n.met.dialFailures.Inc()
		p.redial.RecordFailure()
		return nil, fmt.Errorf("dial %s (%s): %w", p.to, addr, ErrNodeDown)
	}
	p.redial.RecordSuccess()
	c := newTCPConn(raw, p.n.met)

	n := p.n
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.close(ErrClosed)
		return nil, ErrClosed
	}
	p.mu.Lock()
	p.conns[slot] = c
	p.mu.Unlock()
	n.mu.Unlock()
	n.met.conns.Add(1)
	return c, nil
}

// evict clears the broken connection's stripe only.
func (p *peerPool) evict(c *tcpConn) {
	p.mu.Lock()
	for i, cc := range p.conns {
		if cc == c {
			p.conns[i] = nil
		}
	}
	p.mu.Unlock()
}

// drain empties every stripe and returns the live connections.
func (p *peerPool) drain() []*tcpConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*tcpConn
	for i, c := range p.conns {
		if c != nil {
			out = append(out, c)
			p.conns[i] = nil
		}
	}
	return out
}

// snapshot returns the live connections without clearing them.
func (p *peerPool) snapshot() []*tcpConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*tcpConn
	for _, c := range p.conns {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// tcpConn is one striped outbound connection with pipelined round trips. It
// has no goroutine of its own: a caller waiting for its response reads the
// connection itself whenever no other caller is reading (leader/follower).
// The reader hands each response it reads for another caller to that
// caller's waiter and returns with its own, so a response read by the caller
// that waits for it crosses no goroutine. A reader whose own response
// arrived, or whose context ended, passes the reading to one parked caller.
type tcpConn struct {
	raw net.Conn
	wr  *connWriter
	met *wireMetrics
	// interrupt cuts the reader's read short when its context ends: a read
	// deadline in the past. Built once per connection.
	interrupt func()

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*waiter
	reading bool // a caller is the reader; it alone touches rd
	err     error

	rd frameReader

	closeOnce sync.Once
}

// Waiter states, guarded by tcpConn.mu.
const (
	waitSending   = iota // request not yet queued: may be answered or failed, never made the reader
	waitParked           // waits on its channel for any signal, the reading included
	waitSignalled        // one signal is committed to the channel, or the caller reads: send nothing more
)

// waiter is one call's slot in pending. Its channel carries at most one
// signal: the response, the connection's failure, or the reading.
type waiter struct {
	ch    chan result // capacity 1
	state int
}

type result struct {
	body []byte
	err  error
	lead bool // the caller is the connection's reader now
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan result, 1)} }}

// putWaiter recycles a waiter that is out of pending. Every committed signal
// has been received by then; a stale one is drained anyway, so it can never
// reach the next call.
func putWaiter(w *waiter) {
	select {
	case <-w.ch:
	default:
	}
	w.state = waitSending
	waiterPool.Put(w)
}

// errMalformedResponse fails the one call whose response frame named it but
// could not be parsed past the request ID.
var errMalformedResponse = errors.New("transport: protocol error: malformed response")

// aLongTimeAgo is the read deadline that interrupts the reader at once.
var aLongTimeAgo = time.Unix(1, 0)

func newTCPConn(raw net.Conn, met *wireMetrics) *tcpConn {
	return &tcpConn{
		raw:       raw,
		wr:        newConnWriter(raw, met),
		met:       met,
		interrupt: func() { _ = raw.SetReadDeadline(aLongTimeAgo) },
		pending:   make(map[uint64]*waiter),
		rd:        frameReader{br: bufio.NewReaderSize(raw, readBufSize)},
	}
}

// roundTrip sends payload and waits for its response: parked on its waiter
// while another caller reads, as the connection's reader otherwise.
func (c *tcpConn) roundTrip(ctx context.Context, from ring.NodeID, payload []byte) ([]byte, error) {
	wt := waiterPool.Get().(*waiter)
	defer putWaiter(wt)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = wt
	c.mu.Unlock()

	// Pooled request framing buffer: send copies the frame into the send
	// queue, so both the pooled writer and the caller's payload are free to
	// be recycled as soon as Send returns.
	w := codec.GetWriter()
	w.Uvarint(id)
	w.String(string(from))
	w.Bytes0(payload)
	err := c.wr.send(w.Bytes())
	codec.PutWriter(w)
	if err != nil {
		c.abandon(id, wt)
		return nil, fmt.Errorf("write to peer: %w", ErrNodeDown)
	}

	c.mu.Lock()
	lead := false
	switch {
	case wt.state == waitSignalled: // answered already
	case !c.reading:
		c.reading, wt.state, lead = true, waitSignalled, true
	default:
		wt.state = waitParked
	}
	c.mu.Unlock()
	for !lead {
		select {
		case res := <-wt.ch:
			if !res.lead {
				return res.body, res.err
			}
			lead = true
		case <-ctx.Done():
			c.abandon(id, wt)
			return nil, ctx.Err()
		}
	}
	var stop func() bool
	if ctx.Done() != nil { // a context that can end: AfterFunc's cost only then
		stop = context.AfterFunc(ctx, c.interrupt)
	}
	body, err := c.readFor(ctx, id)
	if stop != nil {
		stop()
	}
	c.pass(id)
	return body, err
}

// readFor reads response frames as the connection's reader until the one
// for id arrives, the context ends or the connection fails. Frames for other
// callers go to their waiters; frames for abandoned calls are dropped.
func (c *tcpConn) readFor(ctx context.Context, id uint64) ([]byte, error) {
	for {
		resp, err := c.rd.next()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			// This reader's interrupt, or a former reader's that fired too
			// late to be stopped: clear it, and read on while ctx is live.
			_ = c.raw.SetReadDeadline(time.Time{})
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		if err != nil {
			return nil, c.close(fmt.Errorf("connection lost: %w", ErrNodeDown))
		}
		r := codec.NewReader(resp)
		rid, err := r.Uvarint()
		if err != nil {
			// No caller can be named, and a peer that writes this may have
			// written anything: fail them all now, not at their deadlines.
			return nil, c.close(fmt.Errorf("unreadable response id (%v): %w", err, ErrNodeDown))
		}
		body, err := decodeResponse(r)
		if rid == id {
			return copyBody(body, err), err
		}
		c.mu.Lock()
		wt, ok := c.pending[rid]
		if ok {
			delete(c.pending, rid)
			wt.state = waitSignalled
		}
		c.mu.Unlock()
		if ok {
			wt.ch <- result{body: copyBody(body, err), err: err}
		}
	}
}

// copyBody copies a response body out of the reader's frame buffer, which
// the next frame overwrites: response bytes transfer to the caller and never
// alias transport buffers (§11).
func copyBody(body []byte, err error) []byte {
	if err != nil || body == nil {
		return nil
	}
	return append([]byte(nil), body...)
}

// abandon withdraws a call that stops waiting for its response. A signal
// already committed to its waiter is taken off the channel, and the reading,
// if that is what it was, passed on.
func (c *tcpConn) abandon(id uint64, wt *waiter) {
	c.mu.Lock()
	delete(c.pending, id)
	committed := wt.state == waitSignalled
	c.mu.Unlock()
	if committed && (<-wt.ch).lead {
		c.pass(id)
	}
}

// pass ends the reader's turn, which was call id's: the reading goes to one
// parked caller, or, with none parked, to whichever caller parks next.
func (c *tcpConn) pass(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	var next *waiter
	for _, wt := range c.pending {
		if wt.state == waitParked {
			next = wt
			break
		}
	}
	if next != nil {
		next.state = waitSignalled
	} else {
		c.reading = false
	}
	c.mu.Unlock()
	if next != nil {
		next.ch <- result{lead: true}
	}
}

// frameReader reads frames with frame.Read's checks — the length bound
// before anything is allocated, a minimal prefix — but keeps its place when
// a read deadline cuts a frame short: the prefix is consumed only once it is
// whole, and the payload bytes read so far stay in cur, so the next reader
// resumes mid-frame.
type frameReader struct {
	br   *bufio.Reader
	buf  []byte // kept across frames
	cur  []byte // the frame being read: buf, or a one-shot buffer for a giant
	got  int    // bytes of cur read so far
	open bool   // a prefix has been consumed and cur is not yet full
}

// retainMax is frame.Read's bound on a buffer kept across frames.
const retainMax = 1 << 20

// next returns the next frame's payload, valid until the following call.
func (r *frameReader) next() ([]byte, error) {
	if !r.open {
		size, err := r.readLen()
		if err != nil {
			return nil, err
		}
		if cap(r.buf) >= size {
			r.cur = r.buf[:size]
		} else {
			r.cur = make([]byte, size)
			if size <= retainMax {
				r.buf = r.cur
			}
		}
		r.got, r.open = 0, true
	}
	n, err := io.ReadFull(r.br, r.cur[r.got:])
	r.got += n
	if err != nil {
		return nil, err
	}
	r.open = false
	return r.cur, nil
}

// readLen peeks the uvarint length prefix and consumes it only once it
// settles the length.
func (r *frameReader) readLen() (int, error) {
	var n uint64
	for i := 1; i <= binary.MaxVarintLen64; i++ {
		p, err := r.br.Peek(i)
		if err != nil {
			if i > 1 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		b := p[i-1]
		n |= uint64(b&0x7f) << (7 * (i - 1))
		if n > maxFrame {
			return 0, fmt.Errorf("frame: header announces at least %d bytes, limit %d", n, maxFrame)
		}
		if b < 0x80 {
			if i > 1 && b == 0 {
				return 0, fmt.Errorf("frame: length %d in a non-minimal %d-byte prefix", n, i)
			}
			_, _ = r.br.Discard(i)
			return int(n), nil
		}
	}
	return 0, fmt.Errorf("frame: length prefix longer than %d bytes", binary.MaxVarintLen64)
}

// decodeResponse parses a response frame after its request ID: the body
// (aliasing the frame) on status 0, the peer's handler error as ErrRemote
// otherwise. A frame that is neither fails its one caller with
// errMalformedResponse; the stream's framing is intact, so the connection
// and the calls pipelined beside it carry on.
func decodeResponse(r *codec.Reader) ([]byte, error) {
	status, err := r.Uint8()
	if err != nil {
		return nil, fmt.Errorf("%w: status: %v", errMalformedResponse, err)
	}
	if status == 0 {
		body, err := r.Bytes0()
		if err != nil {
			return nil, fmt.Errorf("%w: body: %v", errMalformedResponse, err)
		}
		return body, nil
	}
	msg, err := r.String()
	if err != nil {
		return nil, fmt.Errorf("%w: error text: %v", errMalformedResponse, err)
	}
	return nil, fmt.Errorf("%w: %s", ErrRemote, msg)
}

// close fails every pending call with the connection's first error, tears
// the connection down and returns that error. A call that is the reader, or
// is being made it, is not sent to: its read fails on the closed socket.
func (c *tcpConn) close(err error) error {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	for id, wt := range c.pending {
		delete(c.pending, id)
		if wt.state != waitSignalled {
			wt.state = waitSignalled
			wt.ch <- result{err: err} // the channel is empty: this cannot block
		}
	}
	c.mu.Unlock()
	c.wr.closeWith(err)
	c.closeOnce.Do(func() { c.met.conns.Add(-1) })
	return err
}
