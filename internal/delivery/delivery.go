// Package delivery implements the end-to-end subscriber delivery tier: the
// last mile from a deduplicated match set to the subscribers that asked for
// it. Each subscriber has one Session — a bounded queue of matched-document
// notifications, a per-session monotonic sequence numbering, and a bounded
// replay window of sent-but-unacked events — owned by the Hub on the home
// node of "subscriber/<name>". Sessions survive disconnects: a reconnect
// resumes at the first unacked sequence number and the window is redelivered
// (at-least-once). When a consumer cannot keep up, a configurable
// slow-consumer policy (drop-oldest, coalesce-by-doc, disconnect) decides
// what the bounded queue sheds, and every shed event is counted and reported
// so delivery loss is always accounted for, never silent.
//
// The hub holds every session of one node (DESIGN.md §16): the session
// registry is lock-striped into power-of-two shards, each shard has its own
// ready ring that flush workers drain (stealing from sibling shards when
// their own is dry), the warm enqueue→flush path recycles Event objects
// through a pool so steady-state delivery allocates nothing, and connections
// that implement Flusher coalesce consecutive event frames into one syscall.
package delivery

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/movesys/move/internal/frame"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
)

// Policy selects what a subscriber's bounded delivery queue sheds when it
// overflows (slow-consumer handling, DESIGN.md §14).
type Policy int

const (
	// DropOldest evicts the oldest queued (not-yet-sent) event to admit the
	// new one. Sent-but-unacked events are never evicted by this policy.
	DropOldest Policy = iota
	// CoalesceByDoc merges notifications for the same document into one
	// queued event (filter-ID union) at enqueue time — one notification per
	// document per subscriber. On overflow with no same-document event to
	// merge into, it falls back to DropOldest.
	CoalesceByDoc
	// Disconnect terminates the session on overflow: the connection is told
	// why and closed, every queued and unacked event is dropped (and
	// accounted), and further notifications are dropped until the
	// subscriber reconnects.
	Disconnect
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case CoalesceByDoc:
		return "coalesce-by-doc"
	case Disconnect:
		return "disconnect"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses a flag spelling ("drop-oldest", "coalesce-by-doc",
// "disconnect").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "drop-oldest":
		return DropOldest, nil
	case "coalesce-by-doc":
		return CoalesceByDoc, nil
	case "disconnect":
		return Disconnect, nil
	default:
		return 0, fmt.Errorf("delivery: unknown policy %q", s)
	}
}

// State is a session's lifecycle state.
type State int

const (
	// StateDetached: no connection; the queue accumulates for a reconnect.
	StateDetached State = iota
	// StateAttached: connection live, events flowing.
	StateAttached
	// StateClosed: terminated by the Disconnect policy. Notifications are
	// dropped (and counted) until the subscriber reconnects.
	StateClosed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateDetached:
		return "detached"
	case StateAttached:
		return "attached"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Drop reasons passed to Config.OnDrop.
const (
	// DropReasonOldest: evicted from a full queue by DropOldest (or the
	// CoalesceByDoc fallback).
	DropReasonOldest = "drop-oldest"
	// DropReasonDisconnect: shed when the Disconnect policy killed the
	// session (queued and unacked events alike).
	DropReasonDisconnect = "disconnect"
	// DropReasonClosed: arrived while the session was policy-closed.
	DropReasonClosed = "closed"
)

// Event is one matched-document notification bound for a subscriber. Seq is
// zero while queued and assigned from the session's monotonic counter when
// the event is first sent.
//
// Events are pooled: once every copy a subscriber could receive has been
// acknowledged, the hub recycles the object. Conn implementations must not
// retain *Event pointers (or their Filters slices) past the SendEvents call —
// copy what outlives the call.
type Event struct {
	Seq     uint64
	DocID   uint64
	Filters []model.FilterID
	Terms   []string

	enqueuedAt time.Time
	sentAt     time.Time
}

// HelloInfo is what the server tells a subscriber on attach: where the
// cumulative ack cursor landed after applying the client's resume ack, the
// next fresh sequence number, and how many unacked events are about to be
// redelivered.
type HelloInfo struct {
	AckSeq    uint64
	NextSeq   uint64
	Redeliver int
}

// Conn is the server-side sink of one subscriber connection. Implementations
// must be safe for concurrent use (the flush workers and the janitor both
// write). Any SendEvents error detaches the session: the hub closes the
// connection and keeps the unacked window for the next attach to replay.
// Events handed to SendEvents are owned by the hub and recycled after
// acknowledgement: a Conn must not retain the slice, the *Event pointers, or
// their Filters slices beyond the call.
type Conn interface {
	SendHello(info HelloInfo) error
	SendEvents(evs []*Event) error
	SendPing() error
	SendBye(reason string) error
	Close() error
}

// Flusher is implemented by Conns that buffer event frames (the coalescing
// TCP writer). The hub calls Flush once at the end of every flush round so
// frames buffered across consecutive SendEvents calls hit the wire in one
// syscall. A Flush error detaches the session like a SendEvents error.
type Flusher interface {
	Flush() error
}

// DefaultShards is the default power-of-two shard count for the session
// registry, mirroring internal/index's striping.
const DefaultShards = 32

// idleHeartbeats is the idle timeout in heartbeat intervals: a connection
// with no inbound activity for this many is detached.
const idleHeartbeats = 4

// Config parameterizes a Hub.
type Config struct {
	// QueueCap bounds each session's not-yet-sent queue; overflow invokes
	// Policy. Default 256.
	QueueCap int
	// Policy is the slow-consumer policy. Default DropOldest.
	Policy Policy
	// WindowCap bounds the sent-but-unacked replay window. A full window
	// pauses sending (flow control), letting the queue absorb the backlog
	// until the policy sheds it. Default 1024.
	WindowCap int
	// FlushBatch caps events per SendEvents call. Default 64.
	FlushBatch int
	// Workers is the flush worker-pool size. Default GOMAXPROCS; negative
	// disables the pool entirely (tests drive Session.flush directly).
	Workers int
	// Shards is the session-registry stripe count, rounded up to a power of
	// two. Default DefaultShards.
	Shards int
	// HeartbeatEvery is the janitor cadence: every interval, connections
	// quiet for an interval are pinged and a connection with no inbound
	// activity (hello, ack, pong) for idleHeartbeats intervals is detached.
	// Zero disables the janitor.
	HeartbeatEvery time.Duration
	// Metrics receives the delivery.* counters and histograms; nil creates
	// a private registry.
	Metrics *metrics.Registry
	// Clock overrides time.Now (tests).
	Clock func() time.Time
	// OnDrop, if set, is invoked for every event shed by a policy — the
	// accounting hook the oracle-equivalence suite uses to prove no loss is
	// silent.
	OnDrop func(sub string, docID uint64, reason string)
}

// shard is one stripe of the session registry plus its ready ring: mu guards
// the sub→session map and rmu the ring of sessions awaiting a flush worker.
type shard struct {
	mu       sync.RWMutex
	sessions map[string]*Session

	rmu   sync.Mutex
	ring  []*Session
	rhead int
}

// list copies the shard's sessions out under the read lock, so callers can
// lock each session without holding the stripe.
func (sh *shard) list() []*Session {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sessions := make([]*Session, 0, len(sh.sessions))
	for _, s := range sh.sessions {
		sessions = append(sessions, s)
	}
	return sessions
}

// Hub owns every subscriber session on one node: it enqueues notifications,
// schedules flushes over a fixed worker pool (no per-session goroutines),
// and sweeps heartbeats and idle timeouts. Sessions are striped across
// power-of-two shards; each worker drains its home shard's ready ring first
// and steals from sibling shards when idle.
type Hub struct {
	cfg Config
	reg *metrics.Registry
	now func() time.Time

	shards    []*shard
	shardMask uint32

	// Worker parking: idle workers push a buffered(1) wake channel onto
	// parked and block on it; schedulers pop one and signal. readyN counts
	// ring entries across all shards, nparked mirrors len(parked) so the
	// all-workers-busy enqueue path skips the park lock entirely.
	parkMu  sync.Mutex
	parked  []chan struct{}
	nparked atomic.Int32
	readyN  atomic.Int64
	stopped atomic.Bool

	wg     sync.WaitGroup
	stopCh chan struct{}

	eventPool   sync.Pool // *Event
	batchPool   sync.Pool // *[]*Event
	scratchPool sync.Pool // *deliverScratch

	sessionsG    *metrics.Counter
	attachedG    *metrics.Counter
	enqueuedC    *metrics.Counter
	deliveredC   *metrics.Counter
	redeliveredC *metrics.Counter
	ackedC       *metrics.Counter
	dropOldestC  *metrics.Counter
	dropDisconnC *metrics.Counter
	coalescedC   *metrics.Counter
	idleKicksC   *metrics.Counter
	replacedC    *metrics.Counter
	flushStats   *frame.FlushStats // delivery.flush.{frames,syscalls,frames_per_syscall,bytes}
	flushBytesC  *metrics.Counter  // delivery.flush.bytes.total (wireConn writes only)
	shardsGauge  *metrics.Gauge
	hQueueDepth  *metrics.Histogram
	hAckLatency  *metrics.Histogram
	hFlushBatch  *metrics.Histogram
}

// NewHub builds and starts a hub: Workers flush goroutines plus, when
// HeartbeatEvery > 0, one janitor goroutine.
func NewHub(cfg Config) *Hub {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.WindowCap <= 0 {
		cfg.WindowCap = 1024
	}
	if cfg.FlushBatch <= 0 {
		cfg.FlushBatch = 64
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	cfg.Shards = ceilPow2(cfg.Shards)
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	h := &Hub{
		cfg:          cfg,
		reg:          reg,
		now:          now,
		shards:       make([]*shard, cfg.Shards),
		shardMask:    uint32(cfg.Shards - 1),
		stopCh:       make(chan struct{}),
		sessionsG:    reg.Counter("delivery.sessions"),
		attachedG:    reg.Counter("delivery.attached"),
		enqueuedC:    reg.Counter("delivery.enqueued"),
		deliveredC:   reg.Counter("delivery.delivered"),
		redeliveredC: reg.Counter("delivery.redelivered"),
		ackedC:       reg.Counter("delivery.acked"),
		dropOldestC:  reg.Counter("delivery.drops.oldest"),
		dropDisconnC: reg.Counter("delivery.drops.disconnect"),
		coalescedC:   reg.Counter("delivery.coalesced"),
		idleKicksC:   reg.Counter("delivery.kicks.idle"),
		replacedC:    reg.Counter("delivery.kicks.replaced"),
		flushStats: frame.NewFlushStats(reg, "delivery.flush.frames", "delivery.flush.syscalls",
			"delivery.flush.frames_per_syscall", "delivery.flush.bytes"),
		flushBytesC: reg.Counter("delivery.flush.bytes.total"),
		shardsGauge: reg.Gauge("delivery.shards"),
		hQueueDepth: reg.Histogram("delivery.queue.depth"),
		hAckLatency: reg.Histogram("delivery.ack.latency"),
		hFlushBatch: reg.Histogram("delivery.flush.batch"),
	}
	for i := range h.shards {
		h.shards[i] = &shard{sessions: make(map[string]*Session)}
	}
	h.shardsGauge.Set(int64(cfg.Shards))
	h.batchPool.New = func() any {
		b := make([]*Event, 0, cfg.FlushBatch)
		return &b
	}
	for i := 0; i < cfg.Workers; i++ {
		h.wg.Add(1)
		go h.worker(i)
	}
	if cfg.HeartbeatEvery > 0 {
		h.wg.Add(1)
		go h.janitor()
	}
	return h
}

// ceilPow2 rounds n up to the next power of two (n >= 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardIndex stripes a subscriber name across the shards (FNV-1a, the same
// hash discipline as internal/index's term shards).
func (h *Hub) shardIndex(sub string) uint32 {
	hash := uint32(2166136261)
	for i := 0; i < len(sub); i++ {
		hash ^= uint32(sub[i])
		hash *= 16777619
	}
	return hash & h.shardMask
}

// Metrics exposes the hub's registry.
func (h *Hub) Metrics() *metrics.Registry { return h.reg }

// Policy returns the configured slow-consumer policy.
func (h *Hub) Policy() Policy { return h.cfg.Policy }

// Shards returns the (power-of-two) shard count the hub runs with.
func (h *Hub) Shards() int { return len(h.shards) }

// ShardSessions returns the per-shard session counts — the striping balance
// view /healthz and tests use.
func (h *Hub) ShardSessions() []int {
	counts := make([]int, len(h.shards))
	for i, sh := range h.shards {
		sh.mu.RLock()
		counts[i] = len(sh.sessions)
		sh.mu.RUnlock()
	}
	return counts
}

// Stop terminates the workers and the janitor, drains every shard's
// ready ring, and closes every attached connection. Queued events are
// retained in memory until the hub is garbage-collected; Stop is a
// process-shutdown path, not a flush barrier.
func (h *Hub) Stop() {
	if !h.stopped.CompareAndSwap(false, true) {
		return
	}
	// Barrier: every schedule() checks stopped inside the ring lock, so
	// after locking and releasing each ring here, any concurrent push has
	// either landed (and will be drained below) or seen stopped and bailed.
	for _, sh := range h.shards {
		sh.rmu.Lock()
		sh.rmu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	}
	close(h.stopCh)
	// Wake every parked worker so it can observe stopped and exit; workers
	// drain the remaining ready entries on their way out.
	h.parkMu.Lock()
	for _, c := range h.parked {
		c <- struct{}{}
	}
	h.parked = nil
	h.nparked.Store(0)
	h.parkMu.Unlock()

	for _, sh := range h.shards {
		for _, s := range sh.list() {
			s.mu.Lock()
			conn := s.detachLocked()
			s.mu.Unlock()
			if conn != nil {
				_ = conn.Close()
			}
		}
	}
	h.wg.Wait()
	// With the workers gone, clear whatever the rings still hold so no
	// session is left marked scheduled.
	for _, sh := range h.shards {
		sh.rmu.Lock()
		for i := sh.rhead; i < len(sh.ring); i++ {
			sh.ring[i].scheduled.Store(false)
			sh.ring[i] = nil
			h.readyN.Add(-1)
		}
		sh.ring, sh.rhead = sh.ring[:0], 0
		sh.rmu.Unlock()
	}
}

// session returns the subscriber's session, creating a detached one on first
// reference — notifications routed here before the subscriber ever connects
// queue up for its first attach.
func (h *Hub) session(sub string) *Session {
	sh := h.shards[h.shardIndex(sub)]
	sh.mu.RLock()
	s := sh.sessions[sub]
	sh.mu.RUnlock()
	if s != nil {
		return s
	}
	sh.mu.Lock()
	s = h.createLocked(sh, sub)
	sh.mu.Unlock()
	return s
}

// createLocked adds (or finds) sub's session in sh. Requires sh.mu held for
// writing.
func (h *Hub) createLocked(sh *shard, sub string) *Session {
	if s := sh.sessions[sub]; s != nil {
		return s
	}
	s := &Session{hub: h, sub: sub, shard: sh}
	if h.cfg.Policy == CoalesceByDoc {
		s.byDoc = make(map[uint64]*Event)
	}
	sh.sessions[sub] = s
	// Add, not Set: several hubs may share one registry (one per cluster
	// node), and the counter is the cluster-wide session total.
	h.sessionsG.Add(1)
	return s
}

// Session returns the subscriber's session if one exists.
func (h *Hub) Session(sub string) (*Session, bool) {
	sh := h.shards[h.shardIndex(sub)]
	sh.mu.RLock()
	s, ok := sh.sessions[sub]
	sh.mu.RUnlock()
	return s, ok
}

// Deliver enqueues one notification for a subscriber: the document matched
// at least one of the subscriber's filters. Terms may alias the decoded wire
// payload — events never mutate it.
func (h *Hub) Deliver(sub string, docID uint64, filters []model.FilterID, terms []string) {
	h.session(sub).enqueue(docID, filters, terms)
}

// deliverScratch is the pooled workspace of one DeliverBatch call: bySh
// groups notification indexes by shard, sess holds the resolved session per
// notification.
type deliverScratch struct {
	bySh [][]int32
	sess []*Session
}

// DeliverBatch enqueues one document's notifications for many subscribers at
// once — the session-owner side of a msgDeliverBatch frame. Lookups are
// grouped by registry shard so a thousand-subscriber fan-out takes one
// read-lock acquisition per touched shard instead of one per subscriber.
func (h *Hub) DeliverBatch(docID uint64, terms []string, notifs []Notification) {
	if len(notifs) == 0 {
		return
	}
	var sc *deliverScratch
	if v := h.scratchPool.Get(); v != nil {
		sc = v.(*deliverScratch)
	} else {
		sc = &deliverScratch{}
	}
	if len(sc.bySh) < len(h.shards) {
		sc.bySh = make([][]int32, len(h.shards))
	}
	if cap(sc.sess) < len(notifs) {
		sc.sess = make([]*Session, len(notifs))
	}
	sess := sc.sess[:len(notifs)]
	for i := range notifs {
		si := h.shardIndex(notifs[i].Sub)
		sc.bySh[si] = append(sc.bySh[si], int32(i))
	}
	for si := range sc.bySh {
		idxs := sc.bySh[si]
		if len(idxs) == 0 {
			continue
		}
		sh := h.shards[si]
		miss := false
		sh.mu.RLock()
		for _, i := range idxs {
			s := sh.sessions[notifs[i].Sub]
			sess[i] = s
			if s == nil {
				miss = true
			}
		}
		sh.mu.RUnlock()
		if miss {
			sh.mu.Lock()
			for _, i := range idxs {
				if sess[i] == nil {
					sess[i] = h.createLocked(sh, notifs[i].Sub)
				}
			}
			sh.mu.Unlock()
		}
		sc.bySh[si] = idxs[:0]
	}
	for i := range notifs {
		sess[i].enqueue(docID, notifs[i].Filters, terms)
		sess[i] = nil
	}
	h.scratchPool.Put(sc)
}

// Ack applies a cumulative ack for a subscriber (in-process sinks that have
// no read loop of their own).
func (h *Hub) Ack(sub string, seq uint64) {
	if s, ok := h.Session(sub); ok {
		s.Ack(seq)
	}
}

// FlushStats is where a Conn that coalesces frames records each physical
// write (the server's wireConn through frame's WriteRound; in-process bench
// sinks through Observe), so delivery.flush.frames_per_syscall and
// delivery.flush.bytes prove the batching.
func (h *Hub) FlushStats() *frame.FlushStats { return h.flushStats }

// Attach binds a connection to the subscriber's session, applies the
// client's resume ack, sends the hello response on the connection, stages
// every still-unacked event for redelivery, and starts flushing. An existing
// connection is replaced (told "replaced" and closed) — last writer wins,
// the standard relay takeover rule.
func (h *Hub) Attach(sub string, conn Conn, resumeAck uint64) (*Session, HelloInfo, error) {
	s := h.session(sub)
	s.mu.Lock()
	old := s.detachLocked()
	if s.state == StateClosed {
		// A reconnect revives a policy-closed session; the dropped range is
		// visible to the client as the gap between its resume ack and
		// HelloInfo.NextSeq.
		s.state = StateDetached
	}
	s.ackLocked(resumeAck)
	s.resend = append(s.resend[:0], s.window[s.whead:]...)
	s.conn = conn
	s.state = StateAttached
	s.touchLocked()
	s.lastPing = s.hub.now()
	info := HelloInfo{AckSeq: s.ackSeq, NextSeq: s.sendSeq + 1, Redeliver: len(s.resend)}
	s.mu.Unlock()
	h.attachedG.Add(1)

	if old != nil {
		_ = old.SendBye("replaced")
		_ = old.Close()
		h.replacedC.Inc()
	}
	if err := conn.SendHello(info); err != nil {
		s.Detach(conn)
		return nil, HelloInfo{}, fmt.Errorf("delivery: hello to %q: %w", sub, err)
	}
	h.schedule(s)
	return s, info, nil
}

// schedule pushes a session onto its shard's ready ring. The scheduled flag
// keeps at most one ring entry per session; it is cleared by the worker
// before the flush, so an enqueue racing a flush re-schedules rather than
// getting lost.
func (h *Hub) schedule(s *Session) {
	if !s.scheduled.CompareAndSwap(false, true) {
		return
	}
	sh := s.shard
	sh.rmu.Lock()
	if h.stopped.Load() {
		sh.rmu.Unlock()
		s.scheduled.Store(false)
		return
	}
	sh.ring = append(sh.ring, s)
	h.readyN.Add(1)
	sh.rmu.Unlock()
	h.wakeOne()
}

// wakeOne unparks one idle worker, if any. The nparked fast path makes this
// a single atomic load when every worker is already busy — the steady state
// at high flush rates.
func (h *Hub) wakeOne() {
	if h.nparked.Load() == 0 {
		return
	}
	h.parkMu.Lock()
	n := len(h.parked)
	if n == 0 {
		h.parkMu.Unlock()
		return
	}
	c := h.parked[n-1]
	h.parked[n-1] = nil
	h.parked = h.parked[:n-1]
	h.nparked.Store(int32(n - 1))
	h.parkMu.Unlock()
	c <- struct{}{}
}

// popReady pops the next ready session, scanning the worker's home shard
// first and then stealing round-robin from sibling shards. Returns nil when
// every ring is empty.
func (h *Hub) popReady(home int) *Session {
	if h.readyN.Load() == 0 {
		return nil
	}
	n := len(h.shards)
	for i := 0; i < n; i++ {
		sh := h.shards[(home+i)&int(h.shardMask)]
		sh.rmu.Lock()
		if sh.rhead < len(sh.ring) {
			s := sh.ring[sh.rhead]
			sh.ring[sh.rhead] = nil
			sh.rhead++
			if sh.rhead == len(sh.ring) {
				sh.ring, sh.rhead = sh.ring[:0], 0
			}
			h.readyN.Add(-1)
			sh.rmu.Unlock()
			return s
		}
		sh.rmu.Unlock()
	}
	return nil
}

// worker is one flush goroutine: drain the home shard, steal when dry, park
// when everything is dry. The park protocol re-checks readyN after
// registering so a concurrent schedule (whose nparked read raced the
// registration) is never lost, and re-checks stopped so shutdown never
// leaves a worker parked.
func (h *Hub) worker(home int) {
	defer h.wg.Done()
	wake := make(chan struct{}, 1)
	for {
		if s := h.popReady(home); s != nil {
			s.scheduled.Store(false)
			s.flush()
			continue
		}
		if h.stopped.Load() {
			return
		}
		h.parkMu.Lock()
		h.parked = append(h.parked, wake)
		h.nparked.Store(int32(len(h.parked)))
		if h.readyN.Load() > 0 || h.stopped.Load() {
			// Work (or shutdown) arrived between the empty scan and the
			// registration: unpark ourselves. We still hold parkMu, so no
			// wakeOne can have popped (or signaled) our channel.
			h.parked = h.parked[:len(h.parked)-1]
			h.nparked.Store(int32(len(h.parked)))
			h.parkMu.Unlock()
			continue
		}
		h.parkMu.Unlock()
		<-wake
	}
}

func (h *Hub) janitor() {
	defer h.wg.Done()
	t := time.NewTicker(h.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-h.stopCh:
			return
		case <-t.C:
			h.sweep()
		}
	}
}

// sweep runs one janitor pass: a connection with no inbound activity for
// idleHeartbeats intervals is kicked (detached with a bye — the queue
// survives for a reconnect), and live connections quiet for an interval are
// pinged. Requires HeartbeatEvery > 0.
func (h *Hub) sweep() {
	every := h.cfg.HeartbeatEvery
	now := h.now()
	for _, sh := range h.shards {
		for _, s := range sh.list() {
			var kicked, ping Conn
			s.mu.Lock()
			if s.state == StateAttached {
				if now.Sub(s.lastActivity) > idleHeartbeats*every {
					kicked = s.detachLocked()
				} else if now.Sub(s.lastPing) >= every {
					s.lastPing = now
					ping = s.conn
				}
			}
			s.mu.Unlock()
			if kicked != nil {
				h.idleKicksC.Inc()
				_ = kicked.SendBye("idle-timeout")
				_ = kicked.Close()
			} else if ping != nil && ping.SendPing() != nil {
				s.dropConn(ping)
			}
		}
	}
}

// SessionSnapshot is a point-in-time view of one session, for tests,
// /healthz, and the oracle accounting suite (QueuedDocs and WindowDocs are
// the "pending in bounded queues" side of the delivery-equivalence union).
type SessionSnapshot struct {
	Sub     string
	State   State
	AckSeq  uint64
	SendSeq uint64
	Queued  int
	Window  int
	// QueuedDocs lists the DocID of every not-yet-sent event, oldest first.
	QueuedDocs []uint64
	// WindowDocs lists the DocID of every sent-but-unacked event, in
	// sequence order.
	WindowDocs []uint64
}

// Snapshot returns a session's snapshot.
func (h *Hub) Snapshot(sub string) (SessionSnapshot, bool) {
	s, ok := h.Session(sub)
	if !ok {
		return SessionSnapshot{}, false
	}
	return s.snapshot(), true
}

// Each calls fn with a snapshot of every session.
func (h *Hub) Each(fn func(SessionSnapshot)) {
	for _, sh := range h.shards {
		for _, s := range sh.list() {
			fn(s.snapshot())
		}
	}
}

// SessionCount returns the number of sessions (attached or not).
func (h *Hub) SessionCount() int {
	total := 0
	for _, sh := range h.shards {
		sh.mu.RLock()
		total += len(sh.sessions)
		sh.mu.RUnlock()
	}
	return total
}

// Pending returns the total number of queued plus unacked events across all
// sessions — the drain gauge /healthz exposes.
func (h *Hub) Pending() int {
	total := 0
	for _, sh := range h.shards {
		for _, s := range sh.list() {
			s.mu.Lock()
			total += len(s.queue) - s.qhead + len(s.window) - s.whead
			s.mu.Unlock()
		}
	}
	return total
}

// getEvent takes a recycled Event from the pool (or allocates the pool's
// first copies). Fields the caller does not set are zero.
func (h *Hub) getEvent() *Event {
	if v := h.eventPool.Get(); v != nil {
		return v.(*Event)
	}
	return &Event{}
}

// putEvent recycles an Event. Callers must guarantee no other goroutine can
// still reach it: the event was either never sent (queue drop) or every
// SendEvents that carried it has returned and the subscriber acked it.
func (h *Hub) putEvent(ev *Event) {
	ev.Seq = 0
	ev.DocID = 0
	ev.Filters = ev.Filters[:0]
	ev.Terms = nil
	ev.enqueuedAt = time.Time{}
	ev.sentAt = time.Time{}
	h.eventPool.Put(ev)
}

// Session is one subscriber's delivery state. All fields are guarded by mu;
// flushMu serializes flushes so events reach the connection in sequence
// order even when two workers pick the session up back-to-back.
type Session struct {
	hub   *Hub
	shard *shard
	sub   string

	flushMu sync.Mutex

	mu    sync.Mutex
	state State
	conn  Conn
	// queue[qhead:] holds not-yet-sent events (no Seq); the head index (with
	// reset-on-empty and bounded compaction) keeps the backing array stable
	// so the warm path never reallocates. byDoc indexes the live portion by
	// DocID under CoalesceByDoc.
	queue []*Event
	qhead int
	byDoc map[uint64]*Event
	// window[whead:] holds sent-but-unacked events in Seq order; resend
	// stages the window slice scheduled for redelivery after an attach.
	window []*Event
	whead  int
	resend []*Event
	// retired collects acked events awaiting recycling: the flush loop
	// returns them to the pool under flushMu, which serializes with any
	// SendEvents call that might still be reading them.
	retired []*Event
	// sendSeq is the last assigned sequence number; ackSeq the cumulative
	// ack cursor (everything <= ackSeq is acknowledged).
	sendSeq uint64
	ackSeq  uint64

	lastActivity time.Time
	lastPing     time.Time

	scheduled atomic.Bool
}

// Sub returns the subscriber name.
func (s *Session) Sub() string { return s.sub }

// State returns the session's current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// qlen returns the live queue length (requires mu).
func (s *Session) qlen() int { return len(s.queue) - s.qhead }

// touchLocked records inbound activity (requires mu).
func (s *Session) touchLocked() { s.lastActivity = s.hub.now() }

// Touch records inbound activity (pong frames, protocol no-ops).
func (s *Session) Touch() {
	s.mu.Lock()
	s.touchLocked()
	s.mu.Unlock()
}

// detachLocked unbinds the current connection (requires mu) and returns it
// for the caller to close outside the lock. Closed sessions stay closed.
func (s *Session) detachLocked() Conn {
	conn := s.conn
	if conn == nil {
		return nil
	}
	s.conn = nil
	s.resend = nil
	if s.state != StateClosed {
		s.state = StateDetached
	}
	s.hub.attachedG.Add(-1)
	return conn
}

// Detach unbinds conn if it is still the session's current connection (the
// server's read loop calls this when the socket dies). The caller owns
// closing conn.
func (s *Session) Detach(conn Conn) {
	s.mu.Lock()
	if s.conn == conn {
		_ = s.detachLocked()
	}
	s.mu.Unlock()
}

// dropConn detaches and closes conn after a failed write, if it is still the
// session's connection; one already replaced or detached was closed by
// whoever did that. The unacked window stays for the next attach.
func (s *Session) dropConn(conn Conn) {
	s.mu.Lock()
	current := s.conn == conn
	if current {
		_ = s.detachLocked()
	}
	s.mu.Unlock()
	if current {
		_ = conn.Close()
	}
}

// enqueue admits one notification, applying the slow-consumer policy on
// overflow, and schedules a flush when a connection is attached.
func (s *Session) enqueue(docID uint64, filters []model.FilterID, terms []string) {
	h := s.hub
	var droppedEv *Event
	var killed Conn

	s.mu.Lock()
	if s.state == StateClosed {
		s.mu.Unlock()
		h.dropDisconnC.Inc()
		if h.cfg.OnDrop != nil {
			h.cfg.OnDrop(s.sub, docID, DropReasonClosed)
		}
		return
	}
	if s.byDoc != nil {
		if ev, ok := s.byDoc[docID]; ok {
			ev.Filters = mergeFilterIDs(ev.Filters, filters)
			s.mu.Unlock()
			h.coalescedC.Inc()
			return
		}
	}
	if s.qlen() >= h.cfg.QueueCap {
		switch h.cfg.Policy {
		case Disconnect:
			killed = s.detachLocked()
			dropped := s.shedAllLocked()
			s.state = StateClosed
			s.mu.Unlock()
			h.dropDisconnC.Add(int64(len(dropped) + 1))
			if h.cfg.OnDrop != nil {
				for _, ev := range dropped {
					h.cfg.OnDrop(s.sub, ev.DocID, DropReasonDisconnect)
				}
				h.cfg.OnDrop(s.sub, docID, DropReasonDisconnect)
			}
			if killed != nil {
				_ = killed.SendBye("slow-consumer: " + DropReasonDisconnect)
				_ = killed.Close()
			}
			return
		default: // DropOldest, and the CoalesceByDoc fallback
			droppedEv = s.queue[s.qhead]
			s.queue[s.qhead] = nil
			s.qhead++
			if s.byDoc != nil {
				delete(s.byDoc, droppedEv.DocID)
			}
		}
	}
	ev := h.getEvent()
	ev.DocID = docID
	ev.Filters = append(ev.Filters[:0], filters...)
	ev.Terms = terms
	ev.enqueuedAt = h.now()
	s.appendQueueLocked(ev)
	if s.byDoc != nil {
		s.byDoc[docID] = ev
	}
	depth := s.qlen()
	ready := s.state == StateAttached
	s.mu.Unlock()

	h.enqueuedC.Inc()
	h.hQueueDepth.Observe(time.Duration(depth))
	if droppedEv != nil {
		docID := droppedEv.DocID
		// Never sent, so no other goroutine can hold it: recycle now.
		h.putEvent(droppedEv)
		h.dropOldestC.Inc()
		if h.cfg.OnDrop != nil {
			h.cfg.OnDrop(s.sub, docID, DropReasonOldest)
		}
	}
	if ready {
		h.schedule(s)
	}
}

// appendQueueLocked appends to the queue tail, compacting the head-index gap
// first when it has grown past QueueCap (requires mu). The compaction keeps
// the backing array bounded at ~2x QueueCap without ever reallocating on the
// warm path.
func (s *Session) appendQueueLocked(ev *Event) {
	if s.qhead > 0 {
		if s.qhead == len(s.queue) {
			s.queue, s.qhead = s.queue[:0], 0
		} else if s.qhead >= s.hub.cfg.QueueCap {
			n := copy(s.queue, s.queue[s.qhead:])
			for i := n; i < len(s.queue); i++ {
				s.queue[i] = nil
			}
			s.queue, s.qhead = s.queue[:n], 0
		}
	}
	s.queue = append(s.queue, ev)
}

// shedAllLocked empties the queue and window (requires mu) and returns the
// shed events: the queue plus the unacked window. Resend entries alias
// window entries, so the window alone covers them. The shed events are NOT
// recycled — window events may still be referenced by an in-flight
// SendEvents, so they are left to the garbage collector (disconnects are the
// cold path).
func (s *Session) shedAllLocked() []*Event {
	shed := make([]*Event, 0, s.qlen()+len(s.window)-s.whead)
	shed = append(shed, s.queue[s.qhead:]...)
	shed = append(shed, s.window[s.whead:]...)
	s.queue, s.qhead = nil, 0
	s.window, s.whead = nil, 0
	s.resend = nil
	if s.byDoc != nil {
		clear(s.byDoc)
	}
	return shed
}

// flushableLocked reports whether a flush would send anything (requires mu).
func (s *Session) flushableLocked() bool {
	if len(s.resend) > 0 {
		return true
	}
	return s.qlen() > 0 && len(s.window)-s.whead < s.hub.cfg.WindowCap
}

// flush drains the session to its connection: staged redeliveries first,
// then fresh queue events (assigned their sequence numbers here, at send
// time, so coalesce merges never leave gaps). Stops when the window is full,
// the queue is empty, the connection fails, or the session detaches — then
// flushes the connection's coalescing buffer if it has one. A failed send or
// flush detaches the session: the stream may hold a partial frame, so only a
// fresh connection's replay of the window is safe. Also the recycling point:
// events acked since the last flush are returned to the pool here, under
// flushMu, where no SendEvents can still be reading them.
func (s *Session) flush() {
	h := s.hub
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	bp := h.batchPool.Get().(*[]*Event)
	var fconn Conn
	for {
		s.mu.Lock()
		if len(s.retired) > 0 {
			for i, ev := range s.retired {
				h.putEvent(ev)
				s.retired[i] = nil
			}
			s.retired = s.retired[:0]
		}
		if s.state != StateAttached || s.conn == nil {
			s.mu.Unlock()
			break
		}
		batch := (*bp)[:0]
		for len(s.resend) > 0 && len(batch) < h.cfg.FlushBatch {
			batch = append(batch, s.resend[0])
			s.resend = s.resend[1:]
		}
		resent := len(batch)
		for s.qhead < len(s.queue) && len(s.window)-s.whead < h.cfg.WindowCap && len(batch) < h.cfg.FlushBatch {
			ev := s.queue[s.qhead]
			s.queue[s.qhead] = nil
			s.qhead++
			if s.byDoc != nil {
				delete(s.byDoc, ev.DocID)
			}
			s.sendSeq++
			ev.Seq = s.sendSeq
			s.appendWindowLocked(ev)
			batch = append(batch, ev)
		}
		if s.qhead == len(s.queue) {
			s.queue, s.qhead = s.queue[:0], 0
		}
		*bp = batch
		if len(batch) == 0 {
			s.mu.Unlock()
			break
		}
		conn := s.conn
		now := h.now()
		for _, ev := range batch {
			ev.sentAt = now
		}
		s.mu.Unlock()

		if err := conn.SendEvents(batch); err != nil {
			s.dropConn(conn)
			fconn = nil
			break
		}
		fconn = conn
		h.deliveredC.Add(int64(len(batch) - resent))
		h.redeliveredC.Add(int64(resent))
		h.hFlushBatch.Observe(time.Duration(len(batch)))
	}
	h.batchPool.Put(bp)
	if f, ok := fconn.(Flusher); ok && f.Flush() != nil {
		s.dropConn(fconn)
	}
}

// appendWindowLocked appends to the window tail, compacting the acked head
// gap once it passes WindowCap (requires mu) — same bounded-array discipline
// as appendQueueLocked.
func (s *Session) appendWindowLocked(ev *Event) {
	if s.whead > 0 {
		if s.whead == len(s.window) {
			s.window, s.whead = s.window[:0], 0
		} else if s.whead >= s.hub.cfg.WindowCap {
			n := copy(s.window, s.window[s.whead:])
			for i := n; i < len(s.window); i++ {
				s.window[i] = nil
			}
			s.window, s.whead = s.window[:n], 0
		}
	}
	s.window = append(s.window, ev)
}

// Ack applies a cumulative acknowledgement: every event with Seq <= seq is
// confirmed delivered, pruned from the replay window, and its send→ack
// latency recorded. Acks beyond the last sent sequence clamp.
func (s *Session) Ack(seq uint64) {
	h := s.hub
	s.mu.Lock()
	s.touchLocked()
	acked, canFlush := s.ackLocked(seq)
	s.mu.Unlock()
	if acked > 0 {
		h.ackedC.Add(int64(acked))
	}
	if canFlush {
		h.schedule(s)
	}
}

// ackLocked advances the cumulative ack cursor (requires mu). Returns how
// many window events were confirmed and whether the freed window space makes
// the session flushable again. Confirmed events move to the retired list;
// the next flush recycles them (see Session.retired).
func (s *Session) ackLocked(seq uint64) (acked int, canFlush bool) {
	if seq > s.sendSeq {
		seq = s.sendSeq
	}
	if seq <= s.ackSeq {
		return 0, false
	}
	s.ackSeq = seq
	now := s.hub.now()
	for s.whead < len(s.window) && s.window[s.whead].Seq <= seq {
		ev := s.window[s.whead]
		s.hub.hAckLatency.Observe(now.Sub(ev.sentAt))
		s.retired = append(s.retired, ev)
		s.window[s.whead] = nil
		s.whead++
		acked++
	}
	if s.whead == len(s.window) {
		s.window, s.whead = s.window[:0], 0
	}
	j := 0
	for j < len(s.resend) && s.resend[j].Seq <= seq {
		j++
	}
	s.resend = s.resend[j:]
	return acked, s.state == StateAttached && s.flushableLocked()
}

// snapshot captures the session state for tests and accounting.
func (s *Session) snapshot() SessionSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := SessionSnapshot{
		Sub:     s.sub,
		State:   s.state,
		AckSeq:  s.ackSeq,
		SendSeq: s.sendSeq,
		Queued:  s.qlen(),
		Window:  len(s.window) - s.whead,
	}
	if ss.Queued > 0 {
		ss.QueuedDocs = make([]uint64, 0, ss.Queued)
		for _, ev := range s.queue[s.qhead:] {
			ss.QueuedDocs = append(ss.QueuedDocs, ev.DocID)
		}
	}
	if ss.Window > 0 {
		ss.WindowDocs = make([]uint64, 0, ss.Window)
		for _, ev := range s.window[s.whead:] {
			ss.WindowDocs = append(ss.WindowDocs, ev.DocID)
		}
	}
	return ss
}

// mergeFilterIDs unions add into dst, preserving dst's order.
func mergeFilterIDs(dst, add []model.FilterID) []model.FilterID {
	for _, id := range add {
		dup := false
		for _, have := range dst {
			if have == id {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, id)
		}
	}
	return dst
}
