package transport

import (
	"net"
	"sync"
	"time"

	"github.com/movesys/move/internal/frame"
	"github.com/movesys/move/internal/metrics"
)

// wireMetrics is the transport.tcp.* instrumentation shared by every
// connection of one TCPNode.
type wireMetrics struct {
	flush            *frame.FlushStats  // transport.tcp.flush.{frames,syscalls,bytes}, .frames_per_syscall
	queueBytes       *metrics.Histogram // transport.tcp.queue.bytes (depth at enqueue)
	conns            *metrics.Gauge     // transport.tcp.conns (live, both directions)
	dials            *metrics.Counter   // transport.tcp.dials
	dialFailures     *metrics.Counter   // transport.tcp.dial.failures
	redialSuppressed *metrics.Counter   // transport.tcp.redial.suppressed
}

func newWireMetrics(reg *metrics.Registry) *wireMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &wireMetrics{
		flush: frame.NewFlushStats(reg, "transport.tcp.flush.frames", "transport.tcp.flush.syscalls",
			"transport.tcp.frames_per_syscall", "transport.tcp.flush.bytes"),
		queueBytes:       reg.Histogram("transport.tcp.queue.bytes"),
		conns:            reg.Gauge("transport.tcp.conns"),
		dials:            reg.Counter("transport.tcp.dials"),
		dialFailures:     reg.Counter("transport.tcp.dial.failures"),
		redialSuppressed: reg.Counter("transport.tcp.redial.suppressed"),
	}
}

// maxQueueBytes bounds the per-connection send queue: an enqueue that finds
// it at or past this blocks until the writer drains (backpressure, not
// buffering).
const maxQueueBytes = 4 << 20

// writeTimeout bounds each flush syscall; a peer that stops reading for this
// long loses the connection instead of wedging its senders.
const writeTimeout = 10 * time.Second

// connWriter owns the write half of one TCP connection — requests on
// outbound conns, responses on inbound ones. A dedicated writer goroutine
// drains a bounded send queue (a frame.Batch) into one deadline-bounded
// Write per round, so N concurrent senders cost one syscall instead of N
// (DESIGN.md §16). What it adds to the shared round:
//
//   - natural coalescing: the writer never waits for company — frames
//     arriving during the previous Write share the next one;
//   - ordering bound: frames go to the wire in enqueue order; RPC responses
//     carry request IDs, so no frame class needs to jump the queue;
//   - backpressure: enqueues past maxQueueBytes block until the writer
//     drains.
type connWriter struct {
	raw net.Conn
	met *wireMetrics

	mu      sync.Mutex
	notFull *sync.Cond
	queue   frame.Batch
	err     error

	wake    chan struct{} // buffered(1): frames pending
	stop    chan struct{}
	stopped sync.Once
}

func newConnWriter(raw net.Conn, met *wireMetrics) *connWriter {
	w := &connWriter{
		raw:  raw,
		met:  met,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	w.notFull = sync.NewCond(&w.mu)
	return w
}

// enqueue appends one length-prefixed frame to the send queue (copying
// payload, so callers may recycle pooled encode buffers immediately) and
// wakes the writer. Blocks while the queue is at or past maxQueueBytes.
func (w *connWriter) enqueue(payload []byte) error {
	w.mu.Lock()
	for w.err == nil && w.queue.Len() >= maxQueueBytes {
		w.notFull.Wait()
	}
	err := w.err
	if err == nil {
		err = w.queue.Append(payload, maxFrame)
	}
	depth := w.queue.Len()
	w.mu.Unlock()
	if err != nil {
		return err
	}

	w.met.queueBytes.Observe(time.Duration(depth))
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return nil
}

// run is the writer goroutine: wake → one deadline-bounded Write of every
// queued frame. It owns closing the raw connection, so the read side unblocks
// as soon as the writer dies — whether from a write error or a closeWith.
func (w *connWriter) run() {
	defer func() { _ = w.raw.Close() }()
	for {
		select {
		case <-w.wake:
		case <-w.stop:
			_ = w.flushOnce() // best-effort final drain
			return
		}
		if err := w.flushOnce(); err != nil {
			w.fail(err)
			return
		}
	}
}

// flushOnce writes every queued frame as one round. The write runs outside
// the queue lock, so senders keep appending while it is on the wire.
func (w *connWriter) flushOnce() error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	out, frames := w.queue.Take()
	w.notFull.Broadcast()
	w.mu.Unlock()
	if frames == 0 {
		return nil
	}

	err := w.met.flush.WriteRound(w.raw, writeTimeout, out, frames)

	w.mu.Lock()
	w.queue.Recycle(out)
	w.mu.Unlock()
	return err
}

// fail marks the writer broken so blocked and future enqueues return err.
// The raw conn closes when run returns, which unwinds the read loop.
func (w *connWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.notFull.Broadcast()
	w.mu.Unlock()
}

// closeWith stops the writer with err and closes the raw connection, which
// unblocks the connection's read loop. Idempotent, and safe whether or not
// a writer goroutine is running.
func (w *connWriter) closeWith(err error) {
	w.fail(err)
	w.stopped.Do(func() {
		close(w.stop)
		_ = w.raw.Close()
	})
}

// queuedBytes reports the send-queue depth (for Stats and /healthz).
func (w *connWriter) queuedBytes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.queue.Len()
}
