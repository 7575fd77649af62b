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
// outbound conns, responses on inbound ones. It has no goroutine: a sender
// appends its frame to a bounded send queue (a frame.Batch) and, if no
// other sender is writing, writes the queue itself as one deadline-bounded
// Write per round, so N concurrent senders still cost one syscall instead
// of N (DESIGN.md §16). What it adds to the shared round:
//
//   - natural coalescing: a writer never waits for company — frames
//     arriving during its Write share its next one, and it keeps writing
//     until the queue is empty, so no frame is left queued with no writer;
//   - ordering bound: frames go to the wire in enqueue order; RPC responses
//     carry request IDs, so no frame class needs to jump the queue;
//   - backpressure: sends past maxQueueBytes block until the writer
//     drains.
type connWriter struct {
	raw net.Conn
	met *wireMetrics

	mu      sync.Mutex
	notFull *sync.Cond
	queue   frame.Batch
	writing bool // a sender is writing rounds; it also writes what queues meanwhile
	err     error

	closed sync.Once
}

func newConnWriter(raw net.Conn, met *wireMetrics) *connWriter {
	w := &connWriter{raw: raw, met: met}
	w.notFull = sync.NewCond(&w.mu)
	return w
}

// send appends one length-prefixed frame to the send queue (copying
// payload, so callers may recycle pooled encode buffers immediately). It
// blocks while the queue is at or past maxQueueBytes. When no other sender
// is writing, the caller becomes the writer: it writes rounds until the
// queue is empty, which may hold it up to writeTimeout per round. A failed
// write closes the connection; the writer and every sender after it get
// the connection's first error.
func (w *connWriter) send(payload []byte) error {
	w.mu.Lock()
	for w.err == nil && w.queue.Len() >= maxQueueBytes {
		w.notFull.Wait()
	}
	err := w.err
	if err == nil {
		err = w.queue.Append(payload, maxFrame)
	}
	depth := w.queue.Len()
	lead := err == nil && !w.writing
	w.writing = w.writing || lead
	w.mu.Unlock()
	if err != nil {
		return err
	}
	w.met.queueBytes.Observe(time.Duration(depth))
	if !lead {
		return nil
	}
	return w.writeRounds()
}

// writeRounds is the writer's loop: take every queued frame, write it as
// one round outside the queue lock (senders keep appending meanwhile, into
// the batch's spare buffer), and go again until a take finds nothing.
func (w *connWriter) writeRounds() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil {
		out, frames := w.queue.Take()
		if frames == 0 {
			break
		}
		w.notFull.Broadcast()
		w.mu.Unlock()
		if err := w.met.flush.WriteRound(w.raw, writeTimeout, out, frames); err != nil {
			w.closeWith(err)
		}
		w.mu.Lock()
		w.queue.Recycle(out)
	}
	w.writing = false
	return w.err
}

// closeWith marks the writer broken with err (the first error wins), so
// blocked and future sends return it, and closes the raw connection, which
// unblocks the connection's read side and any Write in flight. Idempotent.
func (w *connWriter) closeWith(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.notFull.Broadcast()
	w.mu.Unlock()
	w.closed.Do(func() { _ = w.raw.Close() })
}

// queuedBytes reports the send-queue depth (for Stats and /healthz).
func (w *connWriter) queuedBytes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.queue.Len()
}
