// Package transport provides the messaging substrate of the MOVE cluster:
// a request/response Transport interface with two implementations — an
// in-memory network with injectable latency, partitions, and node failures
// (used by tests, examples, and the experiment harness to stand in for the
// paper's 100-machine Ukko cluster), and a TCP transport over net (used by
// cmd/moved for real deployments).
package transport

import (
	"context"
	"errors"

	"github.com/movesys/move/internal/ring"
)

// IsAvailabilityError reports whether err signals that the peer may be
// unreachable (down, partitioned, or timed out) rather than a remote
// handler failure — the class of error worth retrying or failing over.
// Context cancellation is excluded: the caller gave up, the peer did not.
func IsAvailabilityError(err error) bool {
	return errors.Is(err, ErrNodeDown) || errors.Is(err, context.DeadlineExceeded)
}

// Handler processes one inbound request and returns the response payload.
// Handlers must be safe for concurrent use.
//
// Serving model (see DESIGN.md §16): over TCP a handler runs on the
// goroutine that reads its connection, and the requests behind it on that
// connection wait until it returns. So the one rule: call Detach(ctx)
// before waiting on anything but the CPU — a nested Send, an fsync, a
// channel — which hands the reading to a fresh goroutine. A handler that
// waits attached can stall its connection, and two nodes whose handlers
// call each other that way can deadlock.
//
// Buffer ownership (see DESIGN.md §11): the payload belongs to the
// transport and may be recycled after the handler returns — handlers must
// not retain it (decode in place; copy anything long-lived). The returned
// response buffer transfers to the transport, which only reads it; it must
// not alias the request payload, and it must not come from a pool the
// handler later recycles.
type Handler func(ctx context.Context, from ring.NodeID, payload []byte) ([]byte, error)

// Transport is one node's endpoint in the cluster.
type Transport interface {
	// Send delivers payload to the node `to` and waits for its response.
	// Over TCP a caller that finds its connection idle writes the request
	// itself, and the frames queued behind it while it writes, so it may
	// spend up to the 10 s write deadline per round in its own write.
	//
	// Buffer ownership (see DESIGN.md §11): the transport does not retain
	// payload past the point Send returns, so callers may recycle pooled
	// request buffers immediately afterwards. The returned response slice
	// is owned by the caller and never aliases payload.
	Send(ctx context.Context, to ring.NodeID, payload []byte) ([]byte, error)
	// Self returns the local node's ID.
	Self() ring.NodeID
	// Close releases the endpoint; subsequent Sends fail.
	Close() error
}

// Errors shared by transport implementations.
var (
	// ErrNodeDown is returned when the destination is not reachable (failed,
	// partitioned, or never joined).
	ErrNodeDown = errors.New("transport: node down")
	// ErrClosed is returned when the local endpoint has been closed.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrRemote wraps a handler-side failure reported by the peer.
	ErrRemote = errors.New("transport: remote handler error")
)
