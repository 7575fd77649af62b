// Package resilience hardens the cluster's RPC fabric: a retry Policy with
// exponential backoff and full jitter, per-attempt timeouts, a cluster-wide
// retry budget that prevents retry storms, and a per-destination circuit
// breaker that stops burning latency on dead peers while probing for their
// recovery. The paper's allocation grids replicate each term's filter set
// across 1/r_i partition rows precisely so the system tolerates node loss
// (§VI.D); this package supplies the transport-level half of that story so
// the replica-row failover in the node layer only ever deals with peers
// that are genuinely unreachable.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/movesys/move/internal/metrics"
)

// ErrOpen is returned by Do without invoking the call when the
// destination's circuit breaker is open (the peer failed repeatedly and
// its cooldown has not elapsed).
var ErrOpen = errors.New("resilience: circuit open")

// Policy parameterizes retries and circuit breaking. The zero value of any
// field selects the default noted on it.
type Policy struct {
	// MaxAttempts is the total number of tries per Do call, including the
	// first (default 3).
	MaxAttempts int
	// BaseDelay is the backoff cap before the first retry; the cap doubles
	// per attempt up to MaxDelay, and the actual sleep is drawn uniformly
	// from [0, cap) — "full jitter" (default 25ms).
	BaseDelay time.Duration
	// MaxDelay bounds the backoff cap (default 1s).
	MaxDelay time.Duration
	// AttemptTimeout bounds each individual attempt with a child context
	// deadline; zero disables per-attempt timeouts (the parent context
	// still applies).
	AttemptTimeout time.Duration
	// RetryBudget is a token bucket shared by all destinations of one
	// Executor: each retry spends one token, each first-attempt success
	// refunds half a token. When the bucket is empty, calls fail fast
	// after their first attempt instead of amplifying an outage into a
	// retry storm (default 64 tokens).
	RetryBudget int
	// Retryable classifies errors: only errors for which it returns true
	// are retried and counted against the circuit breaker. Nil retries
	// everything except context cancellation.
	Retryable func(error) bool
	// BreakerThreshold is the number of consecutive retryable failures
	// that opens a destination's breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// allowing half-open probes (default 500ms).
	BreakerCooldown time.Duration
	// HalfOpenProbes is how many concurrent probe calls a half-open
	// breaker admits (default 1).
	HalfOpenProbes int
	// Seed makes the jitter deterministic; zero derives a fixed seed.
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = time.Second
	}
	if p.RetryBudget == 0 {
		p.RetryBudget = 64
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 3
	}
	if p.BreakerCooldown == 0 {
		p.BreakerCooldown = 500 * time.Millisecond
	}
	if p.HalfOpenProbes == 0 {
		p.HalfOpenProbes = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// budgetScale stores the token bucket in tenths so the half-token refund
// stays integral under atomics.
const budgetScale = 10

// Executor applies one Policy to calls against many destinations, keeping
// a circuit breaker per destination and a shared retry budget.
type Executor struct {
	p Policy

	retries      *metrics.Counter
	giveups      *metrics.Counter
	breakerOpens *metrics.Counter
	breakerFast  *metrics.Counter

	budget atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand

	bmu      sync.RWMutex
	breakers map[string]*Breaker
}

// New builds an Executor. reg receives the counters rpc.retries,
// rpc.giveups, breaker.open, and breaker.fastfail; nil creates a private
// registry.
func New(p Policy, reg *metrics.Registry) *Executor {
	p = p.withDefaults()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	e := &Executor{
		p:            p,
		retries:      reg.Counter("rpc.retries"),
		giveups:      reg.Counter("rpc.giveups"),
		breakerOpens: reg.Counter("breaker.open"),
		breakerFast:  reg.Counter("breaker.fastfail"),
		rng:          rand.New(rand.NewSource(p.Seed)),
		breakers:     make(map[string]*Breaker),
	}
	e.budget.Store(int64(p.RetryBudget) * budgetScale)
	return e
}

// Policy returns the (defaulted) policy in force.
func (e *Executor) Policy() Policy { return e.p }

// breaker returns (creating if needed) the destination's breaker.
func (e *Executor) breaker(dest string) *Breaker {
	e.bmu.RLock()
	b, ok := e.breakers[dest]
	e.bmu.RUnlock()
	if ok {
		return b
	}
	e.bmu.Lock()
	defer e.bmu.Unlock()
	if b, ok = e.breakers[dest]; ok {
		return b
	}
	b = NewBreaker(BreakerConfig{
		Threshold:      e.p.BreakerThreshold,
		Cooldown:       e.p.BreakerCooldown,
		HalfOpenProbes: e.p.HalfOpenProbes,
	})
	e.breakers[dest] = b
	return b
}

// State reports the destination's breaker state (closed for unknown
// destinations).
func (e *Executor) State(dest string) BreakerState {
	e.bmu.RLock()
	b, ok := e.breakers[dest]
	e.bmu.RUnlock()
	if !ok {
		return StateClosed
	}
	return b.State()
}

// Reset force-closes the destination's breaker — called when an out-of-band
// signal (gossip, an operator) reports the peer recovered.
func (e *Executor) Reset(dest string) {
	e.bmu.RLock()
	b, ok := e.breakers[dest]
	e.bmu.RUnlock()
	if ok {
		b.Reset()
	}
}

// retryable applies the policy classifier.
func (e *Executor) retryable(err error) bool {
	if e.p.Retryable != nil {
		return e.p.Retryable(err)
	}
	return !errors.Is(err, context.Canceled)
}

// spendRetry takes one retry token; false means the budget is exhausted.
func (e *Executor) spendRetry() bool {
	for {
		cur := e.budget.Load()
		if cur < budgetScale {
			return false
		}
		if e.budget.CompareAndSwap(cur, cur-budgetScale) {
			return true
		}
	}
}

// refund returns half a token on a first-attempt success, capped at the
// configured budget.
func (e *Executor) refund() {
	cap := int64(e.p.RetryBudget) * budgetScale
	for {
		cur := e.budget.Load()
		if cur >= cap {
			return
		}
		next := cur + budgetScale/2
		if next > cap {
			next = cap
		}
		if e.budget.CompareAndSwap(cur, next) {
			return
		}
	}
}

// backoff draws the full-jitter delay before retry number attempt+1.
func (e *Executor) backoff(attempt int) time.Duration {
	cap := e.p.BaseDelay << uint(attempt)
	if cap > e.p.MaxDelay || cap <= 0 {
		cap = e.p.MaxDelay
	}
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	return time.Duration(e.rng.Int63n(int64(cap)))
}

// sleep waits for d or the context, whichever first; false means canceled.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Do runs fn against dest under the policy: breaker gate, per-attempt
// timeout, classification, backoff with full jitter, and retry budget. A
// non-retryable error (the peer answered, but with an application failure)
// returns immediately and counts as breaker success — the peer is alive.
func (e *Executor) Do(ctx context.Context, dest string, fn func(context.Context) error) error {
	br := e.breaker(dest)
	if !br.Allow() {
		e.breakerFast.Inc()
		return fmt.Errorf("%w: %s", ErrOpen, dest)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		actx := ctx
		var cancel context.CancelFunc
		if e.p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, e.p.AttemptTimeout)
		}
		err := fn(actx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			br.RecordSuccess()
			if attempt == 0 {
				e.refund()
			}
			return nil
		}
		lastErr = err
		if !e.retryable(err) {
			br.RecordSuccess()
			return err
		}
		if br.RecordFailure() {
			e.breakerOpens.Inc()
		}
		if ctx.Err() != nil {
			return lastErr
		}
		if attempt+1 >= e.p.MaxAttempts || !e.spendRetry() {
			e.giveups.Inc()
			return lastErr
		}
		e.retries.Inc()
		if !sleep(ctx, e.backoff(attempt)) {
			return lastErr
		}
	}
}

// DoValue is Do for calls that produce a value.
func DoValue[T any](e *Executor, ctx context.Context, dest string, fn func(context.Context) (T, error)) (T, error) {
	var out T
	err := e.Do(ctx, dest, func(ctx context.Context) error {
		v, err := fn(ctx)
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}
