// Package trace records the hop path of one publish through the MOVE
// pipeline: which home nodes the entry fanned out to, which partition row
// each home node chose, which grid columns were visited, and which columns
// failed over to a substitute row (§VI.D). The paper's §IV latency model
// charges cost per pipeline stage; a Span is the per-document record that
// lets the measured path be compared against the model — and lets a test or
// an operator answer *why* a document went where it did.
//
// Spans are carried through the publish path on the context (With/From) and
// are nil-safe: every method on a nil *Span is a no-op, so un-traced code
// paths pay only a pointer check.
package trace

import (
	"context"
	"sync"
	"time"
)

// Hop is one edge of the publish path. Exactly one Stage per hop:
//
//   - "home":   entry node → the home node of one document term (§V fan-out)
//   - "column": home node → one grid column replica in the chosen partition
//     row; Attempt > 0 marks a replica-row failover and Row names
//     the substitute row that served it
//   - "flood":  entry node → one cluster member (RS baseline)
//   - "local":  the home node matched locally (no allocation grid)
type Hop struct {
	Stage string `json:"stage"`
	From  string `json:"from,omitempty"`
	To    string `json:"to,omitempty"`
	Term  string `json:"term,omitempty"`
	// Row and Col locate the grid replica for "column" hops; Row is the
	// partition row actually used (the substitute row after a failover).
	Row int `json:"row,omitempty"`
	Col int `json:"col,omitempty"`
	// Attempt is 0 for the primary row, k for the k-th failover row.
	Attempt int `json:"attempt,omitempty"`
	// Failover marks a hop served by a row other than the chosen one.
	Failover bool `json:"failover,omitempty"`
	// Lost marks a column with no live replica in any row (the publish
	// degrades rather than failing, §VI.D).
	Lost bool `json:"lost,omitempty"`
	// Pending marks a hop taken against a *pending* (not yet committed)
	// grid during the dual-read window of a two-phase reallocation (§13).
	Pending bool `json:"pending,omitempty"`
	// Err records a failed attempt's error (the hop after it, if any, is
	// the failover that replaced it).
	Err       string `json:"err,omitempty"`
	ElapsedNS int64  `json:"elapsed_ns,omitempty"`
}

// Span is the mutable trace of one operation. Safe for concurrent use: the
// fan-out stages append hops from many goroutines.
type Span struct {
	mu     sync.Mutex
	op     string
	docID  uint64
	start  time.Time
	end    time.Time
	hops   []Hop
	stages map[string]time.Duration
}

// New starts a span for one operation (op names it, e.g. "publish").
func New(op string, docID uint64) *Span {
	return &Span{op: op, docID: docID, start: time.Now()}
}

// AddHop appends one hop. Nil-safe.
func (s *Span) AddHop(h Hop) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.hops = append(s.hops, h)
	s.mu.Unlock()
}

// AddHops appends a batch of hops (e.g. the grid hops a home node reported
// back in its MatchResp). The slice is copied; the caller keeps ownership.
// Nil-safe.
func (s *Span) AddHops(hs []Hop) {
	if s == nil || len(hs) == 0 {
		return
	}
	s.mu.Lock()
	if s.hops == nil {
		// Exact-size the common single-batch case (the entry node adds the
		// whole merged hop list at once) instead of append-doubling.
		s.hops = make([]Hop, 0, len(hs))
	}
	s.hops = append(s.hops, hs...)
	s.mu.Unlock()
}

// AddStage accumulates wall time into a named pipeline stage. Nil-safe.
func (s *Span) AddStage(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.stages == nil {
		s.stages = make(map[string]time.Duration)
	}
	s.stages[name] += d
	s.mu.Unlock()
}

// Finish stamps the span's end time (first call wins). Nil-safe.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Summary is the immutable, JSON-serializable view of a finished span —
// what PublishResult carries and the debug server's /trace/last returns.
type Summary struct {
	Op         string `json:"op"`
	DocID      uint64 `json:"doc_id"`
	DurationNS int64  `json:"duration_ns"`
	Hops       []Hop  `json:"hops,omitempty"`
	// StageNS is the accumulated wall time per pipeline stage.
	StageNS map[string]int64 `json:"stage_ns,omitempty"`
	// Failovers counts hops served by a substitute partition row.
	Failovers int `json:"failovers"`
	// ColumnsLost counts grid columns no row could serve.
	ColumnsLost int `json:"columns_lost"`
}

// Summary snapshots the span. Safe on a nil or unfinished span (an
// unfinished span reports its duration so far).
//
// A finished span's hop list is frozen (no method appends after Finish by
// contract), so summaries of a finished span share it without copying —
// the common pattern `sp.Finish(); ... sp.Summary()` costs no hop copy.
// Summaries of a still-running span get a defensive copy.
func (s *Span) Summary() Summary {
	if s == nil {
		return Summary{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	end := s.end
	hops := s.hops
	if end.IsZero() {
		end = time.Now()
		hops = append([]Hop(nil), s.hops...)
	}
	sm := Summary{
		Op:         s.op,
		DocID:      s.docID,
		DurationNS: end.Sub(s.start).Nanoseconds(),
		Hops:       hops,
	}
	if len(s.stages) > 0 {
		sm.StageNS = make(map[string]int64, len(s.stages))
		for name, d := range s.stages {
			sm.StageNS[name] = d.Nanoseconds()
		}
	}
	sm.tally()
	return sm
}

// tally derives the failover and lost-column counts from the hop list.
func (sm *Summary) tally() {
	for _, h := range sm.Hops {
		if h.Lost {
			sm.ColumnsLost++
			continue
		}
		if h.Failover && h.Err == "" {
			sm.Failovers++
		}
	}
}

// Summarize builds a single-stage Summary directly, without a Span. It is
// the cheap path for handlers whose whole trace is one stage plus a hop
// list they already hold: the hops slice is aliased, not copied, so the
// caller must not mutate it afterwards (hand it off, e.g. into a Ring).
func Summarize(op string, docID uint64, d time.Duration, hops []Hop) Summary {
	sm := Summary{
		Op:         op,
		DocID:      docID,
		DurationNS: d.Nanoseconds(),
		StageNS:    map[string]int64{op: d.Nanoseconds()},
		Hops:       hops,
	}
	sm.tally()
	return sm
}

// ctxKey is the context key type for span propagation.
type ctxKey struct{}

// With attaches the span to the context.
func With(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// From returns the span on the context, or nil.
func From(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Ring is a fixed-capacity ring buffer of recent span summaries — the
// backing store of the debug server's /trace/last endpoint.
type Ring struct {
	mu   sync.Mutex
	buf  []Summary
	next int
	full bool
}

// NewRing builds a ring holding the last capacity summaries (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Summary, capacity)}
}

// Add records one summary, evicting the oldest when full. Nil-safe.
func (r *Ring) Add(sm Summary) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = sm
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.mu.Unlock()
}

// Last returns up to k summaries, newest first. Nil-safe.
func (r *Ring) Last(k int) []Summary {
	if r == nil || k < 1 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	if k > n {
		k = n
	}
	out := make([]Summary, 0, k)
	for i := 0; i < k; i++ {
		idx := (r.next - 1 - i + 2*len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}
