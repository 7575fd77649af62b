package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"

	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// Tracing lives in the harness only: one in-memory span per document
// around each harness-side call (text.Terms, PublishEntry, first and last
// Client.Recv), the entry node's RPCs as child spans recorded by a
// decorator around its transport, and the home→column hops PublishEntry
// returns as grand-children. All of them share the document ID. Spans are
// written out when the run ends (-trace-out).

// docSpan is one traced document. Times are harness clock readings (ns).
type docSpan struct {
	DocID      uint64     `json:"doc"`
	Due        int64      `json:"due_ns"`
	Start      int64      `json:"start_ns"`
	textEnd    int64      // text.Terms returned
	publishEnd int64      // PublishEntry returned
	TextNS     int64      `json:"text_ns"`
	PublishNS  int64      `json:"publish_ns"`
	Sends      []sendSpan `json:"sends"` // entry-side RPCs, in start order
	Hops       []hopSpan  `json:"hops,omitempty"`
	FirstRecv  int64      `json:"first_recv_ns,omitempty"`
	LastRecv   int64      `json:"last_recv_ns,omitempty"`
	Events     int        `json:"events"`
	Phase      uint8      `json:"phase"`
	// Homes is how many distinct home nodes the document's Bloom-passing
	// terms hash to: the size of the home fan-out. Pool is the document's
	// index in the workload's document pool.
	Homes int `json:"homes"`
	Pool  int `json:"pool"`

	mu sync.Mutex
}

// sendSpan is one RPC the entry node issued for the document.
type sendSpan struct {
	To    string `json:"to"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Bytes int    `json:"bytes"`
}

// hopSpan is one home→column hop a home node reported back.
type hopSpan struct {
	Stage     string `json:"stage"`
	From      string `json:"from,omitempty"`
	To        string `json:"to,omitempty"`
	ElapsedNS int64  `json:"elapsed_ns,omitempty"`
}

// opSpan is one scripted register or unregister.
type opSpan struct {
	Kind  string `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanLog keeps every span of a traced run in memory.
type spanLog struct {
	s    *sut
	mu   sync.Mutex
	docs []*docSpan
	ops  []opSpan
}

func (l *spanLog) begin(docID uint64, due int64, pool, homes int) *docSpan {
	sp := &docSpan{DocID: docID, Due: due, Pool: pool, Homes: homes}
	l.mu.Lock()
	l.docs = append(l.docs, sp)
	l.mu.Unlock()
	return sp
}

func (l *spanLog) op(kind string, start, end int64) {
	l.mu.Lock()
	l.ops = append(l.ops, opSpan{kind, start, end})
	l.mu.Unlock()
}

// seal copies the receipt stamps out of the ledger once readers stopped.
func (l *spanLog) seal() {
	for _, sp := range l.docs {
		sp.TextNS, sp.PublishNS = sp.textEnd-sp.Start, sp.publishEnd-sp.textEnd
		if d := l.s.led.slot(sp.DocID); d != nil {
			sp.FirstRecv, sp.LastRecv = d.firstRecv.Load(), d.lastRecv.Load()
			sp.Events, sp.Phase = int(d.gotCount.Load()), d.phase
		}
	}
}

func (l *spanLog) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range l.docs {
		if err := enc.Encode(sp); err != nil {
			_ = f.Close()
			return err
		}
	}
	for _, op := range l.ops {
		if err := enc.Encode(op); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

func withSpan(ctx context.Context, sp *docSpan) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// tracedTransport records every RPC the entry node sends while a traced
// document's context is in scope. PublishEntry sends the home RPCs in
// parallel, waits for all of them, and only then sends the routing RPCs, so
// a document's sends split by time into the two groups.
type tracedTransport struct {
	transport.Transport
	s *sut
}

func (t *tracedTransport) Send(ctx context.Context, to ring.NodeID, payload []byte) ([]byte, error) {
	sp, _ := ctx.Value(spanKey{}).(*docSpan)
	if sp == nil {
		return t.Transport.Send(ctx, to, payload)
	}
	start := t.s.now()
	resp, err := t.Transport.Send(ctx, to, payload)
	end := t.s.now()
	sp.mu.Lock()
	sp.Sends = append(sp.Sends, sendSpan{To: string(to), Start: start, End: end, Bytes: len(payload)})
	sp.mu.Unlock()
	return resp, err
}

// split separates a document's sends into the home fan-out (the first
// Homes sends to start) and the routing group that follows it.
func (sp *docSpan) split() (home, route []sendSpan) {
	sort.Slice(sp.Sends, func(a, b int) bool { return sp.Sends[a].Start < sp.Sends[b].Start })
	k := min(sp.Homes, len(sp.Sends))
	return sp.Sends[:k], sp.Sends[k:]
}
