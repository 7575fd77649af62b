package delivery

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/movesys/move/internal/model"
)

// hubAckConn is an in-process subscriber that counts the events it receives
// and acks each batch at once, as the repository benchmark's probe does.
type hubAckConn struct {
	hub  *Hub
	sub  string
	seen *atomic.Int64
}

func (c *hubAckConn) SendHello(HelloInfo) error { return nil }
func (c *hubAckConn) SendPing() error           { return nil }
func (c *hubAckConn) SendBye(string) error      { return nil }
func (c *hubAckConn) Close() error              { return nil }
func (c *hubAckConn) SendEvents(evs []*Event) error {
	c.seen.Add(int64(len(evs)))
	c.hub.Ack(c.sub, evs[len(evs)-1].Seq)
	return nil
}

// schedFanout is how many of newScheduledHub's 64 sessions each document
// reaches.
const schedFanout = 16

// newScheduledHub attaches 64 acking sessions to a hub with the given worker
// pool (0: the default) and returns the fan-out shapes documents cycle
// through: shape j reaches sessions j, j+4, …, j+60.
func newScheduledHub(tb testing.TB, workers, queueCap int) (*Hub, *atomic.Int64, [][]Notification) {
	tb.Helper()
	h := NewHub(Config{Workers: workers, QueueCap: queueCap})
	seen := new(atomic.Int64)
	shapes := make([][]Notification, 64/schedFanout)
	for i := 0; i < 64; i++ {
		sub := fmt.Sprintf("sub-%d", i)
		if _, _, err := h.Attach(sub, &hubAckConn{hub: h, sub: sub, seen: seen}, 0); err != nil {
			tb.Fatal(err)
		}
		j := i % len(shapes)
		shapes[j] = append(shapes[j], Notification{Sub: sub, Filters: []model.FilterID{model.FilterID(i)}})
	}
	return h, seen, shapes
}

// TestWorkerPoolDeliversEveryEvent drives the ready queue with concurrent
// producers: 4 workers, 64 acking sessions, 8 goroutines issuing
// DeliverBatch over 2,000 documents. Every enqueued event must be delivered
// and acked before the deadline — a lost wake-up strands a session's queue —
// and under -race it checks the queue's locking.
func TestWorkerPoolDeliversEveryEvent(t *testing.T) {
	const docs, producers = 2000, 8
	// Each session's queue can hold all its documents: nothing is shed.
	h, seen, shapes := newScheduledHub(t, 4, docs)
	defer h.Stop()
	terms := []string{"alpha", "beta"}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for d := p; d < docs; d += producers {
				h.DeliverBatch(uint64(d+1), terms, shapes[d%len(shapes)])
			}
		}(p)
	}
	wg.Wait()

	const want = docs * schedFanout
	waitFor(t, "every event acked", func() bool { return counterValue(h, "delivery.acked") == want })
	if enq, del := counterValue(h, "delivery.enqueued"), counterValue(h, "delivery.delivered"); enq != want || del != enq {
		t.Fatalf("enqueued=%d delivered=%d, want both %d", enq, del, want)
	}
	if got := seen.Load(); got != want {
		t.Fatalf("connections saw %d events, want %d", got, want)
	}
	if p := h.Pending(); p != 0 {
		t.Fatalf("Pending = %d after every ack, want 0", p)
	}
}

// BenchmarkHubScheduled prices the scheduler under concurrent producers:
// newScheduledHub's sessions and shapes, DeliverBatch from b.RunParallel
// goroutines, the default worker pool. ns/event is the wall time to the last
// ack over the events delivered; drops/op is what the queue bound shed.
func BenchmarkHubScheduled(b *testing.B) {
	h, _, shapes := newScheduledHub(b, 0, 1<<12)
	defer h.Stop()
	terms := []string{"alpha", "beta"}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			d := next.Add(1)
			h.DeliverBatch(d, terms, shapes[d%uint64(len(shapes))])
		}
	})
	for h.Pending() > 0 {
		runtime.Gosched()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(counterValue(h, "delivery.delivered")), "ns/event")
	b.ReportMetric(float64(counterValue(h, "delivery.drops.oldest"))/float64(b.N), "drops/op")
}
