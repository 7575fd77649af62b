package delivery

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/movesys/move/internal/model"
)

// testConn is an in-process Conn that records everything the hub sends and
// can be switched into a failure mode between calls. Events are copied by
// value — the hub owns the *Event objects and recycles them after acks, so a
// Conn must not retain the pointers.
type testConn struct {
	mu       sync.Mutex
	hellos   []HelloInfo
	events   []Event
	attempts int
	pings    int
	byes     []string
	closed   bool
	sendErr  error
}

func (c *testConn) SendHello(info HelloInfo) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hellos = append(c.hellos, info)
	return nil
}

func (c *testConn) SendEvents(evs []*Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts++
	if c.sendErr != nil {
		return c.sendErr
	}
	for _, ev := range evs {
		cp := *ev
		cp.Filters = append([]model.FilterID(nil), ev.Filters...)
		c.events = append(c.events, cp)
	}
	return nil
}

func (c *testConn) SendPing() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pings++
	return nil
}

func (c *testConn) SendBye(reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byes = append(c.byes, reason)
	return nil
}

func (c *testConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *testConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *testConn) setErr(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sendErr = err
}

func (c *testConn) received() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

func (c *testConn) lastBye() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.byes) == 0 {
		return ""
	}
	return c.byes[len(c.byes)-1]
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// dropRecorder collects OnDrop callbacks.
type dropRecorder struct {
	mu    sync.Mutex
	drops []string // "docID/reason"
}

func (d *dropRecorder) hook(sub string, docID uint64, reason string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drops = append(d.drops, fmt.Sprintf("%d/%s", docID, reason))
}

func (d *dropRecorder) list() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.drops...)
}

func counterValue(h *Hub, name string) int64 { return h.Metrics().Counter(name).Value() }

func fid(id uint64) []model.FilterID { return []model.FilterID{model.FilterID(id)} }

// TestPolicyDropOldest drives a detached (maximally slow) consumer past its
// queue bound and asserts the exact surviving queue, the drop counter, and
// the per-event accounting callbacks.
func TestPolicyDropOldest(t *testing.T) {
	rec := &dropRecorder{}
	h := NewHub(Config{QueueCap: 3, Policy: DropOldest, Workers: 1, OnDrop: rec.hook})
	defer h.Stop()

	for doc := uint64(1); doc <= 5; doc++ {
		h.Deliver("s", doc, fid(doc), []string{"t"})
	}
	ss, ok := h.Snapshot("s")
	if !ok {
		t.Fatal("no session")
	}
	if ss.State != StateDetached {
		t.Fatalf("state = %v, want detached", ss.State)
	}
	if want := []uint64{3, 4, 5}; fmt.Sprint(ss.QueuedDocs) != fmt.Sprint(want) {
		t.Fatalf("queue = %v, want %v", ss.QueuedDocs, want)
	}
	if got := counterValue(h, "delivery.drops.oldest"); got != 2 {
		t.Fatalf("drops.oldest = %d, want 2", got)
	}
	if want := []string{"1/drop-oldest", "2/drop-oldest"}; fmt.Sprint(rec.list()) != fmt.Sprint(want) {
		t.Fatalf("OnDrop = %v, want %v", rec.list(), want)
	}
	if got := counterValue(h, "delivery.enqueued"); got != 5 {
		t.Fatalf("enqueued = %d, want 5", got)
	}
}

// TestPolicyCoalesceByDoc asserts same-document merging (one queued event,
// filter-ID union, no drop) and the DropOldest fallback when a full queue
// holds no event for the incoming document.
func TestPolicyCoalesceByDoc(t *testing.T) {
	rec := &dropRecorder{}
	h := NewHub(Config{QueueCap: 3, Policy: CoalesceByDoc, Workers: 1, OnDrop: rec.hook})
	defer h.Stop()

	h.Deliver("s", 1, fid(10), []string{"t"})
	h.Deliver("s", 1, fid(11), []string{"t"}) // merges into doc 1
	h.Deliver("s", 2, fid(12), []string{"t"})
	h.Deliver("s", 3, fid(13), []string{"t"})
	h.Deliver("s", 1, []model.FilterID{11, 14}, []string{"t"}) // merges again, 11 deduped

	ss, _ := h.Snapshot("s")
	if want := []uint64{1, 2, 3}; fmt.Sprint(ss.QueuedDocs) != fmt.Sprint(want) {
		t.Fatalf("queue = %v, want %v", ss.QueuedDocs, want)
	}
	if got := counterValue(h, "delivery.coalesced"); got != 2 {
		t.Fatalf("coalesced = %d, want 2", got)
	}
	if got := counterValue(h, "delivery.drops.oldest"); got != 0 {
		t.Fatalf("drops.oldest = %d, want 0 (merges are not drops)", got)
	}

	s, _ := h.Session("s")
	s.mu.Lock()
	gotFilters := fmt.Sprint(s.queue[s.qhead].Filters)
	s.mu.Unlock()
	if want := fmt.Sprint([]model.FilterID{10, 11, 14}); gotFilters != want {
		t.Fatalf("coalesced filters = %v, want %v", gotFilters, want)
	}

	// Full queue, incoming doc 4 has nothing to merge into → fallback.
	h.Deliver("s", 4, fid(15), []string{"t"})
	ss, _ = h.Snapshot("s")
	if want := []uint64{2, 3, 4}; fmt.Sprint(ss.QueuedDocs) != fmt.Sprint(want) {
		t.Fatalf("queue after fallback = %v, want %v", ss.QueuedDocs, want)
	}
	if got := counterValue(h, "delivery.drops.oldest"); got != 1 {
		t.Fatalf("drops.oldest = %d, want 1", got)
	}
	if want := "1/drop-oldest"; fmt.Sprint(rec.list()) != fmt.Sprint([]string{want}) {
		t.Fatalf("OnDrop = %v, want [%s]", rec.list(), want)
	}
}

// TestPolicyDisconnect stalls a reader behind a full window and a full
// queue, then asserts the overflow kills the session: bye + close on the
// connection, every queued and unacked event dropped and accounted, state
// Closed (with subsequent notifications dropped), and a clean revival on
// reattach.
func TestPolicyDisconnect(t *testing.T) {
	rec := &dropRecorder{}
	h := NewHub(Config{QueueCap: 2, WindowCap: 2, FlushBatch: 8, Policy: Disconnect, Workers: 1, OnDrop: rec.hook})
	defer h.Stop()

	conn := &testConn{}
	if _, _, err := h.Attach("s", conn, 0); err != nil {
		t.Fatal(err)
	}
	// Docs 1 and 2 flush into the window (never acked: the reader stalls).
	h.Deliver("s", 1, fid(1), []string{"t"})
	h.Deliver("s", 2, fid(2), []string{"t"})
	waitFor(t, "window to fill", func() bool {
		ss, _ := h.Snapshot("s")
		return ss.Window == 2 && ss.Queued == 0
	})
	// Docs 3 and 4 park in the queue behind the full window.
	h.Deliver("s", 3, fid(3), []string{"t"})
	h.Deliver("s", 4, fid(4), []string{"t"})
	ss, _ := h.Snapshot("s")
	if ss.Queued != 2 || ss.Window != 2 {
		t.Fatalf("queued=%d window=%d, want 2/2", ss.Queued, ss.Window)
	}
	// Doc 5 overflows: the session dies.
	h.Deliver("s", 5, fid(5), []string{"t"})

	ss, _ = h.Snapshot("s")
	if ss.State != StateClosed {
		t.Fatalf("state = %v, want closed", ss.State)
	}
	if ss.Queued != 0 || ss.Window != 0 {
		t.Fatalf("queued=%d window=%d after kill, want 0/0", ss.Queued, ss.Window)
	}
	if !conn.isClosed() {
		t.Fatal("connection not closed")
	}
	if got := conn.lastBye(); got != "slow-consumer: disconnect" {
		t.Fatalf("bye = %q", got)
	}
	if got := counterValue(h, "delivery.drops.disconnect"); got != 5 {
		t.Fatalf("drops.disconnect = %d, want 5", got)
	}
	// Accounting covers the queue (3,4), the unacked window (1,2), and the
	// overflowing event itself (5).
	want := []string{"3/disconnect", "4/disconnect", "1/disconnect", "2/disconnect", "5/disconnect"}
	if fmt.Sprint(rec.list()) != fmt.Sprint(want) {
		t.Fatalf("OnDrop = %v, want %v", rec.list(), want)
	}

	// Closed sessions keep dropping (and keep accounting).
	h.Deliver("s", 6, fid(6), []string{"t"})
	if got := counterValue(h, "delivery.drops.disconnect"); got != 6 {
		t.Fatalf("drops.disconnect after closed-drop = %d, want 6", got)
	}
	ss, _ = h.Snapshot("s")
	if ss.Queued != 0 {
		t.Fatalf("closed session queued %d events", ss.Queued)
	}

	// Reattach revives the session; the dropped range is visible as the gap
	// up to NextSeq.
	conn2 := &testConn{}
	_, info, err := h.Attach("s", conn2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.NextSeq != 3 || info.Redeliver != 0 {
		t.Fatalf("hello = %+v, want NextSeq 3, Redeliver 0", info)
	}
	if got, _ := h.Snapshot("s"); got.State != StateAttached {
		t.Fatalf("state after revival = %v", got.State)
	}
	h.Deliver("s", 7, fid(7), []string{"t"})
	waitFor(t, "post-revival delivery", func() bool { return len(conn2.received()) == 1 })
	if evs := conn2.received(); evs[0].Seq != 3 || evs[0].DocID != 7 {
		t.Fatalf("revived delivery = seq %d doc %d, want 3/7", evs[0].Seq, evs[0].DocID)
	}
}

// TestStalledTransition: a send error detaches the session and closes the
// connection with the window intact (a session is attached or not — there
// is no stalled state to park in), a reattach redelivers the unacked event,
// and an ack drains it.
func TestStalledTransition(t *testing.T) {
	h := NewHub(Config{QueueCap: 8, WindowCap: 8, Workers: 1})
	defer h.Stop()

	conn := &testConn{}
	conn.setErr(errors.New("write timeout"))
	if _, _, err := h.Attach("s", conn, 0); err != nil {
		t.Fatal(err)
	}
	h.Deliver("s", 1, fid(1), []string{"t"})
	waitFor(t, "detach and close", func() bool {
		ss, _ := h.Snapshot("s")
		return ss.State == StateDetached && conn.isClosed()
	})
	if ss, _ := h.Snapshot("s"); ss.Window != 1 {
		t.Fatalf("window = %d, want 1 (kept for the reattach)", ss.Window)
	}

	conn2 := &testConn{}
	if _, _, err := h.Attach("s", conn2, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "redelivery", func() bool {
		return len(conn2.received()) == 1 && counterValue(h, "delivery.redelivered") == 1
	})

	// Ack drains the window.
	h.Ack("s", 1)
	ss, _ := h.Snapshot("s")
	if ss.State != StateAttached || ss.Window != 0 || ss.AckSeq != 1 {
		t.Fatalf("state=%v window=%d ack=%d after ack, want attached/0/1", ss.State, ss.Window, ss.AckSeq)
	}
	if got := counterValue(h, "delivery.acked"); got != 1 {
		t.Fatalf("acked = %d, want 1", got)
	}
}

// TestHardConnErrorDetaches asserts that a non-stalled send error drops the
// connection (the stream may hold a partial frame) but preserves the
// window for the next attach.
func TestHardConnErrorDetaches(t *testing.T) {
	h := NewHub(Config{Workers: 1})
	defer h.Stop()

	conn := &testConn{}
	conn.setErr(errors.New("broken pipe"))
	if _, _, err := h.Attach("s", conn, 0); err != nil {
		t.Fatal(err)
	}
	h.Deliver("s", 1, fid(1), []string{"t"})
	waitFor(t, "detach", func() bool {
		ss, _ := h.Snapshot("s")
		return ss.State == StateDetached
	})
	if !conn.isClosed() {
		t.Fatal("broken connection not closed")
	}
	ss, _ := h.Snapshot("s")
	if ss.Window != 1 {
		t.Fatalf("window = %d, want 1 (preserved for reattach)", ss.Window)
	}

	conn2 := &testConn{}
	_, info, err := h.Attach("s", conn2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Redeliver != 1 {
		t.Fatalf("redeliver = %d, want 1", info.Redeliver)
	}
	waitFor(t, "redelivery", func() bool { return len(conn2.received()) == 1 })
	if got := conn2.received()[0].Seq; got != 1 {
		t.Fatalf("redelivered seq = %d, want 1", got)
	}
}

// TestAttachReplacesConnection asserts last-writer-wins takeover: the old
// connection gets a "replaced" bye and the new one the flow.
func TestAttachReplacesConnection(t *testing.T) {
	h := NewHub(Config{Workers: 1})
	defer h.Stop()

	old := &testConn{}
	if _, _, err := h.Attach("s", old, 0); err != nil {
		t.Fatal(err)
	}
	fresh := &testConn{}
	if _, _, err := h.Attach("s", fresh, 0); err != nil {
		t.Fatal(err)
	}
	if got := old.lastBye(); got != "replaced" {
		t.Fatalf("old bye = %q, want replaced", got)
	}
	if !old.isClosed() {
		t.Fatal("old connection not closed")
	}
	h.Deliver("s", 1, fid(1), []string{"t"})
	waitFor(t, "delivery on new conn", func() bool { return len(fresh.received()) == 1 })
	if len(old.received()) != 0 {
		t.Fatal("replaced connection still receiving")
	}
	if got := counterValue(h, "delivery.kicks.replaced"); got != 1 {
		t.Fatalf("kicks.replaced = %d, want 1", got)
	}
}

// TestIdleKickAndHeartbeat drives the sweep with a fake clock: a connection
// with no inbound activity for idleHeartbeats heartbeat intervals is
// detached (queue preserved), and a quiet-but-alive connection gets pinged.
func TestIdleKickAndHeartbeat(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	const hb = 10 * time.Second
	h := NewHub(Config{Workers: 1, HeartbeatEvery: hb, Clock: clock})
	defer h.Stop()
	// No janitor interference: HeartbeatEvery spawns one, but its real-time
	// ticks observe the same fake clock, so sweeps are deterministic here.

	conn := &testConn{}
	if _, _, err := h.Attach("s", conn, 0); err != nil {
		t.Fatal(err)
	}

	advance(hb + hb/2) // past a heartbeat, inside the idle timeout
	h.sweep()
	waitFor(t, "ping", func() bool {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return conn.pings == 1
	})
	if ss, _ := h.Snapshot("s"); ss.State != StateAttached {
		t.Fatalf("state = %v, want attached", ss.State)
	}

	// A pong keeps the session alive.
	s, _ := h.Session("s")
	s.Touch()
	advance(2 * hb)
	h.sweep() // two heartbeats since the pong: pinged again, not kicked
	if ss, _ := h.Snapshot("s"); ss.State != StateAttached {
		t.Fatalf("state after pong = %v, want attached", ss.State)
	}

	// Silence past the idle timeout: kicked, queue preserved.
	h.Deliver("s", 9, fid(9), []string{"t"})
	waitFor(t, "delivery", func() bool { return len(conn.received()) == 1 })
	advance((idleHeartbeats-2)*hb + time.Second) // idleHeartbeats heartbeats and a second since the pong
	h.sweep()
	ss, _ := h.Snapshot("s")
	if ss.State != StateDetached {
		t.Fatalf("state = %v, want detached after idle kick", ss.State)
	}
	if got := conn.lastBye(); got != "idle-timeout" {
		t.Fatalf("bye = %q, want idle-timeout", got)
	}
	if ss.Window != 1 {
		t.Fatalf("window = %d, want 1 (kick preserves unacked events)", ss.Window)
	}
	if got := counterValue(h, "delivery.kicks.idle"); got != 1 {
		t.Fatalf("kicks.idle = %d, want 1", got)
	}
}

// TestParsePolicy covers the flag spellings both ways.
func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{DropOldest, CoalesceByDoc, Disconnect} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy(bogus) succeeded")
	}
}
