package delivery

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/frame"
)

// TestShardedRegistry covers the lock-striped session registry: power-of-two
// rounding, striping across more than one shard, per-shard counts rolling up
// to the session total, and DeliverBatch resolving (and creating) sessions
// shard-by-shard with the same observable behavior as per-subscriber
// Deliver calls.
func TestShardedRegistry(t *testing.T) {
	h := NewHub(Config{Workers: 1, Shards: 5})
	defer h.Stop()
	if got := h.Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 8 (5 rounded up to a power of two)", got)
	}

	const n = 256
	for i := 0; i < n; i++ {
		h.Deliver(fmt.Sprintf("sub-%d", i), 1, fid(uint64(i)), []string{"t"})
	}
	if got := h.SessionCount(); got != n {
		t.Fatalf("SessionCount = %d, want %d", got, n)
	}
	counts := h.ShardSessions()
	if len(counts) != 8 {
		t.Fatalf("ShardSessions len = %d, want 8", len(counts))
	}
	sum, populated := 0, 0
	for _, c := range counts {
		sum += c
		if c > 0 {
			populated++
		}
	}
	if sum != n {
		t.Fatalf("per-shard counts sum to %d, want %d", sum, n)
	}
	if populated < 2 {
		t.Fatalf("only %d shard(s) populated by %d subscribers — striping broken", populated, n)
	}

	// DeliverBatch: half the subscribers exist, half are created on the fly.
	notifs := make([]Notification, 0, 64)
	for i := 0; i < 32; i++ {
		notifs = append(notifs, Notification{Sub: fmt.Sprintf("sub-%d", i), Filters: fid(uint64(1000 + i))})
		notifs = append(notifs, Notification{Sub: fmt.Sprintf("fresh-%d", i), Filters: fid(uint64(2000 + i))})
	}
	h.DeliverBatch(99, []string{"x"}, notifs)
	if got := h.SessionCount(); got != n+32 {
		t.Fatalf("SessionCount after batch = %d, want %d", got, n+32)
	}
	for _, nt := range notifs {
		ss, ok := h.Snapshot(nt.Sub)
		if !ok {
			t.Fatalf("no session for %q after DeliverBatch", nt.Sub)
		}
		found := false
		for _, d := range ss.QueuedDocs {
			if d == 99 {
				found = true
			}
		}
		if !found {
			t.Fatalf("%q queue %v missing doc 99", nt.Sub, ss.QueuedDocs)
		}
	}
}

// TestDeliverBatchMatchesDeliver proves the batched enqueue path is
// observably identical to the one-call-per-subscriber path.
func TestDeliverBatchMatchesDeliver(t *testing.T) {
	a := NewHub(Config{Workers: -1, Shards: 4})
	defer a.Stop()
	b := NewHub(Config{Workers: -1, Shards: 4})
	defer b.Stop()

	docs := []uint64{7, 8, 7}
	for _, doc := range docs {
		var notifs []Notification
		for i := 0; i < 40; i++ {
			notifs = append(notifs, Notification{Sub: fmt.Sprintf("s%d", i%13), Filters: fid(doc*100 + uint64(i))})
		}
		a.DeliverBatch(doc, []string{"t"}, notifs)
		for _, nt := range notifs {
			b.Deliver(nt.Sub, doc, nt.Filters, []string{"t"})
		}
	}
	for i := 0; i < 13; i++ {
		sub := fmt.Sprintf("s%d", i)
		sa, _ := a.Snapshot(sub)
		sb, _ := b.Snapshot(sub)
		if fmt.Sprint(sa.QueuedDocs) != fmt.Sprint(sb.QueuedDocs) {
			t.Fatalf("%s: batch queue %v != single queue %v", sub, sa.QueuedDocs, sb.QueuedDocs)
		}
	}
}

// TestStopUnderConcurrentEnqueue stops a multi-worker hub while enqueuers
// are hammering attached sessions and asserts the shutdown protocol: Stop
// returns (no worker left parked forever), every ready ring drains, and no
// session is left flagged scheduled. Run with -race this doubles as the
// memory-ordering check on the park/wake protocol.
func TestStopUnderConcurrentEnqueue(t *testing.T) {
	h := NewHub(Config{Workers: 4, Shards: 8, QueueCap: 64, FlushBatch: 8})

	const subs = 64
	sessions := make([]*Session, subs)
	for i := 0; i < subs; i++ {
		var err error
		sessions[i], _, err = h.Attach(fmt.Sprintf("sub-%d", i), &testConn{}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			doc := uint64(g) << 32
			for !stop.Load() {
				doc++
				h.Deliver(fmt.Sprintf("sub-%d", doc%subs), doc, fid(doc), []string{"t"})
			}
		}(g)
	}

	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		h.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return in 10s — parked worker leaked")
	}
	stop.Store(true)
	wg.Wait()

	if got := h.readyN.Load(); got != 0 {
		t.Fatalf("readyN = %d after Stop, want 0", got)
	}
	for _, sh := range h.shards {
		sh.rmu.Lock()
		ringLen := len(sh.ring) - sh.rhead
		sh.rmu.Unlock()
		if ringLen != 0 {
			t.Fatalf("shard ring holds %d entries after Stop", ringLen)
		}
	}
	for _, s := range sessions {
		if s.scheduled.Load() {
			t.Fatalf("session %s left scheduled after Stop", s.Sub())
		}
	}
	// Stop is idempotent.
	h.Stop()
}

// TestWireConnCoalescesFrames drives the buffered TCP writer directly over
// a net.Pipe: consecutive SendEvents calls buffer without touching the
// socket, one Flush puts every frame on the wire in a single Write, and the
// hub's flush metrics record the ratio.
func TestWireConnCoalescesFrames(t *testing.T) {
	h := NewHub(Config{Workers: -1})
	defer h.Stop()
	client, server := net.Pipe()
	defer client.Close()
	wc := &wireConn{c: server, hub: h}
	defer wc.Close()

	type gotFrame struct {
		typ byte
		n   int
	}
	frames := make(chan gotFrame, 16)
	go func() {
		var buf []byte
		for {
			payload, err := frame.Read(client, &buf, maxFrame)
			if err != nil {
				close(frames)
				return
			}
			frames <- gotFrame{typ: payload[0], n: len(payload)}
		}
	}()

	evs := func(seq uint64) []*Event {
		return []*Event{{Seq: seq, DocID: seq, Filters: fid(seq), Terms: []string{"t"}}}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := wc.SendEvents(evs(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterValue(h, "delivery.flush.syscalls"); got != 0 {
		t.Fatalf("syscalls = %d before Flush, want 0 (frames must buffer)", got)
	}
	if err := wc.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case f := <-frames:
			if f.typ != frameEvents {
				t.Fatalf("frame %d type = %d, want events", i, f.typ)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
	if got := counterValue(h, "delivery.flush.syscalls"); got != 1 {
		t.Fatalf("syscalls = %d, want 1 (3 frames in one write)", got)
	}
	if got := counterValue(h, "delivery.flush.frames"); got != 3 {
		t.Fatalf("frames = %d, want 3", got)
	}
	if hs := h.Metrics().Histograms()["delivery.flush.frames_per_syscall"]; hs.Count != 1 || hs.MaxNS != 3000 {
		t.Fatalf("frames_per_syscall histogram = %+v, want one observation of 3.0 (3000 milli-frames)", hs)
	}

	// A control frame (ping) flushes immediately, carrying any buffered
	// events ahead of it in the same write.
	if err := wc.SendEvents(evs(4)); err != nil {
		t.Fatal(err)
	}
	if err := wc.SendPing(); err != nil {
		t.Fatal(err)
	}
	types := []byte{}
	for i := 0; i < 2; i++ {
		select {
		case f := <-frames:
			types = append(types, f.typ)
		case <-time.After(5 * time.Second):
			t.Fatal("control flush frames never arrived")
		}
	}
	if types[0] != frameEvents || types[1] != framePing {
		t.Fatalf("control flush order = %v, want [events ping]", types)
	}
	if got := counterValue(h, "delivery.flush.syscalls"); got != 2 {
		t.Fatalf("syscalls = %d after ping flush, want 2", got)
	}

	// The size bound: a buffer passing frame.RoundBytes flushes without
	// waiting for Flush.
	big := evs(9)
	big[0].Terms = []string{strings.Repeat("x", frame.RoundBytes)}
	if err := wc.SendEvents(big); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-frames:
		if f.typ != frameEvents || f.n < frame.RoundBytes {
			t.Fatalf("size-bound flush = type %d, %d bytes", f.typ, f.n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("size-bound flush never arrived")
	}
}

// TestServerWriterCoalesced runs a real hub + server over loopback TCP with
// a multi-event backlog and asserts the wire writer achieved > 1 frame per
// syscall on the event stream (the end-to-end version of the ratio the 1M
// bench gates on).
func TestServerWriterCoalesced(t *testing.T) {
	h := NewHub(Config{Workers: 1, FlushBatch: 4, QueueCap: 1 << 12})
	defer h.Stop()
	// Backlog 32 docs while detached, so the first flush round sends 8
	// batches of 4 through one connection — coalesced into few writes.
	for doc := uint64(1); doc <= 32; doc++ {
		h.Deliver("s", doc, fid(doc), []string{"t"})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, h, time.Second)
	defer srv.Close()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := codec.GetWriter()
	AppendHello(w, "s", 0)
	hello, err := frame.Append(nil, w.Bytes(), maxInboundFrame)
	codec.PutWriter(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}

	var dec EventDecoder
	got, wireFrames := 0, int64(0)
	deadline := time.Now().Add(10 * time.Second)
	_ = c.SetReadDeadline(deadline)
	var buf []byte
	for got < 32 {
		payload, err := frame.Read(c, &buf, maxFrame)
		if err != nil {
			t.Fatalf("after %d events: %v", got, err)
		}
		wireFrames++
		r := codec.NewReader(payload)
		typ, _ := r.Uint8()
		switch typ {
		case frameHelloOK, framePing:
		case frameEvents:
			evs, err := dec.Decode(r)
			if err != nil {
				t.Fatal(err)
			}
			got += len(evs)
		default:
			t.Fatalf("unexpected frame %d", typ)
		}
	}
	// The server records a flush after its Write returns, so the client can
	// hold every frame before the counters say so: wait for them to cover
	// what was read off the wire.
	waitFor(t, "flush counters to cover the frames read", func() bool {
		return counterValue(h, "delivery.flush.frames") >= wireFrames
	})
	frames := counterValue(h, "delivery.flush.frames")
	syscalls := counterValue(h, "delivery.flush.syscalls")
	if syscalls == 0 || frames <= syscalls {
		t.Fatalf("frames=%d syscalls=%d — expected >1 frame per write for a 32-doc backlog", frames, syscalls)
	}
}
