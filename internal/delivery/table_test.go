package delivery

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/frame"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/testutil"
)

// TestEventDecoderRefusesBadTags: a term tag the table cannot honour is an
// error, never a panic and never an empty string — a reference to a slot no
// literal has filled, on a fresh table and a partly filled one; a slot past
// the table; a tag or literal running past the payload. Good references read
// the FIFO's contents: after 70 literals slot 0 holds the 65th.
func TestEventDecoderRefusesBadTags(t *testing.T) {
	lit := func(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))<<1), s...) }
	ref := func(slot uint64) []byte { return binary.AppendUvarint(nil, slot<<1|1) }
	// event is an events payload (after the type byte): one event, headers
	// and filters empty, nt terms, then the tags.
	event := func(nt uint64, tags ...[]byte) []byte {
		b := binary.AppendUvarint([]byte{1, 0, 0, 0}, nt)
		for _, tag := range tags {
			b = append(b, tag...)
		}
		return b
	}
	filled := func(n int) *EventDecoder {
		var d EventDecoder
		var tags [][]byte
		for i := 0; i < n; i++ {
			tags = append(tags, lit(fmt.Sprintf("l%d", i)))
		}
		if _, err := d.Decode(codec.NewReader(event(uint64(n), tags...))); err != nil {
			t.Fatal(err)
		}
		return &d
	}
	for _, tc := range []struct {
		name    string
		dec     *EventDecoder
		payload []byte
		want    string // the term decoded, or "" for an error
	}{
		{"fresh table, slot 0", filled(0), event(1, ref(0)), ""},
		{"three filled, slot 3", filled(3), event(1, ref(3)), ""},
		{"three filled, slot 2", filled(3), event(1, ref(2)), "l2"},
		{"literal then its slot", filled(0), event(2, lit("x"), ref(0)), "x"},
		{"full table, slot 64", filled(70), event(1, ref(64)), ""},
		{"full table, slot 0 replaced", filled(70), event(1, ref(0)), "l64"},
		{"full table, slot 6 kept", filled(70), event(1, ref(6)), "l6"},
		{"tag overflows 64 bits", filled(3), event(1, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}), ""},
		{"literal past the payload", filled(0), event(1, append(binary.AppendUvarint(nil, 10<<1), "abc"...)), ""},
		{"term count past the payload", filled(0), event(5, lit("x")), ""},
	} {
		evs, err := tc.dec.Decode(codec.NewReader(tc.payload))
		if tc.want == "" {
			if err == nil {
				t.Errorf("%s: decoded %+v, want an error", tc.name, evs[0])
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := evs[0].Terms[len(evs[0].Terms)-1]; got != tc.want {
			t.Errorf("%s: decoded %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestEncoderTableFindsWhatItHolds: the fingerprint match finds every term
// the table holds at its slot — 64 terms over 255 fingerprints, so several
// almost surely share one — before and after FIFO replacement, an empty
// string included,
// and finds nothing it does not hold, empty slots included.
func TestEncoderTableFindsWhatItHolds(t *testing.T) {
	var enc EventEncoder
	w := codec.NewWriter(1024)
	held := func(from, to int) map[string]int {
		in := map[string]int{}
		for i := from; i < to; i++ {
			in[fmt.Sprintf("t%d", i)] = i % tableSlots
		}
		return in
	}
	send := func(from, to int) {
		var terms []string
		for i := from; i < to; i++ {
			terms = append(terms, fmt.Sprintf("t%d", i))
		}
		enc.Append(w, []*Event{{Terms: terms}})
	}
	if enc.table.slot("", fingerprint("")) != -1 {
		t.Fatal("an empty table holds the empty string")
	}
	send(0, 40)
	if got := enc.table.slot("", fingerprint("")); got != -1 {
		t.Fatalf("empty slots hold the empty string at %d", got)
	}
	for _, span := range [][2]int{{40, 64}, {64, 90}} {
		send(span[0], span[1])
		for term, slot := range held(span[1]-tableSlots, span[1]) {
			if got := enc.table.slot(term, fingerprint(term)); got != slot {
				t.Fatalf("after t0..t%d: %s found at %d, want %d", span[1]-1, term, got, slot)
			}
		}
		for i := span[1]; i < span[1]+1000; i++ {
			if term := fmt.Sprintf("t%d", i); enc.table.slot(term, fingerprint(term)) != -1 {
				t.Fatalf("after t0..t%d: %s found, never sent", span[1]-1, term)
			}
		}
	}
	enc.Append(w, []*Event{{Terms: []string{""}}})
	if got := enc.table.slot("", fingerprint("")); got != 90%tableSlots {
		t.Fatalf("the empty string found at %d, want %d", got, 90%tableSlots)
	}
}

// TestClientRefusesRetiredEventsFrame: a server from before the term table
// sends events as frame 3. A new client must refuse it by number — not read
// its absolute headers and spelled-out terms as tags — and stay refused.
func TestClientRefusesRetiredEventsFrame(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	go func() {
		var buf []byte
		if _, err := frame.Read(server, &buf, maxInboundFrame); err != nil {
			return
		}
		w := codec.NewWriter(32)
		AppendHelloOK(w, HelloInfo{NextSeq: 1})
		wire, _ := frame.Append(nil, w.Bytes(), maxFrame)
		// The retired layout: type 3, one event, Seq 1, DocID 1, no
		// filters, the terms as a string slice.
		w = codec.NewWriter(32)
		w.Uint8(3)
		w.Uvarint(1)
		w.Uvarint(1)
		w.Uvarint(1)
		w.Uvarint(0)
		w.StringSlice([]string{"news"})
		wire, _ = frame.Append(wire, w.Bytes(), maxFrame)
		_, _ = server.Write(wire)
	}()
	cl, err := NewClient(client, "old-server", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		msg, err := cl.Recv()
		if err == nil || !strings.Contains(err.Error(), "frame 3") || msg.Events != nil {
			t.Fatalf("Recv %d of a retired events frame = %+v, %v; want an error naming frame 3", i, msg, err)
		}
	}
}

// TestResumeWithWarmTableOverTCP: a session's table is warmed past its 64
// slots, the socket drops with events unacked, more are queued while it is
// down, and the subscriber reattaches with a stale resume ack. Every
// redelivered and fresh event decodes, on the new connection's fresh table,
// to exactly what the hub queued — in order, with no gap.
func TestResumeWithWarmTableOverTCP(t *testing.T) {
	hub, srv := startServer(t, Config{Workers: 2, FlushBatch: 4, QueueCap: 1 << 10, WindowCap: 1 << 10})
	addr := srv.Addr().String()
	type queued struct {
		filters []model.FilterID
		terms   []string
	}
	sent := map[uint64]queued{}
	deliver := func(doc uint64, terms ...string) {
		q := queued{[]model.FilterID{model.FilterID(doc), model.FilterID(doc + 1000)}, terms}
		sent[doc] = q
		hub.Deliver("dana", doc, q.filters, q.terms)
	}
	// recv reads n events starting at seq first; one subscriber fed in
	// document order, so seq k carries document k.
	recv := func(cl *Client, first uint64, n int) {
		t.Helper()
		for next := first; next < first+uint64(n); {
			msg, err := cl.Recv()
			if err != nil || msg.Bye != "" {
				t.Fatalf("waiting for seq %d: %+v, %v", next, msg, err)
			}
			for _, ev := range msg.Events {
				want := sent[next]
				if err := sameEvents([]*Event{ev}, []*Event{{Seq: next, DocID: next, Filters: want.filters, Terms: want.terms}}); err != nil {
					t.Fatalf("seq %d: %v", next, err)
				}
				next++
			}
		}
	}

	cl, err := Dial(addr, "dana", 0)
	if err != nil {
		t.Fatal(err)
	}
	// 81 distinct terms over 40 documents: the table wraps.
	for doc := uint64(1); doc <= 40; doc++ {
		deliver(doc, fmt.Sprintf("w%d", 2*doc), fmt.Sprintf("w%d", 2*doc+1), "news")
	}
	recv(cl, 1, 40)
	if err := cl.Ack(30); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "server-side ack 30", func() bool {
		ss, _ := hub.Snapshot("dana")
		return ss.AckSeq == 30
	})
	_ = cl.Close()
	waitFor(t, "detach", func() bool {
		ss, _ := hub.Snapshot("dana")
		return ss.State == StateDetached
	})
	// Queued while down: a term the old table evicted, a term of the
	// redelivered documents, a resident one.
	for doc := uint64(41); doc <= 60; doc++ {
		deliver(doc, fmt.Sprintf("w%d", doc-38), fmt.Sprintf("w%d", doc+21), "news")
	}

	cl2, err := Dial(addr, "dana", 20)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if h := cl2.Hello(); h.AckSeq != 30 || h.NextSeq != 41 || h.Redeliver != 10 {
		t.Fatalf("resume hello = %+v, want ack 30, next 41, redeliver 10", h)
	}
	recv(cl2, 31, 30)
}

// discardConn is a net.Conn whose writes succeed without going anywhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) Close() error                     { return nil }

// fanoutTerms is fanout_heavy's vocabulary: 18 terms, four per document.
func fanoutTerms(doc uint64) []string {
	terms := make([]string, 4)
	for i := range terms {
		terms[i] = fmt.Sprintf("term%d", (doc*5+uint64(i)*4)%18)
	}
	return terms
}

// TestWireConnSendEventsZeroAlloc: once a connection's table holds the
// vocabulary, encoding an events frame and flushing it allocates nothing.
func TestWireConnSendEventsZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h := NewHub(Config{Workers: -1})
	defer h.Stop()
	wc := &wireConn{c: discardConn{}, writeTimeout: time.Second, hub: h}
	terms := make([][]string, 18)
	for i := range terms {
		terms[i] = fanoutTerms(uint64(i))
	}
	ev := &Event{Filters: []model.FilterID{20001}}
	send := func() {
		ev.Seq++
		ev.DocID += 2
		ev.Terms = terms[ev.Seq%uint64(len(terms))]
		if err := wc.SendEvents([]*Event{ev}); err != nil {
			t.Fatal(err)
		}
		if err := wc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(terms); i++ {
		send()
	}
	allocs := testing.AllocsPerRun(2000, send)
	if allocs != 0 {
		t.Fatalf("warm SendEvents+Flush allocated %.2f times per frame, want 0", allocs)
	}
}

// replayConn serves the same bytes over and over.
type replayConn struct {
	net.Conn
	wire []byte
	off  int
}

func (c *replayConn) Read(p []byte) (int, error) {
	n := copy(p, c.wire[c.off:])
	c.off = (c.off + n) % len(c.wire)
	return n, nil
}

// TestClientRecvAllHitAllocs: receiving an events frame whose terms the table
// holds allocates frame.Read's one-byte prefix buffer, the frame's event list
// and, per event, the Event, its filter IDs and its term list — and no term
// string.
func TestClientRecvAllHitAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	var enc EventEncoder
	w := codec.NewWriter(256)
	vocab := make([]string, 18)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%d", i)
	}
	enc.Append(w, []*Event{{Seq: 1, DocID: 1, Terms: vocab}})
	warm := append([]byte(nil), w.Bytes()...)
	const perFrame = 4
	var evs []*Event
	for i := 0; i < perFrame; i++ {
		evs = append(evs, &Event{Seq: uint64(2 + i), DocID: uint64(3 + 2*i), Filters: []model.FilterID{20001}, Terms: fanoutTerms(uint64(i))})
	}
	w.Reset()
	enc.Append(w, evs)
	hit, err := frame.Append(nil, w.Bytes(), maxFrame)
	if err != nil {
		t.Fatal(err)
	}

	conn := &replayConn{wire: hit}
	cl := &Client{c: conn, br: bufio.NewReaderSize(conn, frame.RoundBytes)}
	if _, err := cl.events.Decode(mustFrame(t, warm, frameEvents)); err != nil {
		t.Fatal(err)
	}
	msg, err := cl.Recv()
	if err != nil || sameEvents(msg.Events, evs) != nil {
		t.Fatalf("first all-hit frame = %+v, %v", msg, err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := cl.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(2 + 3*perFrame); allocs != want {
		t.Fatalf("Recv of a %d-event all-hit frame allocated %.2f times, want %.0f (no term strings)", perFrame, allocs, want)
	}
}

// parentConnBytes is what one session of TestWarmTermTableCost held before
// subscriber connections kept a term table: the same test body run at the
// commit before the table (2,420–2,442 B over five runs; Go 1.24,
// linux/amd64).
const parentConnBytes = 2431

// TestWarmTermTableCost prices the term table where fanout_heavy pays it:
// 256 sessions attached over loopback TCP, each warmed by documents over
// fanout_heavy's 18-term vocabulary — each batch's term strings fresh, as a
// routed delivery batch decodes them, and shared by every session it
// reaches. The subscribers are raw sockets that keep no table: each reads a
// document's one event frame without decoding it and acks everything sent.
// A session's heap — the daemon's side and the test's socket — is held
// against parentConnBytes: the difference is the table in every wireConn
// (its 1,088 B take the struct from the 112 B size class to 1,280 B) and
// the frame buffers, smaller now that terms are one byte.
func TestWarmTermTableCost(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap figures are meaningless under -race")
	}
	const sessions = 256
	hub, srv := startServer(t, Config{Workers: 2})
	notifs := make([]Notification, sessions)
	conns := make([]net.Conn, sessions)
	readers := make([]*bufio.Reader, sessions)
	frameOf := func(build func(w *codec.Writer)) []byte {
		w := codec.NewWriter(32)
		build(w)
		wire, err := frame.Append(nil, w.Bytes(), maxInboundFrame)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	ackAll := frameOf(func(w *codec.Writer) { AppendAck(w, math.MaxUint64) })
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var buf []byte
	base := heap()
	for i := range conns {
		notifs[i] = Notification{Sub: fmt.Sprintf("s%03d", i), Filters: []model.FilterID{model.FilterID(20000 + i)}}
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(30 * time.Second))
		if _, err := c.Write(frameOf(func(w *codec.Writer) { AppendHello(w, notifs[i].Sub, 0) })); err != nil {
			t.Fatal(err)
		}
		conns[i], readers[i] = c, bufio.NewReaderSize(c, 256)
		if _, err := frame.Read(readers[i], &buf, maxFrame); err != nil {
			t.Fatal(err)
		}
	}
	doc := uint64(0)
	// deliver sends one document to every session, reads its event frame off
	// every socket and acks it.
	deliver := func(terms []string) {
		t.Helper()
		doc++
		hub.DeliverBatch(doc, terms, notifs)
		for i, c := range conns {
			payload, err := frame.Read(readers[i], &buf, maxFrame)
			if err != nil || payload[0] != frameEvents {
				t.Fatalf("session %d, document %d: %v", i, doc, err)
			}
			if _, err := c.Write(ackAll); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "every session acked", func() bool { return hub.Pending() == 0 })
	}
	for i := 0; i < 20; i++ {
		terms := fanoutTerms(doc)
		for i := range terms {
			terms[i] = strings.Clone(terms[i])
		}
		deliver(terms)
	}
	perConn := (float64(heap()) - float64(base)) / sessions
	runtime.KeepAlive(readers)
	t.Logf("a warm session holds %.0f B, %+.0f B over the parent's %d B (%d sessions)", perConn, perConn-parentConnBytes, parentConnBytes, sessions)
	if perConn > parentConnBytes+1536 {
		t.Fatalf("a warm session holds %.0f B, more than 1,536 B over the parent's %d B", perConn, parentConnBytes)
	}
}

// BenchmarkEncodeEvents prices one event frame on a warm connection in the
// two shapes the table meets: fanout_heavy's four terms, all held, and
// match_heavy's 65 distinct terms, which cycle a 64-slot FIFO so that every
// one is a miss — the encoder's worst case.
func BenchmarkEncodeEvents(b *testing.B) {
	many := make([][]string, 64)
	for d := range many {
		for i := 0; i < 65; i++ {
			many[d] = append(many[d], fmt.Sprintf("term%04d", (d*7+i*13)%3000))
		}
	}
	few := make([][]string, 18)
	for d := range few {
		few[d] = fanoutTerms(uint64(d))
	}
	for _, bc := range []struct {
		name string
		docs [][]string
	}{{"4 terms held", few}, {"65 terms missed", many}} {
		b.Run(bc.name, func(b *testing.B) {
			var enc EventEncoder
			w := codec.NewWriter(1024)
			ev := &Event{Filters: []model.FilterID{201}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev.Seq++
				ev.DocID += 2
				ev.Terms = bc.docs[i%len(bc.docs)]
				w.Reset()
				enc.Append(w, []*Event{ev})
			}
		})
	}
}
