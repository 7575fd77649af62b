package delivery

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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
// what least-recently-used replacement leaves: after 520 literals slots 0–7
// hold the last eight, and a term referenced before a literal is not the one
// it replaces.
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
		{"full table, slot 512", filled(520), event(1, ref(512)), ""},
		{"full table, slot 0 replaced", filled(520), event(1, ref(0)), "l512"},
		{"full table, slot 7 replaced", filled(520), event(1, ref(7)), "l519"},
		{"full table, slot 8 kept", filled(520), event(1, ref(8)), "l8"},
		{"used slot 0 survives a literal", filled(512), event(3, ref(0), lit("x"), ref(0)), "l0"},
		{"the literal takes slot 1 instead", filled(512), event(3, ref(0), lit("x"), ref(1)), "x"},
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

// TestEncoderTableFindsWhatItHolds: the encoder's index finds every term the
// table holds at its slot — the decoder's copy of the table says which — as
// the table fills, once it is full and replacing, an empty string included;
// and finds nothing it does not hold. 300 documents of 40 terms drawn from
// 1,500 leave the table full with thousands of replacements behind it, so
// probe runs have been cut and closed many times over.
func TestEncoderTableFindsWhatItHolds(t *testing.T) {
	var enc EventEncoder
	var dec EventDecoder
	w := codec.NewWriter(1024)
	vocab := make([]string, 1500)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%d", i)
	}
	vocab[0] = ""
	check := func(doc int) {
		t.Helper()
		held := make(map[string]bool, len(dec.table.terms))
		for slot, term := range dec.table.terms {
			held[term] = true
			if got := enc.lookup(term, hashTerm(term)); got != slot {
				t.Fatalf("after document %d: %q found at %d, the decoder holds it in slot %d", doc, term, got, slot)
			}
		}
		for _, term := range vocab {
			if !held[term] && enc.lookup(term, hashTerm(term)) != -1 {
				t.Fatalf("after document %d: %q found, not held", doc, term)
			}
		}
	}
	check(-1)
	rng := rand.New(rand.NewSource(1))
	for doc := 0; doc < 300; doc++ {
		terms := make([]string, 40)
		for i := range terms {
			terms[i] = vocab[rng.Intn(len(vocab))]
		}
		w.Reset()
		enc.Append(w, []*Event{{Terms: terms}})
		if _, err := dec.Decode(mustFrame(t, w.Bytes(), frameEvents)); err != nil {
			t.Fatal(err)
		}
		check(doc)
	}
	if len(dec.table.terms) != tableSlots {
		t.Fatalf("the table holds %d terms, want it full (%d)", len(dec.table.terms), tableSlots)
	}
}

// TestTermTableIsLRU holds the encoder to a plain model of its rule — a list
// of (term, last use) searched end to end: a held term is sent as its slot; a
// new one as a literal, which takes the next unfilled slot while there is one
// and the least recently used term's slot after that. Every frame of 400
// documents, 1 to 65 terms each, over a skewed 3,300-term vocabulary must be
// byte for byte the model's, and decode to what was sent.
func TestTermTableIsLRU(t *testing.T) {
	type entry struct {
		term string
		used int
	}
	var model []entry
	var enc EventEncoder
	var dec EventDecoder
	w := codec.NewWriter(1024)
	rng := rand.New(rand.NewSource(7))
	clock, replaced := 0, 0
	for doc := 1; doc <= 400; doc++ {
		terms := make([]string, 1+rng.Intn(65))
		want := binary.AppendUvarint([]byte{frameEvents, 1, 0, 0, 0}, uint64(len(terms)))
		for i := range terms {
			if rng.Intn(5) < 3 {
				terms[i] = fmt.Sprintf("hot%d", rng.Intn(300))
			} else {
				terms[i] = fmt.Sprintf("cold%d", rng.Intn(3000))
			}
			clock++
			slot := -1
			for s := range model {
				if model[s].term == terms[i] {
					slot = s
				}
			}
			switch {
			case slot >= 0:
				model[slot].used = clock
				want = binary.AppendUvarint(want, uint64(slot)<<1|1)
				continue
			case len(model) < tableSlots:
				model = append(model, entry{terms[i], clock})
			default:
				lru := 0
				for s := range model {
					if model[s].used < model[lru].used {
						lru = s
					}
				}
				model[lru] = entry{terms[i], clock}
				replaced++
			}
			want = append(binary.AppendUvarint(want, uint64(len(terms[i]))<<1), terms[i]...)
		}
		ev := &Event{Seq: uint64(doc), Terms: terms}
		w.Reset()
		enc.Append(w, []*Event{ev})
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("document %d: frame\n%x\nwant the model's\n%x", doc, w.Bytes(), want)
		}
		got, err := dec.Decode(mustFrame(t, w.Bytes(), frameEvents))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameEvents(got, []*Event{ev}); err != nil {
			t.Fatalf("document %d: %v", doc, err)
		}
	}
	if replaced < 1000 {
		t.Fatalf("only %d replacements: the model never ran full", replaced)
	}
}

// TestClientRefusesRetiredEventsFrame: servers from before the term table
// send events as frame 3, servers from before least-recently-used replacement
// as frame 8. A new client must refuse either by number — not read absolute
// headers and spelled-out terms as tags, nor tags against a table that
// replaced its terms in another order — and stay refused.
func TestClientRefusesRetiredEventsFrame(t *testing.T) {
	for _, retired := range []struct {
		typ     uint8
		payload []byte // after the type byte
	}{
		// One event, Seq 1, DocID 1, no filters, the terms as a string slice.
		{3, append([]byte{1, 1, 1, 0, 1, 4}, "news"...)},
		// One event, Seq and DocID deltas 0, no filters, one literal.
		{8, append([]byte{1, 0, 0, 0, 1, 4 << 1}, "news"...)},
	} {
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
			wire, _ = frame.Append(wire, append([]byte{retired.typ}, retired.payload...), maxFrame)
			_, _ = server.Write(wire)
		}()
		cl, err := NewClient(client, "old-server", 0)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("frame %d", retired.typ)
		for i := 0; i < 2; i++ {
			msg, err := cl.Recv()
			if err == nil || !strings.Contains(err.Error(), name) || msg.Events != nil {
				t.Fatalf("Recv %d of a retired events frame = %+v, %v; want an error naming %s", i, msg, err, name)
			}
		}
	}
}

// TestResumeWithWarmTableOverTCP: a session's table is warmed past its 512
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
	// 561 distinct terms over 280 documents: the table replaces w2–w50.
	const warm = 280
	for doc := uint64(1); doc <= warm; doc++ {
		deliver(doc, fmt.Sprintf("w%d", 2*doc), fmt.Sprintf("w%d", 2*doc+1), "news")
	}
	recv(cl, 1, warm)
	if err := cl.Ack(warm - 10); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "server-side ack", func() bool {
		ss, _ := hub.Snapshot("dana")
		return ss.AckSeq == warm-10
	})
	_ = cl.Close()
	waitFor(t, "detach", func() bool {
		ss, _ := hub.Snapshot("dana")
		return !ss.Attached
	})
	// Queued while down: a term the old table replaced, a term of the
	// redelivered documents, a resident one.
	for doc := uint64(warm + 1); doc <= warm+20; doc++ {
		deliver(doc, fmt.Sprintf("w%d", doc-warm+2), fmt.Sprintf("w%d", doc+warm-19), "news")
	}

	cl2, err := Dial(addr, "dana", warm-20)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if h := cl2.Hello(); h.AckSeq != warm-10 || h.NextSeq != warm+1 || h.Redeliver != 10 {
		t.Fatalf("resume hello = %+v, want ack %d, next %d, redeliver 10", h, warm-10, warm+1)
	}
	recv(cl2, warm-9, 30)
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
// holds allocates the frame's event list and, per event, the Event, its
// filter IDs and its term list — and no term string, and nothing to read the
// frame.
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
	if want := float64(1 + 3*perFrame); allocs != want {
		t.Fatalf("Recv of a %d-event all-hit frame allocated %.2f times, want %.0f (no term strings)", perFrame, allocs, want)
	}
}

// parentConnBytes is what one session of TestWarmTermTableCost held before
// subscriber connections kept a term table: the same test body run at the
// commit before the table (2,420–2,442 B over five runs; Go 1.24,
// linux/amd64).
const parentConnBytes = 2431

// sessionHeap attaches sessions subscriber sockets over loopback TCP and runs
// rounds of deliveries: each round the hub delivers the batches batch returns
// for it — every session reached once — and every socket reads its one event
// frame and acks everything sent. The subscribers are raw sockets that keep
// no table: they read a frame without decoding it. It returns the heap one
// session holds at the end — the daemon's side and the test's socket.
func sessionHeap(t *testing.T, sessions, rounds int, batch func(round int, notifs []Notification) []Batch) float64 {
	t.Helper()
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
	t.Cleanup(func() {
		for _, c := range conns {
			if c != nil {
				_ = c.Close()
			}
		}
	})
	for i := range conns {
		notifs[i] = Notification{Sub: fmt.Sprintf("s%03d", i), Filters: []model.FilterID{model.FilterID(20000 + i)}}
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(30 * time.Second))
		if _, err := c.Write(frameOf(func(w *codec.Writer) { AppendHello(w, notifs[i].Sub, 0) })); err != nil {
			t.Fatal(err)
		}
		conns[i], readers[i] = c, bufio.NewReaderSize(c, 256)
		if _, err := frame.Read(readers[i], &buf, maxFrame); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < rounds; round++ {
		for _, b := range batch(round, notifs) {
			hub.DeliverBatch(b.DocID, b.Terms, b.Notifs)
		}
		for i, c := range conns {
			payload, err := frame.Read(readers[i], &buf, maxFrame)
			if err != nil || payload[0] != frameEvents {
				t.Fatalf("session %d, round %d: %v", i, round, err)
			}
			if _, err := c.Write(ackAll); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "every session acked", func() bool { return hub.Pending() == 0 })
	}
	perConn := (float64(heap()) - float64(base)) / float64(sessions)
	runtime.KeepAlive(readers)
	return perConn
}

// TestWarmTermTableCost prices the term table where fanout_heavy pays it:
// 256 sessions, each warmed by 20 documents over fanout_heavy's 18-term
// vocabulary — each document one batch to every session, its term strings
// fresh, as a routed delivery batch decodes them, and shared by every session
// it reaches. A session is held against parentConnBytes: the difference is
// the table, which grows with the terms the connection has carried (18 slots
// here, ≈ 900 B), and the frame buffers, smaller now that terms are one byte.
func TestWarmTermTableCost(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap figures are meaningless under -race")
	}
	const sessions = 256
	perConn := sessionHeap(t, sessions, 20, func(round int, notifs []Notification) []Batch {
		terms := fanoutTerms(uint64(round))
		for i := range terms {
			terms[i] = strings.Clone(terms[i])
		}
		return []Batch{{DocID: uint64(round + 1), Terms: terms, Notifs: notifs}}
	})
	t.Logf("a warm session holds %.0f B, %+.0f B over the parent's %d B (%d sessions)", perConn, perConn-parentConnBytes, parentConnBytes, sessions)
	if perConn > parentConnBytes+1536 {
		t.Fatalf("a warm session holds %.0f B, more than 1,536 B over the parent's %d B", perConn, parentConnBytes)
	}
}

// parentFullBytes is what one session of TestFullTermTableCost held when the
// table was 64 slots replacing the oldest first: the same test body run at the
// commit before 512 slots (5,816–5,820 B over three runs; Go 1.24,
// linux/amd64).
const parentFullBytes = 5818

// fullTableBytes is a full table: 512 string headers (8 KiB, which the
// runtime's 8-byte malloc header puts in the 9,472 B size class), 513
// recency links (2,052 B, a 2,304 B size class), the encoder's 1,024-bucket
// index (4 KiB), and the 512 terms it keeps alive at up to 16 B each (a
// tiny-allocator block).
const fullTableBytes = 9472 + 2304 + 4096 + 512*16

// TestFullTermTableCost prices the table where match_heavy pays it: 64
// sessions, each sent ten 65-term documents of its own — 650 distinct
// eight-byte terms, so the table fills and replaces, and no term string is
// shared with another session (the most a table can keep alive). A session
// is held against what it held with the 64-slot table plus a full table's
// bytes, which leaves the old table's ≈ 2 KB as the margin.
func TestFullTermTableCost(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap figures are meaningless under -race")
	}
	const sessions = 64
	perConn := sessionHeap(t, sessions, 10, func(round int, notifs []Notification) []Batch {
		batches := make([]Batch, len(notifs))
		for i := range notifs {
			terms := make([]string, 65)
			for j := range terms {
				terms[j] = fmt.Sprintf("t%07d", (round*len(notifs)+i)*65+j)
			}
			batches[i] = Batch{DocID: uint64(round + 1), Terms: terms, Notifs: notifs[i : i+1]}
		}
		return batches
	})
	t.Logf("a session with a full table holds %.0f B, %+.0f B over the parent's %d B (%d sessions)", perConn, perConn-parentFullBytes, parentFullBytes, sessions)
	if perConn > parentFullBytes+fullTableBytes {
		t.Fatalf("a session with a full table holds %.0f B, more than a full table's %d B over the parent's %d B", perConn, fullTableBytes, parentFullBytes)
	}
}

// BenchmarkEncodeEvents prices one event frame on a warm connection in the
// three shapes the table meets: fanout_heavy's four terms, all held; 65 terms
// the table holds, in two-byte slots as much as one-byte ones; and 65 terms
// cycling through 4,160, so that every one is a miss that replaces the least
// recently used term — the encoder's worst case.
func BenchmarkEncodeEvents(b *testing.B) {
	docs := func(n, vocab int) [][]string {
		out := make([][]string, n)
		for d := range out {
			for i := 0; i < 65; i++ {
				out[d] = append(out[d], fmt.Sprintf("term%04d", (d*65+i)%vocab))
			}
		}
		return out
	}
	few := make([][]string, 18)
	for d := range few {
		few[d] = fanoutTerms(uint64(d))
	}
	for _, bc := range []struct {
		name string
		docs [][]string
	}{{"4 terms held", few}, {"65 terms held", docs(64, 500)}, {"65 terms missed", docs(64, 64*65)}} {
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
