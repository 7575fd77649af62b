package node

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/frame"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/testutil"
	"github.com/movesys/move/internal/trace"
)

// TestMatchRespRoundTripProperty: the compact hop codec is lossless. Random
// responses — every stage of the vocabulary and a stage outside it, every
// combination of the three flags, zero and non-zero positions, errors,
// elapsed times up to 2⁶², terms inside and outside the request's list —
// decode to a value reflect.DeepEqual to the one encoded, with the request's
// list and without one.
func TestMatchRespRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	stages := []string{"home", "column", "flood", "local", "detour", ""}
	nodes := []string{"", "n0", "n1", "entry", "a-node-with-a-long-name", "n2", "n3", "n4", "n5", "n6", "n7", "n8"}
	request := []string{"alpha", "beta", "gamma", "delta", "beta"}
	vocab := append([]string{"", "absent", "another absent term"}, request...)
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	small := func() int {
		if rng.Intn(2) == 0 {
			return 0
		}
		return rng.Intn(300)
	}
	for round := 0; round < 2000; round++ {
		var in MatchResp
		for i := rng.Intn(4); i > 0; i-- {
			in.Matches = append(in.Matches, Match{Filter: model.FilterID(rng.Uint64() >> uint(rng.Intn(64))), Subscriber: pick(nodes)})
		}
		if in.Matches == nil {
			in.Matches = []Match{} // what the decoder builds for a count of zero
		}
		in.PostingsScanned, in.PostingLists, in.ColumnsLost = small(), small(), small()
		in.Degraded = rng.Intn(2) == 0
		for i := rng.Intn(12); i > 0; i-- {
			flags := rng.Intn(8)
			h := trace.Hop{
				Stage: pick(stages), From: pick(nodes), To: pick(nodes), Term: pick(vocab),
				Row: small(), Col: small(), Attempt: small(),
				Failover: flags&1 != 0, Lost: flags&2 != 0, Pending: flags&4 != 0,
			}
			if rng.Intn(3) == 0 {
				h.Err = "rpc: " + pick(vocab)
			}
			if rng.Intn(2) == 0 {
				h.ElapsedNS = int64(rng.Uint64() >> uint(2+rng.Intn(62)))
			}
			in.Hops = append(in.Hops, h)
		}
		for _, terms := range [][]string{request, nil} {
			out, err := DecodeMatchResp(EncodeMatchResp(in, terms), terms)
			if err != nil {
				t.Fatalf("round %d (request list %v): %v\n%+v", round, terms, err, in)
			}
			if !reflect.DeepEqual(out, in) {
				t.Fatalf("round %d (request list %v):\n got %+v\nwant %+v", round, terms, out, in)
			}
		}
	}

	// A response is only as good as the list it is read against: a hop term
	// position past the reader's list is refused, not guessed at.
	resp := MatchResp{Hops: []trace.Hop{{Stage: "local", To: "n0", Term: "gamma"}}}
	if _, err := DecodeMatchResp(EncodeMatchResp(resp, request), request[:2]); err == nil || !strings.Contains(err.Error(), "term position 2 past the request's 2 term(s)") {
		t.Fatalf("hop term position past the request's list: err = %v", err)
	}
}

// wireDoc is a document of n 8-byte terms, the benchmark's term shape.
func wireDoc(id uint64, n int) *model.Document {
	d := &model.Document{ID: id}
	for i := 0; i < n; i++ {
		d.Terms = append(d.Terms, fmt.Sprintf("term%04d", 1000+37*i))
	}
	return d
}

// localHops is what a grid-less home reports: one "local" hop per term.
func localHops(home string, terms []string) []trace.Hop {
	hops := make([]trace.Hop, len(terms))
	for i, t := range terms {
		hops[i] = trace.Hop{Stage: "local", To: home, Term: t}
	}
	return hops
}

// TestEncodeMatchRespAllocs pins the response encoder at one allocation — the
// exact-size frame it returns — for the response match_heavy sends per home:
// 65 hops and 6 matches. Sized from the matches alone it regrew its buffer
// several times per publish.
func TestEncodeMatchRespAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	doc := wireDoc(1, 65)
	resp := MatchResp{PostingsScanned: 8000, PostingLists: 65, Hops: localHops("n0", doc.Terms)}
	for i := 0; i < 6; i++ {
		resp.Matches = append(resp.Matches, Match{Filter: model.FilterID(20000 + i), Subscriber: fmt.Sprintf("s%03d", i)})
	}
	if allocs := testing.AllocsPerRun(200, func() { EncodeMatchResp(resp, doc.Terms) }); allocs != 1 {
		t.Fatalf("encoding a 65-hop, 6-match response allocates %.0f times, want 1", allocs)
	}
}

// wireBudget is what one document puts on the wire, by frame class.
type wireBudget struct {
	request  int // publish requests less their routed lists: envelope, type, flag, document
	routed   int // the routed term lists of those requests
	matches  int // match responses less their hop lists: envelope, counters, matches
	hops     int // the hop lists of those responses
	batch    int // deliver-batch requests and their empty answers
	event    int // subscriber event frames on warm connections
	prefixes int // the length prefix of every frame above
	frames   int

	batchInline int // the same deliver batches, every document inline (not in the total)
	eventCold   int // the same event frames on fresh connections (not in the total)
}

func (b *wireBudget) total() int {
	return b.request + b.routed + b.matches + b.hops + b.batch + b.event + b.prefixes
}

// put frames one payload as the wire does and returns the payload's size. A
// frame under 128 bytes must cost a one-byte prefix.
func (b *wireBudget) put(t *testing.T, payload []byte) int {
	t.Helper()
	wire, err := frame.Append(nil, payload, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	prefix := len(wire) - len(payload)
	if len(payload) < 128 && prefix != 1 {
		t.Fatalf("a %d-byte frame carries a %d-byte prefix, want 1", len(payload), prefix)
	}
	b.prefixes += prefix
	b.frames++
	return len(payload)
}

// The transport's envelopes (tcpConn.roundTrip, TCPNode.handleFrame): request
// ID, sender, body; request ID, status, body. IDs past 127 — two bytes — are
// the steady state of a connection.
func rpcRequest(from string, body []byte) []byte {
	w := codec.NewWriter(16 + len(body))
	w.Uvarint(1000)
	w.String(from)
	w.Bytes0(body)
	return w.Bytes()
}

func rpcAnswer(body []byte) []byte {
	w := codec.NewWriter(8 + len(body))
	w.Uvarint(1000)
	w.Uint8(0)
	w.Bytes0(body)
	return w.Bytes()
}

// publish adds one publish RPC: the request from → its destination carrying
// doc under terms, and the answer resp.
func (b *wireBudget) publish(t *testing.T, from string, local bool, doc *model.Document, terms []string, resp MatchResp) {
	t.Helper()
	req := b.put(t, rpcRequest(from, encodePublish(local, doc, terms...)))
	routed := len(encodePublish(local, doc, terms...)) - len(encodePublish(local, doc)) + 1 // the count byte is the list's
	b.request += req - routed
	b.routed += routed

	ans := b.put(t, rpcAnswer(EncodeMatchResp(resp, terms)))
	bare := resp
	bare.Hops = nil
	hops := len(EncodeMatchResp(resp, terms)) - len(EncodeMatchResp(bare, terms)) + 1 // likewise
	b.matches += ans - hops
	b.hops += hops
}

// deliver adds the last mile of one document: a deliver batch to each owner
// carrying its share of subs (one matched filter each) — naming the document
// when the owner is one it was published to (homes[o]) and that is shorter,
// as routeDeliveries does, and carrying it otherwise — and one event frame
// per subscriber. The batches are priced apart with every document inline.
// Event frames are coded against their connection's state; the budget counts
// a warm connection — one that has carried an event for each document of
// history, in order, the last of them the document before this one — and,
// apart, a fresh one.
func (b *wireBudget) deliver(t *testing.T, doc *model.Document, homes []bool, subs []string, history [][]string) {
	t.Helper()
	owners := len(homes)
	for o, home := range homes {
		batch := &delivery.Batch{DocID: doc.ID, Terms: doc.Terms, Ref: home}
		for i := o; i < len(subs); i += owners {
			batch.Notifs = append(batch.Notifs, delivery.Notification{Sub: subs[i], Filters: []model.FilterID{model.FilterID(20000 + i)}})
		}
		b.batch += b.put(t, rpcRequest("entry", encodeDeliverBatch(batch)))
		b.batch += b.put(t, rpcAnswer(nil))
		batch.Ref = false
		b.batchInline += len(rpcRequest("entry", encodeDeliverBatch(batch))) + len(rpcAnswer(nil))
	}
	for i := range subs {
		ev := delivery.Event{Seq: uint64(3000 + i), DocID: doc.ID, Filters: []model.FilterID{model.FilterID(20000 + i)}, Terms: doc.Terms}
		var warm, cold delivery.EventEncoder
		w := codec.NewWriter(64)
		for k, terms := range history {
			back := uint64(len(history) - k)
			w.Reset()
			warm.Append(w, []*delivery.Event{{Seq: ev.Seq - back, DocID: doc.ID - back, Filters: ev.Filters, Terms: terms}})
		}
		w.Reset()
		warm.Append(w, []*delivery.Event{&ev})
		b.event += b.put(t, w.Bytes())
		w.Reset()
		cold.Append(w, []*delivery.Event{&ev})
		b.eventCold += w.Len()
	}
}

// wtStream is match_heavy's document stream as internal/dataset draws it —
// TREC WT10G's Zipf term frequency and length over a 10,000-term vocabulary,
// the benchmark's document shape — cut after n documents at the next one of
// exactly 65 terms: that document, and every one before it.
func wtStream(t *testing.T, n int) (*model.Document, [][]string) {
	t.Helper()
	g, err := dataset.NewDocGen(dataset.CorpusConfig{Kind: dataset.CorpusWT, DistinctTerms: 10000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var history [][]string
	for {
		terms := g.Next()
		if len(history) >= n && len(terms) == 65 {
			return &model.Document{ID: 70000, Terms: terms}, history
		}
		history = append(history, terms)
	}
}

// hopCost is the steady-state size of one of resp's hops: what the response
// grows by per hop when its hop list is sent twice over, node names already
// introduced.
func hopCost(resp MatchResp, terms []string) float64 {
	twice := resp
	twice.Hops = append(append([]trace.Hop(nil), resp.Hops...), resp.Hops...)
	return float64(len(EncodeMatchResp(twice, terms))-len(EncodeMatchResp(resp, terms))) / float64(len(resp.Hops))
}

func subNames(n int) []string {
	subs := make([]string, n)
	for i := range subs {
		subs[i] = fmt.Sprintf("s%03d", i)
	}
	return subs
}

func matchesFor(subs []string, from, to int) []Match {
	var ms []Match
	for i := from; i < to; i++ {
		ms = append(ms, Match{Filter: model.FilterID(20000 + i), Subscriber: subs[i%len(subs)]})
	}
	return ms
}

// TestWireBudget is the codec layer's microbench: every frame one document
// costs, built with the production encoders and frame.Append, in the three
// shapes the repository benchmark publishes — no daemon, no clock. Run it
// with -v for one row per frame class; it fails when a class passes its
// ceiling (5 % over the figures of the change that last touched a frame), so
// the number to quote before the next such change is here. Every shape's
// owners are homes of its document, so its deliver batches name the document;
// the inline row prices the same batches carrying it, which an owner that is
// not a home — or no longer holds it — is sent. The cold event row is the same
// frames on fresh connections, where every term is a miss: its ceiling is what
// those frames cost before the term table, exactly.
func TestWireBudget(t *testing.T) {
	type ceilings struct{ request, routed, matches, hops, batch, event, prefixes, batchInline, eventCold int }
	shapes := []struct {
		name  string
		build func(t *testing.T, b *wireBudget)
		max   ceilings
	}{
		{
			// match_heavy: a 65-term WT-like document over two grid-less
			// homes, 6 matches for subscribers whose sessions the two homes
			// own; each subscriber's connection has carried
			// the 1,000 documents before it (a session of a 32 s run
			// receives ≈ 2,000, a skewed sample of the same stream).
			name: "65 terms, two homes, 6 matches",
			build: func(t *testing.T, b *wireBudget) {
				doc, history := wtStream(t, 1000)
				subs := subNames(6)
				for h, terms := range [][]string{doc.Terms[:33], doc.Terms[33:]} {
					resp := MatchResp{
						Matches: matchesFor(subs, 3*h, 3*h+3), PostingsScanned: 8000, PostingLists: len(terms),
						Hops: localHops(fmt.Sprintf("n%d", h), terms),
					}
					b.publish(t, "entry", false, doc, terms, resp)
					if c := hopCost(resp, terms); c > 4 {
						t.Errorf("a \"local\" hop costs %.1f B, ceiling 4", c)
					}
				}
				b.deliver(t, doc, []bool{true, true}, subs, history)
				if perTerm := float64(b.routed) / 65; perTerm > 1.1 {
					t.Errorf("routed lists cost %.2f B per routed term, ceiling 1.1", perTerm)
				}
			},
			max: ceilings{request: 1226, routed: 70, matches: 73, hops: 213, batch: 113, event: 1644, prefixes: 25, batchInline: 1293, eventCold: 3480},
		},
		{
			// fanout_heavy: 4 terms over two homes, 160 match entries for 142
			// subscribers, two 71-notification batches, 142 event frames.
			name: "4 terms, 160 match entries, 142 subscribers",
			build: func(t *testing.T, b *wireBudget) {
				doc, subs := wireDoc(70000, 4), subNames(142)
				for h, terms := range [][]string{doc.Terms[:2], doc.Terms[2:]} {
					b.publish(t, "entry", false, doc, terms, MatchResp{
						Matches: matchesFor(subs, 62*h, 62*h+80), PostingsScanned: 80, PostingLists: 2,
						Hops: localHops(fmt.Sprintf("n%d", h), terms),
					})
				}
				b.deliver(t, doc, []bool{true, true}, subs, [][]string{doc.Terms})
			},
			max: ceilings{request: 107, routed: 6, matches: 1365, hops: 21, batch: 1400, event: 1938, prefixes: 161, batchInline: 1461, eventCold: 6816},
		},
		{
			// wire_mixed: 8 terms to one home through its committed 1 × 2
			// grid — itself and n1 — 2 matches for subscribers the home owns.
			name: "8 terms, one home, 1x2 grid, 2 matches",
			build: func(t *testing.T, b *wireBudget) {
				doc, subs := wireDoc(70000, 8), subNames(2)
				column := func(col int, to string) trace.Hop {
					return trace.Hop{Stage: "column", From: "n0", To: to, Col: col, ElapsedNS: 230_000}
				}
				b.publish(t, "n0", true, doc, doc.Terms, MatchResp{Matches: matchesFor(subs, 1, 2), PostingsScanned: 12, PostingLists: 8})
				resp := MatchResp{
					Matches: matchesFor(subs, 0, 2), PostingsScanned: 24, PostingLists: 16,
					Hops: []trace.Hop{column(0, "n0"), column(1, "n1")},
				}
				b.publish(t, "entry", false, doc, doc.Terms, resp)
				b.deliver(t, doc, []bool{true}, subs, [][]string{doc.Terms})
				if c := hopCost(resp, doc.Terms); c > 12 {
					t.Errorf("a served \"column\" hop costs %.1f B, ceiling 12", c)
				}
			},
			max: ceilings{request: 179, routed: 18, matches: 44, hops: 28, batch: 47, event: 35, prefixes: 8, batchInline: 115, eventCold: 168},
		},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var b wireBudget
			sh.build(t, &b)
			t.Logf("%-21s %6s %8s", "frame class", "bytes", "ceiling")
			for _, row := range []struct {
				class    string
				got, max int
			}{
				{"request", b.request, sh.max.request},
				{"routed list", b.routed, sh.max.routed},
				{"matches", b.matches, sh.max.matches},
				{"hops", b.hops, sh.max.hops},
				{"deliver batch", b.batch, sh.max.batch},
				{"event", b.event, sh.max.event},
				{"prefixes", b.prefixes, sh.max.prefixes},
				{"deliver batch, inline", b.batchInline, sh.max.batchInline},
				{"event, cold", b.eventCold, sh.max.eventCold},
			} {
				t.Logf("%-21s %6d %8d", row.class, row.got, row.max)
				if row.got > row.max {
					t.Errorf("%s: %d bytes per document, ceiling %d", row.class, row.got, row.max)
				}
			}
			t.Logf("%-21s %6d bytes in %d frames", "total", b.total(), b.frames)
		})
	}
}

// The prepare frame's bytes for epoch 300 and a 2x2 grid over n1, n2, node-3
// and d: node-wide, and an older coordinator's term-scoped form — the same
// frame with the term "hot" after the grid.
const (
	nodeWidePrepareHex   = "16ac02110202026e31026e32066e6f64652d330164"
	termScopedPrepareHex = nodeWidePrepareHex + "03686f74"
)

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPrepareAllocFrame pins the prepare frame. It is byte for byte the
// frame deployed coordinators already send, and a node installs it as its
// pending grid. A frame with bytes after the grid — an older coordinator's
// term-scoped prepare — is refused with errScopedPrepare and leaves no
// pending grid: installing it as the node's one grid would route every term
// the wrong way.
func TestPrepareAllocFrame(t *testing.T) {
	g, err := alloc.NewGrid(2, 2, []ring.NodeID{"n1", "n2", "node-3", "d"})
	if err != nil {
		t.Fatal(err)
	}
	nodeWide := EncodePrepareAlloc(300, g)
	if got := hex.EncodeToString(nodeWide); got != nodeWidePrepareHex {
		t.Fatalf("EncodePrepareAlloc(300, g) = %s, want %s", got, nodeWidePrepareHex)
	}

	ctx := context.Background()
	nd := soloNode(t)
	for _, payload := range [][]byte{mustHex(t, termScopedPrepareHex), append(slices.Clip(nodeWide), 0)} {
		if _, err := nd.Handle(ctx, "coord", payload); !errors.Is(err, errScopedPrepare) {
			t.Fatalf("a %d-byte prepare with bytes after the grid answered %v, want %v", len(payload), err, errScopedPrepare)
		}
		if nd.table.committed != nil || nd.table.pending != nil {
			t.Fatalf("a refused %d-byte prepare left the table %+v, want it empty", len(payload), nd.table)
		}
	}
	if _, err := nd.Handle(ctx, "coord", nodeWide); err != nil {
		t.Fatal(err)
	}
	if _, pending, dual := nd.EpochInfo(); pending != 300 || !dual || !nd.table.pending.Equal(g) {
		t.Fatalf("after the prepare: pending=%d dual=%v grid=%v; want 300/true and the encoded grid", pending, dual, nd.table.pending)
	}
}

// TestGroupMatchesBySub: notifications come out in first-match order, each
// with exactly its subscriber's filter IDs in match order, for 1, 2 and 142
// subscribers with mixed multiplicities — and although every Filters slice is
// carved from one array, appending to one never reaches the next.
func TestGroupMatchesBySub(t *testing.T) {
	if got := groupMatchesBySub(nil); len(got) != 0 {
		t.Fatalf("no matches grouped into %v", got)
	}
	for _, tc := range []struct {
		name string
		subs int
		mult func(sub int) int // matching filters of subscriber sub
	}{
		{"1 subscriber, 1 filter", 1, func(int) int { return 1 }},
		{"1 subscriber, 5 filters", 1, func(int) int { return 5 }},
		{"2 subscribers, 3 and 1", 2, func(s int) int { return 3 - 2*s }},
		{"142 subscribers, 1 each", 142, func(int) int { return 1 }},
		{"142 subscribers, 1 to 4", 142, func(s int) int { return 1 + s%4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Interleave the subscribers' matches round-robin, so a
			// subscriber's filters are not adjacent in the match set.
			var matches []Match
			want := make(map[string][]model.FilterID)
			var order []string
			for round, id := 0, model.FilterID(1); ; round++ {
				added := false
				for s := 0; s < tc.subs; s++ {
					if round >= tc.mult(s) {
						continue
					}
					sub := fmt.Sprintf("s%03d", s)
					if round == 0 {
						order = append(order, sub)
					}
					matches = append(matches, Match{Filter: id, Subscriber: sub})
					want[sub] = append(want[sub], id)
					id++
					added = true
				}
				if !added {
					break
				}
			}
			notifs := groupMatchesBySub(matches)
			if len(notifs) != tc.subs {
				t.Fatalf("%d notifications, want %d", len(notifs), tc.subs)
			}
			for i, n := range notifs {
				if n.Sub != order[i] || !reflect.DeepEqual(n.Filters, want[n.Sub]) {
					t.Fatalf("notification %d = %s %v, want %s %v", i, n.Sub, n.Filters, order[i], want[order[i]])
				}
			}
			// Growing one notification's list must copy it out, not overwrite
			// the neighbour's first ID.
			for i := range notifs {
				notifs[i].Filters = append(notifs[i].Filters, 1<<40)
			}
			for _, n := range notifs {
				if got := n.Filters[:len(n.Filters)-1]; !reflect.DeepEqual(got, want[n.Sub]) {
					t.Fatalf("after its neighbours grew, %s holds %v, want %v", n.Sub, got, want[n.Sub])
				}
			}
			if testutil.RaceEnabled {
				return // the race detector's instrumentation allocates
			}
			// Three slices and the map, however many subscribers: the
			// one-element slice per notification is gone.
			one := testing.AllocsPerRun(20, func() { groupMatchesBySub(matches[:1]) })
			all := testing.AllocsPerRun(20, func() { groupMatchesBySub(matches) })
			if all > one+8 {
				t.Fatalf("grouping %d matches allocates %.0f times against %.0f for one match: still per notification?", len(matches), all, one)
			}
		})
	}
}
