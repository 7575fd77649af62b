package node

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/testutil"
	"github.com/movesys/move/internal/transport"
)

// PublishEntryPerTerm is the uncoalesced §III fan-out: one publish frame
// per Bloom-passing term, each re-shipping the document under that one
// term. It is the reference oracle of the coalesced path (equivalence
// tests, RPC-count ablations); production callers use PublishEntry.
func (n *Node) PublishEntryPerTerm(ctx context.Context, doc *model.Document) ([]Match, MatchResp, error) {
	return n.publishEntry(ctx, doc, n.perTermGroups)
}

// perTermGroups is the uncoalesced grouping: one single-term group per
// term, homes resolved upfront like groupTermsByHome.
func (n *Node) perTermGroups(terms []string) ([]homeGroup, error) {
	groups := make([]homeGroup, 0, len(terms))
	for i, t := range terms {
		home, err := n.cfg.Ring.HomeNode(t)
		if err != nil {
			return nil, fmt.Errorf("node %s: home of %q: %w", n.cfg.ID, t, err)
		}
		groups = append(groups, homeGroup{home: home, terms: terms[i : i+1 : i+1]})
	}
	return groups, nil
}

// encodePublish builds one publish frame in a fresh buffer, as sendPublish
// does in a pooled one.
func encodePublish(local bool, doc *model.Document, terms ...string) []byte {
	w := codec.NewWriter(64)
	appendPublishFrame(w, local, doc, terms)
	return w.Bytes()
}

// encodeDeliverBatch builds one routed delivery frame, as routeDeliveries
// does in a pooled buffer.
func encodeDeliverBatch(b *delivery.Batch) []byte {
	w := codec.NewWriter(64)
	w.Uint8(msgDeliverBatch)
	delivery.AppendBatch(w, b)
	return w.Bytes()
}

// TestPublishFrameRoundTrip round-trips the one-document publish frame in
// both directions of the local flag and over every shape of routed term list
// — the whole document, empty, out of document order, a
// term the document does not hold, a document repeating a term — and pins the
// frame's budget: the type byte, the flag, the document, the list's count and
// one byte per routed term (a term spelled out costs its string), no heap
// allocation to encode, and none to decode the routed list beyond its slice.
func TestPublishFrameRoundTrip(t *testing.T) {
	small := model.Document{ID: 42, Terms: []string{"go", "cluster", "systems"}}
	repeats := model.Document{ID: 43, Terms: []string{"go", "cluster", "go", "systems", "go"}}
	wide := model.Document{ID: 1 << 40}
	for i := 0; i < 65; i++ {
		wide.Terms = append(wide.Terms, fmt.Sprintf("term%02d", i))
	}
	cases := []struct {
		name  string
		local bool
		doc   *model.Document
		terms []string
	}{
		{"home", false, &small, []string{"go", "systems"}},
		{"local bit", true, &small, []string{"go", "systems"}},
		{"empty term list", false, &small, nil},
		{"65-term document", true, &wide, wide.Terms},
		{"whole document", false, &small, small.Terms},
		{"out of document order", true, &small, []string{"systems", "go", "cluster"}},
		{"term absent from the document", false, &small, []string{"go", "absent", "systems"}},
		{"repeated term", false, &repeats, repeats.Terms},
		{"repeated term, out of order", true, &repeats, []string{"systems", "go", "go"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := encodePublish(tc.local, tc.doc, tc.terms...)
			r := codec.NewReader(frame)
			if typ, err := r.Uint8(); err != nil || typ != msgPublish {
				t.Fatalf("type byte = %d, %v", typ, err)
			}
			local, doc, terms, err := decodePublishFrame(r)
			if err != nil {
				t.Fatal(err)
			}
			if local != tc.local {
				t.Fatalf("local flag = %v, want %v", local, tc.local)
			}
			if doc.ID != tc.doc.ID || !slices.Equal(doc.Terms, tc.doc.Terms) || !slices.Equal(terms, tc.terms) {
				t.Fatalf("round trip = doc %d %v under %v", doc.ID, doc.Terms, terms)
			}
			bare := codec.NewWriter(64)
			bare.Uint8(msgPublish)
			bare.Bool(tc.local)
			tc.doc.EncodeTo(bare)
			bare.Uvarint(uint64(len(tc.terms)))
			want := bare.Len()
			for _, term := range tc.terms {
				want++
				if !slices.Contains(tc.doc.Terms, term) {
					want += 1 + len(term)
				}
			}
			if len(frame) != want {
				t.Fatalf("frame is %d bytes, budget is %d: one byte per routed term over the document", len(frame), want)
			}
		})
	}
	if testutil.RaceEnabled {
		return // the race detector's instrumentation allocates
	}
	w := codec.NewWriter(2048)
	if allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		appendPublishFrame(w, false, &wide, wide.Terms)
	}); allocs != 0 {
		t.Fatalf("encoding a publish frame allocates %.0f times, want 0", allocs)
	}
	// Decoding: the 65 routed terms are the decoded document's own strings,
	// so routing all of them costs one allocation (the slice) over routing
	// none. The retired layout allocated one string per routed term.
	decodeAllocs := func(terms []string) float64 {
		frame := encodePublish(false, &wide, terms...)[1:]
		return testing.AllocsPerRun(100, func() {
			if _, _, _, err := decodePublishFrame(codec.NewReader(frame)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if all, none := decodeAllocs(wide.Terms), decodeAllocs(nil); all-none != 1 {
		t.Fatalf("decoding 65 routed terms allocates %.0f times over decoding none (%.0f vs %.0f), want 1", all-none, all, none)
	}
}

// TestPublishFrameRefused: a publish frame with bytes left over after its
// term list, a frame of a retired publish type (the multi-item 27, the
// string-list 28), and a routed term position past the document's term list
// are refused by Handle and leave the node — counters, filters, traces — as
// it was.
func TestPublishFrameRefused(t *testing.T) {
	doc := model.Document{ID: 7, Terms: []string{"alpha", "beta"}}
	// Type 27 as its last sender wrote a one-item frame: document count and
	// flag, the document table, item count, document index, term list.
	retired := codec.NewWriter(64)
	retired.Uint8(27)
	retired.Uvarint(1 << 1)
	doc.EncodeTo(retired)
	retired.Uvarint(1)
	retired.Uvarint(0)
	retired.StringSlice([]string{"alpha"})
	// Type 28 as its last sender wrote it: flag, document, terms as strings.
	retired28 := codec.NewWriter(64)
	retired28.Uint8(28)
	retired28.Bool(false)
	doc.EncodeTo(retired28)
	retired28.StringSlice([]string{"alpha"})
	// The routed list names position 2 of a two-term document.
	past := codec.NewWriter(64)
	past.Uint8(msgPublish)
	past.Bool(false)
	doc.EncodeTo(past)
	past.Uvarint(2)
	past.Uvarint(1)
	past.Uvarint(3)

	cases := []struct {
		name    string
		frame   []byte
		wantErr string
	}{
		{"home frame with a trailing byte", append(encodePublish(false, &doc, "alpha"), 0), "trailing byte"},
		{"local frame with a second frame appended", append(encodePublish(true, &doc, "alpha"), encodePublish(true, &doc, "beta")...), "trailing byte"},
		{"retired type 27", retired.Bytes(), "unknown message type 27"},
		{"retired type 28", retired28.Bytes(), "unknown message type 28"},
		{"term position past the document", past.Bytes(), "term position 2 past the document's 2 term(s)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nd := newHarness(t, 1).nodes[0]
			f := model.Filter{ID: 1, Subscriber: "s", Terms: []string{"alpha"}, Mode: model.MatchAny}
			if _, err := nd.Handle(context.Background(), "seed", EncodeRegister(RegisterReq{Filter: f, PostingTerms: f.Terms})); err != nil {
				t.Fatal(err)
			}
			before, traces := nd.Stats(), len(nd.Traces().Last(8))
			_, err := nd.Handle(context.Background(), "peer", tc.frame)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Handle = %v, want an error containing %q", err, tc.wantErr)
			}
			if after := nd.Stats(); after != before {
				t.Fatalf("refused frame changed the node: %+v -> %+v", before, after)
			}
			if got := len(nd.Traces().Last(8)); got != traces {
				t.Fatalf("refused frame recorded %d trace(s)", got-traces)
			}
			// The well-formed frame the refused one was built from is served.
			raw, err := nd.Handle(context.Background(), "peer", encodePublish(false, &doc, "alpha"))
			if err != nil {
				t.Fatal(err)
			}
			if resp, err := DecodeMatchResp(raw, []string{"alpha"}); err != nil || len(resp.Matches) != 1 {
				t.Fatalf("well-formed frame = %+v, %v, want the one match", resp, err)
			}
		})
	}
}

// assertPublishEquivalent asserts the coalesced publish observably equals
// the per-term oracle: identical deduplicated match set and identical
// wire-visible accounting (PostingsScanned, PostingLists, Degraded,
// ColumnsLost). Hop counts and failover paths may differ — those describe
// the framing, not the answer.
func assertPublishEquivalent(t *testing.T, label string, gotM, wantM []Match, got, want MatchResp) {
	t.Helper()
	if !equalMatchSets(gotM, wantM) {
		t.Fatalf("%s: coalesced matches %v != per-term matches %v", label, gotM, wantM)
	}
	if got.PostingsScanned != want.PostingsScanned {
		t.Fatalf("%s: PostingsScanned %d != per-term %d", label, got.PostingsScanned, want.PostingsScanned)
	}
	if got.PostingLists != want.PostingLists {
		t.Fatalf("%s: PostingLists %d != per-term %d", label, got.PostingLists, want.PostingLists)
	}
	if got.Degraded != want.Degraded || got.ColumnsLost != want.ColumnsLost {
		t.Fatalf("%s: degraded=%v lost=%d != per-term degraded=%v lost=%d",
			label, got.Degraded, got.ColumnsLost, want.Degraded, want.ColumnsLost)
	}
}

func equalMatchSets(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]Match(nil), a...), append([]Match(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i].Filter < as[j].Filter })
	sort.Slice(bs, func(i, j int) bool { return bs[i].Filter < bs[j].Filter })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestPublishEntryCoalescedMatchesPerTermOracle drives randomized filter
// sets and documents through the coalesced entry path and the per-term
// oracle on a healthy cluster (no grids) and requires exact observable
// equality.
func TestPublishEntryCoalescedMatchesPerTermOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newHarness(t, 6)
	vocab := make([]string, 12)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%d", i)
	}
	for i := 1; i <= 30; i++ {
		n := 1 + rng.Intn(3)
		perm := rng.Perm(len(vocab))
		terms := make([]string, 0, n)
		for _, p := range perm[:n] {
			terms = append(terms, vocab[p])
		}
		mode := model.MatchAny
		if rng.Intn(2) == 0 {
			mode = model.MatchAll
		}
		h.registerEverywhere(t, model.Filter{ID: model.FilterID(i), Subscriber: "s", Terms: terms, Mode: mode})
	}
	ctx := context.Background()
	for docID := uint64(1); docID <= 25; docID++ {
		n := 1 + rng.Intn(5)
		perm := rng.Perm(len(vocab))
		terms := make([]string, 0, n)
		for _, p := range perm[:n] {
			terms = append(terms, vocab[p])
		}
		entry := h.nodes[rng.Intn(len(h.nodes))]
		wantM, want, err := entry.PublishEntryPerTerm(ctx, &model.Document{ID: docID, Terms: terms})
		if err != nil {
			t.Fatalf("doc %d per-term: %v", docID, err)
		}
		gotM, got, err := entry.PublishEntry(ctx, &model.Document{ID: docID, Terms: terms})
		if err != nil {
			t.Fatalf("doc %d coalesced: %v", docID, err)
		}
		assertPublishEquivalent(t, fmt.Sprintf("doc %d %v", docID, terms), gotM, wantM, got, want)
	}
}

// TestPublishEntryCoalescedEquivalenceAcrossGrids repeats the oracle check
// when one home fans out across a partition grid, under three regimes:
// healthy, one replica down per row (failover keeps full coverage), and a
// fully dead column (both paths must degrade identically).
func TestPublishEntryCoalescedEquivalenceAcrossGrids(t *testing.T) {
	h := newHarness(t, 7)
	const filters = 24
	homeNode, grid := installHotGrid(t, h, filters)
	// Extra non-grid filters so the publish spans several home nodes.
	h.registerEverywhere(t, model.Filter{ID: 100, Subscriber: "a", Terms: []string{"alpha"}, Mode: model.MatchAny})
	h.registerEverywhere(t, model.Filter{ID: 101, Subscriber: "b", Terms: []string{"beta", "hot"}, Mode: model.MatchAll})
	var entry *Node
	for _, nd := range h.nodes {
		if nd.ID() != homeNode.ID() {
			entry = nd
			break
		}
	}
	ctx := context.Background()

	check := func(label string, docID uint64) (MatchResp, MatchResp) {
		t.Helper()
		doc := model.Document{ID: docID, Terms: []string{"hot", "alpha", "beta"}}
		wantM, want, err := entry.PublishEntryPerTerm(ctx, &doc)
		if err != nil {
			t.Fatalf("%s per-term: %v", label, err)
		}
		gotM, got, err := entry.PublishEntry(ctx, &doc)
		if err != nil {
			t.Fatalf("%s coalesced: %v", label, err)
		}
		assertPublishEquivalent(t, label, gotM, wantM, got, want)
		return got, want
	}

	got, want := check("healthy", 1)
	if got.Degraded {
		t.Fatal("healthy publish degraded")
	}

	// One dead replica per row, distinct columns: every column keeps a live
	// row, so both paths recover the full set via failover.
	h.net.Fail(grid.Node(0, 0))
	h.net.Fail(grid.Node(1, 1))
	for docID := uint64(2); docID <= 6; docID++ {
		got, _ := check("row failover", docID)
		if got.Degraded || got.ColumnsLost != 0 {
			t.Fatalf("row failover: degraded=%v lost=%d, want full coverage", got.Degraded, got.ColumnsLost)
		}
	}

	// Column 0 fully dead: both paths must degrade to the same survivors
	// with the same lost-column accounting (assertPublishEquivalent already
	// required the counts to match; lost is per routed term, so both doc
	// terms homed at the grid's owner contribute).
	h.net.Fail(grid.Node(1, 0))
	got, want = check("dead column", 7)
	if !got.Degraded || got.ColumnsLost == 0 {
		t.Fatalf("dead column: degraded=%v lost=%d/%d, want identical degradation on both paths",
			got.Degraded, got.ColumnsLost, want.ColumnsLost)
	}
}

// TestPublishEntryCoalescedEquivalenceCircuitBroken reruns the grid
// equivalence behind resilience executors with dead replicas, so later
// publishes fail over through open circuit breakers' fast-fail path.
func TestPublishEntryCoalescedEquivalenceCircuitBroken(t *testing.T) {
	h, reg := newResilientHarness(t, 6)
	const filters = 24
	homeNode, grid := installHotGrid(t, h, filters)
	h.net.Fail(grid.Node(0, 0))
	h.net.Fail(grid.Node(1, 1))
	var entry *Node
	for _, nd := range h.nodes {
		if nd.ID() != homeNode.ID() {
			entry = nd
			break
		}
	}
	ctx := context.Background()
	for docID := uint64(1); docID <= 12; docID++ {
		doc := model.Document{ID: docID, Terms: []string{"hot"}}
		wantM, want, err := entry.PublishEntryPerTerm(ctx, &doc)
		if err != nil {
			t.Fatalf("doc %d per-term: %v", docID, err)
		}
		gotM, got, err := entry.PublishEntry(ctx, &doc)
		if err != nil {
			t.Fatalf("doc %d coalesced: %v", docID, err)
		}
		assertPublishEquivalent(t, fmt.Sprintf("doc %d", docID), gotM, wantM, got, want)
		if len(gotM) != filters || got.Degraded {
			t.Fatalf("doc %d: %d matches degraded=%v, want %d via failover", docID, len(gotM), got.Degraded, filters)
		}
	}
	if reg.Counter("breaker.open").Value() == 0 {
		t.Fatal("breaker.open = 0, dead replicas never tripped their breakers")
	}
}

// TestPublishEntryCoalescedUnderFaultyTransport drives both paths over a
// lossy transport. Individual publishes may degrade or fail, so the check
// weakens to invariants: returned matches are always a subset of the true
// match set, and any non-degraded error-free publish returns it exactly —
// on either path.
func TestPublishEntryCoalescedUnderFaultyTransport(t *testing.T) {
	h, _ := newResilientHarness(t, 6)
	const filters = 12
	homeNode, _ := installHotGrid(t, h, filters)
	// Lossy transports go in after allocation so the grid migration itself
	// is not subject to fault injection — only the publish paths are.
	for i, nd := range h.nodes {
		ep := h.net.Join(nd.ID(), nd.Handle)
		nd.Attach(transport.NewFaulty(ep, transport.FaultConfig{
			Seed:    int64(300 + i),
			Default: transport.FaultProbs{Drop: 0.3},
		}))
	}
	var entry *Node
	for _, nd := range h.nodes {
		if nd.ID() != homeNode.ID() {
			entry = nd
			break
		}
	}
	ctx := context.Background()
	complete := 0
	for docID := uint64(1); docID <= 30; docID++ {
		doc := model.Document{ID: docID, Terms: []string{"hot"}}
		for _, path := range []struct {
			name    string
			publish func(context.Context, *model.Document) ([]Match, MatchResp, error)
		}{
			{"coalesced", entry.PublishEntry},
			{"per-term", entry.PublishEntryPerTerm},
		} {
			matches, resp, err := path.publish(ctx, &doc)
			for _, m := range matches {
				if m.Filter < 1 || m.Filter > filters {
					t.Fatalf("doc %d %s: match %v outside the registered set", docID, path.name, m.Filter)
				}
			}
			if err == nil && !resp.Degraded {
				if len(matches) != filters {
					t.Fatalf("doc %d %s: complete publish returned %d matches, want %d", docID, path.name, len(matches), filters)
				}
				complete++
			}
		}
	}
	if complete == 0 {
		t.Fatal("no publish completed under 30% drop — fault injection swallowed the test")
	}
}
