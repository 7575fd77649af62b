package node

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/testutil"
	"github.com/movesys/move/internal/transport"
)

// PublishEntryPerTerm is the uncoalesced §III fan-out: one publish frame
// per Bloom-passing term, each a single one-term item re-shipping the
// document. It is the reference oracle of the coalesced path (equivalence
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

// decodeFrame strips the type byte of an encoded publish frame and decodes
// the rest.
func decodeFrame(t *testing.T, data []byte) (bool, []PublishItem) {
	t.Helper()
	r := codec.NewReader(data)
	if typ, err := r.Uint8(); err != nil || typ != msgPublish {
		t.Fatalf("type byte = %d, %v", typ, err)
	}
	local, items, err := decodePublishFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d trailing bytes after the frame", r.Remaining())
	}
	return local, items
}

// TestPublishMultiWireRoundTrip round-trips a one-item frame in both
// directions of the forward/local bit and pins the frame's budget: three
// bytes over the bare document-plus-term-list it carries, and no heap
// allocation to encode.
func TestPublishMultiWireRoundTrip(t *testing.T) {
	doc := model.Document{ID: 42, Terms: []string{"go", "cluster", "systems"}}
	terms := []string{"go", "systems"}
	for _, local := range []bool{false, true} {
		w := codec.NewWriter(64)
		AppendPublishFrame(w, local, []PublishItem{{Doc: &doc, Terms: terms}})
		gotLocal, got := decodeFrame(t, w.Bytes())
		if gotLocal != local {
			t.Fatalf("local bit = %v, want %v", gotLocal, local)
		}
		if len(got) != 1 || got[0].Doc.ID != doc.ID || !equalStrings(got[0].Doc.Terms, doc.Terms) || !equalStrings(got[0].Terms, terms) {
			t.Fatalf("round trip = %+v", got)
		}
		bare := codec.NewWriter(64)
		bare.Uint8(msgPublish)
		doc.EncodeTo(bare)
		bare.StringSlice(terms)
		if over := w.Len() - bare.Len(); over != 3 {
			t.Fatalf("one-item frame is %d bytes over its document and term list, budget is 3", over)
		}
	}
	if testutil.RaceEnabled {
		return // the race detector's instrumentation allocates
	}
	w := codec.NewWriter(256)
	if allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		AppendPublishFrame(w, false, []PublishItem{{Doc: &doc, Terms: terms}})
	}); allocs != 0 {
		t.Fatalf("encoding a one-item frame allocates %.0f times, want 0", allocs)
	}
}

// TestPublishMultiBatchWireRoundTrip round-trips a multi-item frame: a
// document shared by several items is encoded once, every decoded item
// still sees it (through one shared decode), and the local bit survives.
func TestPublishMultiBatchWireRoundTrip(t *testing.T) {
	docA := model.Document{ID: 1, Terms: []string{"alpha", "beta"}}
	docB := model.Document{ID: 2, Terms: []string{"gamma"}}
	items := []PublishItem{
		{Doc: &docA, Terms: []string{"alpha"}},
		{Doc: &docB, Terms: []string{"gamma"}},
		{Doc: &docA, Terms: []string{"beta"}},
	}
	w := codec.NewWriter(64)
	AppendPublishFrame(w, true, items)
	// A frame with three distinct documents of the same shape must be
	// strictly larger.
	docC := model.Document{ID: 3, Terms: docA.Terms}
	distinct := []PublishItem{items[0], items[1], {Doc: &docC, Terms: []string{"beta"}}}
	if bloat := EncodePublishFrame(distinct); w.Len() >= len(bloat) {
		t.Fatalf("shared-doc frame %dB >= distinct-doc frame %dB, unique-document table not applied", w.Len(), len(bloat))
	}
	local, got := decodeFrame(t, w.Bytes())
	if !local {
		t.Fatal("local bit lost")
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i].Doc.ID != items[i].Doc.ID || !equalStrings(got[i].Doc.Terms, items[i].Doc.Terms) || !equalStrings(got[i].Terms, items[i].Terms) {
			t.Fatalf("item %d = %+v, want %+v", i, got[i], items[i])
		}
	}
	if got[0].Doc != got[2].Doc {
		t.Fatal("items of the same document do not share one decode")
	}
	if home, _ := decodeFrame(t, EncodePublishFrame(items)); home {
		t.Fatal("EncodePublishFrame set the local bit")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
// equality. Threshold filters are excluded: the two framings legitimately
// observe the corpus a different number of times, and corpus-dependent
// scoring is covered at the index layer instead.
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
