package node

import (
	"context"
	"testing"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/trace"
	"github.com/movesys/move/internal/transport"
)

// failoverHops filters a hop list down to the grid failovers that actually
// served a column (the ones trace.Summary and publish.failover both count).
func failoverHops(hops []trace.Hop) []trace.Hop {
	var out []trace.Hop
	for _, h := range hops {
		if h.Stage == "column" && h.Failover && h.Err == "" && !h.Lost {
			out = append(out, h)
		}
	}
	return out
}

// TestPublishTraceRecordsFailover is the observability acceptance scenario:
// with the link from the home node to the grid replica at (row 0, col 0)
// dropping every RPC, publishes that pick row 0 must fail over col 0 to the
// substitute row — and the trace carried back in MatchResp must name that
// substitute (the exact node of row 1, col 0), agree with the
// publish.failover counter, and land in the entry node's trace ring.
func TestPublishTraceRecordsFailover(t *testing.T) {
	h, reg := newResilientHarness(t, 6)
	const filters = 24
	homeNode, grid := installHotGrid(t, h, filters)

	// Kill only the home→(0,0) link; everything else stays healthy, so the
	// full match set must survive via row failover.
	dead := grid.Node(0, 0)
	ep := h.net.Join(homeNode.ID(), homeNode.Handle)
	homeNode.Attach(transport.NewFaulty(ep, transport.FaultConfig{
		Seed:  7,
		Links: map[ring.NodeID]transport.FaultProbs{dead: {Drop: 1}},
	}))

	// Publish through a non-home entry node so the hops cross the wire in
	// MatchResp (entry → home → grid), exercising the codec path.
	var entry *Node
	for _, nd := range h.nodes {
		if nd.ID() != homeNode.ID() && nd.ID() != dead {
			entry = nd
			break
		}
	}
	ctx := context.Background()

	const docs = 8
	var traceFailovers int
	sawFailover := false
	for docID := uint64(1); docID <= docs; docID++ {
		matches, resp, err := entry.PublishEntry(ctx, &model.Document{ID: docID, Terms: []string{"hot"}})
		if err != nil {
			t.Fatalf("doc %d: %v", docID, err)
		}
		if len(matches) != filters || resp.Degraded {
			t.Fatalf("doc %d: %d matches degraded=%v, want full set via failover", docID, len(matches), resp.Degraded)
		}
		for _, fh := range failoverHops(resp.Hops) {
			sawFailover = true
			traceFailovers++
			// The substitute partition row must be named exactly.
			if fh.Col != 0 {
				t.Fatalf("doc %d: failover on col %d, only (0,0)'s link is down", docID, fh.Col)
			}
			if want := grid.Node(1, 0); fh.To != string(want) || fh.Row != 1 {
				t.Fatalf("doc %d: failover served by %q row=%d, want substitute %q row=1", docID, fh.To, fh.Row, want)
			}
			if fh.Attempt == 0 {
				t.Fatalf("doc %d: failover hop with attempt 0: %+v", docID, fh)
			}
		}
		// Every failover hop must be preceded by the errored attempt on the
		// dead link that caused it.
		if len(failoverHops(resp.Hops)) > 0 {
			found := false
			for _, hop := range resp.Hops {
				if hop.Stage == "column" && hop.To == string(dead) && hop.Err != "" {
					found = true
				}
			}
			if !found {
				t.Fatalf("doc %d: failover trace missing the errored primary attempt: %+v", docID, resp.Hops)
			}
		}
	}
	if !sawFailover {
		t.Fatalf("no failover hop in %d publishes with (0,0)'s link down; row rotation should hit row 0", docs)
	}

	// The counter and the traces are two views of the same events.
	if got := reg.Counter("publish.failover").Value(); got != int64(traceFailovers) {
		t.Fatalf("publish.failover = %d but traces carry %d failover hops", got, traceFailovers)
	}

	// The spans landed in the entry node's ring, newest first, with the
	// same failover accounting and a recorded e2e stage.
	sums := entry.Traces().Last(docs)
	if len(sums) != docs {
		t.Fatalf("trace ring has %d summaries, want %d", len(sums), docs)
	}
	ringFailovers := 0
	for _, sm := range sums {
		if sm.Op != "publish" {
			t.Fatalf("ring summary op = %q", sm.Op)
		}
		if sm.StageNS["publish.e2e"] <= 0 {
			t.Fatalf("summary missing publish.e2e stage: %+v", sm)
		}
		hasHome := false
		for _, hop := range sm.Hops {
			if hop.Stage == "home" && hop.To == string(homeNode.ID()) && hop.Term == "hot" {
				hasHome = true
			}
		}
		if !hasHome {
			t.Fatalf("summary missing the home fan-out hop: %+v", sm.Hops)
		}
		ringFailovers += sm.Failovers
	}
	if sums[0].DocID != docs {
		t.Fatalf("newest ring summary is doc %d, want %d", sums[0].DocID, docs)
	}
	if ringFailovers != traceFailovers {
		t.Fatalf("ring summaries count %d failovers, MatchResp hops %d", ringFailovers, traceFailovers)
	}

	// Per-stage latency histograms observed the traffic.
	dump := reg.Dump()
	if c := dump.Histograms["publish.e2e"].Count; c != docs {
		t.Fatalf("publish.e2e count = %d, want %d", c, docs)
	}
	for _, name := range []string{"publish.fanout", "publish.column.rpc", "match.term", "index.posting.read", "index.eval"} {
		if dump.Histograms[name].Count == 0 {
			t.Fatalf("histogram %s recorded nothing", name)
		}
	}
}

// TestHopsSurviveWire round-trips a MatchResp with every Hop field set
// through the codec, with the hop terms sent as positions in the request's
// term list and — with no list — spelled out.
func TestHopsSurviveWire(t *testing.T) {
	t.Run("terms by position", func(t *testing.T) { hopsSurviveWire(t, []string{"cold", "hot"}) })
	t.Run("terms spelled out", func(t *testing.T) { hopsSurviveWire(t, nil) })
}

func hopsSurviveWire(t *testing.T, terms []string) {
	in := MatchResp{
		Matches: []Match{{Filter: 1, Subscriber: "s"}},
		Hops: []trace.Hop{
			{Stage: "column", From: "n0", To: "n3", Term: "hot", Row: 1, Col: 2, Attempt: 1, Failover: true, ElapsedNS: 12345},
			{Stage: "column", From: "n0", Col: 3, Lost: true},
			{Stage: "home", From: "n5", To: "n0", Term: "hot", Err: "rpc: dropped", ElapsedNS: 99},
		},
	}
	out, err := DecodeMatchResp(EncodeMatchResp(in, terms), terms)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Hops) != len(in.Hops) {
		t.Fatalf("hops = %d, want %d", len(out.Hops), len(in.Hops))
	}
	for i := range in.Hops {
		if out.Hops[i] != in.Hops[i] {
			t.Fatalf("hop %d: got %+v want %+v", i, out.Hops[i], in.Hops[i])
		}
	}
}
