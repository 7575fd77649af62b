package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/index"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/store"
	"github.com/movesys/move/internal/text"
	"github.com/movesys/move/internal/transport"
)

// Layer probes: each times only exported functions of one module, on inputs
// sampled from the run, after the timed phases — so a probe never overlaps a
// measurement — and reports ns per operation with its sample count.

// probe is one P metric.
type probe struct {
	name  string
	value float64
	unit  string
	n     int
}

type probeResults struct {
	list []probe
}

func (p *probeResults) add(name string, v float64, unit string, n int) {
	p.list = append(p.list, probe{name, v, unit, n})
}

func (p *probeResults) get(name string) (float64, bool) {
	for _, pr := range p.list {
		if pr.name == name {
			return pr.value, true
		}
	}
	return 0, false
}

func (p *probeResults) print(w io.Writer) {
	fmt.Fprintf(w, "\n== layer probes (exported functions only, inputs sampled from the run) ==\n")
	for _, pr := range p.list {
		fmt.Fprintf(w, "%-34s %14.2f %-3s (n=%d)\n", pr.name, pr.value, pr.unit, pr.n)
	}
}

// probeBudget is how long one probe loops at least.
const probeBudget = 150 * time.Millisecond

// loop repeats fn over [0, n) until the budget is spent and returns
// nanoseconds per call.
func loop(n int, fn func(i int)) (nsPerOp float64, calls int) {
	start := time.Now()
	for time.Since(start) < probeBudget {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls), calls
}

var probeSink int

func runProbes(ctx context.Context, s *sut) (*probeResults, error) {
	res := &probeResults{}
	w := s.w
	nDocs := min(512, len(w.docs))

	// text: the tokenizer on the documents' raw text.
	ns, n := loop(nDocs, func(i int) { probeSink += len(text.Terms(w.docs[i].text, text.Options{})) })
	res.add("text.terms_ns_per_doc", ns, "ns", n)

	// bloom and ring: one lookup per document term.
	var terms []string
	docTerms := make([][]string, nDocs)
	for i := 0; i < nDocs; i++ {
		docTerms[i] = text.Terms(w.docs[i].text, text.Options{})
		terms = append(terms, docTerms[i]...)
	}
	ns, n = loop(len(terms), func(i int) {
		if s.bf.Contains(terms[i]) {
			probeSink++
		}
	})
	res.add("bloom.contains_ns_per_term", ns, "ns", n)
	keys := append([]string(nil), terms...)
	for _, sub := range w.subs {
		keys = append(keys, "subscriber/"+sub)
	}
	var ringErr error
	ns, n = loop(len(keys), func(i int) {
		if _, err := s.ring.HomeNode(keys[i]); err != nil {
			ringErr = err
		}
	})
	if ringErr != nil {
		return nil, ringErr
	}
	res.add("ring.home_ns_per_term", ns, "ns", n)

	if err := probeIndex(s, docTerms, res); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	if err := probeAlloc(ctx, s, res); err != nil {
		return nil, fmt.Errorf("alloc: %w", err)
	}
	if err := probeTransport(ctx, s, res); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	if err := probeHub(s, res); err != nil {
		return nil, fmt.Errorf("delivery: %w", err)
	}
	return res, nil
}

// probeIndex builds a private index holding exactly what daemon n0 holds
// after set-up — every base filter with a term homed on n0, posting lists
// for those terms only — and times Register, MatchTerms and Unregister.
func probeIndex(s *sut, docTerms [][]string, res *probeResults) error {
	const home = ring.NodeID("n0")
	type entry struct {
		f     model.Filter
		terms []string
	}
	var entries []entry
	for i := range s.w.filters {
		mf := s.modelFilter(&s.w.filters[i])
		var mine []string
		for _, t := range mf.Terms {
			h, err := s.ring.HomeNode(t)
			if err != nil {
				return err
			}
			if h == home {
				mine = append(mine, t)
			}
		}
		if len(mine) > 0 {
			entries = append(entries, entry{mf, mine})
		}
	}
	if len(entries) == 0 {
		return errors.New("no filter is homed on n0")
	}
	st, err := store.Open("", store.Options{})
	if err != nil {
		return err
	}
	ix, err := index.New(st)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := range entries {
		if err := ix.Register(entries[i].f, entries[i].terms); err != nil {
			return err
		}
	}
	regNS := float64(time.Since(t0).Nanoseconds()) / float64(len(entries))
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.add("index.register_ns_per_filter", regNS, "ns", len(entries))
	if after.HeapAlloc <= before.HeapAlloc {
		return errors.New("heap did not grow while registering")
	}
	res.add("index.bytes_per_filter", float64(after.HeapAlloc-before.HeapAlloc)/float64(len(entries)), "B", len(entries))

	// The documents as n0 sees them: the terms past the Bloom gate that n0
	// is the home of. The term view is primed, as the RPC decode does.
	type probeDoc struct {
		doc   model.Document
		terms []string
	}
	var docs []probeDoc
	for i, all := range docTerms {
		var mine []string
		for _, t := range all {
			if !s.bf.Contains(t) {
				continue
			}
			if h, _ := s.ring.HomeNode(t); h == home {
				mine = append(mine, t)
			}
		}
		if len(mine) == 0 {
			continue
		}
		d := probeDoc{doc: model.Document{ID: uint64(i + 1), Terms: all}, terms: mine}
		d.doc.View()
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		return errors.New("no sampled document reaches n0")
	}
	var matchErr error
	ns, n := loop(len(docs), func(i int) {
		m, _, err := ix.MatchTerms(&docs[i].doc, docs[i].terms)
		if err != nil {
			matchErr = err
		}
		probeSink += len(m)
	})
	if matchErr != nil {
		return matchErr
	}
	res.add("index.probe_match_ns_per_doc", ns, "ns", n)

	k := min(2048, len(entries))
	t0 = time.Now()
	for i := 0; i < k; i++ {
		if err := ix.Unregister(entries[i].f.ID); err != nil {
			return err
		}
	}
	res.add("index.unregister_ns_per_filter", float64(time.Since(t0).Nanoseconds())/float64(k), "ns", k)
	return nil
}

// probeAlloc times the optimizer on the statistics the daemons report now.
func probeAlloc(ctx context.Context, s *sut, res *probeResults) error {
	in := alloc.Input{TotalFilters: len(s.w.filters), TotalDocs: setupDocs, Nodes: numDaemons}
	var maxFilters int64
	for _, d := range s.cl.daemons {
		st, err := s.statsPull(ctx, d)
		if err != nil {
			return err
		}
		maxFilters = max(maxFilters, st.Filters)
		in.Units = append(in.Units, alloc.Unit{
			Key: d.id, Popularity: float64(st.Filters) / float64(in.TotalFilters),
			Frequency: 1.0 / numDaemons, Load: float64(st.PostingsScanned + 1),
		})
	}
	in.Capacity = int(max(maxFilters*6/10, 1))
	var cerr error
	ns, n := loop(64, func(int) {
		if _, err := alloc.Compute(in, alloc.StrategyGeneral, nil); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		return cerr
	}
	res.add("alloc.compute_us", ns/1e3, "us", n)
	return nil
}

// probeTransport echoes a frame of the workload's median home-RPC size
// between two in-process TCP endpoints with default options.
func probeTransport(ctx context.Context, s *sut, res *probeResults) error {
	size := 256
	if s.spans != nil {
		var sizes []float64
		for _, sp := range s.spans.docs {
			home, _ := sp.split()
			for _, sd := range home {
				sizes = append(sizes, float64(sd.Bytes))
			}
		}
		if len(sizes) > 0 {
			size = int(quantile(sizes, 0.5))
		}
	}
	echo := func(_ context.Context, _ ring.NodeID, p []byte) ([]byte, error) {
		return append([]byte(nil), p...), nil
	}
	addrs := map[ring.NodeID]string{}
	resolve := func(id ring.NodeID) (string, error) {
		a, ok := addrs[id]
		if !ok {
			return "", fmt.Errorf("probe: no address for %s", id)
		}
		return a, nil
	}
	a, err := transport.NewTCPOpts("probe-a", "127.0.0.1:0", echo, resolve, transport.TCPOptions{})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewTCPOpts("probe-b", "127.0.0.1:0", echo, resolve, transport.TCPOptions{})
	if err != nil {
		return err
	}
	defer b.Close()
	addrs["probe-a"], addrs["probe-b"] = a.Addr(), b.Addr()
	payload := make([]byte, size)
	const warm, rounds = 200, 3000
	rtts := make([]float64, 0, rounds)
	for i := 0; i < warm+rounds; i++ {
		t0 := time.Now()
		if _, err := a.Send(ctx, "probe-b", payload); err != nil {
			return err
		}
		if i >= warm {
			rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	sort.Float64s(rtts)
	res.add("transport.rtt_p50_us", sortedQuantile(rtts, 0.5), "us", len(rtts))
	res.add("transport.rtt_p99_us", sortedQuantile(rtts, 0.99), "us", len(rtts))
	s.h.note("transport probe echoed %d-byte frames (the median home RPC of this run)", size)
	return nil
}

// probeConn is an in-process subscriber: it counts events and acks at once.
type probeConn struct {
	hub  *delivery.Hub
	sub  string
	seen *atomic.Int64
}

func (c *probeConn) SendHello(delivery.HelloInfo) error { return nil }
func (c *probeConn) SendPing() error                    { return nil }
func (c *probeConn) SendBye(string) error               { return nil }
func (c *probeConn) Close() error                       { return nil }
func (c *probeConn) SendEvents(evs []*delivery.Event) error {
	c.seen.Add(int64(len(evs)))
	c.hub.Ack(c.sub, evs[len(evs)-1].Seq)
	return nil
}

// probeHub pushes the workload's fan-out through an in-process hub:
// Hub.DeliverBatch → flush workers → SendEvents on every reached session.
func probeHub(s *sut, res *probeResults) error {
	hub := delivery.NewHub(delivery.Config{})
	defer hub.Stop()
	var seen atomic.Int64
	for _, sub := range s.w.subs {
		if _, _, err := hub.Attach(sub, &probeConn{hub: hub, sub: sub, seen: &seen}, 0); err != nil {
			return err
		}
	}
	// The fan-out shapes of up to 256 pool documents that reach anyone.
	type shape struct {
		terms  []string
		notifs []delivery.Notification
	}
	var shapes []shape
	for i := 0; i < len(s.w.docs) && len(shapes) < 256; i++ {
		e := &s.h.exp[i]
		if len(e.subs) == 0 {
			continue
		}
		sh := shape{terms: text.Terms(s.w.docs[i].text, text.Options{})}
		for _, sub := range e.subs {
			sh.notifs = append(sh.notifs, delivery.Notification{Sub: s.w.subs[sub], Filters: []model.FilterID{model.FilterID(sub + 1)}})
		}
		shapes = append(shapes, sh)
	}
	if len(shapes) == 0 {
		return errors.New("no pool document reaches a session")
	}
	var sent int64
	docID := uint64(1)
	start := time.Now()
	for time.Since(start) < probeBudget {
		for i := range shapes {
			hub.DeliverBatch(docID, shapes[i].terms, shapes[i].notifs)
			docID++
			sent += int64(len(shapes[i].notifs))
		}
		// One wave at a time keeps every session inside its queue bound.
		deadline := time.Now().Add(10 * time.Second)
		for seen.Load() < sent {
			if time.Now().After(deadline) {
				return fmt.Errorf("hub delivered %d of %d events", seen.Load(), sent)
			}
			runtime.Gosched()
		}
	}
	res.add("delivery.hub_ns_per_event", float64(time.Since(start).Nanoseconds())/float64(sent), "ns", int(sent))
	return nil
}

// --- the layer budget of the traced open phase ---

// budget is the per-layer self time on the path publish → event, beside the
// end-to-end median over the same documents.
type budget struct {
	docs     int
	e2eUS    float64
	rows     []budgetRow
	residual float64 // (e2e − Σ rows) ÷ e2e
	routeRTT float64
}

type budgetRow struct {
	layer, source string
	us            float64
}

func (b *budget) print(w io.Writer) {
	if b == nil {
		return
	}
	fmt.Fprintf(w, "\n== layer budget: self time on the path publish → event, open phase, %d traced documents ==\n", b.docs)
	var sum float64
	for _, r := range b.rows {
		fmt.Fprintf(w, "%-26s %10.1f us  %5.1f %%  %s\n", r.layer, r.us, 100*r.us/b.e2eUS, r.source)
		sum += r.us
	}
	fmt.Fprintf(w, "%-26s %10.1f us\n", "sum of layers", sum)
	fmt.Fprintf(w, "%-26s %10.1f us  (due time → event read from the subscriber's socket, median)\n", "end to end", b.e2eUS)
	fmt.Fprintf(w, "%-26s %10.4f     ((end to end − sum) ÷ end to end)\n", "e2e.residual_ratio", b.residual)
	fmt.Fprintf(w, "routing RPC round trip (overlaps the last row, not added): %.1f us median\n", b.routeRTT)
}

// delta is the growth of scraped quantities between two scrapes of the
// same registries.
type delta struct{ a, b []metrics.Dump }

func daemonsDelta(a, b snapshot) delta { return delta{a.daemons, b.daemons} }
func allDelta(a, b snapshot) delta     { return delta{a.all(), b.all()} }

func (d delta) counter(name string) float64 { return counterSum(d.b, name) - counterSum(d.a, name) }
func (d delta) hsum(name string) float64    { return histSum(d.b, name) - histSum(d.a, name) }
func (d delta) hcount(name string) float64  { return histCount(d.b, name) - histCount(d.a, name) }

// ratio is num ÷ den, and not a number when nothing was counted: a metric
// built on it then fails validate() instead of reading 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// buildBudget decomposes the open phase's publish → event path, document
// by document, into spans the harness timed (T) and, inside the slowest
// home RPC, what the home node reports or the scrapes imply: the column RPC
// it returned as a hop (R), index time as the posting entries that home
// holds for the document (oracle) × the phase's nanoseconds per entry
// scanned (S ÷ R), and the home node's own handling (S).
func (r *result) buildBudget(s *sut, open delta) (*budget, error) {
	var scanned float64
	for i := range r.openTraced.pubs {
		scanned += float64(r.openTraced.pubs[i].postings)
	}
	nsPerPosting := ratio(open.hsum("match.term"), scanned)
	// What a home publish costs the home node itself: its handling time
	// minus what it spent matching — or, behind a grid, waiting for its
	// column (one column per home here, so the RPC times do not overlap).
	homePubs := open.hcount("publish.home")
	inner := open.hsum("match.term")
	if open.hcount("publish.column.rpc") > 0 {
		inner = open.hsum("publish.column.rpc")
	}
	homeSelfUS := ratio(max(0, open.hsum("publish.home")-inner), homePubs) / 1e3

	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var lag, txt, entry, transport, home, index, grid, tail, e2e, rtt []float64
	for _, sp := range s.spans.docs {
		if sp.Phase != phOpenTraced || sp.Events == 0 || sp.FirstRecv == 0 {
			continue
		}
		homeSends, route := sp.split()
		if len(homeSends) == 0 || len(route) == 0 {
			continue
		}
		homeStart, homeEnd := homeSends[0].Start, int64(0)
		slowest := homeSends[0]
		for _, h := range homeSends {
			homeEnd = max(homeEnd, h.End)
			if h.End-h.Start > slowest.End-slowest.Start {
				slowest = h
			}
		}
		routeStart, routeEnd := route[0].Start, int64(0)
		for _, rt := range route {
			routeEnd = max(routeEnd, rt.End)
		}
		hop := us(slowest.End - slowest.Start)
		var ixUS, gridUS float64
		if k := daemonIndex(slowest.To); k >= 0 {
			ixUS = float64(r.h.homePostings[sp.Pool][k]) * nsPerPosting / 1e3
		}
		for _, h := range sp.Hops {
			if h.Stage == "column" && h.From == slowest.To {
				gridUS = max(gridUS, us(h.ElapsedNS))
			}
		}
		// With a grid the match runs inside the column RPC.
		if gridUS > 0 {
			gridUS = max(gridUS-ixUS, 0)
		}
		ixUS = min(ixUS, hop)
		recv := (sp.FirstRecv + sp.LastRecv) / 2
		lag = append(lag, us(sp.Start-sp.Due))
		txt = append(txt, us(sp.TextNS))
		entry = append(entry, us((routeStart-sp.textEnd)-(homeEnd-homeStart)))
		index = append(index, ixUS)
		grid = append(grid, gridUS)
		home = append(home, homeSelfUS)
		transport = append(transport, max(hop-ixUS-gridUS-homeSelfUS, 0))
		tail = append(tail, us(recv-routeStart))
		e2e = append(e2e, us(recv-sp.Due))
		rtt = append(rtt, us(routeEnd-routeStart))
	}
	if len(e2e) < 20 {
		return nil, fmt.Errorf("only %d traced open-phase documents reached a subscriber", len(e2e))
	}
	b := &budget{docs: len(e2e), e2eUS: median(e2e), routeRTT: median(rtt)}
	b.rows = []budgetRow{
		{"gen (lag)", "T due → publisher starts", median(lag)},
		{"text", "T text.Terms", median(txt)},
		{"node.entry", "T PublishEntry up to the routing hand-off, minus the home fan-out", median(entry)},
		{"transport", "T slowest home RPC − what the rows below explain of it", median(transport)},
		{"node.home", "S publish.home − match.term − column RPC, per home publish", median(home)},
		{"index", "oracle posting entries on that home × S/R ns per entry scanned", median(index)},
		{"node.grid", "R column hop of that home − index", median(grid)},
		{"node.route+delivery", "T routing RPC sent → event read (hub, socket, client)", median(tail)},
	}
	var sum float64
	for _, row := range b.rows {
		sum += row.us
	}
	b.residual = (b.e2eUS - sum) / b.e2eUS
	return b, nil
}

// layerMetrics fills every per_layer metric of the contract.
func (r *result) layerMetrics(s *sut) error {
	m := map[string]float64{}
	ct := r.closedTraced
	docs := float64(ct.docsOK())
	if docs == 0 {
		return errors.New("traced closed phase completed no document")
	}
	// Scrape growth over the traced closed phase: d on the daemons, all with
	// the entry node's registry added.
	d, all := daemonsDelta(r.edgeA.snapshot, r.edgeB.snapshot), allDelta(r.edgeA.snapshot, r.edgeB.snapshot)

	for _, name := range []string{"text.terms_ns_per_doc", "bloom.contains_ns_per_term", "ring.home_ns_per_term",
		"index.probe_match_ns_per_doc", "index.register_ns_per_filter", "index.unregister_ns_per_filter", "index.bytes_per_filter",
		"alloc.compute_us", "transport.rtt_p50_us", "transport.rtt_p99_us", "delivery.hub_ns_per_event"} {
		v, ok := r.probes.get(name)
		if !ok {
			return fmt.Errorf("probe %s did not run", name)
		}
		m[name] = v
	}

	var passed, terms, postings, lists, matches float64
	for i := range ct.pubs {
		p := &ct.pubs[i]
		if !p.ok {
			continue
		}
		passed += float64(p.passed)
		terms += float64(p.terms)
		postings += float64(p.postings)
		lists += float64(p.lists)
		matches += float64(p.matches)
	}
	m["bloom.pass_ratio"] = ratio(passed, terms)
	m["index.postings_scanned_per_doc"] = postings / docs
	m["index.posting_lists_per_doc"] = lists / docs
	m["index.match_ratio"] = ratio(matches, postings)

	// Entry node: scrape growth plus the traced sends.
	m["node.entry.home_rpcs_per_doc"] = (float64(r.edgeB.entry.Counters["publish.home.rpcs"]) - float64(r.edgeA.entry.Counters["publish.home.rpcs"])) / docs
	var homeRPC, self, routeUS []float64
	for _, sp := range s.spans.docs {
		if sp.Phase != phClosedTraced {
			continue
		}
		home, route := sp.split()
		var slowest, routeWall int64
		for _, h := range home {
			homeRPC = append(homeRPC, float64(h.End-h.Start)/1e3)
			slowest = max(slowest, h.End-h.Start)
		}
		if len(route) > 0 {
			end := int64(0)
			for _, rt := range route {
				end = max(end, rt.End)
			}
			routeWall = end - route[0].Start
		}
		routeUS = append(routeUS, float64(routeWall)/1e3)
		self = append(self, float64(sp.PublishNS-slowest-routeWall)/1e3)
	}
	if len(homeRPC) == 0 {
		return errors.New("traced closed phase recorded no home RPC")
	}
	m["node.entry.home_rpc_p50_us"] = quantile(homeRPC, 0.5)
	m["node.entry.home_rpc_p99_us"] = quantile(homeRPC, 0.99)
	m["node.entry.self_us_per_doc"] = median(self)
	m["node.route.us_per_doc"] = median(routeUS)

	m["node.home.handle_us_per_doc"] = d.hsum("publish.home") / 1e3 / docs
	var perDaemon []float64
	for i := range r.edgeA.daemons {
		perDaemon = append(perDaemon, float64(r.edgeB.daemons[i].Histograms["publish.home"].SumNS-r.edgeA.daemons[i].Histograms["publish.home"].SumNS))
	}
	var sum, top float64
	for _, v := range perDaemon {
		sum += v
		top = max(top, v)
	}
	m["node.home.skew"] = ratio(top*float64(len(perDaemon)), sum)
	m["index.match_us_per_doc"] = d.hsum("match.term") / 1e3 / docs
	var covers, fanout float64
	for _, dump := range r.edgeB.daemons {
		covers += float64(dump.Gauges["index.cover.covers"])
		fanout += float64(dump.Gauges["index.cover.expansion_fanout_milli"])
	}
	m["index.covers"] = covers
	m["index.cover_fanout_milli"] = fanout / float64(len(r.edgeB.daemons))

	// Without a grid no column RPC exists and both read 0 by construction;
	// with one, a phase without column RPCs is a failed measurement.
	m["node.grid.column_rpcs_per_doc"], m["node.grid.column_rpc_mean_us"] = 0, 0
	if r.h.sp.grid {
		m["node.grid.column_rpcs_per_doc"] = d.hcount("publish.column.rpc") / docs
		m["node.grid.column_rpc_mean_us"] = ratio(d.hsum("publish.column.rpc"), d.hcount("publish.column.rpc")) / 1e3
	}
	m["node.grid.failovers"] = counterSum(r.final.daemons, "publish.failover")
	m["node.grid.degraded"] = counterSum(r.final.daemons, "publish.degraded")

	m["realloc.prepare_ms"] = float64(s.alloc.prepare) / 1e6
	m["realloc.commit_ms"] = float64(s.alloc.commit) / 1e6
	m["realloc.round_ms"] = float64(s.alloc.round) / 1e6
	m["realloc.migrated_filters"] = counterSum(r.final.daemons, "realloc.filters.migrated")

	regs, unregs := ct.regs, ct.unregs
	if !r.h.sp.scripted {
		regs, unregs = s.setupRegUS, r.unregUS
	}
	if len(regs) == 0 || len(unregs) == 0 {
		return errors.New("no register or unregister was timed")
	}
	m["node.write.register_us_per_op"] = mean(regs)
	m["node.write.unregister_us_per_op"] = mean(unregs)

	entryDelta := func(name string) float64 {
		return float64(r.edgeB.entry.Counters[name] - r.edgeA.entry.Counters[name])
	}
	m["node.route.rpcs_per_doc"] = entryDelta("delivery.route.rpcs") / docs
	m["node.route.subs_per_doc"] = entryDelta("delivery.route.subs") / docs
	m["node.route.lost"] = float64(r.final.entry.Counters["delivery.route.lost"])

	syscalls := all.counter("transport.tcp.flush.syscalls")
	m["transport.syscalls_per_doc"] = syscalls / docs
	m["transport.frames_per_syscall"] = ratio(all.counter("transport.tcp.flush.frames"), syscalls)
	m["transport.bytes_per_doc"] = all.hsum("transport.tcp.flush.bytes") / docs
	m["transport.queued_bytes_max"] = histMax(r.final.all(), "transport.tcp.queue.bytes")

	m["resilience.retries"] = counterSum(r.final.daemons, "rpc.retries")
	m["resilience.giveups"] = counterSum(r.final.daemons, "rpc.giveups")
	m["resilience.breaker_open"] = counterSum(r.final.daemons, "breaker.open")

	dsys := d.counter("delivery.flush.syscalls")
	m["delivery.frames_per_syscall"] = ratio(d.counter("delivery.flush.frames"), dsys)
	m["delivery.syscalls_per_doc"] = dsys / docs
	m["delivery.bytes_per_event"] = ratio(d.hsum("delivery.flush.bytes"), d.counter("delivery.delivered"))
	m["delivery.pending_max"] = histMax(r.final.daemons, "delivery.queue.depth")
	var ack []float64
	for _, dump := range r.final.daemons {
		if h := dump.Histograms["delivery.ack.latency"]; h.Count > 0 {
			ack = append(ack, float64(h.P50NS)/1e3)
		}
	}
	if len(ack) == 0 {
		return errors.New("no delivery ack was observed")
	}
	m["delivery.ack_p50_us"] = mean(ack)
	m["delivery.dropped"] = r.policy
	m["delivery.coalesced"] = counterSum(r.final.daemons, "delivery.coalesced")

	// Kernel and runtime accounting over the traced closed phase.
	wall := float64(ct.end-ct.start) / 1e9
	var dcpu, ctxsw, mallocs, bytes, gcs float64
	nd := len(s.cl.daemons)
	for i := 0; i < nd; i++ {
		dcpu += r.edgeB.usage[i].cpuSec - r.edgeA.usage[i].cpuSec
		ctxsw += r.edgeB.usage[i].ctxSwitches - r.edgeA.usage[i].ctxSwitches
		mallocs += r.edgeB.mem[i].mallocs - r.edgeA.mem[i].mallocs
		bytes += r.edgeB.mem[i].allocBytes - r.edgeA.mem[i].allocBytes
		gcs += r.edgeB.mem[i].gcs - r.edgeA.mem[i].gcs
	}
	hcpu := r.edgeB.usage[nd].cpuSec - r.edgeA.usage[nd].cpuSec
	ctxsw += r.edgeB.usage[nd].ctxSwitches - r.edgeA.usage[nd].ctxSwitches
	mallocs += float64(r.edgeB.self.Mallocs - r.edgeA.self.Mallocs)
	bytes += float64(r.edgeB.self.TotalAlloc - r.edgeA.self.TotalAlloc)
	gcs += float64(r.edgeB.self.NumGC - r.edgeA.self.NumGC)
	m["proc.cpu_ms_per_doc.daemons"] = dcpu * 1e3 / docs
	m["proc.cpu_ms_per_doc.harness"] = hcpu * 1e3 / docs
	m["proc.cpu_util"] = (dcpu + hcpu) / (wall * float64(runtime.NumCPU()))
	m["proc.ctx_switches_per_doc"] = ctxsw / docs
	m["proc.allocs_per_doc"] = mallocs / docs
	m["proc.alloc_kb_per_doc"] = bytes / 1024 / docs
	m["proc.gc_cycles_per_kdoc"] = gcs * 1e3 / docs

	// Generator health of the untraced open phase, which receipt latency is
	// read from, and the end-to-end readings that carry no bound — all from
	// this run's untraced phases, exactly as an untraced run defines them.
	m["gen.lag_p99_ms"] = quantile(r.open.lagMS, 0.99)
	m["gen.inflight_max"] = float64(r.open.maxInFly)
	m["e2e.backlog_growth"] = r.open.backlogGrowth()
	for _, d := range unbounded {
		m["e2e."+d.Name] = r.e2e[d.Name]
	}
	m["e2e.docs_per_sec_c1"], _ = docsPerSec(r.single)
	evDocs, evPasses := r.eventsPerDoc(s)
	m["e2e.events_per_doc"] = evDocs
	lat := pubLatenciesMS(r.closed)
	m["e2e.publish_p50_ms"] = sortedQuantile(lat, 0.5)
	m["e2e.publish_p99_ms"] = sortedQuantile(lat, 0.99)
	m["e2e.receipt_p99_ms"] = quantile(r.receipts[phOpen].all(), 0.99)
	untraced, _ := docsPerSec(r.closed)
	traced, _ := docsPerSec(ct)
	m["trace.overhead_ratio"] = ratio(traced, untraced)

	var err error
	if r.budget, err = r.buildBudget(s, daemonsDelta(r.edgeC, r.edgeD)); err != nil {
		return err
	}
	m["e2e.residual_ratio"] = r.budget.residual
	var poolEvents float64
	for i := range r.h.exp {
		poolEvents += float64(len(r.h.exp[i].subs))
	}
	r.h.note("e2e.events_per_doc is measured over %d whole passes of the document pool; the oracle's figure for one pass of the base filters is %.4f", evPasses, poolEvents/float64(len(r.h.exp)))
	r.layer = m
	return nil
}

// eventsPerDoc is the measured fan-out: events the system owed — one per
// subscriber of the returned, oracle-checked match set, each read from its
// socket before the run ends — per document, over the leading documents of
// the run (set-up's, then the timed phases') that make up whole passes of
// the pool. Publishes walk the pool in order, so whole passes weigh every
// pool document equally and the figure does not depend on how many documents
// a run completed; a run too short for one pass (passes = 0) uses them all.
func (r *result) eventsPerDoc(s *sut) (perDoc float64, passes int) {
	all := [][]opResult{s.setupPubs}
	for _, ps := range r.phases() {
		if ps != nil {
			all = append(all, ps.pubs)
		}
	}
	issued, n := s.docSeq.Load(), uint64(len(s.w.docs))
	limit := issued
	if issued >= n {
		limit, passes = issued/n*n, int(issued/n)
	}
	var events, docs float64
	for _, pubs := range all {
		for i := range pubs {
			if p := &pubs[i]; p.ok && p.seq < limit {
				events += float64(p.events)
				docs++
			}
		}
	}
	return ratio(events, docs), passes
}

// backlogGrowth is how much fuller the pipe was over the last quarter of
// the open schedule than over the first, as a share of its capacity: a
// queue that grows shows here before it shows as generator lag.
func (ps *phaseStats) backlogGrowth() float64 {
	q := len(ps.inFlyAt) / 4
	if q == 0 {
		return 0
	}
	var head, tail float64
	for i := 0; i < q; i++ {
		head += float64(ps.inFlyAt[i])
		tail += float64(ps.inFlyAt[len(ps.inFlyAt)-1-i])
	}
	return (tail - head) / float64(q) / openInFlight
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// note records a line printed under the metric table (main goroutine only).
func (h *harness) note(format string, args ...any) {
	h.notes = append(h.notes, fmt.Sprintf(format, args...))
}
