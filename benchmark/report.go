package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/movesys/move/internal/metrics"
)

// snapshot is one scrape of every registry: the daemons' over
// /metrics?format=json, the entry node's in process.
type snapshot struct {
	daemons []metrics.Dump
	entry   metrics.Dump
}

// Every series the harness reads, by registry. The program registers all
// of them when a node, hub or transport is built, so each is in every scrape
// from the first one on, at 0 if nothing happened yet. A scrape that lacks
// one fails the run: were the series renamed, the metrics built on it would
// otherwise read a clean 0.
var (
	daemonCounters = []string{
		"publish.failover", "publish.degraded", "realloc.filters.migrated",
		"rpc.retries", "rpc.giveups", "breaker.open",
		"delivery.flush.syscalls", "delivery.flush.frames", "delivery.delivered", "delivery.coalesced",
		"delivery.drops.oldest", "delivery.drops.disconnect",
	}
	daemonGauges     = []string{"index.cover.covers", "index.cover.expansion_fanout_milli"}
	daemonHistograms = []string{
		"match.term", "publish.home", "publish.column.rpc",
		"delivery.flush.bytes", "delivery.queue.depth", "delivery.ack.latency",
	}
	entryCounters = []string{"publish.home.rpcs", "delivery.route.rpcs", "delivery.route.subs", "delivery.route.lost"}
	// The transport's series are on the daemons and on the entry node.
	transportCounters   = []string{"transport.tcp.flush.syscalls", "transport.tcp.flush.frames"}
	transportHistograms = []string{"transport.tcp.flush.bytes", "transport.tcp.queue.bytes"}
)

// missingSeries names what a registry's dump lacks of the series listed.
func missingSeries(who string, d metrics.Dump, counters, gauges, histograms []string) (out []string) {
	for _, n := range counters {
		if _, ok := d.Counters[n]; !ok {
			out = append(out, who+": counter "+n)
		}
	}
	for _, n := range gauges {
		if _, ok := d.Gauges[n]; !ok {
			out = append(out, who+": gauge "+n)
		}
	}
	for _, n := range histograms {
		if _, ok := d.Histograms[n]; !ok {
			out = append(out, who+": histogram "+n)
		}
	}
	return out
}

func (s *sut) snapshot(ctx context.Context) (snapshot, error) {
	var sn snapshot
	var missing []string
	for _, d := range s.cl.daemons {
		dump, err := d.scrape(ctx)
		if err != nil {
			return sn, err
		}
		sn.daemons = append(sn.daemons, dump)
		missing = append(missing, missingSeries(d.id, dump, daemonCounters, daemonGauges, daemonHistograms)...)
		missing = append(missing, missingSeries(d.id, dump, transportCounters, nil, transportHistograms)...)
	}
	sn.entry = s.reg.Dump()
	missing = append(missing, missingSeries("entry", sn.entry, entryCounters, nil, nil)...)
	missing = append(missing, missingSeries("entry", sn.entry, transportCounters, nil, transportHistograms)...)
	if len(missing) > 0 {
		return sn, fmt.Errorf("scrape lacks series the metrics are built on (renamed or removed?): %s", strings.Join(missing, "; "))
	}
	return sn, nil
}

func (sn snapshot) all() []metrics.Dump {
	return append(append([]metrics.Dump(nil), sn.daemons...), sn.entry)
}

func counterSum(dumps []metrics.Dump, name string) float64 {
	var v int64
	for _, d := range dumps {
		v += d.Counters[name]
	}
	return float64(v)
}

func histCount(dumps []metrics.Dump, name string) float64 {
	var v int64
	for _, d := range dumps {
		v += d.Histograms[name].Count
	}
	return float64(v)
}

// histSum is the sum of everything observed: nanoseconds for latency
// histograms, bytes for the *.flush.bytes ones.
func histSum(dumps []metrics.Dump, name string) float64 {
	var v int64
	for _, d := range dumps {
		v += d.Histograms[name].SumNS
	}
	return float64(v)
}

func histMax(dumps []metrics.Dump, name string) float64 {
	var v int64
	for _, d := range dumps {
		v = max(v, d.Histograms[name].MaxNS)
	}
	return float64(v)
}

// wireBytes is every byte the system wrote to a socket so far: inter-node
// RPC frames (daemons and entry) plus subscriber delivery frames.
func (sn snapshot) wireBytes() float64 {
	return histSum(sn.all(), "transport.tcp.flush.bytes") + histSum(sn.daemons, "delivery.flush.bytes")
}

// edge is what brackets the traced closed phase: a scrape and the kernel's
// and the runtimes' accounts (daemons in order, the harness last).
type edge struct {
	snapshot
	usage []procUsage
	mem   []memCounters
	self  runtime.MemStats
}

// result is everything one run measured.
type result struct {
	h      *harness
	setups []setupTimings

	warm, closed, open               *phaseStats // every run, untraced
	closedTraced, single, openTraced *phaseStats // traced runs only
	closedA, closedB                 snapshot    // around the (untraced) closed phase
	edgeA, edgeB                     edge        // around the traced closed phase
	edgeC, edgeD                     snapshot    // around the traced open phase
	final                            snapshot
	rssMB                            float64

	receipts map[uint8]*windows // phase → receipt latency (ms) windowed by due time
	audit    []violation
	failed   int
	attempt  int
	policy   float64 // events shed by a slow-consumer policy
	probes   *probeResults
	budget   *budget
	unregUS  []float64 // post-run unregister sample (workloads without a script)

	e2e   map[string]float64
	layer map[string]float64
}

// measure runs the timed phases on a system that finished set-up.
func (r *result) measure(ctx context.Context, s *sut) error {
	h := r.h
	total := time.Duration(h.opts.seconds) * time.Second
	warm := total / 10
	var err error
	if r.warm, err = s.closedPhase(ctx, phWarm, warm, numPublishers); err != nil {
		return err
	}
	// Both kinds of run start with the same untraced sequence — warm-up,
	// closed, open — which every end-to-end reading comes from; a traced run
	// gives it 55 % of the time instead of 90 % and spends the rest on the
	// traced phases the per-layer metrics come from.
	closed, open := total*4/10, total*5/10
	if h.opts.trace {
		closed, open = total*30/100, total*25/100
	}
	if r.closedA, err = s.snapshot(ctx); err != nil {
		return err
	}
	if r.closed, err = s.closedPhase(ctx, phClosed, closed, numPublishers); err != nil {
		return err
	}
	if r.closedB, err = s.snapshot(ctx); err != nil {
		return err
	}
	if r.open, err = s.openPhase(ctx, phOpen, open, h.sp.openRate); err != nil {
		return err
	}
	if h.opts.trace {
		closedTraced, single := total*125/1000, total*75/1000
		// The traced closed phase every scrape brackets, one publisher alone
		// (untraced), and the traced open phase the layer budget is built on.
		s.spans = &spanLog{s: s}
		s.attachTransport(true)
		if r.edgeA, err = s.takeEdge(ctx); err != nil {
			return err
		}
		if r.closedTraced, err = s.closedPhase(ctx, phClosedTraced, closedTraced, numPublishers); err != nil {
			return err
		}
		if r.edgeB, err = s.takeEdge(ctx); err != nil {
			return err
		}
		s.attachTransport(false)
		if r.single, err = s.closedPhase(ctx, phSingle, single, 1); err != nil {
			return err
		}
		s.attachTransport(true)
		if r.edgeC, err = s.snapshot(ctx); err != nil {
			return err
		}
		if r.openTraced, err = s.openPhase(ctx, phOpenTraced, total-warm-closed-open-closedTraced-single, h.sp.openRate); err != nil {
			return err
		}
	}
	s.drain(ctx, 10*time.Second)
	s.attachTransport(false)
	if err := context.Cause(ctx); err != nil {
		return err
	}

	if r.final, err = s.snapshot(ctx); err != nil {
		return err
	}
	r.edgeD = r.final
	for _, d := range s.cl.daemons {
		mb, err := d.peakRSSMB()
		if err != nil {
			return err
		}
		r.rssMB += mb
	}
	if h.opts.trace && !h.sp.scripted {
		if err := r.sampleUnregisters(ctx, s); err != nil {
			return err
		}
	}
	s.closeSessions()
	r.collect(s)
	if h.opts.trace {
		s.spans.seal()
		if h.opts.traceOut != "" {
			if err := s.spans.writeTo(h.opts.traceOut); err != nil {
				return err
			}
		}
		// Probes run after every timed phase, against private instances of
		// each module, while the daemons sit idle.
		if r.probes, err = runProbes(ctx, s); err != nil {
			return fmt.Errorf("layer probe: %w", err)
		}
	}
	s.close()
	r.endToEndMetrics()
	if h.opts.trace {
		if err := r.layerMetrics(s); err != nil {
			return err
		}
	}
	return r.validate()
}

// takeEdge reads everything the traced closed phase is bracketed by.
func (s *sut) takeEdge(ctx context.Context) (e edge, err error) {
	if e.snapshot, err = s.snapshot(ctx); err != nil {
		return e, err
	}
	for _, d := range s.cl.daemons {
		u, err := d.usage(true)
		if err != nil {
			return e, err
		}
		mc, err := d.memCounters(ctx)
		if err != nil {
			return e, err
		}
		e.usage, e.mem = append(e.usage, u), append(e.mem, mc)
	}
	e.usage = append(e.usage, selfUsage())
	runtime.ReadMemStats(&e.self)
	return e, nil
}

// sampleUnregisters times a fixed sample of unregisters after the timed
// phases, on workloads whose script has none.
func (r *result) sampleUnregisters(ctx context.Context, s *sut) error {
	n := min(256, len(s.w.filters))
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := s.unregister(ctx, s.w.filters[len(s.w.filters)-1-i].id); err != nil {
			return err
		}
		r.unregUS = append(r.unregUS, float64(time.Since(t0))/1e3)
	}
	return nil
}

// collect turns the readers' samples into windowed receipt latencies and
// runs the delivery audit.
func (r *result) collect(s *sut) {
	h := r.h
	r.receipts = make(map[uint8]*windows)
	for _, ps := range r.phases() {
		if ps != nil {
			r.receipts[ps.phase] = newWindows(ps.start)
			r.attempt += ps.attempted
			r.failed += ps.failed
		}
	}
	for _, se := range s.sessions {
		for _, sm := range se.samples {
			d := &s.led.docs[sm.slot]
			w := r.receipts[d.phase]
			if w == nil || d.state.Load() != docChecked {
				continue
			}
			due := d.due.Load()
			w.add(due, float64(sm.recv-due)/1e6)
		}
	}
	failedDocs, vs := s.led.audit(s.w, s.phantoms.Load())
	r.failed += failedDocs
	r.audit = vs
	r.policy = counterSum(r.final.daemons, "delivery.drops.oldest") + counterSum(r.final.daemons, "delivery.drops.disconnect")
	if lost := float64(s.lost.Load()); lost > 0 {
		r.audit = append(r.audit, violation{0, "notifications the entry node could not route", int(lost), 0})
	}
	if r.policy > 0 {
		r.audit = append(r.audit, violation{0, "events shed by a slow-consumer policy", int(r.policy), 0})
		r.failed += int(r.policy)
	}
	h.vmu.Lock()
	r.audit = append(append([]violation(nil), h.violations...), r.audit...)
	h.vmu.Unlock()
}

// phases lists the timed phases in the order they ran (nil: not in this run).
func (r *result) phases() []*phaseStats {
	return []*phaseStats{r.warm, r.closed, r.open, r.closedTraced, r.single, r.openTraced}
}

func (r *result) correct() bool { return r.failed == 0 && len(r.audit) == 0 }

// perWindow walks the sampler's one-second windows of a closed phase.
func perWindow(ps *phaseStats, fn func(dt, docs, daemonsCPU, harnessCPU float64)) {
	for i := 1; i < len(ps.samples); i++ {
		a, b := ps.samples[i-1], ps.samples[i]
		fn(float64(b.at-a.at)/1e9, float64(b.docs-a.docs), b.daemons-a.daemons, b.harness-a.harness)
	}
}

// docsPerSec is the median over one-second windows of documents returned
// and oracle-correct per second.
func docsPerSec(ps *phaseStats) (v float64, wins int) {
	var xs []float64
	perWindow(ps, func(dt, docs, _, _ float64) { xs = append(xs, docs/dt) })
	return median(xs), len(xs)
}

func (r *result) endToEndMetrics() {
	m := map[string]float64{}
	var totals []float64
	for _, tm := range r.setups {
		totals = append(totals, tm.total.Seconds())
	}
	m["setup_s"] = median(totals)
	m["docs_per_sec"], _ = docsPerSec(r.closed)
	var cpu []float64
	perWindow(r.closed, func(_, docs, dc, hc float64) {
		if docs > 0 {
			cpu = append(cpu, (dc+hc)*1e3/docs)
		}
	})
	m["cpu_ms_per_doc"] = median(cpu)
	m["receipt_p50_ms"], _, _ = r.receipts[phOpen].medianOfMedians(10)
	m["rss_mb"] = r.rssMB
	m["wire_bytes_per_doc"] = ratio(r.closedB.wireBytes()-r.closedA.wireBytes(), float64(r.closed.docsOK()))
	r.e2e = m
}

func pubLatenciesMS(ps *phaseStats) []float64 {
	xs := make([]float64, 0, len(ps.pubs))
	for i := range ps.pubs {
		if ps.pubs[i].ok {
			xs = append(xs, float64(ps.pubs[i].end-ps.pubs[i].start)/1e6)
		}
	}
	sort.Float64s(xs)
	return xs
}

// listed is what the contract wants on the result line of this kind of run.
func (r *result) listed() ([]metricDef, map[string]float64) {
	if r.h.opts.trace {
		return perLayer, r.layer
	}
	return endToEnd, r.e2e
}

// contractLine is the last line of standard output.
func (r *result) contractLine() map[string]any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]mv{}
	defs, vals := r.listed()
	for _, d := range defs {
		out[d.Name] = mv{vals[d.Name], d.Unit}
	}
	return map[string]any{"correct": r.correct(), "attempted": max(r.attempt, 1), "failed": r.failed, "metrics": out}
}

// zeroOnHealthyRun are the failure and policy counters: 0 is their reading
// on a run in which nothing went wrong (backlog growth is a difference).
var zeroOnHealthyRun = map[string]bool{
	"node.grid.failovers": true, "node.grid.degraded": true, "node.route.lost": true,
	"resilience.retries": true, "resilience.giveups": true, "resilience.breaker_open": true,
	"delivery.dropped": true, "delivery.coalesced": true, "e2e.backlog_growth": true,
}

// zeroWithoutGrid are 0 by construction on a workload without a grid: no
// allocation round runs and no column RPC exists.
var zeroWithoutGrid = map[string]bool{
	"node.grid.column_rpcs_per_doc": true, "node.grid.column_rpc_mean_us": true,
	"realloc.prepare_ms": true, "realloc.commit_ms": true, "realloc.round_ms": true, "realloc.migrated_filters": true,
}

// validate refuses a result whose metrics are missing, not numbers, or 0
// where 0 is not a possible reading: a probe or scrape that could not run,
// or a series that stopped counting, fails the run rather than reading 0.
func (r *result) validate() error {
	defs, vals := r.listed()
	var errs []error
	for _, d := range defs {
		v, ok := vals[d.Name]
		switch {
		case !ok || math.IsNaN(v) || math.IsInf(v, 0):
			errs = append(errs, fmt.Errorf("metric %s was not measured", d.Name))
		case v == 0 && !zeroOnHealthyRun[d.Name] && !(zeroWithoutGrid[d.Name] && !r.h.sp.grid):
			errs = append(errs, fmt.Errorf("metric %s read 0, which it cannot on this workload: nothing was counted", d.Name))
		}
	}
	return errors.Join(errs...)
}

func (r *result) print(w io.Writer) {
	h := r.h
	fmt.Fprintf(w, "\n== %s seed %d: set-up ==\n", h.sp.name, h.opts.seed)
	for i, tm := range r.setups {
		fmt.Fprintf(w, "set-up %d: %.3f s (spawn %.3f, ready %.3f, bloom %.3f, register %.3f [%d filters], attach %.3f, %d docs e2e %.3f, allocation round %.3f)\n",
			i+1, tm.total.Seconds(), tm.spawn.Seconds(), tm.ready.Seconds(), tm.bloom.Seconds(), tm.register.Seconds(), tm.registerOps,
			tm.attach.Seconds(), setupDocs, tm.docs.Seconds(), tm.alloc.Seconds())
	}
	fmt.Fprintf(w, "\n== phases ==\n")
	for _, ps := range r.phases() {
		if ps == nil {
			continue
		}
		lat := pubLatenciesMS(ps)
		fmt.Fprintf(w, "%-14s %6.2f s  %7d ops attempted %3d failed  %7d docs ok  publish p50 %.3f ms p99 %.3f ms (n=%d)",
			phaseName(ps.phase), float64(ps.end-ps.start)/1e9, ps.attempted, ps.failed, ps.docsOK(),
			sortedQuantile(lat, 0.5), sortedQuantile(lat, 0.99), len(lat))
		if rc := r.receipts[ps.phase]; rc != nil {
			all := rc.all()
			fmt.Fprintf(w, "  receipt p50 %.3f ms p99 %.3f ms (n=%d)", quantile(all, 0.5), quantile(all, 0.99), len(all))
		}
		if len(ps.regs) > 0 {
			fmt.Fprintf(w, "  %d registers %d unregisters", len(ps.regs), len(ps.unregs))
		}
		fmt.Fprintln(w)
	}
	if r.open != nil {
		lag := append([]float64(nil), r.open.lagMS...)
		fmt.Fprintf(w, "open phase: %.0f docs/s scheduled, generator lag p50 %.3f ms p99 %.3f ms (n=%d), at most %d in flight, %d of %d operations completed\n",
			h.sp.openRate, quantile(lag, 0.5), quantile(lag, 0.99), len(lag), r.open.maxInFly, r.open.attempted, r.open.scheduled)
	}
	dps, wins := docsPerSec(r.closed)
	var dcpu, hcpu []float64
	perWindow(r.closed, func(_, docs, dc, hc float64) {
		if docs > 0 {
			dcpu, hcpu = append(dcpu, dc*1e3/docs), append(hcpu, hc*1e3/docs)
		}
	})
	fmt.Fprintf(w, "closed phase: docs_per_sec median %.1f over %d one-second windows; CPU per document: daemons %.4f ms, harness %.4f ms (window medians)\n",
		dps, wins, median(dcpu), median(hcpu))
	var ocpu []float64
	perWindow(r.open, func(_, docs, dc, hc float64) {
		if docs > 0 {
			ocpu = append(ocpu, (dc+hc)*1e3/docs)
		}
	})
	fmt.Fprintf(w, "open phase: CPU per document %.4f ms (window median)\n", median(ocpu))

	fmt.Fprintf(w, "\n== oracle ==\n")
	fmt.Fprintf(w, "attempted %d operations, failed %d; %d violations\n", r.attempt, r.failed, len(r.audit))
	for i, v := range r.audit {
		if i == 20 {
			fmt.Fprintf(w, "  ... %d more\n", len(r.audit)-20)
			break
		}
		fmt.Fprintln(w, "  "+v.String())
	}

	defs, vals := r.listed()
	title := "end-to-end metrics (untraced)"
	if h.opts.trace {
		title = "per-layer metrics (traced)"
		r.budget.print(w)
		r.probes.print(w)
	} else {
		fmt.Fprintf(w, "\n== end-to-end readings without a bound (the contract lists them per layer, as e2e.<name>) ==\n")
		for _, d := range unbounded {
			fmt.Fprintf(w, "%-34s %16.4f %s\n", d.Name, r.e2e[d.Name], d.Unit)
		}
	}
	fmt.Fprintf(w, "\n== %s ==\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	for _, n := range r.h.notes {
		fmt.Fprintln(w, "note:", n)
	}
}

func phaseName(p uint8) string {
	return [...]string{"set-up", "warm-up", "closed", "open", "closed(traced)", "closed(1 pub)", "open(traced)"}[p]
}
