package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"github.com/movesys/move/internal/cluster"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
)

// deliveryReport is the JSON document `movebench -fig delivery` writes:
// end-to-end subscriber delivery at scale — every published document fans
// out through match routing to live sessions (100k in the CI profile, 1M
// in the full-scale profile), and every event's publish→SendEvents
// latency is recorded. Checked in as BENCH_delivery.json (CI profile) and
// BENCH_delivery_1m.json (full scale) so PRs carry delivery-tier
// baselines alongside the publish, alloc, and churn ones.
type deliveryReport struct {
	GeneratedBy string `json:"generated_by"`
	Nodes       int    `json:"nodes"`
	Subscribers int    `json:"subscribers"`
	Docs        int    `json:"docs"`
	Seed        int64  `json:"seed"`
	// Shards / Wave / FlushBatch / FlushDelayMS pin the hub and workload
	// shape the numbers were measured under: the session-registry shard
	// count, how many documents are published before each drain barrier,
	// the per-SendEvents batch bound, and the writer coalescing window.
	Shards       int     `json:"shards"`
	Wave         int     `json:"wave"`
	FlushBatch   int     `json:"flush_batch"`
	FlushDelayMS float64 `json:"flush_delay_ms"`

	// DeliveredEvents is the total number of events that reached
	// subscriber connections; FanoutAmplification is the mean number of
	// subscriber deliveries per published document.
	DeliveredEvents     int64   `json:"delivered_events"`
	FanoutAmplification float64 `json:"fanout_amplification"`
	// DeliveryP50MS / DeliveryP99MS summarize publish-call-to-SendEvents
	// latency across every delivered event.
	DeliveryP50MS float64 `json:"delivery_p50_ms"`
	DeliveryP99MS float64 `json:"delivery_p99_ms"`
	// RouteRPCsPerDoc shows the per-destination batching: one deliver-batch
	// RPC per session-owner node, however many subscribers it hosts.
	RouteRPCsPerDoc float64 `json:"route_rpcs_per_doc"`
	// FramesPerSyscall is the writer-coalescing ratio: wire frames handed
	// to connections per physical flush (Flusher.Flush call). The 1M
	// profile hard-requires > 2.0 — the point of the coalescing writer.
	FramesPerSyscall float64 `json:"frames_per_syscall"`
	FlushSyscalls    int64   `json:"flush_syscalls"`
	// Dropped and Redelivered MUST be zero in this figure (auto-acking
	// readers, bounded queues never overflow); any other value fails the
	// run before the report is written.
	Dropped     int64 `json:"dropped"`
	Redelivered int64 `json:"redelivered"`
}

// deliveryOpts shapes one delivery-figure run. Zero values select the CI
// profile: per-doc drain, 256-event flush batches, no coalescing delay.
type deliveryOpts struct {
	Subs       int
	Docs       int
	Shards     int           // session registry shards (0 = delivery.DefaultShards)
	Wave       int           // docs published before each drain barrier (<=1 = per-doc)
	FlushBatch int           // max events per SendEvents frame (0 = 256)
	FlushDelay time.Duration // writer coalescing window (0 = flush immediately)
}

// deliveryTolerance / deliverySlackMS: the regression budget against
// -baseline on delivery p99 — fail only when both the relative and the
// absolute budget are exceeded.
const deliveryTolerance = 0.10
const deliverySlackMS = 25.0

// deliveryFanoutTolerance bounds drift of the workload itself: the same
// seed must produce the same oracle fan-out within ±10%, or the numbers
// are not comparable.
const deliveryFanoutTolerance = 0.10

// deliveryFPSFloor is the hard acceptance gate on writer coalescing at
// full scale: at >=1M live sessions the flush path must merge more than
// two frames into each physical write on average.
const deliveryFPSFloor = 2.0

func checkDeliveryBaseline(path string, rep deliveryReport) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("delivery: baseline %s not found, skipping regression check\n", path)
			return nil
		}
		return fmt.Errorf("read baseline: %w", err)
	}
	var base deliveryReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if base.Subscribers != 0 && base.Subscribers != rep.Subscribers {
		fmt.Printf("delivery: baseline %s is a %d-subscriber profile (this run: %d), skipping regression check\n",
			path, base.Subscribers, rep.Subscribers)
		return nil
	}
	if base.DeliveryP99MS > 0 {
		limit := base.DeliveryP99MS*(1+deliveryTolerance) + deliverySlackMS
		if rep.DeliveryP99MS > limit {
			return fmt.Errorf("delivery_p99_ms regression: %.2fms vs baseline %.2fms (budget +%d%% +%.0fms)",
				rep.DeliveryP99MS, base.DeliveryP99MS, int(deliveryTolerance*100), deliverySlackMS)
		}
		fmt.Printf("delivery: p99 %.2fms within budget of baseline %.2fms\n", rep.DeliveryP99MS, base.DeliveryP99MS)
	}
	if base.FanoutAmplification > 0 {
		lo := base.FanoutAmplification * (1 - deliveryFanoutTolerance)
		hi := base.FanoutAmplification * (1 + deliveryFanoutTolerance)
		if rep.FanoutAmplification < lo || rep.FanoutAmplification > hi {
			return fmt.Errorf("fanout drift: %.1f events/doc vs baseline %.1f (±%d%% comparability bound)",
				rep.FanoutAmplification, base.FanoutAmplification, int(deliveryFanoutTolerance*100))
		}
		fmt.Printf("delivery: fanout %.1f events/doc comparable to baseline %.1f\n", rep.FanoutAmplification, base.FanoutAmplification)
	}
	return nil
}

// benchConn is the simulated subscriber endpoint: it acks everything
// immediately and records, per document, how many events arrived, to whom
// (as an order-independent hash sum), and the publish→delivery latency.
// It also mirrors the wireConn buffering contract — SendEvents buffers a
// frame, Flush reports the physical write — so the in-process bench
// measures the same frames-per-syscall ratio a TCP deployment would.
type benchConn struct {
	hub     *delivery.Hub
	sub     string
	subHash uint64
	st      *benchDeliveryState

	// Buffered-writer accounting. The hub serializes SendEvents/Flush per
	// session under its flush lock, so no mutex is needed.
	pendingFrames int
	pendingBytes  int
}

// benchDeliveryState is shared by every benchConn: per-doc accounting
// indexed by slot (docID-1 — the cluster is fresh, so publishes number
// their documents 1..docs in order).
type benchDeliveryState struct {
	startNS  []atomic.Int64  // publish-call timestamp per doc slot
	count    []atomic.Int64  // events delivered per doc slot
	hashSum  []atomic.Uint64 // sum of subscriber-name hashes per doc slot
	total    atomic.Int64
	phantoms atomic.Int64 // events for docs not yet (or never) published
	reg      histObserver
}

type histObserver interface{ Observe(time.Duration) }

func (c *benchConn) SendHello(delivery.HelloInfo) error { return nil }
func (c *benchConn) SendPing() error                    { return nil }
func (c *benchConn) SendBye(string) error               { return nil }
func (c *benchConn) Close() error                       { return nil }

func (c *benchConn) SendEvents(evs []*delivery.Event) error {
	now := time.Now().UnixNano()
	for _, ev := range evs {
		slot := int(ev.DocID) - 1
		if slot < 0 || slot >= len(c.st.count) {
			c.st.phantoms.Add(1)
			continue
		}
		start := c.st.startNS[slot].Load()
		if start == 0 {
			c.st.phantoms.Add(1)
			continue
		}
		c.st.reg.Observe(time.Duration(now - start))
		c.st.count[slot].Add(1)
		c.st.hashSum[slot].Add(c.subHash)
		c.st.total.Add(1)
	}
	// One events frame buffered; sizes mirror the wire codec's
	// length-prefixed batch encoding closely enough for the bytes metric.
	c.pendingFrames++
	c.pendingBytes += 16
	for _, ev := range evs {
		c.pendingBytes += 24 + 4*len(ev.Filters)
	}
	c.hub.Ack(c.sub, evs[len(evs)-1].Seq)
	return nil
}

// Flush implements delivery.Flusher: the hub calls it once per flush
// round, exactly where a wireConn would issue its single write syscall.
func (c *benchConn) Flush() error {
	if c.pendingFrames > 0 {
		c.hub.FlushStats().Observe(c.pendingFrames, c.pendingBytes)
		c.pendingFrames, c.pendingBytes = 0, 0
	}
	return nil
}

func subNameHash(sub string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(sub))
	return h.Sum64()
}

// runDeliveryFig stands up a 20-node cluster with the delivery tier
// enabled, registers one filter per simulated subscriber, attaches every
// subscriber as a live in-process session on its owner node's hub, then
// publishes opts.Docs documents in waves of opts.Wave. After each wave it
// waits for the fan-out to drain and verifies every document's delivered
// set — count and subscriber-hash sum — against both the publish's own
// match set and a brute-force inverted-index oracle. At >=1M subscribers
// the run additionally requires frames_per_syscall > 2.0.
func runDeliveryFig(outPath, baselinePath string, nodes int, opts deliveryOpts, seed int64) error {
	subs, docs := opts.Subs, opts.Docs
	if subs < 1 || docs < 1 {
		return fmt.Errorf("delivery: need at least 1 subscriber and 1 document")
	}
	wave := opts.Wave
	if wave < 1 {
		wave = 1
	}
	flushBatch := opts.FlushBatch
	if flushBatch <= 0 {
		flushBatch = 256
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = delivery.DefaultShards
	}
	capacity := 1_000_000
	if subs*4 > capacity {
		capacity = subs * 4
	}
	c, err := cluster.New(cluster.Config{
		Scheme:   cluster.SchemeMove,
		Nodes:    nodes,
		RackSize: 4,
		Capacity: capacity,
		Seed:     seed,
		Delivery: &delivery.Config{
			QueueCap:   1024,
			WindowCap:  4096,
			FlushBatch: flushBatch,
			FlushDelay: opts.FlushDelay,
			Shards:     shards,
			Policy:     delivery.DropOldest,
			// HeartbeatEvery left zero: auto-acking in-process conns never
			// idle out, so no janitor is needed.
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))

	// Vocabulary: ~5000 terms under a Zipf popularity curve, the shape
	// §VI.A measures for real filter workloads. Each subscriber registers
	// one 2-term MatchAny filter; each document carries 8 distinct terms.
	const vocab = 5000
	zipf := rand.NewZipf(rng, 1.3, 4.0, vocab-1)
	term := func() string { return fmt.Sprintf("t%04d", zipf.Uint64()) }

	st := &benchDeliveryState{
		startNS: make([]atomic.Int64, docs),
		count:   make([]atomic.Int64, docs),
		hashSum: make([]atomic.Uint64, docs),
		reg:     c.Metrics().Histogram("delivery.e2e.latency"),
	}

	// Register + attach every subscriber; build the brute-force oracle as
	// an inverted index term -> subscriber ordinals.
	posting := make(map[string][]int32)
	subTerms := make([][2]string, subs)
	subHashes := make([]uint64, subs)
	fmt.Printf("delivery: registering and attaching %d subscribers on %d nodes (%d shards/hub)...\n", subs, nodes, shards)
	for i := 0; i < subs; i++ {
		sub := fmt.Sprintf("sub%06d", i)
		t1, t2 := term(), term()
		for t2 == t1 {
			t2 = term()
		}
		if _, err := c.Register(ctx, sub, []string{t1, t2}, model.MatchAny, 0); err != nil {
			return fmt.Errorf("register %s: %w", sub, err)
		}
		subTerms[i] = [2]string{t1, t2}
		subHashes[i] = subNameHash(sub)
		posting[t1] = append(posting[t1], int32(i))
		posting[t2] = append(posting[t2], int32(i))

		owner, err := c.SubscriberOwner(sub)
		if err != nil {
			return err
		}
		hub := c.DeliveryHub(owner)
		conn := &benchConn{hub: hub, sub: sub, subHash: subHashes[i], st: st}
		if _, _, err := hub.Attach(sub, conn, 0); err != nil {
			return fmt.Errorf("attach %s: %w", sub, err)
		}
		if (i+1)%200_000 == 0 {
			fmt.Printf("delivery: %d/%d subscribers attached\n", i+1, subs)
		}
	}

	// oracleFor returns the distinct subscribers any of the doc's terms
	// reach, as (count, hash-sum) — enough to prove set equality against
	// what actually arrived without materializing per-doc subscriber sets.
	mark := make([]int32, subs) // doc ordinal +1, reused across docs
	oracleFor := func(docOrd int32, terms []string) (int64, uint64) {
		var n int64
		var sum uint64
		for _, t := range terms {
			for _, s := range posting[t] {
				if mark[s] != docOrd {
					mark[s] = docOrd
					n++
					sum += subHashes[s]
				}
			}
		}
		return n, sum
	}

	// Per-wave drain budget: a fixed floor, the coalescing window (events
	// may legitimately sit buffered for up to ~2 ticks), and an
	// event-volume term (expected fan-out is ~subs/4 events per doc;
	// budget ~10x a 1M-events/sec drain rate).
	drainBudget := 30*time.Second + 4*opts.FlushDelay +
		time.Duration(float64(wave)*float64(subs)/400_000*float64(time.Second))

	fmt.Printf("delivery: publishing %d documents in waves of %d...\n", docs, wave)
	var expectedTotal int64
	routeRPCs0 := c.Metrics().Counter("delivery.route.rpcs").Value()
	wantNs := make([]int64, docs)
	wantSums := make([]uint64, docs)
	for d0 := 0; d0 < docs; d0 += wave {
		w := wave
		if d0+w > docs {
			w = docs - d0
		}
		for j := 0; j < w; j++ {
			d := d0 + j
			terms := make([]string, 0, 8)
			seen := make(map[string]struct{}, 8)
			for len(terms) < 8 {
				t := term()
				if _, dup := seen[t]; !dup {
					seen[t] = struct{}{}
					terms = append(terms, t)
				}
			}
			wantN, wantSum := oracleFor(int32(d+1), terms)
			wantNs[d], wantSums[d] = wantN, wantSum

			st.startNS[d].Store(time.Now().UnixNano())
			res, err := c.Publish(ctx, terms)
			if err != nil {
				return fmt.Errorf("publish doc %d: %w", d+1, err)
			}
			if int(res.DocID) != d+1 {
				return fmt.Errorf("doc %d: unexpected DocID %d", d+1, res.DocID)
			}
			// Match layer vs oracle.
			var gotN int64
			var gotSum uint64
			distinct := make(map[string]struct{}, wantN)
			for _, m := range res.Matches {
				if _, dup := distinct[m.Subscriber]; !dup {
					distinct[m.Subscriber] = struct{}{}
					gotN++
					gotSum += subNameHash(m.Subscriber)
				}
			}
			if gotN != wantN || gotSum != wantSum {
				return fmt.Errorf("doc %d: match set diverged from oracle (got %d subs, want %d)", d+1, gotN, wantN)
			}
			expectedTotal += wantN
		}

		// Drain the wave: every matched subscriber's event must arrive
		// (auto-ack keeps queues empty, so this bounds delivery latency).
		deadline := time.Now().Add(drainBudget)
		for j := 0; j < w; j++ {
			d := d0 + j
			for st.count[d].Load() < wantNs[d] {
				if time.Now().After(deadline) {
					return fmt.Errorf("doc %d: delivery stalled at %d/%d events", d+1, st.count[d].Load(), wantNs[d])
				}
				time.Sleep(100 * time.Microsecond)
			}
			if n, sum := st.count[d].Load(), st.hashSum[d].Load(); n != wantNs[d] || sum != wantSums[d] {
				return fmt.Errorf("doc %d: delivered set diverged from oracle (%d events, want %d)", d+1, n, wantNs[d])
			}
		}
	}

	// Hard gates: exactly the oracle's events, none dropped, none phantom,
	// none needing redelivery.
	if st.phantoms.Load() != 0 {
		return fmt.Errorf("delivery: %d events arrived for unpublished documents", st.phantoms.Load())
	}
	if st.total.Load() != expectedTotal {
		return fmt.Errorf("delivery: %d events delivered, oracle expects %d", st.total.Load(), expectedTotal)
	}
	snap := c.Metrics().Snapshot()
	dropped := snap["delivery.drops.oldest"] + snap["delivery.drops.disconnect"]
	lost := snap["delivery.route.lost"]
	if dropped != 0 || lost != 0 {
		return fmt.Errorf("delivery: %d dropped, %d route-lost; figure requires zero", dropped, lost)
	}

	hist := c.Metrics().Histograms()["delivery.e2e.latency"]
	routeRPCs := c.Metrics().Counter("delivery.route.rpcs").Value() - routeRPCs0
	flushFrames := snap["delivery.flush.frames"]
	flushSyscalls := snap["delivery.flush.syscalls"]
	var fps float64
	if flushSyscalls > 0 {
		fps = float64(flushFrames) / float64(flushSyscalls)
	}
	if subs >= 1_000_000 && fps <= deliveryFPSFloor {
		return fmt.Errorf("delivery: frames_per_syscall %.2f at %d subscribers; full-scale profile requires > %.1f",
			fps, subs, deliveryFPSFloor)
	}
	rep := deliveryReport{
		GeneratedBy:         "movebench -fig delivery",
		Nodes:               nodes,
		Subscribers:         subs,
		Docs:                docs,
		Seed:                seed,
		Shards:              shards,
		Wave:                wave,
		FlushBatch:          flushBatch,
		FlushDelayMS:        float64(opts.FlushDelay) / float64(time.Millisecond),
		DeliveredEvents:     st.total.Load(),
		FanoutAmplification: float64(expectedTotal) / float64(docs),
		DeliveryP50MS:       float64(hist.P50NS) / 1e6,
		DeliveryP99MS:       float64(hist.P99NS) / 1e6,
		RouteRPCsPerDoc:     float64(routeRPCs) / float64(docs),
		FramesPerSyscall:    fps,
		FlushSyscalls:       flushSyscalls,
		Dropped:             dropped,
		Redelivered:         snap["delivery.redelivered"],
	}
	if baselinePath != "" {
		if err := checkDeliveryBaseline(baselinePath, rep); err != nil {
			return err
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("delivery: %d subscribers, %d docs, %d events (%.1f/doc), p50 %.2fms p99 %.2fms, %.1f route RPCs/doc, %.2f frames/syscall, 0 dropped -> %s\n",
		rep.Subscribers, rep.Docs, rep.DeliveredEvents, rep.FanoutAmplification,
		rep.DeliveryP50MS, rep.DeliveryP99MS, rep.RouteRPCsPerDoc, rep.FramesPerSyscall, outPath)
	return nil
}
