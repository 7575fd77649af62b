package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/movesys/move/internal/cluster"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
)

// deliveryReport is the JSON document `movebench -fig delivery` writes:
// end-to-end subscriber delivery at scale — every published document fans
// out through match routing to 100k live sessions, and every event's
// publish→SendEvents latency is recorded. Checked in as
// BENCH_delivery.json, the stored report `make bench-delivery` guards
// against.
type deliveryReport struct {
	GeneratedBy string `json:"generated_by"`
	Nodes       int    `json:"nodes"`
	Subscribers int    `json:"subscribers"`
	Docs        int    `json:"docs"`
	Seed        int64  `json:"seed"`

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
	// Dropped and Redelivered MUST be zero in this figure (auto-acking
	// readers, bounded queues never overflow); any other value fails the
	// run before the report is written.
	Dropped     int64 `json:"dropped"`
	Redelivered int64 `json:"redelivered"`
}

// The -fig delivery workload shape: each of deliveryDocs documents is
// published and drained on its own, the hubs flush immediately (no
// coalescing window) in frames of at most deliveryFlushBatch events.
const (
	deliveryDocs       = 150
	deliveryFlushBatch = 256
)

// benchConn is the simulated subscriber endpoint: it acks everything
// immediately and records, per document, how many events arrived, to whom
// (as an order-independent hash sum), and the publish→delivery latency.
type benchConn struct {
	hub     *delivery.Hub
	sub     string
	subHash uint64
	st      *benchDeliveryState
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
		// Hash before count: the drain loop reads the hash sum as soon as
		// the count is complete.
		c.st.hashSum[slot].Add(c.subHash)
		c.st.count[slot].Add(1)
		c.st.total.Add(1)
	}
	c.hub.Ack(c.sub, evs[len(evs)-1].Seq)
	return nil
}

func subNameHash(sub string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(sub))
	return h.Sum64()
}

// runDeliveryFig stands up a cluster with the delivery tier enabled,
// registers one filter per simulated subscriber, attaches every subscriber
// as a live in-process session on its owner node's hub, then publishes
// deliveryDocs documents one at a time. After each it waits for the
// fan-out to drain and verifies the delivered set — count and
// subscriber-hash sum — against both the publish's own match set and a
// brute-force inverted-index oracle.
func runDeliveryFig(outPath, baselinePath string, nodes, subs int, seed int64) error {
	if subs < 1 {
		return fmt.Errorf("delivery: need at least 1 subscriber")
	}
	const docs = deliveryDocs
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
			FlushBatch: deliveryFlushBatch,
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
	subHashes := make([]uint64, subs)
	fmt.Printf("delivery: registering and attaching %d subscribers on %d nodes...\n", subs, nodes)
	for i := 0; i < subs; i++ {
		sub := fmt.Sprintf("sub%06d", i)
		t1, t2 := term(), term()
		for t2 == t1 {
			t2 = term()
		}
		if _, err := c.Register(ctx, sub, []string{t1, t2}, model.MatchAny); err != nil {
			return fmt.Errorf("register %s: %w", sub, err)
		}
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

	// Per-document drain budget: a fixed floor plus an event-volume term
	// (expected fan-out is ~subs/4 events per doc; budget ~10x a
	// 1M-events/sec drain rate).
	drainBudget := 30*time.Second + time.Duration(float64(subs)/400_000*float64(time.Second))

	fmt.Printf("delivery: publishing %d documents...\n", docs)
	var expectedTotal int64
	routeRPCs0 := c.Metrics().Counter("delivery.route.rpcs").Value()
	for d := 0; d < docs; d++ {
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

		// Drain: every matched subscriber's event must arrive (auto-ack
		// keeps queues empty, so this bounds delivery latency).
		deadline := time.Now().Add(drainBudget)
		for st.count[d].Load() < wantN {
			if time.Now().After(deadline) {
				return fmt.Errorf("doc %d: delivery stalled at %d/%d events", d+1, st.count[d].Load(), wantN)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if n, sum := st.count[d].Load(), st.hashSum[d].Load(); n != wantN || sum != wantSum {
			return fmt.Errorf("doc %d: delivered set diverged from oracle (%d events, want %d)", d+1, n, wantN)
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
	dropped := snap["delivery.drops.oldest"]
	lost := snap["delivery.route.lost"]
	if dropped != 0 || lost != 0 {
		return fmt.Errorf("delivery: %d dropped, %d route-lost; figure requires zero", dropped, lost)
	}

	hist := c.Metrics().Histograms()["delivery.e2e.latency"]
	routeRPCs := c.Metrics().Counter("delivery.route.rpcs").Value() - routeRPCs0
	rep := deliveryReport{
		GeneratedBy:         "movebench -fig delivery",
		Nodes:               nodes,
		Subscribers:         subs,
		Docs:                docs,
		Seed:                seed,
		DeliveredEvents:     st.total.Load(),
		FanoutAmplification: float64(expectedTotal) / float64(docs),
		DeliveryP50MS:       float64(hist.P50NS) / 1e6,
		DeliveryP99MS:       float64(hist.P99NS) / 1e6,
		RouteRPCsPerDoc:     float64(routeRPCs) / float64(docs),
		Dropped:             dropped,
		Redelivered:         snap["delivery.redelivered"],
	}
	// The fan-out guard bounds drift of the workload itself: the same seed
	// must produce the same oracle fan-out, or the latencies do not compare.
	if err := checkBaseline("delivery", baselinePath, []guard{
		{field: "subscribers", got: float64(rep.Subscribers), kind: sameProfile},
		{field: "delivery_p99_ms", got: rep.DeliveryP99MS, kind: atMost, tol: guardTolerance, slack: guardSlackMS},
		{field: "fanout_amplification", got: rep.FanoutAmplification, kind: within, tol: guardTolerance},
	}); err != nil {
		return err
	}
	return writeReport(outPath, rep, fmt.Sprintf(
		"delivery: %d subscribers, %d docs, %d events (%.1f/doc), p50 %.2fms p99 %.2fms, %.1f route RPCs/doc, 0 dropped",
		rep.Subscribers, rep.Docs, rep.DeliveredEvents, rep.FanoutAmplification,
		rep.DeliveryP50MS, rep.DeliveryP99MS, rep.RouteRPCsPerDoc))
}
