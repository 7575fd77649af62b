package node

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/trace"
)

// ErrBatcherClosed reports a publish submitted after Close.
var ErrBatcherClosed = errors.New("node: batcher closed")

// BatcherConfig parameterizes a Batcher.
type BatcherConfig struct {
	// MaxBatch is the size cap: a bucket reaching it flushes immediately.
	// Default 32.
	MaxBatch int
	// FlushInterval bounds how long a partially filled bucket may wait
	// before it is flushed anyway. Default 2ms.
	FlushInterval time.Duration
	// Workers is the number of goroutines draining flushed batches.
	// Default 4.
	Workers int
	// QueueDepth bounds the flush queue. A full queue is the backpressure
	// signal: submitters block (and publish.batch.backpressure counts the
	// event) until a worker frees a slot. Default 64.
	QueueDepth int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// termResult carries one home group's match response back to the publish
// that enqueued it.
type termResult struct {
	resp MatchResp
	err  error
}

// batchItem is one (document, home-node term list) pair waiting in a
// bucket, plus the channel and span of the publish it belongs to. One item
// covers every term of its document that the bucket's home node owns, so
// the batch pipeline coalesces along both axes: documents per frame and
// terms per document.
type batchItem struct {
	req PublishItem
	out chan<- termResult
	sp  *trace.Span
}

// bucket accumulates items bound for one home node.
type bucket struct {
	home  ring.NodeID
	items []batchItem
	since time.Time
}

// bucketPool recycles buckets (and their item arrays) across flush cycles:
// the steady state allocates no bucket per frame. flush is every bucket's
// terminal consumer, so it is the single Put site; items are cleared there
// so pooled buckets do not pin documents or result channels.
var bucketPool = sync.Pool{New: func() any { return new(bucket) }}

// flushScratch is the per-frame request slice flush stages before
// encoding, recycled the same way.
type flushScratch struct {
	reqs []PublishItem
}

var flushScratchPool = sync.Pool{New: func() any { return new(flushScratch) }}

// Batcher is the coalescing publish pipeline of the entry node: documents
// fanning out to the same home node are framed together (bounded batch
// size + flush interval) and drained by a worker pool over a bounded
// queue. Publish blocks until every term's batched RPC resolves, so the
// caller sees exactly the semantics of PublishEntry — same merge, same
// dedup, same delivery hook — at a fraction of the RPC count.
type Batcher struct {
	n   *Node
	cfg BatcherConfig

	mu      sync.Mutex
	buckets map[ring.NodeID]*bucket
	closed  bool

	workCh chan *bucket
	done   chan struct{}
	workWg sync.WaitGroup
	tickWg sync.WaitGroup

	// Batch observability. The histograms record dimensionless values
	// (batch size, queue depth) through the duration-valued Histogram API:
	// one unit = one nanosecond, so quantiles read directly as counts.
	sizeH  *metrics.Histogram
	queueH *metrics.Histogram
	// Flush-reason counters: which condition closed each batch.
	flushFullC     *metrics.Counter
	flushIntervalC *metrics.Counter
	flushCloseC    *metrics.Counter
	backpressureC  *metrics.Counter
	docsC          *metrics.Counter
}

// NewBatcher builds a batcher on top of n's transport and metrics
// registry and starts its workers and flush ticker.
func NewBatcher(n *Node, cfg BatcherConfig) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{
		n:              n,
		cfg:            cfg,
		buckets:        make(map[ring.NodeID]*bucket),
		workCh:         make(chan *bucket, cfg.QueueDepth),
		done:           make(chan struct{}),
		sizeH:          n.reg.Histogram("publish.batch.size"),
		queueH:         n.reg.Histogram("publish.batch.queue"),
		flushFullC:     n.reg.Counter("publish.batch.flush.full"),
		flushIntervalC: n.reg.Counter("publish.batch.flush.interval"),
		flushCloseC:    n.reg.Counter("publish.batch.flush.close"),
		backpressureC:  n.reg.Counter("publish.batch.backpressure"),
		docsC:          n.reg.Counter("publish.batch.docs"),
	}
	b.workWg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go b.worker()
	}
	b.tickWg.Add(1)
	go b.tick()
	return b
}

// Publish disseminates one document through the batch pipeline and blocks
// until its matches are known. The home grouping, Bloom gate, match dedup,
// OnDeliver hook, and partial-failure aggregation mirror PublishEntry;
// only the wire framing differs.
func (b *Batcher) Publish(ctx context.Context, doc *model.Document) ([]Match, MatchResp, error) {
	if err := doc.Validate(); err != nil {
		return nil, MatchResp{}, err
	}
	n := b.n
	sp := trace.From(ctx)
	if sp == nil {
		sp = trace.New("publish.batch", doc.ID)
	}
	e2e := n.hE2E.Start()
	defer func() {
		sp.AddStage("publish.e2e", e2e.Stop())
		sp.Finish()
		n.traces.Add(sp.Summary())
	}()

	n.mu.RLock()
	bf := n.bloomF
	n.mu.RUnlock()
	terms := bloomPassTerms(bf, doc.Terms)
	if len(terms) == 0 {
		return nil, MatchResp{}, nil
	}
	// Same home grouping as PublishEntry: one item per distinct home node
	// carrying that node's whole term list, all homes resolved before
	// anything is enqueued.
	groups, err := n.groupTermsByHome(terms)
	if err != nil {
		return nil, MatchResp{}, err
	}

	// out is buffered to the full fan-out width so workers never block
	// delivering results, even if this caller has already given up.
	out := make(chan termResult, len(groups))
	enqueued := 0
	var errs []error
	for i := range groups {
		g := &groups[i]
		item := batchItem{req: PublishItem{Doc: doc, Terms: g.terms}, out: out, sp: sp}
		if err := b.enqueue(g.home, item); err != nil {
			errs = append(errs, err)
			continue
		}
		enqueued++
	}

	var total MatchResp
	seen := make(map[model.FilterID]struct{})
	var matches []Match
	for i := 0; i < enqueued; i++ {
		res := <-out
		if res.err != nil {
			errs = append(errs, res.err)
			continue
		}
		total.PostingsScanned += res.resp.PostingsScanned
		total.PostingLists += res.resp.PostingLists
		total.Degraded = total.Degraded || res.resp.Degraded
		total.ColumnsLost += res.resp.ColumnsLost
		total.Hops = append(total.Hops, res.resp.Hops...)
		for _, m := range res.resp.Matches {
			if _, dup := seen[m.Filter]; dup {
				continue
			}
			seen[m.Filter] = struct{}{}
			matches = append(matches, m)
		}
	}
	if n.cfg.OnDeliver != nil && len(matches) > 0 {
		n.cfg.OnDeliver(doc, matches)
	}
	return matches, total, errors.Join(errs...)
}

// enqueue adds one item to its home node's bucket, flushing the bucket
// when it reaches the size cap.
func (b *Batcher) enqueue(home ring.NodeID, it batchItem) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrBatcherClosed
	}
	bk := b.buckets[home]
	if bk == nil {
		bk = bucketPool.Get().(*bucket)
		bk.home, bk.since = home, time.Now()
		b.buckets[home] = bk
	}
	bk.items = append(bk.items, it)
	var full *bucket
	if len(bk.items) >= b.cfg.MaxBatch {
		delete(b.buckets, home)
		full = bk
	}
	b.mu.Unlock()
	if full != nil {
		b.flushFullC.Inc()
		b.submit(full)
	}
	return nil
}

// submit hands a closed bucket to the worker pool. A full queue blocks
// the submitter — that is the backpressure contract: entry publishes slow
// to the drain rate instead of queueing unboundedly — except during
// shutdown, when the bucket is flushed inline to avoid losing items.
func (b *Batcher) submit(bk *bucket) {
	b.queueH.Observe(time.Duration(len(b.workCh)))
	select {
	case b.workCh <- bk:
		return
	default:
	}
	b.backpressureC.Inc()
	select {
	case b.workCh <- bk:
	case <-b.done:
		b.flush(bk)
	}
}

// worker drains flushed buckets until the queue closes.
func (b *Batcher) worker() {
	defer b.workWg.Done()
	for bk := range b.workCh {
		b.flush(bk)
	}
}

// tick flushes buckets whose oldest item has waited a full interval.
func (b *Batcher) tick() {
	defer b.tickWg.Done()
	tk := time.NewTicker(b.cfg.FlushInterval)
	defer tk.Stop()
	for {
		select {
		case <-b.done:
			return
		case now := <-tk.C:
			var stale []*bucket
			b.mu.Lock()
			for home, bk := range b.buckets {
				if now.Sub(bk.since) >= b.cfg.FlushInterval {
					delete(b.buckets, home)
					stale = append(stale, bk)
				}
			}
			b.mu.Unlock()
			for _, bk := range stale {
				b.flushIntervalC.Inc()
				b.submit(bk)
			}
		}
	}
}

// flush sends one coalesced publish frame to its home node and routes each
// item's response (or the shared error) back to its publish. The RPC runs under
// context.Background(): a batch belongs to many publishers, so no single
// caller's deadline governs it — per-attempt deadlines come from the
// transport's resilience policy.
func (b *Batcher) flush(bk *bucket) {
	sc := flushScratchPool.Get().(*flushScratch)
	reqs := sc.reqs[:0]
	for i := range bk.items {
		reqs = append(reqs, bk.items[i].req)
	}
	b.sizeH.Observe(time.Duration(len(reqs)))
	b.docsC.Add(int64(len(reqs)))
	resps, elapsed, err := b.n.sendPublish(context.Background(), bk.home, false, reqs)
	b.n.hFanout.Observe(elapsed)
	for i := range bk.items {
		it := bk.items[i]
		// One "home" hop per term the item carried, sharing the frame's RPC
		// elapsed time — the same per-term trace the unbatched path records.
		for _, t := range it.req.Terms {
			hop := trace.Hop{
				Stage: "home", From: string(b.n.cfg.ID), To: string(bk.home),
				Term: t, Batch: len(reqs), ElapsedNS: elapsed.Nanoseconds(),
			}
			if err != nil {
				hop.Err = err.Error()
			}
			it.sp.AddHop(hop)
		}
		if err != nil {
			it.out <- termResult{err: err}
			continue
		}
		it.sp.AddHops(resps[i].Hops)
		it.out <- termResult{resp: resps[i]}
	}
	// Recycle the frame scratch and the bucket itself. Clearing drops the
	// document/channel references so the pools hold capacity, not data.
	clear(reqs)
	sc.reqs = reqs[:0]
	flushScratchPool.Put(sc)
	clear(bk.items)
	bk.items = bk.items[:0]
	bucketPool.Put(bk)
}

// Close flushes every pending bucket, drains the workers, and rejects
// further publishes. Safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	var rest []*bucket
	for home, bk := range b.buckets {
		delete(b.buckets, home)
		rest = append(rest, bk)
	}
	b.mu.Unlock()
	close(b.done)
	b.tickWg.Wait()
	for _, bk := range rest {
		b.flushCloseC.Inc()
		b.submit(bk)
	}
	close(b.workCh)
	b.workWg.Wait()
}
