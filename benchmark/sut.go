package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/bloom"
	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/text"
	"github.com/movesys/move/internal/transport"
)

const (
	numDaemons = 2
	// ledgerDocs bounds the documents of one run; running out is an error,
	// never a wrap-around.
	ledgerDocs = 1 << 18
	// setupDocs is how many documents set-up drives end to end.
	setupDocs = 64
	// Production defaults of the embedded cluster (internal/cluster).
	bloomCapacity = 1 << 20
	bloomFPR      = 0.01
)

// Phases a document can belong to.
const (
	phSetup uint8 = iota
	phWarm
	phClosed
	phOpen
	phClosedTraced
	phSingle
	phOpenTraced
)

// sut is one system under test: the daemons plus, inside the harness
// process, the production entry path and every subscriber session.
type sut struct {
	h  *harness
	w  *workload
	cl *cluster

	reg   *metrics.Registry // the entry node's registry
	ring  *ring.Ring
	tn    *transport.TCPNode
	entry *node.Node
	bf    *bloom.Filter

	led      *ledger
	sessions []*session
	readers  sync.WaitGroup
	phantoms atomic.Int64
	lost     atomic.Int64 // notifications the entry could not route

	book      *scriptBook
	scripters [numPublishers]*scripter
	nextID    atomic.Uint64 // scripted filter IDs
	docSeq    atomic.Uint64 // pool cursor
	inflight  inflightSet
	lanes     [numPublishers]int // each publisher's position in the script

	traced atomic.Bool
	spans  *spanLog

	alloc allocTimings
	// setupRegUS is each set-up register's latency, the node.write figure
	// of workloads whose script has no writes.
	setupRegUS []float64
	// setupPubs are the set-up documents: the start of the walk over the pool.
	setupPubs []opResult
}

// session is one subscriber: a delivery connection and its reader.
type session struct {
	idx     int
	hash    uint64
	cl      *delivery.Client
	samples []sample // appended by the reader only
}

// sample is one (document, subscriber) receipt.
type sample struct {
	slot uint32
	recv int64
}

// setupTimings are the T spans of one set-up.
type setupTimings struct {
	total, spawn, ready, bloom, register, attach, docs, alloc time.Duration
	registerOps                                               int
}

type allocTimings struct {
	prepare, commit, round time.Duration
}

// inflightSet tracks when each in-flight publish began, for script-book
// pruning.
type inflightSet struct {
	mu     sync.Mutex
	starts map[uint64]int64
}

func (s *inflightSet) add(id uint64, start int64) {
	s.mu.Lock()
	if s.starts == nil {
		s.starts = make(map[uint64]int64)
	}
	s.starts[id] = start
	s.mu.Unlock()
}

func (s *inflightSet) done(id uint64) {
	s.mu.Lock()
	delete(s.starts, id)
	s.mu.Unlock()
}

func (s *inflightSet) oldest(now int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.starts {
		if t < now {
			now = t
		}
	}
	return now
}

func (s *sut) now() int64 { return s.h.now() }

// newRing is the two-daemon ring every participant derives from the peer
// table, as moved does.
func newRing() (*ring.Ring, error) {
	r := ring.New(ring.Config{})
	for i := 0; i < numDaemons; i++ {
		if err := r.Add(ring.Member{ID: ring.NodeID(fmt.Sprintf("n%d", i)), Rack: "rack-0"}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// newBloom builds the global filter-term Bloom filter over every term a
// filter of this run will ever carry (base population and script pools).
func newBloom(w *workload) (*bloom.Filter, error) {
	bf, err := bloom.New(bloomCapacity, bloomFPR)
	if err != nil {
		return nil, err
	}
	for i := range w.filters {
		for _, t := range w.filters[i].terms {
			bf.Add(dataset.Term(int(t)))
		}
	}
	for p := range w.scripts {
		for _, terms := range w.scripts[p] {
			for _, t := range terms {
				bf.Add(dataset.Term(int(t)))
			}
		}
	}
	return bf, nil
}

// setup brings one system up: spawn → /healthz and a StatsPull round trip →
// Bloom built and installed → every filter registered over two concurrent
// streams → sessions attached → setupDocs documents end to end (with the
// allocation round in the middle on a grid workload).
func (h *harness) setup(ctx context.Context, n int) (_ *sut, tm setupTimings, err error) {
	s := &sut{h: h, w: h.w, book: newScriptBook(), reg: metrics.NewRegistry()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	start := time.Now()
	lap := func(d *time.Duration) func() {
		t := time.Now()
		return func() { *d = time.Since(t) }
	}

	done := lap(&tm.spawn)
	dir := fmt.Sprintf("%s/setup%d", h.dir, n)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, tm, err
	}
	if s.cl, err = spawnCluster(h.opts.moved, dir, numDaemons, h.fail); err != nil {
		return nil, tm, err
	}
	done()

	done = lap(&tm.ready)
	peers := make(map[ring.NodeID]string, numDaemons)
	for _, d := range s.cl.daemons {
		peers[ring.NodeID(d.id)] = d.addr
	}
	if s.ring, err = newRing(); err != nil {
		return nil, tm, err
	}
	// The production entry path: a node outside the ring that routes
	// deliveries, attached to a default-options TCP transport.
	s.entry, err = node.New(node.Config{
		ID: "entry", Ring: s.ring, Metrics: s.reg, RouteDeliveries: true,
		OnDeliveryLoss: func(_ uint64, subs []string) { s.lost.Add(int64(len(subs))) },
	})
	if err != nil {
		return nil, tm, err
	}
	s.tn, err = transport.NewTCPOpts("entry", "127.0.0.1:0", s.entry.Handle, transport.StaticResolver(peers), transport.TCPOptions{Metrics: s.reg})
	if err != nil {
		return nil, tm, err
	}
	s.attachTransport(false)
	for _, d := range s.cl.daemons {
		if err := d.waitHealthy(ctx); err != nil {
			return nil, tm, err
		}
	}
	for _, d := range s.cl.daemons {
		if _, err := s.statsPull(ctx, d); err != nil {
			return nil, tm, err
		}
	}
	done()

	done = lap(&tm.bloom)
	if s.bf, err = newBloom(s.w); err != nil {
		return nil, tm, err
	}
	s.entry.InstallBloom(s.bf)
	done()

	done = lap(&tm.register)
	s.nextID.Store(uint64(len(s.w.filters)))
	if s.w.sp.scripted {
		for p := range s.scripters {
			s.scripters[p] = &scripter{s: s, pool: s.w.scripts[p]}
		}
	}
	if tm.registerOps, err = s.registerAll(ctx); err != nil {
		return nil, tm, err
	}
	done()

	done = lap(&tm.attach)
	s.led = newLedger(1, ledgerDocs, len(s.w.subs))
	if err := s.attachSessions(); err != nil {
		return nil, tm, err
	}
	done()

	done = lap(&tm.docs)
	half := setupDocs
	if s.w.sp.grid {
		half = setupDocs / 2
	}
	if err := s.driveSetupDocs(ctx, half); err != nil {
		return nil, tm, err
	}
	if s.w.sp.grid {
		if err := s.allocationRound(ctx); err != nil {
			return nil, tm, err
		}
		tm.alloc = s.alloc.round
		if err := s.driveSetupDocs(ctx, setupDocs-half); err != nil {
			return nil, tm, err
		}
	}
	done()
	tm.docs -= tm.alloc
	tm.total = time.Since(start)
	return s, tm, nil
}

// attachTransport connects the entry node to its transport, through the
// span-recording decorator on traced phases.
func (s *sut) attachTransport(traced bool) {
	if traced {
		s.entry.Attach(&tracedTransport{Transport: s.tn, s: s})
	} else {
		s.entry.Attach(s.tn)
	}
	s.traced.Store(traced)
}

func (s *sut) statsPull(ctx context.Context, d *daemon) (node.StatsResp, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		raw, err := s.tn.Send(ctx, ring.NodeID(d.id), node.EncodeStatsPull())
		if err == nil {
			return node.DecodeStatsResp(raw)
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return node.StatsResp{}, fmt.Errorf("stats pull from %s: %w", d.id, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (s *sut) modelFilter(f *filterDef) model.Filter {
	terms := make([]string, len(f.terms))
	for i, t := range f.terms {
		terms[i] = dataset.Term(int(t))
	}
	// The same preprocessing move.Subscribe applies to a query.
	return model.Filter{ID: model.FilterID(f.id), Subscriber: s.w.subs[f.sub], Terms: text.NormalizeTerms(terms, text.Options{}), Mode: f.mode}
}

// register stores one filter on the home node of each of its terms, which
// builds the posting lists of its own terms only (one RPC per home).
func (s *sut) register(ctx context.Context, f *filterDef) error {
	mf := s.modelFilter(f)
	var homes [numDaemons]ring.NodeID
	var byHome [numDaemons][]string
	n := 0
	for _, t := range mf.Terms {
		home, err := s.ring.HomeNode(t)
		if err != nil {
			return err
		}
		i := 0
		for i < n && homes[i] != home {
			i++
		}
		if i == n {
			homes[n] = home
			n++
		}
		byHome[i] = append(byHome[i], t)
	}
	for i := 0; i < n; i++ {
		if _, err := s.tn.Send(ctx, homes[i], node.EncodeRegister(node.RegisterReq{Filter: mf, PostingTerms: byHome[i]})); err != nil {
			return fmt.Errorf("register filter %d on %s: %w", f.id, homes[i], err)
		}
	}
	return nil
}

// unregister removes a filter from every node, as the embedded cluster
// does: grid copies live where the allocation put them.
func (s *sut) unregister(ctx context.Context, id uint64) error {
	payload := node.EncodeUnregister(model.FilterID(id))
	for _, d := range s.cl.daemons {
		if _, err := s.tn.Send(ctx, ring.NodeID(d.id), payload); err != nil {
			return fmt.Errorf("unregister filter %d on %s: %w", id, d.id, err)
		}
	}
	return nil
}

// registerAll registers the base population — and each publisher's first
// window of scripted filters — over two concurrent streams.
func (s *sut) registerAll(ctx context.Context) (int, error) {
	var wg sync.WaitGroup
	errs := make([]error, numPublishers)
	took := make([][]float64, numPublishers)
	for p := 0; p < numPublishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(s.w.filters); i += numPublishers {
				t0 := time.Now()
				if errs[p] = s.register(ctx, &s.w.filters[i]); errs[p] != nil {
					return
				}
				took[p] = append(took[p], float64(time.Since(t0))/1e3)
			}
			if sc := s.scripters[p]; sc != nil {
				for i := 0; i < scriptWindow; i++ {
					if _, errs[p] = sc.register(ctx); errs[p] != nil {
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	for p := range took {
		s.setupRegUS = append(s.setupRegUS, took[p]...)
	}
	ops := len(s.w.filters)
	if s.w.sp.scripted {
		ops += numPublishers * scriptWindow
	}
	return ops, errors.Join(errs...)
}

// attachSessions opens one delivery connection per subscriber on its
// ring-stable owner and starts its reader.
func (s *sut) attachSessions() error {
	subAddr := make(map[ring.NodeID]string, numDaemons)
	for _, d := range s.cl.daemons {
		subAddr[ring.NodeID(d.id)] = d.subAddr
	}
	for i, sub := range s.w.subs {
		owner, err := s.ring.HomeNode("subscriber/" + sub)
		if err != nil {
			return err
		}
		cl, err := delivery.Dial(subAddr[owner], sub, 0)
		if err != nil {
			return fmt.Errorf("session %s on %s: %w", sub, owner, err)
		}
		se := &session{idx: i, hash: strHash(sub), cl: cl}
		s.sessions = append(s.sessions, se)
		s.readers.Add(1)
		go s.read(se)
	}
	return nil
}

// read stamps every event when Client.Recv returns it.
func (s *sut) read(se *session) {
	defer s.readers.Done()
	for {
		msg, err := se.cl.Recv()
		now := s.now()
		if err != nil || msg.Bye != "" {
			return
		}
		traced := s.traced.Load()
		for _, ev := range msg.Events {
			d := s.led.received(se.idx, se.hash, ev.DocID)
			if d == nil {
				s.phantoms.Add(1)
				continue
			}
			se.samples = append(se.samples, sample{slot: uint32(ev.DocID - s.led.base), recv: now})
			if traced {
				d.firstRecv.CompareAndSwap(0, now)
				d.lastRecv.Store(now)
			}
		}
		if n := len(msg.Events); n > 0 {
			if err := se.cl.Ack(msg.Events[n-1].Seq); err != nil {
				return
			}
		}
	}
}

// opResult is what one publish produced for the phase accounting.
type opResult struct {
	seq        uint64 // position in the run's walk over the document pool
	start, end int64
	ok         bool
	matches    int
	events     int
	postings   int
	lists      int
	passed     int // document terms past the Bloom gate
	terms      int
}

// publish drives one document through the production entry path exactly as
// move.Publish does — text.Terms, then PublishEntry — and checks the
// returned match set against the oracle.
func (s *sut) publish(ctx context.Context, due int64, phase uint8) (res opResult, err error) {
	res.seq = s.docSeq.Add(1) - 1
	pool := int(res.seq % uint64(len(s.w.docs)))
	docID, slot, err := s.led.issue(due, phase)
	if err != nil {
		return res, err
	}
	def := &s.w.docs[pool]
	var sp *docSpan
	if s.traced.Load() {
		sp = s.spans.begin(docID, due, pool, s.h.homes[pool])
		ctx = withSpan(ctx, sp)
	}
	res.start = s.now()
	if sp != nil {
		sp.Start = res.start
	}
	if s.w.sp.scripted {
		s.inflight.add(docID, res.start)
		defer s.inflight.done(docID)
	}
	terms := text.Terms(def.text, text.Options{})
	doc := model.Document{ID: docID, Terms: terms}
	if sp != nil {
		sp.textEnd = s.now()
	}
	got, resp, perr := s.entry.PublishEntry(ctx, &doc)
	res.end = s.now()
	if sp != nil {
		sp.publishEnd = res.end
		for _, h := range resp.Hops {
			sp.Hops = append(sp.Hops, hopSpan{Stage: h.Stage, From: h.From, To: h.To, ElapsedNS: h.ElapsedNS})
		}
	}
	fail := func(v violation) {
		slot.state.Store(docFailed)
		s.h.violation(v)
	}
	if perr != nil {
		fail(violation{docID, "publish error: " + perr.Error(), 0, 0})
		return res, nil
	}
	if resp.Degraded {
		fail(violation{docID, "degraded publish", resp.ColumnsLost, 0})
		return res, nil
	}
	var must, may map[uint64]*filterDef
	if s.w.sp.scripted {
		must, may = s.book.classify(def.set, res.start, res.end)
	}
	subs, v := checkMatches(s.w, docID, got, &s.h.exp[pool], must, may)
	if v != nil {
		fail(*v)
		return res, nil
	}
	s.led.expectEvents(s.w, docID, slot, subs)
	res.ok = true
	res.matches, res.events = len(got), len(subs)
	res.postings, res.lists = resp.PostingsScanned, resp.PostingLists
	res.terms, res.passed = len(terms), s.h.passed[pool]
	return res, nil
}

// scripter is one publisher's write script: register the next pool term
// set under a fresh ID, unregister the oldest scripted filter still
// registered. The registered population stays constant.
type scripter struct {
	s    *sut
	pool [][]int32
	mu   sync.Mutex
	next int
	fifo []*scriptedFilter
}

func (sc *scripter) register(ctx context.Context) (time.Duration, error) {
	s := sc.s
	sc.mu.Lock()
	terms := sc.pool[sc.next%len(sc.pool)]
	sc.next++
	sc.mu.Unlock()
	id := s.nextID.Add(1)
	sf := &scriptedFilter{def: filterDef{id: id, sub: int(id) % len(s.w.subs), terms: terms, mode: s.w.sp.mode}}
	sf.regStart = s.now()
	s.book.add(sf)
	t0 := time.Now()
	if err := s.register(ctx, &sf.def); err != nil {
		return 0, err
	}
	took := time.Since(t0)
	s.book.set(&sf.regDone, s.now())
	sc.mu.Lock()
	sc.fifo = append(sc.fifo, sf)
	sc.mu.Unlock()
	return took, nil
}

func (sc *scripter) unregister(ctx context.Context) (time.Duration, error) {
	s := sc.s
	sc.mu.Lock()
	if len(sc.fifo) == 0 {
		sc.mu.Unlock()
		return 0, errors.New("script: nothing left to unregister")
	}
	sf := sc.fifo[0]
	sc.fifo = sc.fifo[1:]
	sc.mu.Unlock()
	s.book.set(&sf.unregStart, s.now())
	t0 := time.Now()
	if err := s.unregister(ctx, sf.def.id); err != nil {
		return 0, err
	}
	took := time.Since(t0)
	now := s.now()
	s.book.set(&sf.unregDone, now)
	s.book.prune(s.inflight.oldest(now))
	return took, nil
}

// driveSetupDocs publishes n documents and waits until every event they
// owe has been read from a subscriber socket.
func (s *sut) driveSetupDocs(ctx context.Context, n int) error {
	first := s.led.next.Load()
	for i := 0; i < n; i++ {
		res, err := s.publish(ctx, s.now(), phSetup)
		if err != nil {
			return err
		}
		if !res.ok {
			return errors.New("set-up document failed the oracle")
		}
		s.setupPubs = append(s.setupPubs, res)
	}
	deadline := time.Now().Add(20 * time.Second)
	for i := first; i < first+uint64(n); i++ {
		d := &s.led.docs[i]
		for d.gotCount.Load() < d.expCount {
			if time.Now().After(deadline) || ctx.Err() != nil {
				return fmt.Errorf("set-up document %d: %d of %d events arrived", s.led.base+i, d.gotCount.Load(), d.expCount)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// allocationRound is one two-phase allocation round driven through public
// frames only: StatsPull → alloc.Compute → PrepareAlloc on every home the
// optimizer grants a grid → CommitGrid on every node. Capacity is set to
// 60 % of the fullest node's filter count, so the optimizer asks for two
// separation columns on both homes; a home's grid is drawn from its ring
// successors, the home itself never included (the coordinator's rule), so
// on a two-node ring FitGrid shrinks it to the one other node and each home
// serves its terms through that node.
func (s *sut) allocationRound(ctx context.Context) error {
	roundStart := time.Now()
	var stats []node.StatsResp
	var totalPub, totalScanned, maxFilters int64
	for _, d := range s.cl.daemons {
		st, err := s.statsPull(ctx, d)
		if err != nil {
			return err
		}
		stats = append(stats, st)
		totalPub += st.HomePublishes
		totalScanned += st.PostingsScanned
		maxFilters = max(maxFilters, st.Filters)
	}
	P := len(s.w.filters) + numPublishers*scriptWindow
	in := alloc.Input{TotalFilters: P, TotalDocs: setupDocs / 2, Nodes: numDaemons, Capacity: int(maxFilters * 6 / 10)}
	for i, d := range s.cl.daemons {
		u := alloc.Unit{Key: d.id, Popularity: float64(stats[i].Filters) / float64(P)}
		if totalPub > 0 {
			u.Frequency = float64(stats[i].HomePublishes) / float64(totalPub)
		}
		if totalScanned > 0 {
			u.Load = float64(stats[i].PostingsScanned) / float64(totalScanned)
		}
		in.Units = append(in.Units, u)
	}
	factors, err := alloc.Compute(in, alloc.StrategyGeneral, nil)
	if err != nil {
		return err
	}

	const epoch = 1
	prepStart := time.Now()
	grids := 0
	for _, f := range factors {
		if f.Rows*f.Cols <= 1 {
			continue
		}
		peers, err := s.ring.AllocationNodesOf(ring.NodeID(f.Key), f.Rows*f.Cols, ring.PlacementRing)
		if err != nil {
			return err
		}
		grid, err := alloc.FitGrid(f.Rows, f.Cols, peers)
		if err != nil {
			return err
		}
		if _, err := s.tn.Send(ctx, ring.NodeID(f.Key), node.EncodePrepareAlloc(epoch, grid)); err != nil {
			return fmt.Errorf("prepare allocation on %s: %w", f.Key, err)
		}
		grids++
	}
	s.alloc.prepare = time.Since(prepStart)
	if grids != numDaemons {
		return fmt.Errorf("allocation round installed %d grids, want %d (factors %+v)", grids, numDaemons, factors)
	}
	commitStart := time.Now()
	for _, d := range s.cl.daemons {
		if _, err := s.tn.Send(ctx, ring.NodeID(d.id), node.EncodeCommitGrid(epoch)); err != nil {
			return fmt.Errorf("commit grid on %s: %w", d.id, err)
		}
	}
	s.alloc.commit = time.Since(commitStart)
	s.alloc.round = time.Since(roundStart)
	return nil
}

// closeSessions ends every subscriber connection and waits for the readers.
func (s *sut) closeSessions() {
	for _, se := range s.sessions {
		_ = se.cl.Close()
	}
	s.readers.Wait()
}

// close tears the system down: sessions, entry transport, daemons.
func (s *sut) close() {
	if s == nil {
		return
	}
	s.closeSessions()
	if s.tn != nil {
		_ = s.tn.Close()
	}
	s.cl.stop()
}
