package node

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/bloom"
	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/index"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/store"
	"github.com/movesys/move/internal/trace"
	"github.com/movesys/move/internal/transport"
)

// GossipHandler lets the owner plug a gossip endpoint into the node's
// message router.
type GossipHandler func(from ring.NodeID, digest []byte) ([]byte, error)

// Config parameterizes a Node.
type Config struct {
	// ID is the node's identity in the ring.
	ID ring.NodeID
	// Rack labels the node's failure domain.
	Rack string
	// Store is the node-local storage engine; nil opens an ephemeral one.
	Store *store.Store
	// Ring is the (gossip-maintained) cluster view used for entry-point
	// routing.
	Ring *ring.Ring
	// Seed drives the row choice of the forwarding engine; zero derives a
	// seed from the node ID.
	Seed int64
	// Gossip, if set, receives msgGossip payloads.
	Gossip GossipHandler
	// Delivery, if set, is this node's subscriber-session hub: inbound
	// msgDeliverBatch frames enqueue into its sessions (and the documents
	// of home-routed publishes are held for them). Without one the node
	// rejects routed deliveries, so the sender accounts them as lost.
	Delivery *delivery.Hub
	// RouteDeliveries makes the entry node push each document's matches to
	// the subscribers' session owners (one msgDeliverBatch per distinct
	// owner) after the match set is deduplicated.
	RouteDeliveries bool
	// OnDeliveryLoss, if set, is invoked when routed notifications could
	// not reach a session owner (RPC failure, unroutable subscriber) — the
	// accounting hook that keeps delivery loss visible.
	OnDeliveryLoss func(docID uint64, subs []string)
	// OnTransfer, if set, is invoked once per document transfer attempt
	// (entry→home and home→grid-row). The cluster cost model uses it to
	// charge y_d with rack locality taken into account.
	OnTransfer func(from, to ring.NodeID)
	// Resilience, if set, applies retries with backoff and per-destination
	// circuit breaking to every outbound RPC; nil sends straight through
	// (single attempt, no breaker).
	Resilience *resilience.Executor
	// Metrics receives the node's failover counters (publish.failover,
	// publish.degraded) and per-stage latency histograms (publish.e2e,
	// publish.home, publish.fanout, publish.column.rpc, match.term,
	// index.posting.read, index.eval); nil creates a private registry.
	Metrics *metrics.Registry
}

// traceDepth is the number of recent publish traces a node keeps for the
// debug server's /trace/last.
const traceDepth = 64

// Node is one MOVE server.
type Node struct {
	cfg Config
	ix  *index.Index
	reg *metrics.Registry

	tr   transport.Transport
	trMu sync.RWMutex

	mu sync.RWMutex
	// table is the forwarding table (§V): one entry per node — every term
	// the node homes shares one allocation unit — cut over the two-phase
	// way (§13, realloc.go).
	table tableEntry
	// gridEpoch is the newest epoch a commit promoted on this node.
	gridEpoch uint64
	bloomF    *bloom.Filter
	rng       *rand.Rand

	// journal records, per prepare epoch, the filter IDs whose definitions
	// this node first stored for that epoch's migrations. An abort
	// unregisters exactly these — pre-existing copies (older placements,
	// home-owned filters) are never journaled and survive untouched.
	journalMu sync.Mutex
	journal   map[uint64]map[model.FilterID]struct{}

	// res, when non-nil, wraps outbound RPCs in retries and breakers.
	res *resilience.Executor

	// Counters for §V statistics and Figure 9 load accounting.
	docsProcessed   metrics.Counter
	termsMatched    metrics.Counter
	postingsScanned metrics.Counter
	postingLists    metrics.Counter
	homePublishes   metrics.Counter

	// Failure-handling observability (§VI.D): replica-row failovers and
	// degraded (partial-coverage) publishes.
	failoverC *metrics.Counter
	degradedC *metrics.Counter

	// Entry-side publish wire accounting: home-bound RPC frames sent and
	// their payload bytes — the numerators of movebench's home_rpcs_per_doc
	// and home_wire_bytes_per_doc regression figures.
	homeRPCs  *metrics.Counter
	homeBytes *metrics.Counter

	// Delivery-routing accounting (§14): owner-bound batch frames, the
	// subscriber notifications they carried, failed sends, notifications
	// lost to failed sends, reference batches re-sent inline (entry side),
	// and references this node could not resolve (owner side).
	routeRPCs     *metrics.Counter
	routeSubs     *metrics.Counter
	routeFailures *metrics.Counter
	routeLost     *metrics.Counter
	routeResent   *metrics.Counter
	routeUnheld   *metrics.Counter

	held heldDocs // documents reference batches name (deliver.go)

	// Per-stage latency histograms (§IV latency model, one per pipeline
	// stage) and the ring of the traceDepth most recent publish traces.
	hE2E       *metrics.Histogram
	hHome      *metrics.Histogram
	hFanout    *metrics.Histogram
	hColumnRPC *metrics.Histogram
	hMatchTerm *metrics.Histogram
	traces     *trace.Ring

	// Reallocation observability (§13): distinct filter copies installed by
	// migrations, commit/abort outcomes, the current committed epoch
	// (gauge), and the length of each dual-read window.
	migratedC *metrics.Counter
	commitsC  *metrics.Counter
	abortsC   *metrics.Counter
	epochG    *metrics.Counter
	hDualRead *metrics.Histogram

	// Aggregated-index observability (DESIGN.md §15): live covers, filters
	// attached to them, posting entries saved versus the flat layout, the
	// mean cover→filter expansion fan-out (×1000) and the covers that have
	// only ever had one member. Refreshed from the
	// index's O(1) CoverStats after every filter mutation.
	coverCoversG  *metrics.Gauge
	coverFiltersG *metrics.Gauge
	coverSavedG   *metrics.Gauge
	coverFanoutG  *metrics.Gauge
	coverSingleG  *metrics.Gauge
}

// New builds a node. Call Attach to connect it to a transport before use.
func New(cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("node: empty id")
	}
	if cfg.Ring == nil {
		return nil, errors.New("node: nil ring")
	}
	st := cfg.Store
	if st == nil {
		var err error
		st, err = store.Open("", store.Options{})
		if err != nil {
			return nil, err
		}
		cfg.Store = st
	}
	ix, err := index.New(st)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", cfg.ID, err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(ring.HashKey(string(cfg.ID) + "/rng"))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	ix.Instrument(reg)
	n := &Node{
		cfg:           cfg,
		ix:            ix,
		reg:           reg,
		journal:       make(map[uint64]map[model.FilterID]struct{}),
		rng:           rand.New(rand.NewSource(seed)),
		res:           cfg.Resilience,
		failoverC:     reg.Counter("publish.failover"),
		degradedC:     reg.Counter("publish.degraded"),
		homeRPCs:      reg.Counter("publish.home.rpcs"),
		homeBytes:     reg.Counter("publish.home.bytes"),
		routeRPCs:     reg.Counter("delivery.route.rpcs"),
		routeSubs:     reg.Counter("delivery.route.subs"),
		routeFailures: reg.Counter("delivery.route.failures"),
		routeLost:     reg.Counter("delivery.route.lost"),
		routeResent:   reg.Counter("delivery.route.resent"),
		routeUnheld:   reg.Counter("delivery.route.unheld"),
		hE2E:          reg.Histogram("publish.e2e"),
		hHome:         reg.Histogram("publish.home"),
		hFanout:       reg.Histogram("publish.fanout"),
		hColumnRPC:    reg.Histogram("publish.column.rpc"),
		hMatchTerm:    reg.Histogram("match.term"),
		traces:        trace.NewRing(traceDepth),
		migratedC:     reg.Counter("realloc.filters.migrated"),
		commitsC:      reg.Counter("realloc.commits"),
		abortsC:       reg.Counter("realloc.aborts"),
		epochG:        reg.Counter("realloc.epoch"),
		hDualRead:     reg.Histogram("realloc.dualread.window"),
		coverCoversG:  reg.Gauge("index.cover.covers"),
		coverFiltersG: reg.Gauge("index.cover.covered_filters"),
		coverSavedG:   reg.Gauge("index.cover.postings_saved"),
		coverFanoutG:  reg.Gauge("index.cover.expansion_fanout_milli"),
		coverSingleG:  reg.Gauge("index.cover.singletons"),
	}
	// Seed the cover gauges so a node whose index recovered filters from
	// the store reports its compression levels before any mutation.
	n.updateCoverGauges()
	return n, nil
}

// updateCoverGauges refreshes the index.cover.* gauges from the
// aggregated index's O(1) compression stats. Called after every filter
// mutation (register, unregister, migration replay); all gauges read zero
// on a flat index.
func (n *Node) updateCoverGauges() {
	cs := n.ix.CoverStats()
	n.coverCoversG.Set(int64(cs.Covers))
	n.coverFiltersG.Set(int64(cs.CoveredFilters))
	n.coverSavedG.Set(int64(cs.PostingsSaved))
	n.coverFanoutG.Set(int64(cs.ExpansionFanoutMilli))
	n.coverSingleG.Set(int64(cs.Singletons))
}

// Traces exposes the node's ring of recent publish traces (the debug
// server's /trace/last source).
func (n *Node) Traces() *trace.Ring { return n.traces }

// Attach connects the node to its transport endpoint.
func (n *Node) Attach(tr transport.Transport) {
	n.trMu.Lock()
	defer n.trMu.Unlock()
	n.tr = tr
}

// ID returns the node's identity.
func (n *Node) ID() ring.NodeID { return n.cfg.ID }

// Rack returns the node's rack label.
func (n *Node) Rack() string { return n.cfg.Rack }

// Index exposes the local filter index (tests, load accounting).
func (n *Node) Index() *index.Index { return n.ix }

// send issues an RPC through the attached transport, applying the
// resilience policy (retries, backoff, per-destination breaker) when one
// is configured. A breaker-open fast-fail is surfaced as ErrNodeDown so
// callers treat it like any other unreachable peer. A remote send waits, so
// a handler that sends first detaches from its connection's reader
// (transport.Detach): two nodes calling each other cannot deadlock on one.
func (n *Node) send(ctx context.Context, to ring.NodeID, payload []byte) ([]byte, error) {
	n.trMu.RLock()
	tr := n.tr
	n.trMu.RUnlock()
	if tr == nil {
		return nil, errors.New("node: transport not attached")
	}
	if to == n.cfg.ID {
		// Local fast path: skip the network for self-addressed requests.
		return n.Handle(ctx, n.cfg.ID, payload)
	}
	transport.Detach(ctx)
	if n.res == nil {
		return tr.Send(ctx, to, payload)
	}
	raw, err := resilience.DoValue(n.res, ctx, string(to), func(ctx context.Context) ([]byte, error) {
		return tr.Send(ctx, to, payload)
	})
	if err != nil && errors.Is(err, resilience.ErrOpen) {
		err = fmt.Errorf("node %s: %s: %w: %w", n.cfg.ID, to, transport.ErrNodeDown, err)
	}
	return raw, err
}

// Handle is the node's transport handler: it dispatches on the message
// type byte, and answers once what the frame wrote to the store is on disk
// (one group-committed Sync a frame, free without a data directory). It
// detaches from the connection's reader where it starts to wait (the
// transport.Handler rule): before a Sync that may fsync, so the frames
// behind it on the connection can join that fsync, and at dispatch of the
// frames whose work is long or fans out.
func (n *Node) Handle(ctx context.Context, from ring.NodeID, payload []byte) ([]byte, error) {
	resp, err := n.handle(ctx, from, payload)
	if n.cfg.Store.Durable() {
		transport.Detach(ctx)
	}
	if serr := n.cfg.Store.Sync(); err == nil && serr != nil {
		return nil, serr
	}
	return resp, err
}

func (n *Node) handle(ctx context.Context, from ring.NodeID, payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, errors.New("node: empty payload")
	}
	typ := payload[0]
	r := codec.NewReader(payload[1:])
	switch typ {
	case msgRegister:
		req, err := decodeRegister(r)
		if err != nil {
			return nil, fmt.Errorf("node %s: decode register: %w", n.cfg.ID, err)
		}
		return nil, n.handleRegister(ctx, req)
	case msgPublish:
		transport.Detach(ctx)
		local, doc, terms, err := decodePublishFrame(r)
		if err != nil {
			return nil, fmt.Errorf("node %s: decode publish: %w", n.cfg.ID, err)
		}
		var resp MatchResp
		if local {
			// A grid node matches under the frame's term list and never
			// re-forwards.
			resp, err = n.matchLocalTerms(&doc, terms)
		} else {
			resp, err = n.handlePublish(ctx, &doc, terms)
			if err == nil && n.cfg.Delivery != nil {
				n.held.put(from, &doc) // for the entry's deliver batch
			}
		}
		if err != nil {
			return nil, err
		}
		return EncodeMatchResp(resp, terms), nil
	case msgMigrate:
		req, err := decodeMigrate(r)
		if err != nil {
			return nil, fmt.Errorf("node %s: decode migrate: %w", n.cfg.ID, err)
		}
		return nil, n.handleMigrate(req)
	case msgStatsPull:
		return EncodeStatsResp(n.Stats()), nil
	case msgPrepareAlloc:
		transport.Detach(ctx)
		epoch, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		gridBytes, err := r.Bytes0()
		if err != nil {
			return nil, err
		}
		g, err := alloc.DecodeGrid(gridBytes)
		if err != nil {
			return nil, fmt.Errorf("node %s: decode pending grid: %w", n.cfg.ID, err)
		}
		if r.Remaining() > 0 {
			return nil, fmt.Errorf("node %s: %w: %d byte(s) after the grid", n.cfg.ID, errScopedPrepare, r.Remaining())
		}
		return nil, n.PrepareAllocation(ctx, epoch, g)
	case msgCommitGrid:
		epoch, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		n.CommitGrid(epoch)
		return nil, nil
	case msgAbortGrid:
		epoch, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		return nil, n.AbortGrid(epoch)
	case msgUnregisterBatch:
		ids, err := decodeUnregisterBatch(r)
		if err != nil {
			return nil, fmt.Errorf("node %s: decode unregister batch: %w", n.cfg.ID, err)
		}
		return nil, n.handleUnregisterBatch(ids)
	case msgInstallBloom:
		bloomBytes, err := r.Bytes0()
		if err != nil {
			return nil, err
		}
		bf, err := bloom.Unmarshal(bloomBytes)
		if err != nil {
			return nil, fmt.Errorf("node %s: decode bloom: %w", n.cfg.ID, err)
		}
		n.InstallBloom(bf)
		return nil, nil
	case msgDeliverBatch:
		return n.handleDeliverBatch(from, r)
	case msgGossip:
		if n.cfg.Gossip == nil {
			return nil, errors.New("node: gossip not enabled")
		}
		digest, err := r.Bytes0()
		if err != nil {
			return nil, err
		}
		return n.cfg.Gossip(from, digest)
	default:
		return nil, fmt.Errorf("node %s: unknown message type %d", n.cfg.ID, typ)
	}
}

// handleRegister stores a filter and its posting entries. When the node's
// terms are served through a grid, the new filter must also reach its column
// in every partition row — otherwise documents fanned out to the grid would
// miss filters registered after the allocation round. It is forwarded to the
// committed grid, and to a pending one tagged with the pending epoch, so an
// abort unwinds a mid-prepare registration's copy along with the epoch's
// migrations.
//
// A MatchAll filter is held by one home cluster-wide, the home of its key term
// (model.Filter.KeyTerm): a document it matches reaches every home of its
// terms, so the other homes acknowledge their share and decline it
// (declineRegister) and a registrar may send every home its share as before.
// Only a key term the installed Bloom filter rejects — the entry's gate will
// not route it until the next refresh — leaves the copy on every home, as a
// registration with no posting terms (a definition-only replica) always is.
// The home that keeps the filter posts it under one of the terms it was sent
// (conjunctiveKey), chosen here, once: the index, every forward below and
// every later migration (ownedBatches) repeat the choice.
func (n *Node) handleRegister(ctx context.Context, req RegisterReq) error {
	if req.Filter.Mode == model.MatchAll && len(req.PostingTerms) > 0 {
		n.mu.RLock()
		bf := n.bloomF
		n.mu.RUnlock()
		if key := req.Filter.KeyTerm(); !slices.Contains(req.PostingTerms, key) && (bf == nil || bf.Contains(key)) {
			return n.declineRegister(req)
		}
		if len(req.PostingTerms) > 1 {
			req.PostingTerms = n.conjunctiveKey(bf, req.Filter.ID, req.PostingTerms)
		}
	}
	if err := n.ix.Register(req.Filter, req.PostingTerms); err != nil {
		return err
	}
	n.updateCoverGauges()

	n.mu.RLock()
	e := n.table
	n.mu.RUnlock()
	if e.committed != nil {
		if err := n.forwardToGridColumn(ctx, e.committed, 0, req); err != nil {
			return err
		}
	}
	if e.pending != nil {
		return n.forwardToGridColumn(ctx, e.pending, e.pendingEpoch, req)
	}
	return nil
}

// declineRegister is the register path of a home that does not hold the
// filter's key term. It stores nothing, and a copy this node already has of
// the same definition stays exactly as it is: the node may be a grid column of
// the key term's home, which forwarded it (the index keys one definition per
// ID, whoever placed it), or have kept it under a stale Bloom filter — a
// duplicate the entry deduplicates. Only a definition the registration
// replaces must not keep matching: it is rewritten under the posting terms
// another home placed it with, and removed when there are none.
func (n *Node) declineRegister(req RegisterReq) error {
	f := req.Filter
	cur, ok, err := n.ix.GetFilter(f.ID)
	if err != nil || !ok || sameDefinition(&cur, &f) {
		return err
	}
	placed := n.ix.PostedUnder(f.ID, slices.DeleteFunc(slices.Clone(f.Terms), func(t string) bool {
		return slices.Contains(req.PostingTerms, t)
	}))
	if len(placed) > 0 {
		err = n.ix.Register(f, placed)
	} else {
		err = n.ix.Unregister(f.ID)
	}
	n.updateCoverGauges()
	return err
}

// sameDefinition reports whether a and b, two filters of one ID, match the
// same documents for the same subscriber.
func sameDefinition(a, b *model.Filter) bool {
	return a.Mode == b.Mode && a.Subscriber == b.Subscriber && slices.Equal(a.Terms, b.Terms)
}

// conjunctiveKey picks the one term of terms — the share of a MatchAll
// filter's terms sent to the home that keeps it — that filter id is posted
// under on this node. A document the filter matches holds all of them and
// reaches this home with every one that passes the entry's Bloom gate, so one
// key finds it: the term the filter is already posted under when there is one
// (a re-registration adds no key), else the shortest posting list — the fewest
// entries scanned beside it — both among the terms the installed Bloom filter
// bf passes when any does, so a filter with a brand-new term stays visible
// before the next Bloom refresh.
func (n *Node) conjunctiveKey(bf *bloom.Filter, id model.FilterID, terms []string) []string {
	if passing := bloomPassTerms(bf, terms); len(passing) > 0 {
		terms = passing
	}
	if posted := n.ix.PostedUnder(id, terms); len(posted) > 0 {
		return posted[:1]
	}
	key, shortest := 0, -1
	for i, t := range terms {
		if l, _ := n.ix.PostingLen(t); shortest < 0 || l < shortest {
			key, shortest = i, l
		}
	}
	return terms[key : key+1]
}

// forwardToGridColumn copies one registration onto its grid column across
// all partition rows. Every row is attempted even when one fails — a dead
// replica must not prevent the live rows from receiving the filter — and
// the per-row errors are aggregated.
func (n *Node) forwardToGridColumn(ctx context.Context, g *alloc.Grid, epoch uint64, req RegisterReq) error {
	col := g.Column(req.Filter.ID)
	pw := codec.GetWriter()
	AppendMigrate(pw, MigrateReq{Epoch: epoch, Entries: []RegisterReq{req}})
	payload := pw.Bytes()
	var errs []error
	for row := 0; row < g.Rows(); row++ {
		target := g.Node(row, col)
		if target == n.cfg.ID {
			continue
		}
		if _, err := n.send(ctx, target, payload); err != nil {
			errs = append(errs, fmt.Errorf("node %s: forward registration to grid node %s: %w", n.cfg.ID, target, err))
		}
	}
	codec.PutWriter(pw)
	return errors.Join(errs...)
}

// DropGrid empties the forwarding table — pending grid included — so a
// recovered node that slept through commits and GC stops trusting stale
// placements and matches from its complete local store until the next
// prepare.
func (n *Node) DropGrid() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.table = tableEntry{}
}

// Grid returns the committed grid (may be nil) and the node's committed
// epoch.
func (n *Node) Grid() (*alloc.Grid, uint64) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.table.committed, n.gridEpoch
}

// InstallBloom replaces the global filter-term Bloom filter.
func (n *Node) InstallBloom(bf *bloom.Filter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.bloomF = bf
}

// handlePublish serves a home-routed publish frame: one document arriving
// at the shared home node of its terms. Grid-less terms match locally,
// grid-routed terms go through the one grid fan-out.
func (n *Node) handlePublish(ctx context.Context, doc *model.Document, terms []string) (MatchResp, error) {
	// One frame is one document arrival: homePublishes is the numerator of
	// the §V node frequency q'_i, which counts documents the node receives,
	// not the terms they were routed under.
	n.homePublishes.Inc()
	// The home-side handling gets its own trace and histogram: in a TCP
	// deployment the entry is an external client, so this is where the
	// server-side publish path starts and the only place its traces can be
	// recorded.
	tm := n.hHome.Start()
	resp, err := n.homePublish(ctx, doc, terms)
	elapsed := tm.Stop()
	if resp.Degraded {
		n.degradedC.Inc()
	}
	// The summary aliases the response's hops — the response is immutable
	// once handed back for encoding — instead of paying a hop copy per
	// publish.
	n.traces.Add(trace.Summarize("publish.home", doc.ID, elapsed, resp.Hops))
	return resp, err
}

// gridRoute is one allocation grid a publish fans out through. pending marks
// a dual-read route — the terms fanned out a second time against a
// not-yet-committed grid, whose failures never fail or degrade the publish
// (the committed path is authoritative).
type gridRoute struct {
	grid    *alloc.Grid
	pending bool
	first   int // partition row drawn for this frame
}

// splitByGrid reads the forwarding table for one frame. With no grid the
// node matches the frame's terms itself (local); with a committed grid they
// fan out through it; during a dual-read window they fan out through the
// pending grid as well — beside the local match while the table awaits its
// first commit. Every route carries all of the frame's terms.
func (n *Node) splitByGrid() (local bool, routes []gridRoute) {
	n.mu.RLock()
	e := n.table
	n.mu.RUnlock()
	if e.committed != nil {
		routes = append(routes, gridRoute{grid: e.committed})
	}
	if e.pending != nil && e.pending != e.committed {
		routes = append(routes, gridRoute{grid: e.pending, pending: true})
	}
	return e.committed == nil, routes
}

// homePublish matches a home-routed document: locally in one MatchTerms pass
// when the node has no committed grid, through the grid fan-out otherwise.
func (n *Node) homePublish(ctx context.Context, doc *model.Document, terms []string) (MatchResp, error) {
	local, routes := n.splitByGrid()
	var resp MatchResp
	if local {
		var err error
		if resp, err = n.matchLocalTerms(doc, terms); err != nil {
			return MatchResp{}, err
		}
		resp.Hops = make([]trace.Hop, 0, len(terms))
		for _, t := range terms {
			resp.Hops = append(resp.Hops, trace.Hop{Stage: "local", To: string(n.cfg.ID), Term: t})
		}
	}
	if len(routes) == 0 {
		return resp, nil
	}
	// One partition row per grid per frame (the per-term path draws a row
	// per term; any row serves the exact match set, so one draw is both
	// cheaper and equivalent).
	n.mu.Lock()
	for i := range routes {
		routes[i].first = routes[i].grid.PickRow(doc.ID, n.rng)
	}
	n.mu.Unlock()
	if err := n.fanOut(ctx, doc, terms, routes, &resp); err != nil {
		return MatchResp{}, err
	}
	return resp, nil
}

// colSlot is one (grid, column) of a frame's fan-out. It is done when some
// row's node served it or every row was exhausted (lost).
type colSlot struct {
	route   *gridRoute
	col     int
	attempt int
	done    bool
	lost    bool
	hops    []trace.Hop
}

// fanOut is the grid fan-out (§V, §VI.D): it disseminates a document's
// terms through the union of grid-row destinations across the routes' grids,
// folding each node's matches into resp. Each round, the still-open (grid,
// column) slots are grouped by the node their current row assigns and every
// distinct node receives ONE local frame carrying the terms — so the
// committed and the pending grid sharing a node cost one RPC, not two.
// Failover stays per column: an availability failure moves only that node's
// slots to the same column of the next row (every row holds a full replica,
// and column c of every row stores the same filter subset, so the re-route
// preserves the exact match set), and regrouping each round keeps the dedup
// exact as slots drift across rows. A committed column no row can serve
// degrades the publish once per term routed through it — what the per-term
// fan-out reports; a pending column never degrades or fails anything.
func (n *Node) fanOut(ctx context.Context, doc *model.Document, terms []string, routes []gridRoute, resp *MatchResp) error {
	nCols := 0
	for i := range routes {
		nCols += routes[i].grid.Cols()
	}
	slots := make([]colSlot, 0, nCols)
	for i := range routes {
		for col := 0; col < routes[i].grid.Cols(); col++ {
			slots = append(slots, colSlot{route: &routes[i], col: col})
		}
	}

	type nodeResult struct {
		resp MatchResp
		err  error // fatal for the publish
	}
	for {
		targets := make(map[ring.NodeID][]*colSlot)
		var order []ring.NodeID
		for i := range slots {
			s := &slots[i]
			if s.done {
				continue
			}
			rows := s.route.grid.Rows()
			if s.attempt >= rows {
				// No live replica in any row: one lost hop per term routed
				// through the column.
				s.done, s.lost = true, true
				for _, t := range terms {
					s.hops = append(s.hops, trace.Hop{
						Stage: "column", From: string(n.cfg.ID), Col: s.col, Term: t, Lost: true,
						Pending: s.route.pending,
					})
				}
				continue
			}
			target := s.route.grid.Node((s.route.first+s.attempt)%rows, s.col)
			if _, ok := targets[target]; !ok {
				order = append(order, target)
			}
			targets[target] = append(targets[target], s)
		}
		if len(order) == 0 {
			break
		}
		results := make([]nodeResult, len(order))
		concurrently(len(order), func(ti int) {
			target := order[ti]
			ss := targets[target]
			out, elapsed, err := n.sendPublish(ctx, target, true, doc, terms)
			n.hColumnRPC.Observe(elapsed)
			committed := false
			for _, s := range ss {
				hop := trace.Hop{
					Stage: "column", From: string(n.cfg.ID), To: string(target),
					Row: (s.route.first + s.attempt) % s.route.grid.Rows(), Col: s.col,
					Attempt: s.attempt, Failover: s.attempt > 0,
					Pending: s.route.pending, ElapsedNS: elapsed.Nanoseconds(),
				}
				if err != nil {
					hop.Err = err.Error()
					s.attempt++
					committed = committed || !s.route.pending
				} else {
					if s.attempt > 0 {
						n.failoverC.Inc()
					}
					s.done = true
				}
				s.hops = append(s.hops, hop)
			}
			switch {
			case err == nil:
				results[ti] = nodeResult{resp: out}
			case committed && !transport.IsAvailabilityError(err):
				// Only unavailability fails over. An RPC serving pending
				// slots alone is best-effort whatever the error: its slots
				// just move on to the next row.
				results[ti] = nodeResult{err: err}
			}
		})
		for ti := range results {
			res := &results[ti]
			if res.err != nil {
				return res.err
			}
			// Each served node's answer is folded in once; duplicate matches
			// across nodes are deduplicated at the entry.
			resp.Matches = append(resp.Matches, res.resp.Matches...)
			resp.PostingsScanned += res.resp.PostingsScanned
			resp.PostingLists += res.resp.PostingLists
		}
	}

	for i := range slots {
		s := &slots[i]
		resp.Hops = append(resp.Hops, s.hops...)
		if s.lost && !s.route.pending {
			resp.Degraded = true
			resp.ColumnsLost += len(terms)
		}
	}
	return nil
}

// sendPublish issues one publish frame carrying doc and terms to node `to`
// and decodes the response; elapsed is the RPC's wall time. It is the single
// sender of publish frames, so the wire accounting lives here: a home-routed
// frame counts toward publish.home.rpcs/.bytes (the numerators of the
// per-document home-RPC and home wire-byte figures), and OnTransfer is
// charged once per document shipped. The frame is built in a
// pooled writer, recycled as soon as the send returns (the transport neither
// retains the payload nor aliases its response to it — DESIGN.md §11).
func (n *Node) sendPublish(ctx context.Context, to ring.NodeID, local bool, doc *model.Document, terms []string) (resp MatchResp, elapsed time.Duration, err error) {
	pw := codec.GetWriter()
	appendPublishFrame(pw, local, doc, terms)
	if !local {
		n.homeRPCs.Inc()
		n.homeBytes.Add(int64(pw.Len()))
	}
	if n.cfg.OnTransfer != nil {
		n.cfg.OnTransfer(n.cfg.ID, to)
	}
	start := time.Now()
	raw, err := n.send(ctx, to, pw.Bytes())
	elapsed = time.Since(start)
	codec.PutWriter(pw)
	if err != nil {
		return MatchResp{}, elapsed, err
	}
	if resp, err = DecodeMatchResp(raw, terms); err != nil {
		return MatchResp{}, elapsed, err
	}
	return resp, elapsed, nil
}

// matchLocalTerms runs the multi-term matcher over one decoded document and
// accounts the work. One frame is one document arrival, so DocsProcessed
// counts it once however many terms it carries (the per-term path charged one
// per routed term — an artifact of its framing, not of the workload).
// TermsMatched charges one per term so the matching-cost figure stays
// comparable across framings.
func (n *Node) matchLocalTerms(doc *model.Document, terms []string) (MatchResp, error) {
	n.docsProcessed.Inc()
	n.termsMatched.Add(int64(len(terms)))
	tm := n.hMatchTerm.Start()
	matched, st, err := n.ix.MatchTerms(doc, terms)
	tm.Stop()
	if err != nil {
		return MatchResp{}, err
	}
	n.postingsScanned.Add(int64(st.Postings))
	n.postingLists.Add(int64(st.PostingLists))
	return toResp(matched, st), nil
}

func toResp(matched []model.Filter, st index.MatchStats) MatchResp {
	resp := MatchResp{
		Matches:         make([]Match, 0, len(matched)),
		PostingsScanned: st.Postings,
		PostingLists:    st.PostingLists,
	}
	for _, f := range matched {
		resp.Matches = append(resp.Matches, Match{Filter: f.ID, Subscriber: f.Subscriber})
	}
	return resp
}

// matchSeenPool recycles the per-publish match dedup map. Maps are
// returned cleared so the pool retains bucket storage, not data.
var matchSeenPool = sync.Pool{
	New: func() any { return make(map[model.FilterID]struct{}, 64) },
}

// bloomPassTerms returns the subset of terms passing the Bloom gate. When
// the filter is nil — or every term passes, the common case once filters
// cover the corpus — the input slice is aliased instead of copied, so the
// all-pass publish path allocates nothing here; callers must treat the
// result as read-only. On the first miss the passing prefix is copied and
// the remainder filtered.
func bloomPassTerms(bf *bloom.Filter, terms []string) []string {
	if bf == nil {
		return terms
	}
	for i, t := range terms {
		if bf.Contains(t) {
			continue
		}
		out := make([]string, i, len(terms)-1)
		copy(out, terms[:i])
		for _, u := range terms[i+1:] {
			if bf.Contains(u) {
				out = append(out, u)
			}
		}
		return out
	}
	return terms
}

// homeGroup is one distinct home node's slice of a document's fan-out: the
// terms that hash to it, in document order.
type homeGroup struct {
	home  ring.NodeID
	terms []string
}

// groupTermsByHome resolves the home node of every term and groups the
// terms by home in first-appearance order. Every ring lookup happens before
// any frame is built or goroutine spawned, so a lookup failure aborts the
// publish cleanly — no goroutine can outlive the caller and no pooled
// buffer leaks (the bug the old mid-loop return had).
func (n *Node) groupTermsByHome(terms []string) ([]homeGroup, error) {
	groups := make([]homeGroup, 0, 8)
	idx := make(map[ring.NodeID]int, 8)
	for _, t := range terms {
		home, err := n.cfg.Ring.HomeNode(t)
		if err != nil {
			return nil, fmt.Errorf("node %s: home of %q: %w", n.cfg.ID, t, err)
		}
		i, ok := idx[home]
		if !ok {
			i = len(groups)
			idx[home] = i
			groups = append(groups, homeGroup{home: home})
		}
		groups[i].terms = append(groups[i].terms, t)
	}
	return groups, nil
}

// PublishEntry is the client-facing dissemination entry point (§V
// "Document Dissemination"): group the document's Bloom-passing terms by
// home node, forward the document — in parallel, ONE RPC per distinct home
// node carrying that node's whole term list — and merge the matches.
// Returns the deduplicated matches and the total matching cost.
//
// The publish is traced: a trace.Span on the context (or a private one when
// the caller attached none) records one "home" hop per fanned-out term
// (terms coalesced into one frame share the RPC's elapsed time) plus the
// grid hops each home node reports back, and the finished span lands in the
// node's trace ring for the debug server.
func (n *Node) PublishEntry(ctx context.Context, doc *model.Document) ([]Match, MatchResp, error) {
	return n.publishEntry(ctx, doc, n.groupTermsByHome)
}

// publishEntry is PublishEntry with the home grouping supplied by the
// caller — the seam through which the equivalence tests run the per-term
// §III fan-out (one group per term) as the oracle of the coalesced one.
func (n *Node) publishEntry(ctx context.Context, doc *model.Document, group func([]string) ([]homeGroup, error)) ([]Match, MatchResp, error) {
	if err := doc.Validate(); err != nil {
		return nil, MatchResp{}, err
	}
	sp := trace.From(ctx)
	if sp == nil {
		sp = trace.New("publish", doc.ID)
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

	groups, err := group(terms)
	if err != nil {
		return nil, MatchResp{}, err
	}
	results := n.fanOutHomes(ctx, doc, groups)

	// Merge in group order with exactly-sized hop buffers: one "home" hop
	// per fanned-out term plus the grid hops each home node reported back.
	// The span receives the whole merged path in a single AddHops instead
	// of per-goroutine appends — one copy, no append-doubling.
	nHops, nMatches, nHome := 0, 0, 0
	for i := range results {
		nHome += len(results[i].homeHops)
		if results[i].err == nil {
			nHops += len(results[i].resp.Hops)
			nMatches += len(results[i].resp.Matches)
		}
	}
	var total MatchResp
	var errs []error
	var answered []ring.NodeID
	total.Hops = make([]trace.Hop, 0, nHops)
	spanHops := make([]trace.Hop, 0, nHops+nHome)
	seen := matchSeenPool.Get().(map[model.FilterID]struct{})
	matches := make([]Match, 0, nMatches)
	for i := range results {
		res := &results[i]
		spanHops = append(spanHops, res.homeHops...)
		if res.err != nil {
			errs = append(errs, res.err)
			continue
		}
		answered = append(answered, groups[i].home)
		total.PostingsScanned += res.resp.PostingsScanned
		total.PostingLists += res.resp.PostingLists
		total.Degraded = total.Degraded || res.resp.Degraded
		total.ColumnsLost += res.resp.ColumnsLost
		total.Hops = append(total.Hops, res.resp.Hops...)
		spanHops = append(spanHops, res.resp.Hops...)
		for _, m := range res.resp.Matches {
			if _, dup := seen[m.Filter]; dup {
				continue
			}
			seen[m.Filter] = struct{}{}
			matches = append(matches, m)
		}
	}
	clear(seen)
	matchSeenPool.Put(seen)
	sp.AddHops(spanHops)
	if len(matches) == 0 {
		matches = nil
	}
	n.routeDeliveries(ctx, doc, matches, answered)
	// Partial failure: report what matched alongside the aggregated
	// per-home errors so the caller can account availability (Fig. 9 c–d).
	return matches, total, errors.Join(errs...)
}

// entryResult is one home-node RPC's outcome: its response, one "home"
// trace hop per term the frame carried, and the RPC error if any.
type entryResult struct {
	resp     MatchResp
	homeHops []trace.Hop
	err      error
}

// fanOutHomes sends each home group its publish frame in parallel and
// collects the per-group results.
func (n *Node) fanOutHomes(ctx context.Context, doc *model.Document, groups []homeGroup) []entryResult {
	results := make([]entryResult, len(groups))
	concurrently(len(groups), func(i int) {
		g := &groups[i]
		resp, elapsed, err := n.sendPublish(ctx, g.home, false, doc, g.terms)
		n.hFanout.Observe(elapsed)
		res := entryResult{resp: resp, err: err}
		res.homeHops = make([]trace.Hop, len(g.terms))
		for j, t := range g.terms {
			h := trace.Hop{
				Stage: "home", From: string(n.cfg.ID), To: string(g.home),
				Term: t, ElapsedNS: elapsed.Nanoseconds(),
			}
			if err != nil {
				h.Err = err.Error()
			}
			res.homeHops[j] = h
		}
		results[i] = res
	})
	return results
}

// concurrently runs f(0), …, f(n-1) at once and returns when all have
// returned. The last runs on the calling goroutine, so a fan-out to a single
// destination starts no goroutine.
func concurrently(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	f(n - 1)
	wg.Wait()
}

// migrateBatch caps the number of filters per msgMigrate frame.
const migrateBatch = 512

// ownedBatches walks the index's resident filters (ascending ID, no store
// read) for the ones this home must place, and groups the copies each grid
// target must receive — the migration work list of PrepareAllocation. The
// home owns every term that hashes to it. A copy is posted on its target
// under the owned terms the filter is posted under here, not under every
// owned term it has: what a registration chose (conjunctiveKey, or a
// registrar posting under fewer terms) a migration repeats. A filter posted
// under no owned term is a replica migrated here by another home node, not
// this prepare's to re-allocate.
func (n *Node) ownedBatches(g *alloc.Grid) (map[ring.NodeID][]RegisterReq, error) {
	batches := make(map[ring.NodeID][]RegisterReq)
	var iterErr error
	err := n.ix.EachFilter(func(f model.Filter) bool {
		posted := n.ix.PostedUnder(f.ID, f.Terms)
		owned := posted[:0]
		for _, t := range posted {
			home, err := n.cfg.Ring.HomeNode(t)
			if err != nil {
				iterErr = err
				return false
			}
			if home == n.cfg.ID {
				owned = append(owned, t)
			}
		}
		if len(owned) == 0 {
			return true
		}
		col := g.Column(f.ID)
		entry := RegisterReq{Filter: f, PostingTerms: owned}
		for row := 0; row < g.Rows(); row++ {
			target := g.Node(row, col)
			if target == n.cfg.ID {
				continue // already stored locally
			}
			batches[target] = append(batches[target], entry)
		}
		return true
	})
	return batches, errors.Join(err, iterErr)
}

// sendMigrations ships batched filter copies, charging one transfer per
// copy so the passive-policy cost (§V: migration "further aggravates the
// workload of the home node") is visible to the cost model. One dead
// target does not abort the other targets' migrations; the per-target
// errors are aggregated.
func (n *Node) sendMigrations(ctx context.Context, epoch uint64, batches map[ring.NodeID][]RegisterReq) error {
	var errs []error
	for target, entries := range batches {
		if n.cfg.OnTransfer != nil {
			for range entries {
				n.cfg.OnTransfer(n.cfg.ID, target)
			}
		}
		pw := codec.GetWriter()
		for start := 0; start < len(entries); start += migrateBatch {
			end := start + migrateBatch
			if end > len(entries) {
				end = len(entries)
			}
			pw.Reset()
			AppendMigrate(pw, MigrateReq{Epoch: epoch, Entries: entries[start:end]})
			if _, err := n.send(ctx, target, pw.Bytes()); err != nil {
				errs = append(errs, fmt.Errorf("node %s: migrate to %s: %w", n.cfg.ID, target, err))
				break // the target is unreachable; skip its remaining batches
			}
		}
		codec.PutWriter(pw)
	}
	return errors.Join(errs...)
}

// Stats snapshots the node's counters.
func (n *Node) Stats() StatsResp {
	n.updateCoverGauges()
	return StatsResp{
		Filters:         int64(n.ix.NumFilters()),
		Postings:        int64(n.ix.NumPostings()),
		DocsProcessed:   n.docsProcessed.Value(),
		TermsMatched:    n.termsMatched.Value(),
		PostingsScanned: n.postingsScanned.Value(),
		PostingLists:    n.postingLists.Value(),
		HomePublishes:   n.homePublishes.Value(),
	}
}

// ResetWindowCounters zeroes the windowed statistics (the §V "every 10
// minutes, the values of q_i are renewed" refresh).
func (n *Node) ResetWindowCounters() {
	n.homePublishes.Reset()
}
