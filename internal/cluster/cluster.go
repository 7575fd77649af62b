// Package cluster wires nodes, transport, ring, and coordinator into the
// three dissemination systems evaluated in §VI:
//
//   - SchemeMove — distributed inverted list + §IV adaptive filter
//     allocation driven by a coordinator (the paper's "dedicated node").
//   - SchemeIL — the pure distributed inverted list of §III (no
//     allocation): the baseline that suffers hot spots and skewed storage.
//   - SchemeRS — the distributed rendezvous comparator [5][16]: filters
//     hashed uniformly across nodes, every document flooded to all nodes
//     and matched with the centralized SIFT algorithm [25].
//
// The cluster also performs the experiment bookkeeping the figures need:
// per-node storage/matching cost, transfer accounting with rack locality,
// failure injection, and filter-availability measurement.
package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/bloom"
	"github.com/movesys/move/internal/daemon"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/trace"
	"github.com/movesys/move/internal/transport"
)

// Scheme selects the dissemination system.
type Scheme int

// The three evaluated schemes.
const (
	// SchemeMove is the full system: inverted-list registration plus
	// adaptive allocation.
	SchemeMove Scheme = iota + 1
	// SchemeIL is the distributed inverted list without allocation.
	SchemeIL
	// SchemeRS is the rendezvous/flooding baseline.
	SchemeRS
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case SchemeMove:
		return "Move"
	case SchemeIL:
		return "IL"
	case SchemeRS:
		return "RS"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Config parameterizes a cluster.
type Config struct {
	// Scheme selects Move, IL, or RS.
	Scheme Scheme
	// Nodes is N, the cluster size.
	Nodes int
	// RackSize is the number of nodes per rack (default 5, giving the
	// paper's 20-node default cluster 4 racks).
	RackSize int
	// Capacity is C, the per-node filter capacity (definitions incl.
	// replicas). Default 3e6 as in §VI.C.
	Capacity int
	// Placement selects where allocated filters go (Move only).
	Placement ring.Placement
	// AllocStrategy selects the §IV allocation-factor formula (Move only).
	AllocStrategy alloc.Strategy
	// AllocNoSeparation disables balance-driven separation columns in the
	// optimizer (rows-only ablation).
	AllocNoSeparation bool
	// AllocRatio overrides the §IV-B allocation-ratio choice (ablation:
	// pure replication vs pure separation vs optimizer-chosen).
	AllocRatio alloc.RatioMode
	// BloomFPR is the false-positive rate of the filter-term Bloom filter;
	// default 0.01.
	BloomFPR float64
	// BloomCapacity sizes the Bloom filter; default 1<<20 distinct terms.
	BloomCapacity int
	// Seed makes the cluster deterministic.
	Seed int64
	// Delivery, when set, enables the subscriber delivery tier (§14): every
	// node gets a session hub built from this config (sharing the cluster
	// registry), and entry nodes route each match set to the subscribers'
	// session owners via msgDeliverBatch.
	Delivery *delivery.Config
	// OnDeliveryLoss, if set, is invoked when routed notifications could
	// not reach a session owner — the delivery-loss accounting hook.
	OnDeliveryLoss func(docID uint64, subs []string)
	// ControlTimeout bounds coordinator control RPCs (stats pulls,
	// allocation commands). Default 30s.
	ControlTimeout time.Duration
	// Resilience overrides the in-process retry/breaker policy. Nil uses
	// a policy tuned for the in-memory fabric (1ms base backoff, 3
	// attempts, 250ms breaker cooldown).
	Resilience *resilience.Policy
	// Fault, when set, wraps every node's transport in a fault-injecting
	// decorator (per-node seeds derived from Fault.Seed). Coordinator
	// control RPCs bypass injection — they model the paper's dedicated
	// master node, not the data path.
	Fault *transport.FaultConfig
	// RPCLatency adds a fixed one-way delivery delay to every RPC on the
	// in-memory transport. Zero (the default) keeps the fabric
	// instantaneous; benchmarks set it so publish figures include a
	// realistic per-RPC cost for frame coalescing to amortize.
	RPCLatency time.Duration
	// Metrics receives the cluster's resilience counters (rpc.retries,
	// breaker.open, publish.failover, ...). Nil creates a private registry
	// exposed via Cluster.Metrics.
	Metrics *metrics.Registry
}

// Cluster is an in-process MOVE deployment over the in-memory transport.
type Cluster struct {
	cfg  Config
	net  *transport.Network
	ring *ring.Ring
	rng  *rand.Rand

	daemons  map[ring.NodeID]*daemon.Daemon
	nodeIDs  []ring.NodeID // stable order
	rackOf   map[ring.NodeID]string
	aliveMu  sync.Mutex // serializes FailNodes and RecoverNodes
	entrySeq atomic.Uint64

	// Resilience: each daemon's executor wraps its node's RPCs; the
	// coordinator's wraps control RPCs. RecoverNodes resets the breakers of
	// a rejoining peer in all of them.
	metrics   *metrics.Registry
	coordExec *resilience.Executor

	// Coordinator state (the paper's dedicated master node).
	filterSeq  atomic.Uint64
	docSeq     atomic.Uint64
	bloomMu    sync.Mutex
	bloomTerms map[string]struct{}
	bloom      *bloom.Filter // what RefreshBloom last installed; nil before
	allocEpoch atomic.Uint64
	// committedEpoch is the newest epoch whose two-phase round reached
	// commit; an aborted round never advances it.
	committedEpoch atomic.Uint64
	placementMu    sync.RWMutex
	// filterHolders maps each filter to the nodes storing its definition —
	// maintained for availability measurement (Figure 9 d) and pruned by
	// the reallocation GC.
	filterHolders map[model.FilterID][]ring.NodeID
	// homeHolders maps each filter to its original registration homes.
	// Home copies are never garbage-collected: a term re-homed by churn
	// and homed back later must still find its filters (§13 GC rules).
	homeHolders map[model.FilterID][]ring.NodeID

	// Committed-grid bookkeeping for the two-phase reallocation GC (§13):
	// the grid each home node currently serves, plus the grids retired by
	// the most recent committed round — kept one extra round so publishes in
	// flight across a cutover still find every copy.
	gridsMu        sync.Mutex
	committedGrids map[ring.NodeID]*alloc.Grid
	prevGrids      []*alloc.Grid

	// allocKick nudges the auto-allocate loop (gossip join/leave, fail or
	// recover events) to run a round ahead of its ticker.
	allocKick chan struct{}

	// Test hooks (nil in production): injected failures for abort-path and
	// degraded-pull coverage, and a probe called at the top of each round.
	prepareHook    func(home ring.NodeID) error
	pullHook       func(id ring.NodeID) error
	allocRoundHook func()

	// Transfer accounting for the virtual-time cost model.
	transferMu       sync.Mutex
	transferTotal    int64
	transferLocal    int64 // intra-rack transfers
	perNodeRecv      map[ring.NodeID]int64
	perNodeRecvLocal map[ring.NodeID]int64
}

// rsReplicas is the key/value platform's standard replication factor
// applied to RS-registered filters (§VI.C).
const rsReplicas = 3

// Validation errors.
var (
	// ErrBadConfig reports unusable cluster parameters.
	ErrBadConfig = errors.New("cluster: invalid config")
	// ErrNoMatchPath reports a publish that could not reach any node.
	ErrNoMatchPath = errors.New("cluster: no reachable node")
)

// New boots a cluster: ring, transport fabric, and one node goroutine-less
// server per member (handlers run on caller goroutines of the in-memory
// fabric).
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("%w: nodes=%d", ErrBadConfig, cfg.Nodes)
	}
	switch cfg.Scheme {
	case SchemeMove, SchemeIL, SchemeRS:
	default:
		return nil, fmt.Errorf("%w: scheme=%v", ErrBadConfig, cfg.Scheme)
	}
	if cfg.RackSize == 0 {
		cfg.RackSize = 5
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 3_000_000
	}
	if cfg.Placement == 0 {
		cfg.Placement = ring.PlacementHybrid
	}
	if cfg.AllocStrategy == 0 {
		cfg.AllocStrategy = alloc.StrategyGeneral
	}
	if cfg.BloomFPR == 0 {
		cfg.BloomFPR = 0.01
	}
	if cfg.BloomCapacity == 0 {
		cfg.BloomCapacity = 1 << 20
	}
	if cfg.ControlTimeout == 0 {
		cfg.ControlTimeout = 30 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}

	c := &Cluster{
		cfg:              cfg,
		net:              transport.NewNetwork(transport.NetworkConfig{Latency: cfg.RPCLatency}),
		ring:             ring.New(ring.Config{}),
		rng:              rand.New(rand.NewSource(seed)),
		daemons:          make(map[ring.NodeID]*daemon.Daemon, cfg.Nodes),
		rackOf:           make(map[ring.NodeID]string, cfg.Nodes),
		bloomTerms:       make(map[string]struct{}),
		filterHolders:    make(map[model.FilterID][]ring.NodeID),
		homeHolders:      make(map[model.FilterID][]ring.NodeID),
		committedGrids:   make(map[ring.NodeID]*alloc.Grid),
		allocKick:        make(chan struct{}, 1),
		perNodeRecv:      make(map[ring.NodeID]int64),
		perNodeRecvLocal: make(map[ring.NodeID]int64),
		metrics:          reg,
	}

	basePolicy := clusterPolicy()
	if cfg.Resilience != nil {
		basePolicy = *cfg.Resilience
	}
	coordPolicy := basePolicy
	coordPolicy.Seed = seed
	c.coordExec = resilience.New(coordPolicy, reg)

	for i := 0; i < cfg.Nodes; i++ {
		id := ring.NodeID("node-" + strconv.Itoa(i))
		rack := "rack-" + strconv.Itoa(i/cfg.RackSize)
		if err := c.ring.Add(ring.Member{ID: id, Rack: rack}); err != nil {
			return nil, err
		}
		dcfg := daemon.Config{
			ID: id, Rack: rack, Ring: c.ring, Resilience: basePolicy, Delivery: cfg.Delivery, Seed: seed + int64(i) + 1,
			OnDeliveryLoss: cfg.OnDeliveryLoss, OnTransfer: c.recordTransfer, Metrics: reg,
		}
		dcfg.Resilience.Seed = dcfg.Seed
		if cfg.Fault != nil {
			fc := *cfg.Fault
			fc.Seed = cmp.Or(fc.Seed, 1)*1000 + int64(i)
			dcfg.Fault = &fc
		}
		d, err := daemon.Start(dcfg, func(h transport.Handler) (transport.Transport, error) { return c.net.Join(id, h), nil })
		if err != nil {
			c.Close()
			return nil, err
		}
		c.daemons[id] = d
		c.nodeIDs = append(c.nodeIDs, id)
		c.rackOf[id] = rack
	}
	return c, nil
}

// clusterPolicy is the retry/breaker policy for the in-memory fabric: the
// backoff is tight (handlers run on caller goroutines, so failures surface
// in microseconds) and only availability errors are retried — an ErrRemote
// means the peer answered and retrying would just repeat the answer.
func clusterPolicy() resilience.Policy {
	return resilience.Policy{
		MaxAttempts:      3,
		BaseDelay:        time.Millisecond,
		MaxDelay:         10 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  250 * time.Millisecond,
		Retryable:        transport.IsAvailabilityError,
	}
}

// Metrics exposes the cluster's resilience counters (rpc.retries,
// rpc.giveups, breaker.open, publish.failover, publish.degraded, ...).
func (c *Cluster) Metrics() *metrics.Registry { return c.metrics }

// DeliveryHub returns the session hub on one node (nil when the delivery
// tier is disabled).
func (c *Cluster) DeliveryHub(id ring.NodeID) *delivery.Hub { return c.daemons[id].Hub }

// EachDeliveryHub calls fn with every node's session hub, in node order.
func (c *Cluster) EachDeliveryHub(fn func(id ring.NodeID, h *delivery.Hub)) {
	for _, id := range c.nodeIDs {
		if h := c.daemons[id].Hub; h != nil {
			fn(id, h)
		}
	}
}

// SubscriberOwner returns the node whose hub owns a subscriber's session
// (the home node of "subscriber/<name>").
func (c *Cluster) SubscriberOwner(sub string) (ring.NodeID, error) {
	return c.ring.HomeNode("subscriber/" + sub)
}

// Close stops every node's daemon: its endpoint on the in-memory fabric and
// its delivery hub (worker pools, janitors, attached connections).
func (c *Cluster) Close() {
	for _, d := range c.daemons {
		_ = d.Close()
	}
}

// Scheme returns the configured scheme.
func (c *Cluster) Scheme() Scheme { return c.cfg.Scheme }

// Size returns the cluster size.
func (c *Cluster) Size() int { return len(c.nodeIDs) }

// NodeIDs returns the member IDs in creation order.
func (c *Cluster) NodeIDs() []ring.NodeID {
	return append([]ring.NodeID(nil), c.nodeIDs...)
}

// Node returns a member server (tests and load accounting).
func (c *Cluster) Node(id ring.NodeID) *node.Node { return c.daemons[id].Node }

// recordTransfer tallies one document transfer for the cost model.
func (c *Cluster) recordTransfer(from, to ring.NodeID) {
	c.transferMu.Lock()
	defer c.transferMu.Unlock()
	c.transferTotal++
	if c.rackOf[from] == c.rackOf[to] {
		c.transferLocal++
		c.perNodeRecvLocal[to]++
	}
	c.perNodeRecv[to]++
}

// Register creates a filter from subscriber + terms and registers it
// according to the scheme. Terms must be preprocessed (text.Terms).
func (c *Cluster) Register(ctx context.Context, subscriber string, terms []string, mode model.MatchMode) (model.FilterID, error) {
	id := model.FilterID(c.filterSeq.Add(1))
	f := model.Filter{
		ID:         id,
		Subscriber: subscriber,
		Terms:      model.SortTerms(append([]string(nil), terms...)),
		Mode:       mode,
	}
	if err := f.Validate(); err != nil {
		return 0, err
	}
	holders, err := c.registerFilter(ctx, f)
	if err != nil {
		return 0, err
	}

	// Coordinator-side bookkeeping: Bloom terms, placement for
	// availability accounting.
	c.bloomMu.Lock()
	for _, t := range f.Terms {
		c.bloomTerms[t] = struct{}{}
	}
	c.bloomMu.Unlock()
	c.placementMu.Lock()
	c.filterHolders[id] = holders
	// The original homes, immutable: the GC's floor for this filter.
	c.homeHolders[id] = append([]ring.NodeID(nil), holders...)
	c.placementMu.Unlock()
	return id, nil
}

// registerFilter places the filter per scheme and returns the holder nodes.
func (c *Cluster) registerFilter(ctx context.Context, f model.Filter) ([]ring.NodeID, error) {
	switch c.cfg.Scheme {
	case SchemeMove, SchemeIL:
		c.bloomMu.Lock()
		bf := c.bloom
		c.bloomMu.Unlock()
		shares, err := RegisterShares(c.ring, &f, bf)
		if err != nil {
			return nil, err
		}
		holders := make([]ring.NodeID, 0, len(shares))
		for home, postingTerms := range shares {
			payload := node.EncodeRegister(node.RegisterReq{Filter: f, PostingTerms: postingTerms})
			if _, err := c.sendTo(ctx, home, payload); err != nil {
				return nil, fmt.Errorf("cluster: register %s on %s: %w", f.ID, home, err)
			}
			holders = append(holders, home)
		}
		return holders, nil
	case SchemeRS:
		// Uniform placement by filter ID with the key/value platform's
		// standard three-fold replication (§VI.C: RS's per-node storage C
		// "contain[s] three folds of replicas of filters"). The primary
		// indexes every term so SIFT can match locally; the two passive
		// replicas store the definition for durability only (reads at
		// consistency ONE), so flooding matches each filter exactly once.
		n := len(c.nodeIDs)
		replicas := rsReplicas
		if replicas > n {
			replicas = n
		}
		base := int(ring.HashKey(f.ID.String()) % uint64(n))
		holders := make([]ring.NodeID, 0, replicas)
		for i := 0; i < replicas; i++ {
			target := c.nodeIDs[(base+i)%n]
			postingTerms := f.Terms
			if i > 0 {
				postingTerms = nil // passive replica: definition only
			}
			payload := node.EncodeRegister(node.RegisterReq{Filter: f, PostingTerms: postingTerms})
			if _, err := c.sendTo(ctx, target, payload); err != nil {
				return nil, fmt.Errorf("cluster: register %s on %s: %w", f.ID, target, err)
			}
			holders = append(holders, target)
		}
		return holders, nil
	default:
		return nil, fmt.Errorf("%w: scheme=%v", ErrBadConfig, c.cfg.Scheme)
	}
}

// RegisterShares groups f's terms by home node: the registrations a registrar
// sends, each home with its share as the posting terms. The home node of every
// term stores the full filter and builds the posting lists of its own terms
// only (§III.B) — except that a MatchAll filter is held by the home of its key
// term alone (model.Filter.KeyTerm; the other homes would decline their share,
// DESIGN.md §6), so only that home is sent to. bf is the Bloom filter installed
// on the cluster, nil when there is none: while it rejects the key term no
// entry routes it, and every home still takes its share.
func RegisterShares(r *ring.Ring, f *model.Filter, bf *bloom.Filter) (map[ring.NodeID][]string, error) {
	shares := make(map[ring.NodeID][]string)
	for _, t := range f.Terms {
		home, err := r.HomeNode(t)
		if err != nil {
			return nil, err
		}
		shares[home] = append(shares[home], t)
	}
	if key := f.KeyTerm(); f.Mode == model.MatchAll && (bf == nil || bf.Contains(key)) {
		for home, terms := range shares {
			if !slices.Contains(terms, key) {
				delete(shares, home)
			}
		}
	}
	return shares, nil
}

// sendTo routes through an arbitrary live endpoint (the in-memory fabric
// delivers directly). Control RPCs run under the coordinator's resilience
// executor: transient unavailability is retried with backoff, and a peer
// that keeps failing trips a breaker so subsequent control rounds fail
// fast instead of burning their timeout budget on it.
func (c *Cluster) sendTo(ctx context.Context, to ring.NodeID, payload []byte) ([]byte, error) {
	d, ok := c.daemons[to]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown node %s: %w", to, ErrNoMatchPath)
	}
	raw, err := resilience.DoValue(c.coordExec, ctx, string(to), func(ctx context.Context) ([]byte, error) {
		if c.net.Failed(to) {
			return nil, fmt.Errorf("cluster: node %s down: %w", to, transport.ErrNodeDown)
		}
		return d.Node.Handle(ctx, "coordinator", payload)
	})
	if err != nil && errors.Is(err, resilience.ErrOpen) {
		err = fmt.Errorf("cluster: node %s: %w: %w", to, transport.ErrNodeDown, err)
	}
	return raw, err
}

// Unregister removes a filter's definition from every live node. The
// removal is broadcast rather than holder-targeted because allocation
// rounds and post-allocation registrations replicate definitions onto grid
// nodes; a broadcast reaches every copy regardless of how it got there. Each
// holder reclaims the filter's posting entries with its definition.
func (c *Cluster) Unregister(ctx context.Context, id model.FilterID) error {
	c.placementMu.Lock()
	_, known := c.filterHolders[id]
	delete(c.filterHolders, id)
	delete(c.homeHolders, id)
	c.placementMu.Unlock()
	if !known {
		return fmt.Errorf("cluster: unregister %s: unknown filter", id)
	}
	payload := node.EncodeUnregister(id)
	var errs []error
	for _, h := range c.nodeIDs {
		if c.net.Failed(h) {
			continue
		}
		if _, err := c.sendTo(ctx, h, payload); err != nil {
			errs = append(errs, fmt.Errorf("cluster: unregister %s on %s: %w", id, h, err))
		}
	}
	return errors.Join(errs...)
}

// PublishResult reports one document's dissemination outcome.
type PublishResult struct {
	// DocID is the coordinator-assigned document ID — the key delivery
	// events carry, so subscribers (and the oracle suite) can correlate
	// what they received with what was published.
	DocID uint64
	// Matches are the deduplicated (filter, subscriber) hits.
	Matches []node.Match
	// Complete is true when every match request succeeded — the paper's
	// throughput counts a document only "if all matching filters are
	// found" (§VI.A).
	Complete bool
	// PostingsScanned is the total matching cost incurred cluster-wide.
	PostingsScanned int
	// PostingLists is the number of posting lists retrieved cluster-wide.
	PostingLists int
	// Degraded is true when some allocation-grid columns had no live
	// replica in any partition row, so Matches may be missing that slice
	// of the filter set (§VI.D availability under failure).
	Degraded bool
	// ColumnsLost counts grid columns no row could serve.
	ColumnsLost int
	// Trace is the publish-path record: one hop per forwarding edge (entry
	// → home, home → grid column, failovers included) plus per-stage wall
	// times — why the document went where it did.
	Trace trace.Summary
}

// Publish disseminates one document. Terms must be preprocessed.
func (c *Cluster) Publish(ctx context.Context, terms []string) (PublishResult, error) {
	doc := model.Document{
		ID:    c.docSeq.Add(1),
		Terms: model.SortTerms(append([]string(nil), terms...)),
	}
	if err := doc.Validate(); err != nil {
		return PublishResult{}, err
	}

	sp := trace.New("publish", doc.ID)
	ctx = trace.With(ctx, sp)
	res, err := c.publish(ctx, &doc)
	sp.Finish()
	res.DocID = doc.ID
	res.Trace = sp.Summary()
	return res, err
}

// publish dispatches to the scheme's dissemination path.
func (c *Cluster) publish(ctx context.Context, doc *model.Document) (PublishResult, error) {
	switch c.cfg.Scheme {
	case SchemeMove, SchemeIL:
		return c.publishInverted(ctx, doc)
	case SchemeRS:
		return c.publishFlood(ctx, doc)
	default:
		return PublishResult{}, fmt.Errorf("%w: scheme=%v", ErrBadConfig, c.cfg.Scheme)
	}
}

// publishInverted enters through a rotating live entry node and runs the
// §V dissemination (Bloom gate + home-node routing + grid fan-out).
func (c *Cluster) publishInverted(ctx context.Context, doc *model.Document) (PublishResult, error) {
	entry := c.pickEntry()
	if entry == nil {
		return PublishResult{}, ErrNoMatchPath
	}
	matches, total, err := entry.PublishEntry(ctx, doc)
	res := PublishResult{
		Matches:         matches,
		Complete:        err == nil && !total.Degraded,
		PostingsScanned: total.PostingsScanned,
		PostingLists:    total.PostingLists,
		Degraded:        total.Degraded,
		ColumnsLost:     total.ColumnsLost,
	}
	// err may aggregate several per-destination failures (errors.Join). A
	// join whose every leaf is an availability error is the expected shape
	// of publishing into a partially-failed cluster: record it as an
	// incomplete result, not a hard error. Anything else (decode errors,
	// cancellation) propagates.
	if err != nil && !availabilityOnly(err) {
		return res, err
	}
	return res, nil
}

// availabilityOnly reports whether every leaf of a (possibly joined,
// possibly wrapped) error tree is an availability-class failure: node
// down, breaker open, attempt deadline, or a remote peer that failed the
// request. errors.Is alone cannot answer this — on a joined error it
// matches if ANY branch matches, while swallowing requires ALL.
func availabilityOnly(err error) bool {
	if err == nil {
		return false
	}
	switch u := err.(type) {
	case interface{ Unwrap() []error }:
		errs := u.Unwrap()
		if len(errs) == 0 {
			return false
		}
		for _, e := range errs {
			if !availabilityOnly(e) {
				return false
			}
		}
		return true
	case interface{ Unwrap() error }:
		if inner := u.Unwrap(); inner != nil {
			return availabilityOnly(inner)
		}
	}
	// Leaf: no traversal left, so errors.Is is a plain comparison here.
	return errors.Is(err, transport.ErrNodeDown) || errors.Is(err, transport.ErrRemote) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, resilience.ErrOpen)
}

// publishFlood implements RS: the document goes to every live node, each of
// which runs the SIFT matcher over its local filters.
func (c *Cluster) publishFlood(ctx context.Context, doc *model.Document) (PublishResult, error) {
	payload := node.EncodeSIFT(doc)
	entry := c.pickEntry()
	if entry == nil {
		return PublishResult{}, ErrNoMatchPath
	}
	entryID := entry.ID()

	type result struct {
		resp node.MatchResp
		err  error
	}
	sp := trace.From(ctx)
	results := make([]result, len(c.nodeIDs))
	var wg sync.WaitGroup
	for i, id := range c.nodeIDs {
		c.recordTransfer(entryID, id)
		wg.Add(1)
		go func(i int, id ring.NodeID) {
			defer wg.Done()
			floodStart := time.Now()
			raw, err := c.sendTo(ctx, id, payload)
			if err != nil {
				sp.AddHop(trace.Hop{
					Stage: "flood", From: string(entryID), To: string(id),
					Err: err.Error(), ElapsedNS: time.Since(floodStart).Nanoseconds(),
				})
				results[i] = result{err: err}
				return
			}
			resp, err := node.DecodeMatchResp(raw, doc.Terms)
			sp.AddHop(trace.Hop{
				Stage: "flood", From: string(entryID), To: string(id),
				ElapsedNS: time.Since(floodStart).Nanoseconds(),
			})
			results[i] = result{resp: resp, err: err}
		}(i, id)
	}
	wg.Wait()

	res := PublishResult{Complete: true}
	seen := make(map[model.FilterID]struct{})
	var errs []error
	for i, r := range results {
		if r.err != nil {
			res.Complete = false
			errs = append(errs, fmt.Errorf("cluster: flood to %s: %w", c.nodeIDs[i], r.err))
			continue
		}
		res.PostingsScanned += r.resp.PostingsScanned
		res.PostingLists += r.resp.PostingLists
		for _, m := range r.resp.Matches {
			if _, dup := seen[m.Filter]; dup {
				continue
			}
			seen[m.Filter] = struct{}{}
			res.Matches = append(res.Matches, m)
		}
	}
	entry.Deliver(ctx, doc, res.Matches)
	// Same contract as publishInverted: successes are kept, unreachable
	// nodes only cost completeness, and non-availability failures surface
	// with every per-destination error joined.
	if err := errors.Join(errs...); err != nil && !availabilityOnly(err) {
		return res, err
	}
	return res, nil
}

// pickEntry rotates over live nodes.
func (c *Cluster) pickEntry() *node.Node {
	n := len(c.nodeIDs)
	start := int(c.entrySeq.Add(1))
	for i := 0; i < n; i++ {
		id := c.nodeIDs[(start+i)%n]
		if !c.net.Failed(id) {
			return c.daemons[id].Node
		}
	}
	return nil
}

// RefreshBloom rebuilds the global filter-term Bloom filter and installs it
// on every live node.
func (c *Cluster) RefreshBloom(ctx context.Context) error {
	c.bloomMu.Lock()
	terms := make([]string, 0, len(c.bloomTerms))
	for t := range c.bloomTerms {
		terms = append(terms, t)
	}
	c.bloomMu.Unlock()

	capacity := c.cfg.BloomCapacity
	if len(terms) > capacity {
		capacity = len(terms)
	}
	bf, err := bloom.New(capacity, c.cfg.BloomFPR)
	if err != nil {
		return err
	}
	for _, t := range terms {
		bf.Add(t)
	}
	payload := node.EncodeInstallBloom(bf.Marshal())
	var errs []error
	for _, id := range c.nodeIDs {
		if c.net.Failed(id) {
			continue
		}
		if _, err := c.sendTo(ctx, id, payload); err != nil {
			errs = append(errs, fmt.Errorf("cluster: install bloom on %s: %w", id, err))
		}
	}
	if len(errs) == 0 {
		// Registrars go by the new filter only once every live node has it.
		c.bloomMu.Lock()
		c.bloom = bf
		c.bloomMu.Unlock()
	}
	return errors.Join(errs...)
}

// FailNodes crashes the given nodes and evicts them from the ring, exactly
// as the gossip failure detector would: subsequent publishes re-home the
// dead nodes' terms onto live successors (which lack the lost filters —
// that loss is what the availability metric measures), so dissemination
// keeps completing.
func (c *Cluster) FailNodes(ids ...ring.NodeID) {
	c.aliveMu.Lock()
	for _, id := range ids {
		c.net.Fail(id)
		// Removal is idempotent-enough: an unknown-node error only means
		// the node was already evicted.
		_ = c.ring.Remove(id)
	}
	c.aliveMu.Unlock()
	// Membership changed: the auto-allocate loop should rebalance soon.
	c.KickAllocate()
}

// RecoverNodes restores crashed nodes and rejoins them to the ring (their
// virtual-node tokens are deterministic, so they reclaim their old
// positions).
func (c *Cluster) RecoverNodes(ids ...ring.NodeID) {
	c.aliveMu.Lock()
	for _, id := range ids {
		c.net.Recover(id)
		if !c.ring.Contains(id) {
			_ = c.ring.Add(ring.Member{ID: id, Rack: c.rackOf[id]})
		}
		// The gossip node-up signal: clear every sender's breaker for the
		// rejoined peer so it is probed immediately instead of after the
		// cooldown of a breaker that opened while it was dead.
		c.coordExec.Reset(string(id))
		for _, d := range c.daemons {
			d.Exec.Reset(string(id))
		}
	}
	c.aliveMu.Unlock()

	// A node that slept through commits and GC holds grids whose placements
	// may since have been collected. A restart loses the forwarding table —
	// pending grid included — so simulate one: the node matches
	// from its complete local store — homes keep full copies, migrations
	// only ever add — until the next round re-prepares it. Its retired
	// grids get the standard one-round GC grace.
	c.gridsMu.Lock()
	for _, id := range ids {
		if g, ok := c.committedGrids[id]; ok {
			c.prevGrids = append(c.prevGrids, g)
			delete(c.committedGrids, id)
		}
	}
	c.gridsMu.Unlock()
	for _, id := range ids {
		c.daemons[id].Node.DropGrid()
	}
	c.KickAllocate()
}

// KickAllocate nudges the auto-allocate loop to run a reallocation round
// now instead of waiting for its ticker — wired to membership changes
// (gossip join/leave, FailNodes/RecoverNodes). Non-blocking: a kick while
// one is already pending coalesces.
func (c *Cluster) KickAllocate() {
	select {
	case c.allocKick <- struct{}{}:
	default:
	}
}

// CommittedEpoch returns the newest reallocation epoch that reached
// commit; aborted rounds never advance it.
func (c *Cluster) CommittedEpoch() uint64 { return c.committedEpoch.Load() }

// FailFraction crashes frac of the cluster. With byRack the failure is
// rack-correlated (whole racks at a time) — the failure mode that penalizes
// rack-local placement (§V, §VI.D).
func (c *Cluster) FailFraction(frac float64, byRack bool) []ring.NodeID {
	want := int(frac * float64(len(c.nodeIDs)))
	var victims []ring.NodeID
	if byRack {
		racks := make(map[string][]ring.NodeID)
		var rackOrder []string
		for _, id := range c.nodeIDs {
			r := c.rackOf[id]
			if _, ok := racks[r]; !ok {
				rackOrder = append(rackOrder, r)
			}
			racks[r] = append(racks[r], id)
		}
		c.rng.Shuffle(len(rackOrder), func(i, j int) { rackOrder[i], rackOrder[j] = rackOrder[j], rackOrder[i] })
		for _, r := range rackOrder {
			if len(victims) >= want {
				break
			}
			victims = append(victims, racks[r]...)
		}
		if len(victims) > want {
			victims = victims[:want]
		}
	} else {
		perm := c.rng.Perm(len(c.nodeIDs))
		for _, i := range perm[:want] {
			victims = append(victims, c.nodeIDs[i])
		}
	}
	c.FailNodes(victims...)
	return victims
}

// liveNodes returns the nodes not currently failed, in creation order.
func (c *Cluster) liveNodes() []ring.NodeID {
	live := make([]ring.NodeID, 0, len(c.nodeIDs))
	for _, id := range c.nodeIDs {
		if !c.net.Failed(id) {
			live = append(live, id)
		}
	}
	return live
}

// AliveCount returns the number of live nodes.
func (c *Cluster) AliveCount() int { return len(c.liveNodes()) }

// AvailableFilterFraction returns the fraction of registered filters with
// at least one live holder — the availability metric of Figure 9(d).
func (c *Cluster) AvailableFilterFraction() float64 {
	c.placementMu.RLock()
	defer c.placementMu.RUnlock()
	if len(c.filterHolders) == 0 {
		return 1
	}
	avail := 0
	for _, holders := range c.filterHolders {
		for _, h := range holders {
			if !c.net.Failed(h) {
				avail++
				break
			}
		}
	}
	return float64(avail) / float64(len(c.filterHolders))
}

// HomeNode resolves the home node of a term.
func (c *Cluster) HomeNode(term string) (ring.NodeID, error) { return c.ring.HomeNode(term) }

// RackOf returns the rack of a node.
func (c *Cluster) RackOf(id ring.NodeID) string { return c.rackOf[id] }

// TotalFilters returns the number of registered filters.
func (c *Cluster) TotalFilters() int { return int(c.filterSeq.Load()) }

// TotalDocs returns the number of published documents.
func (c *Cluster) TotalDocs() int { return int(c.docSeq.Load()) }

// withTimeout wraps a context for internal control RPCs with the
// configured ControlTimeout.
func (c *Cluster) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, c.cfg.ControlTimeout)
}
