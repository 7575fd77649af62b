// Package move is a keyword-based content filtering and dissemination
// system for clusters of commodity machines — a from-scratch Go
// implementation of "Move: A Large Scale Keyword-based Content Filtering
// and Dissemination System" (Rao, Chen, Hui, Tarkoma — ICDCS 2012).
//
// Users register keyword filters; publishers inject documents; the system
// matches every fresh document against all registered filters and pushes it
// to matching subscribers. Internally, filters are spread over a
// Dynamo/Cassandra-style consistent-hash ring as a distributed inverted
// list, and an adaptive allocation scheme replicates and separates hot
// filter sets across nodes to maximize matching throughput under a storage
// budget (the paper's §IV optimization).
//
// Quick start:
//
//	c, err := move.NewCluster(move.Config{Nodes: 8})
//	...
//	defer c.Close()
//	sub, err := c.Subscribe("alice", "breaking news")
//	_, err = c.Publish("Breaking news: gophers ship a pub/sub system")
//	n := <-sub.C // Notification for alice
package move

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/movesys/move/internal/cluster"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/text"
	"github.com/movesys/move/internal/trace"
)

// Scheme selects the dissemination system.
type Scheme int

// Available schemes. SchemeMove (the default) enables adaptive filter
// allocation; SchemeIL and SchemeRS are the paper's baselines, exposed for
// comparison and benchmarking.
const (
	// SchemeMove is the full system with adaptive filter allocation.
	SchemeMove Scheme = iota + 1
	// SchemeIL is the distributed inverted list without allocation.
	SchemeIL
	// SchemeRS is the rendezvous (flooding) baseline.
	SchemeRS
)

// MatchMode selects per-filter matching semantics.
type MatchMode int

// Matching semantics: MatchAny (the paper's boolean model) fires when any
// filter term occurs in the document; MatchAll requires all terms.
const (
	// MatchAny fires when at least one filter term appears.
	MatchAny MatchMode = iota + 1
	// MatchAll fires when every filter term appears.
	MatchAll
)

// Placement selects where allocated filter replicas go.
type Placement int

// Placement strategies (§V): PlacementHybrid (default) takes half ring
// successors, half rack-local peers, trading throughput against
// availability; the pure variants are exposed for experiments.
const (
	// PlacementRing uses consistent-hash ring successors.
	PlacementRing Placement = iota + 1
	// PlacementRack uses rack-local peers.
	PlacementRack
	// PlacementHybrid mixes both (the paper's choice).
	PlacementHybrid
)

// Config parameterizes an embedded cluster.
type Config struct {
	// Nodes is the cluster size. Required.
	Nodes int
	// Scheme defaults to SchemeMove.
	Scheme Scheme
	// RackSize is the number of nodes per rack (default 5).
	RackSize int
	// Capacity is the per-node filter capacity C used by the allocation
	// optimizer (default 3,000,000 as in the paper's evaluation).
	Capacity int
	// Placement defaults to PlacementHybrid.
	Placement Placement
	// SubscriptionBuffer is each subscription channel's capacity (default
	// 128). When a subscriber does not drain its channel, further
	// notifications for it are dropped and counted (Subscription.Dropped).
	SubscriptionBuffer int
	// Seed makes the embedded cluster deterministic (default 1).
	Seed int64
}

// Notification is one delivered document.
type Notification struct {
	// DocID identifies the published document.
	DocID uint64
	// Terms is the document's preprocessed term set.
	Terms []string
	// FilterID identifies the matching filter.
	FilterID uint64
	// Subscriber echoes the subscription owner.
	Subscriber string
}

// Subscription is a registered filter plus its delivery channel.
type Subscription struct {
	// ID is the cluster-wide filter ID.
	ID uint64
	// Subscriber is the owner name.
	Subscriber string
	// Terms is the preprocessed filter term set.
	Terms []string
	// C receives notifications. A notification reaches it through the
	// subscriber's delivery session, so it may arrive after the Publish
	// that matched it has returned.
	C <-chan Notification

	ch      chan Notification
	dropped atomic.Int64
}

// Dropped returns how many notifications were discarded because the
// channel was full. What the subscriber's delivery session shed before
// the channel is counted in Cluster.Metrics (delivery.drops.oldest).
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// PublishReceipt summarizes one publication.
type PublishReceipt struct {
	// DocID is the assigned document ID.
	DocID uint64
	// Matched is the number of distinct filters that matched.
	Matched int
	// Complete is false when node failures prevented finding all matches.
	Complete bool
	// Degraded is true when some allocation-grid columns had no live
	// replica in any partition row: the publish succeeded but Matched may
	// be missing that slice of the filter population.
	Degraded bool
	// ColumnsLost counts the unreachable grid columns behind Degraded.
	ColumnsLost int
	// Trace records the publish path — the hop sequence (entry → home
	// nodes → grid columns, failovers included) and per-stage wall times.
	Trace trace.Summary
}

// Cluster is an embedded MOVE deployment. Every node runs a delivery hub,
// and every subscriber name has a session on each of them: the session on
// the name's ring owner receives its notifications, the others stand by
// for when a failure re-homes the name.
type Cluster struct {
	inner *cluster.Cluster
	cfg   Config

	mu    sync.RWMutex
	subs  map[uint64]*Subscription
	names map[string]struct{} // subscriber names with attached sessions
}

// Errors returned by the public API.
var (
	// ErrEmptyQuery reports a subscription or document whose text contains
	// no indexable terms after preprocessing.
	ErrEmptyQuery = errors.New("move: no indexable terms")
	// ErrBadConfig reports unusable configuration.
	ErrBadConfig = errors.New("move: invalid config")
)

// NewCluster boots an embedded cluster of in-process nodes.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("%w: Nodes=%d", ErrBadConfig, cfg.Nodes)
	}
	if cfg.Scheme == 0 {
		cfg.Scheme = SchemeMove
	}
	if cfg.SubscriptionBuffer == 0 {
		cfg.SubscriptionBuffer = 128
	}
	// No heartbeat: an in-process connection sends no inbound traffic, so
	// the hub's idle janitor would detach it.
	inner, err := cluster.New(cluster.Config{
		Scheme:    cluster.Scheme(cfg.Scheme),
		Nodes:     cfg.Nodes,
		RackSize:  cfg.RackSize,
		Capacity:  cfg.Capacity,
		Placement: ring.Placement(cfg.Placement),
		Seed:      cfg.Seed,
		Delivery:  &delivery.Config{},
	})
	if err != nil {
		return nil, fmt.Errorf("move: boot cluster: %w", err)
	}
	return &Cluster{inner: inner, cfg: cfg, subs: make(map[uint64]*Subscription), names: make(map[string]struct{})}, nil
}

// Close stops the cluster's nodes and their delivery hubs. Notifications
// not yet handed to a channel are discarded.
func (c *Cluster) Close() { c.inner.Close() }

// sessionConn is a subscriber name's connection to one node's hub: it
// hands each event to the channels of the name's subscriptions, never
// blocking on a full one, and acks the batch at once.
type sessionConn struct {
	c   *Cluster
	hub *delivery.Hub
	sub string
}

func (sc *sessionConn) SendHello(delivery.HelloInfo) error { return nil }
func (sc *sessionConn) SendPing() error                    { return nil }
func (sc *sessionConn) SendBye(string) error               { return nil }
func (sc *sessionConn) Close() error                       { return nil }

func (sc *sessionConn) SendEvents(evs []*delivery.Event) error {
	sc.c.mu.RLock()
	for _, ev := range evs {
		for _, id := range ev.Filters {
			sub, ok := sc.c.subs[uint64(id)]
			if !ok {
				continue
			}
			// The hub recycles its events: the notification owns a copy.
			n := Notification{DocID: ev.DocID, Terms: slices.Clone(ev.Terms), FilterID: uint64(id), Subscriber: sc.sub}
			select {
			case sub.ch <- n:
			default:
				sub.dropped.Add(1)
			}
		}
	}
	sc.c.mu.RUnlock()
	sc.hub.Ack(sc.sub, evs[len(evs)-1].Seq)
	return nil
}

// SubscribeOptions tweaks one subscription.
type SubscribeOptions struct {
	// Mode defaults to MatchAny.
	Mode MatchMode
}

// Subscribe registers a keyword filter from raw text ("breaking news")
// using the full preprocessing pipeline (lower-casing, stop-word removal,
// Porter stemming).
func (c *Cluster) Subscribe(subscriber, query string, opts ...SubscribeOptions) (*Subscription, error) {
	terms := text.Terms(query, text.Options{})
	return c.SubscribeTerms(subscriber, terms, opts...)
}

// SubscribeTerms registers a filter from preprocessed terms.
func (c *Cluster) SubscribeTerms(subscriber string, terms []string, opts ...SubscribeOptions) (*Subscription, error) {
	if len(terms) == 0 {
		return nil, ErrEmptyQuery
	}
	opt := SubscribeOptions{Mode: MatchAny}
	if len(opts) > 0 {
		opt = opts[0]
		if opt.Mode == 0 {
			opt.Mode = MatchAny
		}
	}
	id, err := c.inner.Register(context.Background(), subscriber, terms, model.MatchMode(opt.Mode))
	if err != nil {
		return nil, fmt.Errorf("move: subscribe: %w", err)
	}
	ch := make(chan Notification, c.cfg.SubscriptionBuffer)
	sub := &Subscription{
		ID:         uint64(id),
		Subscriber: subscriber,
		Terms:      append([]string(nil), terms...),
		C:          ch,
		ch:         ch,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs[uint64(id)] = sub
	if _, ok := c.names[subscriber]; !ok {
		c.names[subscriber] = struct{}{}
		// Attached on every hub, the session is already in place on
		// whichever node a failure makes the name's owner.
		c.inner.EachDeliveryHub(func(_ ring.NodeID, h *delivery.Hub) {
			// An in-process hello cannot fail.
			_, _, _ = h.Attach(subscriber, &sessionConn{c: c, hub: h, sub: subscriber}, 0)
		})
	}
	return sub, nil
}

// Unsubscribe removes the subscription's delivery channel and deletes the
// filter from every node holding it.
func (c *Cluster) Unsubscribe(sub *Subscription) {
	c.mu.Lock()
	delete(c.subs, sub.ID)
	c.mu.Unlock()
	// Best-effort cluster-wide removal; a dead holder drops the definition
	// with its store anyway.
	_ = c.inner.Unregister(context.Background(), model.FilterID(sub.ID))
}

// Publish disseminates raw content text through the full preprocessing
// pipeline.
func (c *Cluster) Publish(content string) (PublishReceipt, error) {
	terms := text.Terms(content, text.Options{})
	return c.PublishTerms(terms)
}

// PublishTerms disseminates a preprocessed term set. Its notifications are
// routed to each matched subscriber's session owner, one RPC per distinct
// owner, before it returns; they reach the subscription channels
// asynchronously.
func (c *Cluster) PublishTerms(terms []string) (PublishReceipt, error) {
	if len(terms) == 0 {
		return PublishReceipt{}, ErrEmptyQuery
	}
	res, err := c.inner.Publish(context.Background(), terms)
	if err != nil {
		return PublishReceipt{}, fmt.Errorf("move: publish: %w", err)
	}
	return PublishReceipt{
		DocID:       res.DocID,
		Matched:     len(res.Matches),
		Complete:    res.Complete,
		Degraded:    res.Degraded,
		ColumnsLost: res.ColumnsLost,
		Trace:       res.Trace,
	}, nil
}

// Metrics snapshots the cluster's counters: the resilience ones
// (rpc.retries, rpc.giveups, breaker.open, breaker.fastfail,
// publish.failover, publish.degraded) and the delivery tier's — among them
// delivery.drops.oldest (notifications a subscriber session shed) and
// delivery.route.lost (notifications whose session owner could not be
// reached).
func (c *Cluster) Metrics() map[string]int64 {
	return c.inner.Metrics().Snapshot()
}

// Allocate runs one §IV allocation round: the coordinator aggregates node
// statistics, solves the MOVE optimization problem, and migrates hot filter
// sets onto allocation grids. Requires SchemeMove. Call it after the
// initial registration burst (proactive policy) and periodically as
// publication statistics accumulate.
func (c *Cluster) Allocate(ctx context.Context) error {
	_, err := c.inner.Allocate(ctx)
	if err != nil {
		return fmt.Errorf("move: allocate: %w", err)
	}
	return nil
}

// RefreshBloom rebuilds and installs the global filter-term Bloom filter
// that prunes dissemination fan-out (§V). Call after registration bursts.
func (c *Cluster) RefreshBloom(ctx context.Context) error {
	if err := c.inner.RefreshBloom(ctx); err != nil {
		return fmt.Errorf("move: refresh bloom: %w", err)
	}
	return nil
}

// Stats is a cluster-level summary.
type Stats struct {
	// Nodes is the cluster size; Alive how many are up.
	Nodes, Alive int
	// Filters and Docs count registrations and publications.
	Filters, Docs int
	// AvailableFilters is the fraction of filters with a live replica.
	AvailableFilters float64
}

// Stats snapshots the cluster.
func (c *Cluster) Stats() Stats {
	return Stats{
		Nodes:            c.inner.Size(),
		Alive:            c.inner.AliveCount(),
		Filters:          c.inner.TotalFilters(),
		Docs:             c.inner.TotalDocs(),
		AvailableFilters: c.inner.AvailableFilterFraction(),
	}
}

// FailNodes crashes n random nodes (failure-injection for tests and the
// failover example); rackCorrelated fails whole racks at a time. Returns
// how many nodes were crashed.
func (c *Cluster) FailNodes(fraction float64, rackCorrelated bool) int {
	return len(c.inner.FailFraction(fraction, rackCorrelated))
}
