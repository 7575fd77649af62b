// Package daemon assembles one MOVE server — ring member, inverted-list home,
// optional subscriber hub, gossip peer and debug endpoint — in the one order
// cmd/moved, the in-process cluster and the TCP test clusters share.
package daemon

import (
	"context"
	"log/slog"
	"net"
	"runtime"
	"time"

	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/gossip"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/store"
	"github.com/movesys/move/internal/transport"
)

// Config describes one server.
type Config struct {
	// ID and Rack place the node in Ring, the cluster view it routes by.
	ID   ring.NodeID
	Rack string
	Ring *ring.Ring
	// Dir is the data directory, whose commit log is replayed at start: an
	// answered register, migrate or unregister is on disk. "" keeps nothing.
	Dir string
	// Resilience is the retry/breaker policy of the node's outbound RPCs.
	Resilience resilience.Policy
	// Delivery, when set, gives the node a session hub on the daemon's
	// registry and makes it route the deliveries of the documents it enters;
	// SubscribeAddr, when also set, is where subscribers connect to it.
	Delivery      *delivery.Config
	SubscribeAddr string
	// Gossip, when set, runs a gossiper with these settings, its table seeded
	// with Peers; Self.ID, Self.Rack, Send and the hooks are the daemon's.
	Gossip *gossip.Config
	Peers  []gossip.Member
	// Fault, when set, injects faults on the node's data path.
	Fault *transport.FaultConfig
	// DebugAddr, when set, serves /metrics, /trace/last, /healthz and
	// /debug/pprof. Info is /healthz's static metadata, read once the RPC
	// listener is up; Health adds the caller's live keys.
	DebugAddr string
	Info      map[string]string
	Health    func(h map[string]any)
	// Seed, OnDeliveryLoss and OnTransfer go to node.Config.
	Seed           int64
	OnDeliveryLoss func(docID uint64, subs []string)
	OnTransfer     func(from, to ring.NodeID)
	// Metrics receives the counters of the node, its executor and its hub;
	// nil creates a private registry.
	Metrics *metrics.Registry
}

// Daemon is a running server. Hub, Gossip, Sub (the subscriber listener)
// and Debug (the debug endpoint's listener) are nil when not configured.
type Daemon struct {
	Node   *node.Node
	Hub    *delivery.Hub
	Gossip *gossip.Gossiper
	Exec   *resilience.Executor
	Sub    *delivery.Server
	Debug  net.Listener

	store *store.Store
	tr    transport.Transport // what listen returned
	debug *debugServer
}

// Start builds the server and brings it up. listen makes the RPC transport
// serving the handler it is given; Start calls it once the node can answer
// every frame, gossip digests included. If a step fails, Start closes what
// it built.
func Start(cfg Config, listen func(transport.Handler) (transport.Transport, error)) (_ *Daemon, err error) {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	st, err := store.Open(cfg.Dir, store.Options{})
	if err != nil {
		return nil, err
	}
	if st.Durable() {
		r := st.Replayed()
		slog.Info("replayed log", "node", cfg.ID, "records", r.Records, "bytes", r.Bytes)
		if r.Truncated > 0 {
			slog.Warn("cut a torn log tail", "node", cfg.ID, "bytes", r.Truncated)
		}
	}
	d := &Daemon{store: st}
	defer func() {
		if err != nil {
			_ = d.Close()
		}
	}()
	d.Exec = resilience.New(cfg.Resilience, cfg.Metrics)
	if cfg.Delivery != nil {
		dcfg := *cfg.Delivery
		dcfg.Metrics = cfg.Metrics
		d.Hub = delivery.NewHub(dcfg)
	}

	// The gossiper exists before the listener can accept: a peer's digest
	// may arrive the moment it does, long before the gossip loop starts. Its
	// Send runs only from that loop, after d.tr is set.
	var gossipHandle node.GossipHandler
	if cfg.Gossip != nil {
		gcfg := *cfg.Gossip
		gcfg.Self.ID, gcfg.Self.Rack = cfg.ID, cfg.Rack
		gcfg.Send = func(ctx context.Context, to ring.NodeID, digest []byte) ([]byte, error) {
			return d.tr.Send(ctx, to, node.EncodeGossip(digest))
		}
		gcfg.OnJoin = func(m gossip.Member) { slog.Info("peer joined", "node", cfg.ID, "peer", m.ID, "addr", m.Addr) }
		gcfg.OnLeave = func(dead ring.NodeID) { slog.Warn("peer declared dead", "node", cfg.ID, "peer", dead) }
		// The daemon runs no coordinator: the record is the signal an
		// operator's coordinator would act on.
		gcfg.OnChange = func() { slog.Info("membership changed; reallocation advised", "node", cfg.ID) }
		if d.Gossip, err = gossip.New(gcfg); err != nil {
			return nil, err
		}
		d.Gossip.SeedPeers(cfg.Peers...)
		gossipHandle = d.Gossip.Handle
	}

	d.Node, err = node.New(node.Config{
		ID:              cfg.ID,
		Rack:            cfg.Rack,
		Ring:            cfg.Ring,
		Store:           d.store,
		Seed:            cfg.Seed,
		Gossip:          gossipHandle,
		Delivery:        d.Hub,
		RouteDeliveries: d.Hub != nil,
		OnDeliveryLoss:  cfg.OnDeliveryLoss,
		OnTransfer:      cfg.OnTransfer,
		Resilience:      d.Exec,
		Metrics:         cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if d.tr, err = listen(d.Node.Handle); err != nil {
		return nil, err
	}
	// Node RPCs go through the fault decorator; gossip stays on the raw
	// transport so the failure detector sees the real network.
	dataPath := d.tr
	if cfg.Fault != nil {
		dataPath = transport.NewFaulty(d.tr, *cfg.Fault)
	}
	d.Node.Attach(dataPath)

	if d.Hub != nil && cfg.SubscribeAddr != "" {
		ln, err := net.Listen("tcp", cfg.SubscribeAddr)
		if err != nil {
			return nil, err
		}
		d.Sub = delivery.Serve(ln, d.Hub, 5*time.Second)
		slog.Info("subscriber sessions up", "node", cfg.ID, "addr", d.Sub.Addr().String(), "shards", d.Hub.Shards())
	}
	if cfg.DebugAddr != "" {
		if err = d.serveDebug(cfg.DebugAddr, cfg.Metrics, cfg.Info, cfg.Health); err != nil {
			return nil, err
		}
		slog.Info("debug server up", "node", cfg.ID, "addr", "http://"+d.Debug.Addr().String(), "paths", "/metrics /trace/last /healthz /debug/pprof")
	}
	if d.Gossip != nil {
		d.Gossip.Start()
	}
	return d, nil
}

// health is the daemon's /healthz answer: the node's epochs and filters, the
// process's goroutines (a reader or a handler stranded after a burst shows
// here), the hub's sessions, the live membership, then the caller's keys.
func (d *Daemon) health(extra func(map[string]any)) map[string]any {
	committed, pending, dual := d.Node.EpochInfo()
	h := map[string]any{"epoch": committed, "dual_read": dual, "filters": d.Node.Stats().Filters, "goroutines": runtime.NumGoroutine()}
	if pending != 0 {
		h["pending_epoch"] = pending
	}
	if d.Hub != nil {
		h["delivery_sessions"] = d.Hub.SessionCount()
		h["delivery_pending"] = d.Hub.Pending()
		h["delivery_shards"] = d.Hub.Shards()
		h["delivery_shard_sessions"] = d.Hub.ShardSessions()
	}
	if d.Gossip != nil {
		h["members_alive"] = len(d.Gossip.Members())
	}
	if extra != nil {
		extra(h)
	}
	return h
}

// Close stops the server in the reverse of Start's order, then closes the
// data directory's log. Every answered write is already on disk; the log is
// closed last so the handlers in flight, which the transport's Close waits
// for, can still write it. Safe to call more than once.
func (d *Daemon) Close() error {
	if d.Gossip != nil {
		d.Gossip.Stop()
	}
	if d.debug != nil {
		d.debug.close()
	}
	if d.tr != nil {
		_ = d.tr.Close()
	}
	if d.Sub != nil {
		_ = d.Sub.Close()
	}
	if d.Hub != nil {
		d.Hub.Stop()
	}
	return d.store.Close()
}
