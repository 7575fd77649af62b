// Command moved runs one MOVE server node over real TCP — the deployment
// mode of the system (the in-process cluster used by the benchmarks lives
// behind the same node implementation).
//
// A three-node cluster on one machine:
//
//	moved -id n0 -listen 127.0.0.1:7000 -peers n0=127.0.0.1:7000,n1=127.0.0.1:7001,n2=127.0.0.1:7002 &
//	moved -id n1 -listen 127.0.0.1:7001 -peers n0=127.0.0.1:7000,n1=127.0.0.1:7001,n2=127.0.0.1:7002 &
//	moved -id n2 -listen 127.0.0.1:7002 -peers n0=127.0.0.1:7000,n1=127.0.0.1:7001,n2=127.0.0.1:7002 &
//
// then drive it with movectl.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/movesys/move/internal/debugserver"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/gossip"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/store"
	"github.com/movesys/move/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "moved: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	id := flag.String("id", "", "node id (must appear in -peers)")
	listen := flag.String("listen", "", "listen address host:port")
	peersFlag := flag.String("peers", "", "comma-separated id=host:port cluster map")
	rack := flag.String("rack", "rack-0", "rack label for placement")
	dir := flag.String("dir", "", "data directory, flushed to on a clean shutdown and read back at start ('' = in-memory, nothing kept)")
	gossipEvery := flag.Duration("gossip", time.Second, "gossip interval")
	debugAddr := flag.String("debug.addr", "", "debug HTTP listen address serving /metrics, /trace/last, /healthz and /debug/pprof ('' = disabled)")

	subAddr := flag.String("subscribe.addr", "", "subscriber session listen address host:port ('' = no delivery hub: routed deliveries are refused)")
	subPolicy := flag.String("subscribe.policy", "drop-oldest", "slow-consumer policy: drop-oldest, coalesce-by-doc, disconnect")
	subQueue := flag.Int("subscribe.queue", 256, "per-subscriber delivery queue bound")
	subHeartbeat := flag.Duration("subscribe.heartbeat", 5*time.Second, "subscriber session ping interval (idle timeout is 4x)")
	subShards := flag.Int("subscribe.shards", delivery.DefaultShards, "session registry shard count (rounded up to a power of two)")

	rpcConns := flag.Int("rpc.conns", 0, "striped TCP connections per peer (0 = derive from GOMAXPROCS)")

	retryAttempts := flag.Int("retry-attempts", 3, "max RPC attempts per destination (1 disables retries)")
	retryBase := flag.Duration("retry-base", 25*time.Millisecond, "base retry backoff (doubles per attempt, full jitter)")
	retryMax := flag.Duration("retry-max", time.Second, "backoff cap")
	rpcTimeout := flag.Duration("rpc-timeout", 2*time.Second, "per-attempt RPC timeout (0 = none)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures before a peer's circuit opens")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open-circuit cooldown before a half-open probe")

	faultDrop := flag.Float64("fault-drop", 0, "injected probability of dropping an outbound RPC (testing)")
	faultError := flag.Float64("fault-error", 0, "injected probability of losing an RPC response after delivery (testing)")
	faultDup := flag.Float64("fault-dup", 0, "injected probability of duplicating an outbound RPC (testing)")
	faultDelay := flag.Float64("fault-delay", 0, "injected probability of delaying an outbound RPC (testing)")
	faultDelayFor := flag.Duration("fault-delay-for", time.Millisecond, "injected delay duration")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection RNG seed")
	flag.Parse()

	if *id == "" || *listen == "" {
		return fmt.Errorf("-id and -listen are required")
	}
	peers, err := transport.ParsePeers(*peersFlag)
	if err != nil {
		return err
	}
	if _, ok := peers[ring.NodeID(*id)]; !ok {
		peers[ring.NodeID(*id)] = *listen
	}

	// Static ring from the peer table. Rack labels default to the local
	// rack for the local node and rack-0 for others; a production
	// deployment would carry racks in the peer table.
	r := ring.New(ring.Config{})
	for pid := range peers {
		prack := "rack-0"
		if pid == ring.NodeID(*id) {
			prack = *rack
		}
		if err := r.Add(ring.Member{ID: pid, Rack: prack}); err != nil {
			return err
		}
	}

	st, err := store.Open(*dir, store.Options{})
	if err != nil {
		return err
	}

	reg := metrics.NewRegistry()
	exec := resilience.New(resilience.Policy{
		MaxAttempts:      *retryAttempts,
		BaseDelay:        *retryBase,
		MaxDelay:         *retryMax,
		AttemptTimeout:   *rpcTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Retryable:        transport.IsAvailabilityError,
	}, reg)

	// The delivery tier: a session hub for subscribers whose home node is
	// this one, fed by deliver-batch RPCs from publishing entry nodes.
	var hub *delivery.Hub
	if *subAddr != "" {
		policy, err := delivery.ParsePolicy(*subPolicy)
		if err != nil {
			return err
		}
		hub = delivery.NewHub(delivery.Config{
			QueueCap:       *subQueue,
			Policy:         policy,
			Shards:         *subShards,
			HeartbeatEvery: *subHeartbeat,
			Metrics:        reg,
		})
		defer hub.Stop()
	}

	// The gossiper exists before anything can deliver a frame to it: a peer's
	// digest may arrive the moment the listener below accepts, long before
	// Start. Its Send closure runs only from Start's loop, after tn is set.
	var tn *transport.TCPNode
	g, err := gossip.New(gossip.Config{
		Self:     gossip.Member{ID: ring.NodeID(*id), Rack: *rack, Addr: *listen},
		Interval: *gossipEvery,
		Send: func(ctx context.Context, to ring.NodeID, digest []byte) ([]byte, error) {
			return tn.Send(ctx, to, node.EncodeGossip(digest))
		},
		OnJoin: func(m gossip.Member) {
			fmt.Printf("moved: peer %s joined (%s)\n", m.ID, m.Addr)
		},
		OnLeave: func(dead ring.NodeID) {
			fmt.Printf("moved: peer %s declared dead\n", dead)
		},
		// Membership changes should trigger a reallocation round; moved has
		// no embedded coordinator, so log the signal an operator's
		// coordinator would consume.
		OnChange: func() {
			fmt.Printf("moved: membership changed; reallocation advised\n")
		},
	})
	if err != nil {
		return err
	}
	seeds := make([]gossip.Member, 0, len(peers))
	for pid, addr := range peers {
		if pid == ring.NodeID(*id) {
			continue
		}
		seeds = append(seeds, gossip.Member{ID: pid, Addr: addr})
	}
	g.SeedPeers(seeds...)

	nd, err := node.New(node.Config{
		ID:              ring.NodeID(*id),
		Rack:            *rack,
		Ring:            r,
		Store:           st,
		Resilience:      exec,
		Metrics:         reg,
		Delivery:        hub,
		RouteDeliveries: *subAddr != "",
		Gossip:          g.Handle,
	})
	if err != nil {
		return err
	}

	if hub != nil {
		ln, err := net.Listen("tcp", *subAddr)
		if err != nil {
			return err
		}
		subSrv := delivery.Serve(ln, hub, 5*time.Second)
		defer func() {
			_ = subSrv.Close()
		}()
		fmt.Printf("moved: subscriber sessions on %s (policy=%s queue=%d shards=%d)\n", subSrv.Addr(), *subPolicy, *subQueue, hub.Shards())
	}

	tn, err = transport.NewTCPOpts(ring.NodeID(*id), *listen, nd.Handle, transport.StaticResolver(peers), transport.TCPOptions{
		Conns:   *rpcConns,
		Metrics: reg,
	})
	if err != nil {
		return err
	}
	defer func() {
		_ = tn.Close()
	}()

	// Node RPCs go through the (optionally fault-injecting) decorated
	// transport; gossip stays on the raw one so the failure detector sees
	// the real network, not the injected one.
	var dataPath transport.Transport = tn
	probs := transport.FaultProbs{
		Drop: *faultDrop, Error: *faultError, Duplicate: *faultDup,
		Delay: *faultDelay, DelayFor: *faultDelayFor,
	}
	if *faultDrop > 0 || *faultError > 0 || *faultDup > 0 || *faultDelay > 0 {
		dataPath = transport.NewFaulty(tn, transport.FaultConfig{Seed: *faultSeed, Default: probs})
		fmt.Printf("moved: fault injection on (drop=%.3f error=%.3f dup=%.3f delay=%.3f seed=%d)\n",
			*faultDrop, *faultError, *faultDup, *faultDelay, *faultSeed)
	}
	nd.Attach(dataPath)

	if *debugAddr != "" {
		ds, err := debugserver.Start(debugserver.Config{
			Addr:     *debugAddr,
			Registry: reg,
			Traces:   nd.Traces(),
			Info:     map[string]string{"id": *id, "rack": *rack, "listen": tn.Addr()},
			Health: func() map[string]any {
				committed, pending, dual := nd.EpochInfo()
				h := map[string]any{
					"epoch":     committed,
					"dual_read": dual,
					"filters":   nd.Stats().Filters,
				}
				if pending != 0 {
					h["pending_epoch"] = pending
				}
				ts := tn.Stats()
				h["transport_peers"] = ts.Peers
				h["transport_conns"] = ts.Conns
				h["transport_inbound"] = ts.Inbound
				h["transport_queued_bytes"] = ts.QueuedBytes
				if len(ts.PerPeer) > 0 {
					h["transport_peer_conns"] = ts.PerPeer
				}
				if hub != nil {
					h["delivery_sessions"] = hub.SessionCount()
					h["delivery_pending"] = hub.Pending()
					h["delivery_shards"] = hub.Shards()
					h["delivery_shard_sessions"] = hub.ShardSessions()
				}
				h["members_alive"] = len(g.Members())
				return h
			},
		})
		if err != nil {
			return err
		}
		defer ds.Close()
		fmt.Printf("moved: debug server on http://%s (/metrics /trace/last /healthz /debug/pprof)\n", ds.Addr())
	}

	g.Start()
	defer g.Stop()

	fmt.Printf("moved: node %s listening on %s (%d peers)\n", *id, tn.Addr(), len(peers))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	snap := reg.Snapshot()
	fmt.Printf("moved: shutting down (retries=%d giveups=%d breaker.open=%d failovers=%d)\n",
		snap["rpc.retries"], snap["rpc.giveups"], snap["breaker.open"], snap["publish.failover"])
	// There is no write-ahead log: what -dir keeps of the writes since the
	// last flush is what this writes out. The listener closes first — Close
	// waits for the handlers in flight — so every acknowledged write is in.
	_ = tn.Close()
	if err := st.FlushAll(); err != nil {
		return fmt.Errorf("flush %s: %w", *dir, err)
	}
	return nil
}
