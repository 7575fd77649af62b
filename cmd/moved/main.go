// Command moved runs one MOVE server node over real TCP: its flags become the
// config of internal/daemon, the assembly the in-process cluster boots too.
// Logs are slog text records on stdout. One node of a three-node cluster
// (start n1 and n2 likewise, then drive the cluster with movectl):
//
//	moved -id n0 -listen 127.0.0.1:7000 -peers n0=127.0.0.1:7000,n1=127.0.0.1:7001,n2=127.0.0.1:7002 &
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/movesys/move/internal/daemon"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/gossip"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/ring"
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
	dir := flag.String("dir", "", "data directory: an answered register, migrate or unregister is in its commit log, replayed at start ('' = in-memory, nothing kept)")
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
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stdout, nil)))

	if *id == "" || *listen == "" {
		return fmt.Errorf("-id and -listen are required")
	}
	self := ring.NodeID(*id)
	peers, err := transport.ParsePeers(*peersFlag)
	if err != nil {
		return err
	}
	if _, ok := peers[self]; !ok {
		peers[self] = *listen
	}
	// Static ring from the peer table: the local node on -rack, the others on
	// rack-0 (a production deployment would carry racks in the peer table).
	r := ring.New(ring.Config{})
	var seeds []gossip.Member
	for pid, addr := range peers {
		prack := "rack-0"
		if pid == self {
			prack = *rack
		} else {
			seeds = append(seeds, gossip.Member{ID: pid, Addr: addr})
		}
		if err := r.Add(ring.Member{ID: pid, Rack: prack}); err != nil {
			return err
		}
	}

	reg := metrics.NewRegistry()
	cfg := daemon.Config{
		ID: self, Rack: *rack, Ring: r, Dir: *dir, Metrics: reg,
		Resilience: resilience.Policy{MaxAttempts: *retryAttempts, BaseDelay: *retryBase, MaxDelay: *retryMax, AttemptTimeout: *rpcTimeout,
			BreakerThreshold: *breakerThreshold, BreakerCooldown: *breakerCooldown, Retryable: transport.IsAvailabilityError},
		Gossip:        &gossip.Config{Self: gossip.Member{Addr: *listen}, Interval: *gossipEvery},
		Peers:         seeds,
		SubscribeAddr: *subAddr,
		DebugAddr:     *debugAddr,
		Info:          map[string]string{"id": *id, "rack": *rack},
	}
	if *subAddr != "" {
		policy, err := delivery.ParsePolicy(*subPolicy)
		if err != nil {
			return err
		}
		cfg.Delivery = &delivery.Config{QueueCap: *subQueue, Policy: policy, Shards: *subShards, HeartbeatEvery: *subHeartbeat}
	}
	if *faultDrop > 0 || *faultError > 0 || *faultDup > 0 || *faultDelay > 0 {
		cfg.Fault = &transport.FaultConfig{Seed: *faultSeed, Default: transport.FaultProbs{Drop: *faultDrop, Error: *faultError,
			Duplicate: *faultDup, Delay: *faultDelay, DelayFor: *faultDelayFor}}
		slog.Info("fault injection on", "node", self, "drop", *faultDrop, "error", *faultError, "dup", *faultDup, "delay", *faultDelay, "seed", *faultSeed)
	}
	var tn *transport.TCPNode
	cfg.Health = func(h map[string]any) {
		ts := tn.Stats()
		h["transport_peers"], h["transport_conns"], h["transport_inbound"], h["transport_queued_bytes"] = ts.Peers, ts.Conns, ts.Inbound, ts.QueuedBytes
		if len(ts.PerPeer) > 0 {
			h["transport_peer_conns"] = ts.PerPeer
		}
	}
	d, err := daemon.Start(cfg, func(h transport.Handler) (_ transport.Transport, err error) {
		if tn, err = transport.NewTCPOpts(self, *listen, h, transport.StaticResolver(peers), transport.TCPOptions{Conns: *rpcConns, Metrics: reg}); err != nil {
			return nil, err
		}
		cfg.Info["listen"] = tn.Addr()
		return tn, nil
	})
	if err != nil {
		return err
	}
	slog.Info("listening on", "node", self, "addr", tn.Addr(), "peers", len(peers))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	snap := reg.Snapshot()
	slog.Info("shutting down", "node", self, "retries", snap["rpc.retries"], "giveups", snap["rpc.giveups"], "breaker.open", snap["breaker.open"], "failovers", snap["publish.failover"])
	return d.Close()
}
