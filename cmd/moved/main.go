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

// rpcPolicy is every outbound RPC's retry and breaker policy: 3 attempts,
// backoff from 25 ms doubling to 1 s with full jitter, 2 s per attempt, and
// a peer's circuit open after 3 consecutive failures for 5 s.
var rpcPolicy = resilience.Policy{MaxAttempts: 3, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second,
	AttemptTimeout: 2 * time.Second, BreakerThreshold: 3, BreakerCooldown: 5 * time.Second, Retryable: transport.IsAvailabilityError}

// subHeartbeat is the subscriber session ping interval; a session with no
// inbound activity for 4 of them is detached.
const subHeartbeat = 5 * time.Second

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
		Resilience:    rpcPolicy,
		Gossip:        &gossip.Config{Self: gossip.Member{Addr: *listen}, Interval: *gossipEvery},
		Peers:         seeds,
		SubscribeAddr: *subAddr,
		DebugAddr:     *debugAddr,
		Info:          map[string]string{"id": *id, "rack": *rack},
	}
	if *subAddr != "" {
		// Queue bound and registry shards are the hub's defaults (256, 32).
		cfg.Delivery = &delivery.Config{HeartbeatEvery: subHeartbeat}
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
		if tn, err = transport.NewTCPOpts(self, *listen, h, transport.StaticResolver(peers), transport.TCPOptions{Metrics: reg}); err != nil {
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
