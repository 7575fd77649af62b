package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// wireReport is the JSON document `movebench -fig wire` writes — the first
// figure in the repo measured over real sockets instead of memnet. The
// harness launches opts.Nodes separate `moved` processes on loopback TCP,
// registers one filter per subscriber, attaches every subscriber as a live
// TCP delivery session, then drives concurrent batched publishes through
// the client's real TCP transport, verifying each document's match set and
// the full delivery fan-out against a brute-force posting-map oracle.
type wireReport struct {
	GeneratedBy string `json:"generated_by"`
	Nodes       int    `json:"nodes"`
	Subscribers int    `json:"subscribers"`
	Docs        int    `json:"docs"`
	Concurrency int    `json:"concurrency"`
	Seed        int64  `json:"seed"`
	// FlushDelayMS is the RPC writer coalescing window the daemons and the
	// bench client ran with
	// (0 = natural coalescing only: frames arriving during the previous
	// write share the next syscall).
	FlushDelayMS float64 `json:"flush_delay_ms"`

	// Coalesced keeps its key from when an uncoalesced configuration was
	// measured beside it (PR 10; EXPERIMENTS.md has that comparison): the
	// regression guard reads coalesced.docs_per_sec from the baseline file.
	Coalesced wireConfigReport `json:"coalesced"`
}

// wireConfigReport is the best measured round.
type wireConfigReport struct {
	DocsPerSec float64 `json:"docs_per_sec"`
	// PublishP50MS/P99MS time the full per-document pipeline over real
	// sockets: every home-node publish RPC plus every deliver-batch RPC.
	PublishP50MS float64 `json:"publish_p50_ms"`
	PublishP99MS float64 `json:"publish_p99_ms"`
	// RPCSyscallsPerDoc counts physical write syscalls on the RPC wire
	// (client plus every daemon, scraped from /metrics) per published
	// document; FramesPerSyscall is frames merged into each of them.
	RPCSyscallsPerDoc float64 `json:"rpc_syscalls_per_doc"`
	FramesPerSyscall  float64 `json:"frames_per_syscall"`
	FlushFrames       int64   `json:"flush_frames"`
	FlushSyscalls     int64   `json:"flush_syscalls"`
	// DeliveredEvents is the oracle-verified end-to-end fan-out per
	// measured round: every event that reached a live subscriber session
	// over TCP.
	DeliveredEvents int64 `json:"delivered_events"`
}

// wireOpts shapes one wire-figure run.
type wireOpts struct {
	Nodes       int
	Subs        int
	Docs        int
	Concurrency int           // concurrent publisher goroutines
	FlushDelay  time.Duration // RPC writer coalescing window (daemons and bench client)
	MovedBin    string        // prebuilt moved binary ("" = go build into a temp dir)
	Peers       string        // existing cluster map (multi-host mode): skip spawning and gates
}

// Acceptance gates for the checked-in loopback figure: the RPC writer must
// merge more than two frames per write syscall under concurrent batched
// publish, and the regression guard against -baseline allows 10% docs/sec
// drift.
const (
	wireFPSFloor  = 2.0
	wireTolerance = 0.10
)

const wireVocab = 2000

// wireRounds is how many times the document set is published; the best
// round is reported (see wireCluster.runRound).
const wireRounds = 2

// wireWorkload is the deterministic workload plus its brute-force oracle:
// per-document expected subscriber count and order-independent hash sum
// (FNV-1a over subscriber names, the delivery bench's scheme).
type wireWorkload struct {
	subs    []string
	filters [][]string // per-sub filter terms (one 2-term MatchAny filter each)
	docs    [][]string // per-doc terms (8 distinct uniform draws)

	expCount []int
	expHash  []uint64
	expTotal int64
}

// buildWireWorkload draws filter terms Zipf-skewed and document terms
// uniformly from a shared vocabulary — the paper's §VI.A observation that
// popular filter terms overlap only weakly with document bodies. The
// resulting per-document fan-out stays moderate, so the figure measures
// the RPC wire rather than raw session fan-out (which BENCH_delivery.json
// already covers at 1M-subscriber scale).
func buildWireWorkload(subs, docs int, seed int64) *wireWorkload {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, wireVocab-1)
	distinct := func(k int, draw func() uint64) []string {
		out := make([]string, 0, k)
		seen := map[string]bool{}
		for len(out) < k {
			t := fmt.Sprintf("term-%04d", draw())
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
		return out
	}
	zipfDraw := zipf.Uint64
	uniformDraw := func() uint64 { return uint64(rng.Intn(wireVocab)) }

	wl := &wireWorkload{
		subs:     make([]string, subs),
		filters:  make([][]string, subs),
		docs:     make([][]string, docs),
		expCount: make([]int, docs),
		expHash:  make([]uint64, docs),
	}
	posting := make(map[string][]int, wireVocab)
	for i := 0; i < subs; i++ {
		wl.subs[i] = fmt.Sprintf("sub-%05d", i)
		wl.filters[i] = distinct(2, zipfDraw)
		for _, t := range wl.filters[i] {
			posting[t] = append(posting[t], i)
		}
	}
	stamp := make([]int, subs)
	for d := 0; d < docs; d++ {
		wl.docs[d] = distinct(8, uniformDraw)
		for _, t := range wl.docs[d] {
			for _, s := range posting[t] {
				if stamp[s] == d+1 {
					continue
				}
				stamp[s] = d + 1
				wl.expCount[d]++
				wl.expHash[d] += subNameHash(wl.subs[s])
			}
		}
		wl.expTotal += int64(wl.expCount[d])
	}
	return wl
}

// wireDaemon is one spawned moved process.
type wireDaemon struct {
	id        ring.NodeID
	addr      string
	debugAddr string
	subAddr   string
	cmd       *exec.Cmd
	logPath   string
}

// pickLoopbackAddrs reserves n distinct loopback ports, holding every
// listener open until all are picked — closing them one at a time would
// let the kernel hand a just-released port to a later pick, assigning two
// daemons the same address.
func pickLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// buildMoved compiles cmd/moved into dir (the harness runs from the repo
// root, as `make bench-wire` does).
func buildMoved(dir string) (string, error) {
	bin := filepath.Join(dir, "moved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/moved")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("build moved: %v\n%s", err, out)
	}
	return bin, nil
}

// spawnWireCluster launches one moved per node on pre-picked loopback
// ports, each with a debug server (for /metrics scraping) and a subscriber
// session listener.
func spawnWireCluster(dir, movedBin string, nodes int, flushDelay time.Duration) ([]*wireDaemon, error) {
	daemons := make([]*wireDaemon, nodes)
	addrs, err := pickLoopbackAddrs(3 * nodes)
	if err != nil {
		return nil, err
	}
	var peerParts []string
	for i := 0; i < nodes; i++ {
		id := ring.NodeID(fmt.Sprintf("n%d", i))
		daemons[i] = &wireDaemon{id: id, addr: addrs[3*i], debugAddr: addrs[3*i+1], subAddr: addrs[3*i+2]}
		peerParts = append(peerParts, fmt.Sprintf("%s=%s", id, daemons[i].addr))
	}
	peers := strings.Join(peerParts, ",")
	for _, d := range daemons {
		args := []string{
			"-id", string(d.id),
			"-listen", d.addr,
			"-peers", peers,
			"-debug.addr", d.debugAddr,
			"-subscribe.addr", d.subAddr,
			"-subscribe.queue", "8192",
			// Coalesce subscriber-session event writes so the session
			// fan-out (delivery.* wire, not under test) doesn't drown the
			// RPC syscall effect on small machines.
			"-subscribe.flush-delay", "1ms",
			"-rpc.flush-delay", flushDelay.String(),
		}
		d.logPath = filepath.Join(dir, fmt.Sprintf("%s.log", d.id))
		logF, err := os.Create(d.logPath)
		if err != nil {
			return daemons, err
		}
		d.cmd = exec.Command(movedBin, args...)
		d.cmd.Stdout = logF
		d.cmd.Stderr = logF
		if err := d.cmd.Start(); err != nil {
			logF.Close()
			return daemons, fmt.Errorf("start %s: %w", d.id, err)
		}
	}
	return daemons, nil
}

func stopWireCluster(daemons []*wireDaemon) {
	for _, d := range daemons {
		if d == nil || d.cmd == nil || d.cmd.Process == nil {
			continue
		}
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, d := range daemons {
		if d == nil || d.cmd == nil || d.cmd.Process == nil {
			continue
		}
		done := make(chan struct{})
		go func(d *wireDaemon) {
			_ = d.cmd.Wait()
			close(done)
		}(d)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-done
		}
	}
}

// waitWireReady polls every daemon's /healthz, then round-trips a stats
// RPC to each through the client transport — readiness of the actual wire
// path, not just the debug surface.
func waitWireReady(client *transport.TCPNode, daemons []*wireDaemon) error {
	deadline := time.Now().Add(90 * time.Second)
	for _, d := range daemons {
		for {
			resp, err := http.Get("http://" + d.debugAddr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				tail, _ := os.ReadFile(d.logPath)
				if len(tail) > 512 {
					tail = tail[len(tail)-512:]
				}
				return fmt.Errorf("daemon %s never became healthy; log tail:\n%s", d.id, tail)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	for _, d := range daemons {
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := client.Send(ctx, d.id, node.EncodeStatsPull())
			cancel()
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("stats RPC to %s never succeeded: %v", d.id, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}

// scrapeWireCounters sums the transport.tcp flush counters across the
// client's in-process registry and every daemon's /metrics endpoint.
func scrapeWireCounters(reg *metrics.Registry, daemons []*wireDaemon) (frames, syscalls int64, err error) {
	frames = reg.Counter("transport.tcp.flush.frames").Value()
	syscalls = reg.Counter("transport.tcp.flush.syscalls").Value()
	for _, d := range daemons {
		resp, err := http.Get("http://" + d.debugAddr + "/metrics")
		if err != nil {
			return 0, 0, fmt.Errorf("scrape %s: %w", d.id, err)
		}
		var dump metrics.Dump
		derr := json.NewDecoder(resp.Body).Decode(&dump)
		resp.Body.Close()
		if derr != nil {
			return 0, 0, fmt.Errorf("scrape %s: %w", d.id, derr)
		}
		frames += dump.Counters["transport.tcp.flush.frames"]
		syscalls += dump.Counters["transport.tcp.flush.syscalls"]
	}
	return frames, syscalls, nil
}

// wireSessionState accumulates the live-session fan-out, indexed by doc
// slot (DocID-1), mirroring the delivery bench's oracle accounting.
type wireSessionState struct {
	count []atomic.Int64
	hash  []atomic.Uint64
	total atomic.Int64
}

// attachWireSessions opens one real TCP delivery session per subscriber on
// its owner node and streams+acks events into st. Returns a close func.
func attachWireSessions(r *ring.Ring, wl *wireWorkload, subAddrOf map[ring.NodeID]string, st *wireSessionState) (func(), error) {
	clients := make([]*delivery.Client, 0, len(wl.subs))
	var wg sync.WaitGroup
	closeAll := func() {
		for _, cl := range clients {
			_ = cl.Close()
		}
		wg.Wait()
	}
	for _, sub := range wl.subs {
		owner, err := r.HomeNode("subscriber/" + sub)
		if err != nil {
			closeAll()
			return nil, err
		}
		cl, err := delivery.Dial(subAddrOf[owner], sub, 0)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("session dial %s on %s: %w", sub, owner, err)
		}
		clients = append(clients, cl)
		wg.Add(1)
		go func(cl *delivery.Client, subHash uint64) {
			defer wg.Done()
			for {
				msg, err := cl.Recv()
				if err != nil || msg.Bye != "" {
					return
				}
				for _, ev := range msg.Events {
					slot := int(ev.DocID) - 1
					if slot >= 0 && slot < len(st.count) {
						st.count[slot].Add(1)
						st.hash[slot].Add(subHash)
						st.total.Add(1)
					}
				}
				if len(msg.Events) > 0 {
					if err := cl.Ack(msg.Events[len(msg.Events)-1].Seq); err != nil {
						return
					}
				}
			}
		}(cl, subNameHash(sub))
	}
	return closeAll, nil
}

// publishWireDoc drives one document through the full pipeline over real
// sockets: one multi-term publish RPC per home node, match-set merge and
// oracle check, then one deliver-batch RPC per session-owner node.
func publishWireDoc(ctx context.Context, client *transport.TCPNode, r *ring.Ring, wl *wireWorkload, docIdx int) error {
	terms := wl.docs[docIdx]
	doc := model.Document{ID: uint64(docIdx + 1), Terms: terms}
	byHome := make(map[ring.NodeID][]string)
	var homes []ring.NodeID
	for _, t := range terms {
		home, err := r.HomeNode(t)
		if err != nil {
			return err
		}
		if _, ok := byHome[home]; !ok {
			homes = append(homes, home)
		}
		byHome[home] = append(byHome[home], t)
	}
	seen := make(map[model.FilterID]string)
	for _, home := range homes {
		raw, err := client.Send(ctx, home, node.EncodePublishFrame([]node.PublishItem{{Doc: &doc, Terms: byHome[home]}}))
		if err != nil {
			return fmt.Errorf("publish doc %d to %s: %w", doc.ID, home, err)
		}
		resps, err := node.DecodeMatchRespBatch(raw)
		if err != nil {
			return err
		}
		for _, resp := range resps {
			for _, m := range resp.Matches {
				seen[m.Filter] = m.Subscriber
			}
		}
	}

	var gotHash uint64
	matches := make([]node.Match, 0, len(seen))
	for id, sub := range seen {
		gotHash += subNameHash(sub)
		matches = append(matches, node.Match{Filter: id, Subscriber: sub})
	}
	if len(seen) != wl.expCount[docIdx] || gotHash != wl.expHash[docIdx] {
		return fmt.Errorf("doc %d match oracle violation: got %d subs (hash %x), want %d (hash %x)",
			doc.ID, len(seen), gotHash, wl.expCount[docIdx], wl.expHash[docIdx])
	}

	byOwner := make(map[ring.NodeID][]delivery.Notification)
	for _, nt := range node.GroupMatchesBySub(matches) {
		owner, err := r.HomeNode("subscriber/" + nt.Sub)
		if err != nil {
			return err
		}
		byOwner[owner] = append(byOwner[owner], nt)
	}
	for owner, notifs := range byOwner {
		payload := node.EncodeDeliverBatch(&delivery.Batch{DocID: doc.ID, Terms: doc.Terms, Notifs: notifs})
		if _, err := client.Send(ctx, owner, payload); err != nil {
			return fmt.Errorf("deliver batch doc %d to %s: %w", doc.ID, owner, err)
		}
	}
	return nil
}

// wireCluster is the live cluster under measurement: its spawned daemons,
// the bench client wired to them, the attached sessions, and the best-round
// report so far.
type wireCluster struct {
	daemons []*wireDaemon
	client  *transport.TCPNode
	reg     *metrics.Registry
	r       *ring.Ring
	st      *wireSessionState
	closers []func()

	rounds int
	best   bool
	rep    wireConfigReport
}

func (c *wireCluster) close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
	c.closers = nil
}

// setupWireCluster brings the cluster to a warm steady state: spawn the
// daemons, wait for wire readiness, register every filter, attach
// every subscriber session, and push warm-up traffic through the full
// pipeline so all stripes are dialed and all buffer pools hot.
func setupWireCluster(dir, movedBin string, opts wireOpts, wl *wireWorkload) (*wireCluster, error) {
	c := &wireCluster{}
	fmt.Printf("wire: spawning %d moved daemons...\n", opts.Nodes)
	daemons, err := spawnWireCluster(dir, movedBin, opts.Nodes, opts.FlushDelay)
	c.daemons = daemons
	c.closers = append(c.closers, func() { stopWireCluster(daemons) })
	if err != nil {
		c.close()
		return nil, err
	}

	peers := make(map[ring.NodeID]string, len(daemons))
	subAddrOf := make(map[ring.NodeID]string, len(daemons))
	c.r = ring.New(ring.Config{})
	for _, d := range daemons {
		peers[d.id] = d.addr
		subAddrOf[d.id] = d.subAddr
		if err := c.r.Add(ring.Member{ID: d.id, Rack: "rack-0"}); err != nil {
			c.close()
			return nil, err
		}
	}
	c.reg = metrics.NewRegistry()
	c.client, err = transport.NewTCPOpts("bench-client", "127.0.0.1:0",
		func(context.Context, ring.NodeID, []byte) ([]byte, error) {
			return nil, fmt.Errorf("bench client serves no requests")
		},
		transport.StaticResolver(peers),
		transport.TCPOptions{FlushDelay: opts.FlushDelay, DialBackoff: 50 * time.Millisecond, Metrics: c.reg})
	if err != nil {
		c.close()
		return nil, err
	}
	client := c.client
	c.closers = append(c.closers, func() { _ = client.Close() })
	if err := waitWireReady(c.client, daemons); err != nil {
		c.close()
		return nil, err
	}

	// Register one filter per subscriber on the home node of each term.
	fmt.Printf("wire: registering %d filters...\n", len(wl.subs))
	regCtx, regCancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer regCancel()
	var regErr atomic.Value
	var wg sync.WaitGroup
	idxCh := make(chan int, len(wl.subs))
	for i := range wl.subs {
		idxCh <- i
	}
	close(idxCh)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				f := model.Filter{ID: model.FilterID(i + 1), Subscriber: wl.subs[i], Terms: wl.filters[i], Mode: model.MatchAny}
				byHome := make(map[ring.NodeID][]string)
				for _, t := range f.Terms {
					home, err := c.r.HomeNode(t)
					if err != nil {
						regErr.Store(err)
						return
					}
					byHome[home] = append(byHome[home], t)
				}
				for home, postingTerms := range byHome {
					if _, err := c.client.Send(regCtx, home, node.EncodeRegister(node.RegisterReq{Filter: f, PostingTerms: postingTerms})); err != nil {
						regErr.Store(fmt.Errorf("register %s on %s: %w", f.Subscriber, home, err))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := regErr.Load().(error); err != nil {
		c.close()
		return nil, err
	}

	// Attach every subscriber as a live TCP delivery session.
	fmt.Printf("wire: attaching %d live sessions...\n", len(wl.subs))
	c.st = &wireSessionState{count: make([]atomic.Int64, opts.Docs), hash: make([]atomic.Uint64, opts.Docs)}
	closeSessions, err := attachWireSessions(c.r, wl, subAddrOf, c.st)
	if err != nil {
		c.close()
		return nil, err
	}
	c.closers = append(c.closers, closeSessions)

	// Warm-up: publish no-match documents (terms outside the vocabulary)
	// through the full pipeline so the measured rounds see the steady
	// state, not connection establishment or cold pools.
	warmCtx, warmCancel := context.WithTimeout(context.Background(), time.Minute)
	defer warmCancel()
	var warmErr atomic.Value
	var warmNext atomic.Int64
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(warmNext.Add(1)) - 1
				if i >= 64 || warmErr.Load() != nil {
					return
				}
				doc := model.Document{ID: uint64(opts.Docs + i + 1), Terms: []string{fmt.Sprintf("warm-%d-a", i), fmt.Sprintf("warm-%d-b", i)}}
				for _, t := range doc.Terms {
					home, err := c.r.HomeNode(t)
					if err != nil {
						warmErr.Store(err)
						return
					}
					if _, err := c.client.Send(warmCtx, home, node.EncodePublishFrame([]node.PublishItem{{Doc: &doc, Terms: []string{t}}})); err != nil {
						warmErr.Store(fmt.Errorf("warm-up publish: %w", err))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := warmErr.Load().(error); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// runRound publishes the full document set once through this cluster,
// waits for the oracle fan-out to drain to the attached sessions, and
// keeps the round's measurements if they beat the best round so far.
// Rounds republish the same documents, so sessions see the fan-out once
// per round and the drain barrier and oracle scale with the round count.
func (c *wireCluster) runRound(opts wireOpts, wl *wireWorkload) error {
	c.rounds++
	startFrames, startSyscalls, err := scrapeWireCounters(c.reg, c.daemons)
	if err != nil {
		return err
	}
	fmt.Printf("wire: publishing %d docs with %d workers (round %d/%d)...\n", opts.Docs, opts.Concurrency, c.rounds, wireRounds)
	pubCtx, pubCancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer pubCancel()
	latencies := make([]time.Duration, opts.Docs)
	var wg sync.WaitGroup
	var pubErr atomic.Value
	var next atomic.Int64
	start := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opts.Docs || pubErr.Load() != nil {
					return
				}
				t0 := time.Now()
				if err := publishWireDoc(pubCtx, c.client, c.r, wl, i); err != nil {
					pubErr.Store(err)
					pubCancel()
					return
				}
				latencies[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := pubErr.Load().(error); err != nil {
		return err
	}

	// Drain: every expected event must reach a live session over TCP
	// before this round's syscall counters are read.
	want := int64(c.rounds) * wl.expTotal
	drainDeadline := time.Now().Add(60 * time.Second)
	for c.st.total.Load() < want {
		if time.Now().After(drainDeadline) {
			return fmt.Errorf("delivery never drained: %d/%d events", c.st.total.Load(), want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for d := 0; d < opts.Docs; d++ {
		wantCount, wantHash := int64(c.rounds)*int64(wl.expCount[d]), uint64(c.rounds)*wl.expHash[d]
		if c.st.count[d].Load() != wantCount || c.st.hash[d].Load() != wantHash {
			return fmt.Errorf("doc %d delivery oracle violation: %d events (hash %x), want %d (hash %x)",
				d+1, c.st.count[d].Load(), c.st.hash[d].Load(), wantCount, wantHash)
		}
	}

	endFrames, endSyscalls, err := scrapeWireCounters(c.reg, c.daemons)
	if err != nil {
		return err
	}
	docsPerSec := float64(opts.Docs) / elapsed.Seconds()
	if c.best && docsPerSec <= c.rep.DocsPerSec {
		return nil
	}
	c.best = true
	c.rep.DocsPerSec = docsPerSec
	c.rep.FlushFrames = endFrames - startFrames
	c.rep.FlushSyscalls = endSyscalls - startSyscalls
	if c.rep.FlushSyscalls > 0 {
		c.rep.FramesPerSyscall = float64(c.rep.FlushFrames) / float64(c.rep.FlushSyscalls)
		c.rep.RPCSyscallsPerDoc = float64(c.rep.FlushSyscalls) / float64(opts.Docs)
	}
	c.rep.DeliveredEvents = wl.expTotal
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	c.rep.PublishP50MS = float64(sorted[len(sorted)/2].Microseconds()) / 1000
	c.rep.PublishP99MS = float64(sorted[len(sorted)*99/100].Microseconds()) / 1000
	return nil
}

func (c *wireCluster) report() wireConfigReport {
	fmt.Printf("wire: %.1f docs/sec, publish p50 %.2fms p99 %.2fms, %.2f frames/syscall, %.1f RPC syscalls/doc, %d events/round delivered\n",
		c.rep.DocsPerSec, c.rep.PublishP50MS, c.rep.PublishP99MS, c.rep.FramesPerSyscall, c.rep.RPCSyscallsPerDoc, c.rep.DeliveredEvents)
	return c.rep
}

func checkWireBaseline(path string, rep wireReport) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("wire: baseline %s not found, skipping regression check\n", path)
			return nil
		}
		return fmt.Errorf("read baseline: %w", err)
	}
	var base wireReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if base.Nodes != rep.Nodes || base.Docs != rep.Docs || base.Subscribers != rep.Subscribers {
		fmt.Printf("wire: baseline %s is a %d-node/%d-sub/%d-doc profile (this run: %d/%d/%d), skipping regression check\n",
			path, base.Nodes, base.Subscribers, base.Docs, rep.Nodes, rep.Subscribers, rep.Docs)
		return nil
	}
	if base.Coalesced.DocsPerSec > 0 {
		floor := base.Coalesced.DocsPerSec * (1 - wireTolerance)
		if rep.Coalesced.DocsPerSec < floor {
			return fmt.Errorf("docs_per_sec regression: %.1f vs baseline %.1f (budget -%d%%)",
				rep.Coalesced.DocsPerSec, base.Coalesced.DocsPerSec, int(wireTolerance*100))
		}
		fmt.Printf("wire: %.1f docs/sec within budget of baseline %.1f\n", rep.Coalesced.DocsPerSec, base.Coalesced.DocsPerSec)
	}
	return nil
}

// runWireFig produces BENCH_wire.json: one multi-process loopback cluster,
// oracle-checked, gated on frames/syscall and on docs/sec against the
// checked-in baseline.
// With opts.Peers set the harness instead drives an existing (possibly
// multi-host) cluster: publish-only, client-side wire metrics, no gates.
func runWireFig(outPath, baselinePath string, opts wireOpts, seed int64) error {
	if opts.Nodes < 2 && opts.Peers == "" {
		return fmt.Errorf("wire: need at least 2 nodes")
	}
	if opts.Subs < 1 || opts.Docs < 1 {
		return fmt.Errorf("wire: need at least 1 subscriber and 1 document")
	}
	if opts.Concurrency < 1 {
		opts.Concurrency = 1
	}
	if opts.Peers != "" {
		return runWireExisting(opts, seed)
	}

	dir, err := os.MkdirTemp("", "movewire")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	movedBin := opts.MovedBin
	if movedBin == "" {
		fmt.Printf("wire: building moved...\n")
		movedBin, err = buildMoved(dir)
		if err != nil {
			return err
		}
	}
	wl := buildWireWorkload(opts.Subs, opts.Docs, seed)
	fmt.Printf("wire: workload: %d subscribers, %d docs, %.1f expected deliveries/doc\n",
		opts.Subs, opts.Docs, float64(wl.expTotal)/float64(opts.Docs))

	rep := wireReport{
		GeneratedBy:  "movebench -fig wire",
		Nodes:        opts.Nodes,
		Subscribers:  opts.Subs,
		Docs:         opts.Docs,
		Concurrency:  opts.Concurrency,
		Seed:         seed,
		FlushDelayMS: float64(opts.FlushDelay.Microseconds()) / 1000,
	}
	c, err := setupWireCluster(dir, movedBin, opts, wl)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer c.close()
	for round := 1; round <= wireRounds; round++ {
		if err := c.runRound(opts, wl); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	rep.Coalesced = c.report()

	if rep.Coalesced.FramesPerSyscall <= wireFPSFloor {
		return fmt.Errorf("frames_per_syscall gate failed: %.2f <= %.1f under concurrent batched publish",
			rep.Coalesced.FramesPerSyscall, wireFPSFloor)
	}
	if baselinePath != "" {
		if err := checkWireBaseline(baselinePath, rep); err != nil {
			return err
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wire: wrote %s\n", outPath)
	return nil
}

// runWireExisting drives an already-running cluster (-wire-peers), e.g. a
// multi-host deployment: registers the workload, publishes through the
// client's real TCP transport, and prints client-side wire metrics. No
// sessions are attached (their addresses are not in the peer map) and no
// gates apply; the daemons must run a delivery hub (-subscribe.addr), or
// they refuse the routed deliveries.
func runWireExisting(opts wireOpts, seed int64) error {
	peers, err := transport.ParsePeers(opts.Peers)
	if err != nil {
		return err
	}
	if len(peers) == 0 {
		return fmt.Errorf("wire: -wire-peers is empty")
	}
	r := ring.New(ring.Config{})
	for pid := range peers {
		if err := r.Add(ring.Member{ID: pid, Rack: "rack-0"}); err != nil {
			return err
		}
	}
	clientReg := metrics.NewRegistry()
	client, err := transport.NewTCPOpts("bench-client", ":0",
		func(context.Context, ring.NodeID, []byte) ([]byte, error) {
			return nil, fmt.Errorf("bench client serves no requests")
		},
		transport.StaticResolver(peers), transport.TCPOptions{FlushDelay: opts.FlushDelay, Metrics: clientReg})
	if err != nil {
		return err
	}
	defer client.Close()

	wl := buildWireWorkload(opts.Subs, opts.Docs, seed)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	for i := range wl.subs {
		f := model.Filter{ID: model.FilterID(i + 1), Subscriber: wl.subs[i], Terms: wl.filters[i], Mode: model.MatchAny}
		byHome := make(map[ring.NodeID][]string)
		for _, t := range f.Terms {
			home, err := r.HomeNode(t)
			if err != nil {
				return err
			}
			byHome[home] = append(byHome[home], t)
		}
		for home, postingTerms := range byHome {
			if _, err := client.Send(ctx, home, node.EncodeRegister(node.RegisterReq{Filter: f, PostingTerms: postingTerms})); err != nil {
				return fmt.Errorf("register %s on %s: %w", f.Subscriber, home, err)
			}
		}
	}

	var wg sync.WaitGroup
	var pubErr atomic.Value
	var next atomic.Int64
	latencies := make([]time.Duration, opts.Docs)
	start := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opts.Docs || pubErr.Load() != nil {
					return
				}
				t0 := time.Now()
				if err := publishWireDoc(ctx, client, r, wl, i); err != nil {
					pubErr.Store(err)
					return
				}
				latencies[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := pubErr.Load().(error); err != nil {
		return err
	}
	frames := clientReg.Counter("transport.tcp.flush.frames").Value()
	syscalls := clientReg.Counter("transport.tcp.flush.syscalls").Value()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	fps := 0.0
	if syscalls > 0 {
		fps = float64(frames) / float64(syscalls)
	}
	fmt.Printf("wire (existing cluster): %.1f docs/sec, publish p50 %.2fms p99 %.2fms, client-side %.2f frames/syscall\n",
		float64(opts.Docs)/elapsed.Seconds(),
		float64(latencies[len(latencies)/2].Microseconds())/1000,
		float64(latencies[len(latencies)*99/100].Microseconds())/1000,
		fps)
	return nil
}
