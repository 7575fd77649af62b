package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/gossip"
	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/trace"
	"github.com/movesys/move/internal/transport"
)

// countingTransport counts the frames sent through it.
type countingTransport struct {
	transport.Transport
	sent atomic.Int64
}

func (c *countingTransport) Send(ctx context.Context, to ring.NodeID, payload []byte) ([]byte, error) {
	c.sent.Add(1)
	return c.Transport.Send(ctx, to, payload)
}

// TestLifecycle starts three daemons on loopback with hubs, gossip and debug
// servers. A gossip digest delivered to the first one's handler before its
// gossip loop starts is answered, and nothing is sent. One document reaches
// a subscriber's session end to end. After Close the goroutine count and
// the number of open file descriptors return to where they were and every
// RPC, subscriber and debug address can be bound again — with and without a
// data directory (whose log is a descriptor of its own).
func TestLifecycle(t *testing.T) {
	// The runtime's network poller holds descriptors once anything has
	// listened; open it before counting.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_ = ln.Close()
	for _, dir := range []bool{false, true} {
		t.Run(fmt.Sprintf("dir=%v", dir), func(t *testing.T) { lifecycle(t, dir) })
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// waitForFDs waits until deadline for the process to hold want open file
// descriptors again.
func waitForFDs(t *testing.T, want int, deadline time.Time) {
	t.Helper()
	for openFDs(t) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d open file descriptors after Close, %d before", openFDs(t), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func lifecycle(t *testing.T, withDir bool) {
	before, fdsBefore := runtime.NumGoroutine(), openFDs(t)
	ids := []ring.NodeID{"d0", "d1", "d2"}
	r := ring.New(ring.Config{})
	for _, id := range ids {
		if err := r.Add(ring.Member{ID: id, Rack: "rack-0"}); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	addrs := map[ring.NodeID]string{}
	resolve := func(id ring.NodeID) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		if a, ok := addrs[id]; ok {
			return a, nil
		}
		return "", transport.ErrNodeDown
	}

	var daemons []*Daemon
	var listened []string
	closeAll := func() {
		for _, d := range daemons {
			if err := d.Close(); err != nil {
				t.Error(err)
			}
		}
		daemons = nil
	}
	defer closeAll()
	var early struct {
		answered bool
		sentAt   int64
	}
	for i, id := range ids {
		cfg := Config{
			ID: id, Rack: "rack-0", Ring: r,
			Resilience:    resilience.Policy{Retryable: transport.IsAvailabilityError},
			Delivery:      &delivery.Config{},
			SubscribeAddr: "127.0.0.1:0",
			DebugAddr:     "127.0.0.1:0",
			Gossip:        &gossip.Config{Interval: 10 * time.Millisecond},
		}
		if withDir {
			cfg.Dir = t.TempDir()
		}
		if i > 0 {
			cfg.Peers = []gossip.Member{{ID: ids[0]}}
		}
		d, err := Start(cfg, func(h transport.Handler) (transport.Transport, error) {
			tn, err := transport.NewTCP(id, "127.0.0.1:0", h, resolve)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			addrs[id] = tn.Addr()
			mu.Unlock()
			listened = append(listened, tn.Addr())
			ct := &countingTransport{Transport: tn}
			if i == 0 {
				early.answered = probeGossip(t, h)
				early.sentAt = ct.sent.Load()
			}
			return ct, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
		listened = append(listened, d.Sub.Addr().String(), d.Debug.Addr().String())
	}
	if !early.answered || early.sentAt != 0 {
		t.Fatalf("digest before the gossip loop: answered=%v, %d frame(s) sent; want answered, none sent", early.answered, early.sentAt)
	}
	if st := daemons[0].Gossip.StatusOf("probe"); st != gossip.StatusAlive {
		t.Fatalf("the early digest's sender is %v in d0's table, want alive", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f := model.Filter{ID: 1, Subscriber: "alice", Terms: []string{"storm"}, Mode: model.MatchAny}
	home, err := r.HomeNode("storm")
	if err != nil {
		t.Fatal(err)
	}
	owner, err := r.HomeNode("subscriber/alice")
	if err != nil {
		t.Fatal(err)
	}
	byID := map[ring.NodeID]*Daemon{}
	for _, d := range daemons {
		byID[d.Node.ID()] = d
	}
	if _, err := byID[home].Node.Handle(ctx, "test", node.EncodeRegister(node.RegisterReq{Filter: f, PostingTerms: f.Terms})); err != nil {
		t.Fatal(err)
	}
	session, err := delivery.Dial(byID[owner].Sub.Addr().String(), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err := daemons[2].Node.PublishEntry(ctx, &model.Document{ID: 7, Terms: []string{"storm", "tonight"}})
	if err != nil || len(matches) != 1 {
		t.Fatalf("publish: %d matches, %v; want 1", len(matches), err)
	}
	msg, err := session.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Events) != 1 || msg.Events[0].DocID != 7 {
		t.Fatalf("session received %+v, want one event for document 7", msg.Events)
	}
	_ = session.Close()

	// The debug server answers while the daemon runs.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get("http://" + daemons[1].Debug.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()

	closeAll()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitForFDs(t, fdsBefore, deadline)
	for _, addr := range listened {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("re-listen %s after Close: %v", addr, err)
		}
		_ = ln.Close()
	}
}

// probeGossip sends one digest from a gossiper named "probe" to h and
// reports whether h answered it with a digest.
func probeGossip(t *testing.T, h transport.Handler) bool {
	t.Helper()
	var answered bool
	p, err := gossip.New(gossip.Config{
		Self: gossip.Member{ID: "probe"},
		Send: func(ctx context.Context, to ring.NodeID, digest []byte) ([]byte, error) {
			resp, err := h(ctx, "probe", node.EncodeGossip(digest))
			answered = err == nil && len(resp) > 0
			if err != nil {
				return nil, fmt.Errorf("digest to %s: %w", to, err)
			}
			return resp, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SeedPeers(gossip.Member{ID: "d0"})
	p.Tick(context.Background())
	return answered
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return body
}

// TestStartLogsReplay: a daemon started on a data directory logs the records
// and bytes its log replayed, and a warning with the bytes of a torn tail it
// cut; the filters it had answered are back.
func TestStartLogsReplay(t *testing.T) {
	r := ring.New(ring.Config{})
	if err := r.Add(ring.Member{ID: "node-a"}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	start := func() *Daemon {
		t.Helper()
		fabric := transport.NewNetwork(transport.NetworkConfig{})
		d, err := Start(Config{ID: "node-a", Ring: r, Dir: dir},
			func(h transport.Handler) (transport.Transport, error) { return fabric.Join("node-a", h), nil })
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := start()
	for i := 1; i <= 3; i++ {
		f := model.Filter{ID: model.FilterID(i), Subscriber: "alice", Terms: []string{"storm"}, Mode: model.MatchAny}
		if _, err := d.Node.Handle(context.Background(), "test", node.EncodeRegister(node.RegisterReq{Filter: f, PostingTerms: f.Terms})); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	logFile := filepath.Join(dir, "commit.log")
	info, err := os.Stat(logFile)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logFile, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn!")); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	var out bytes.Buffer
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.NewTextHandler(&out, nil)))
	d = start()
	defer d.Close()
	for _, want := range []string{
		fmt.Sprintf(`level=INFO msg="replayed log" node=node-a records=6 bytes=%d`, info.Size()),
		`level=WARN msg="cut a torn log tail" node=node-a bytes=5`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("the start's log lacks %s:\n%s", want, out.String())
		}
	}
	if got := d.Node.Stats().Filters; got != 3 {
		t.Fatalf("the restarted daemon holds %d filters, want 3", got)
	}
}

// TestDebugEndpoints: the debug endpoint serves the daemon's registry, its
// node's recent traces, /healthz with the static info and the caller's keys,
// and pprof; a malformed trace count is a bad request.
func TestDebugEndpoints(t *testing.T) {
	// The default client keeps its connections open, and either end closes
	// its side on a goroutine of its own: wait for them to go, or a later
	// test's file descriptor count sees them go.
	fdsBefore := openFDs(t)
	t.Cleanup(func() { waitForFDs(t, fdsBefore, time.Now().Add(5*time.Second)) })
	reg := metrics.NewRegistry()
	reg.Counter("rpc.retries").Add(3)
	h := reg.Histogram("publish.e2e")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	r := ring.New(ring.Config{})
	if err := r.Add(ring.Member{ID: "node-a"}); err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewNetwork(transport.NetworkConfig{})
	d, err := Start(Config{
		ID: "node-a", Ring: r, Metrics: reg, DebugAddr: "127.0.0.1:0",
		Info:   map[string]string{"id": "node-a"},
		Health: func(h map[string]any) { h["caller_key"] = 1 },
	}, func(h transport.Handler) (transport.Transport, error) { return fabric.Join("node-a", h), nil })
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer http.DefaultClient.CloseIdleConnections()
	sp := trace.New("publish", 1)
	sp.AddHop(trace.Hop{Stage: "column", Row: 1, Col: 0, Attempt: 1, Failover: true})
	sp.Finish()
	d.Node.Traces().Add(sp.Summary())
	base := "http://" + d.Debug.Addr().String()

	var dump metrics.Dump
	if err := json.Unmarshal(get(t, base+"/metrics"), &dump); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if dump.Counters["rpc.retries"] != 3 {
		t.Fatalf("rpc.retries = %d, want 3", dump.Counters["rpc.retries"])
	}
	e2e, ok := dump.Histograms["publish.e2e"]
	if !ok {
		t.Fatalf("publish.e2e histogram missing from dump: %+v", dump.Histograms)
	}
	if e2e.Count != 100 || e2e.P50NS <= 0 || e2e.P99NS < e2e.P50NS {
		t.Fatalf("implausible publish.e2e snapshot: %+v", e2e)
	}

	var summaries []trace.Summary
	if err := json.Unmarshal(get(t, base+"/trace/last?n=4"), &summaries); err != nil {
		t.Fatalf("decode /trace/last: %v", err)
	}
	if len(summaries) != 1 || summaries[0].DocID != 1 || summaries[0].Failovers != 1 {
		t.Fatalf("unexpected /trace/last payload: %+v", summaries)
	}
	resp, err := http.Get(base + "/trace/last?n=bogus")
	if err != nil {
		t.Fatalf("GET bad n: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n: status %d, want 400", resp.StatusCode)
	}

	var health struct {
		Status    string            `json:"status"`
		Info      map[string]string `json:"info"`
		Filters   *int64            `json:"filters"`
		CallerKey int               `json:"caller_key"`
	}
	if err := json.Unmarshal(get(t, base+"/healthz"), &health); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	if health.Status != "ok" || health.Info["id"] != "node-a" || health.Filters == nil || health.CallerKey != 1 {
		t.Fatalf("unexpected /healthz payload: %+v", health)
	}

	// pprof index must be wired on the same mux.
	if body := get(t, base+"/debug/pprof/"); len(body) == 0 {
		t.Fatal("/debug/pprof/ returned empty body")
	}
}
