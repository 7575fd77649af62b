package main

import (
	"bufio"
	"context"
	"debug/elf"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// startMoved runs the built binary as node n0 on addr over dir, with any
// further flags, and returns once it reports its listener. The process is
// killed when the test ends if the test did not stop it.
func startMoved(t *testing.T, bin, addr, dir string, flags ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-id", "n0", "-listen", addr, "-dir", dir}, flags...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		if strings.Contains(lines.Text(), "listening on") {
			go func() { // keep the pipe drained so the daemon never blocks on it
				for lines.Scan() {
				}
			}()
			return cmd
		}
	}
	t.Fatalf("moved exited before listening: %v\n%s", lines.Err(), stderr.String())
	return nil
}

// TestCleanShutdownKeepsFilters: a moved started with -dir that registers
// 200 filters and unregisters 50 of them holds, restarted on the same
// directory, exactly the 150 it had left and matches as a brute-force scan of
// them does — whether it got SIGTERM or SIGKILL right after the last
// acknowledgement.
func TestCleanShutdownKeepsFilters(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "moved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name string
		sig  syscall.Signal
	}{{"SIGTERM", syscall.SIGTERM}, {"SIGKILL", syscall.SIGKILL}} {
		t.Run(tc.name, func(t *testing.T) { restartKeepsFilters(t, bin, tc.sig) })
	}
}

func restartKeepsFilters(t *testing.T, bin string, sig syscall.Signal) {
	addr := freeAddr(t)
	dir := t.TempDir()

	r := ring.New(ring.Config{})
	if err := r.Add(ring.Member{ID: "n0", Rack: "rack-0"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// connect builds an off-ring entry node, as each movectl run is one: one
	// per daemon incarnation, since pooled connections die with the process.
	connect := func() (*node.Node, *transport.TCPNode) {
		t.Helper()
		entry, err := node.New(node.Config{ID: "client", Ring: r})
		if err != nil {
			t.Fatal(err)
		}
		reject := func(context.Context, ring.NodeID, []byte) ([]byte, error) {
			return nil, fmt.Errorf("the test client serves no requests")
		}
		tn, err := transport.NewTCP("client", "127.0.0.1:0", reject, transport.StaticResolver(map[ring.NodeID]string{"n0": addr}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tn.Close() })
		entry.Attach(tn)
		return entry, tn
	}
	doc := &model.Document{ID: 1, Terms: []string{"alerts", "storm"}}
	publish := func(entry *node.Node) []model.FilterID {
		t.Helper()
		matches, _, err := entry.PublishEntry(ctx, doc)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]model.FilterID, len(matches))
		for i, m := range matches {
			ids[i] = m.Filter
		}
		slices.Sort(ids)
		return ids
	}
	filters := func(tn *transport.TCPNode) int64 {
		t.Helper()
		raw, err := tn.Send(ctx, "n0", node.EncodeStatsPull())
		if err != nil {
			t.Fatal(err)
		}
		st, err := node.DecodeStatsResp(raw)
		if err != nil {
			t.Fatal(err)
		}
		return st.Filters
	}

	first := startMoved(t, bin, addr, dir)
	_, tn := connect()
	var oracle []model.FilterID // the survivors a brute-force scan matches
	for i := 1; i <= 200; i++ {
		// Every third filter needs a term the document lacks.
		f := model.Filter{ID: model.FilterID(i), Subscriber: fmt.Sprintf("sub-%d", i%16), Terms: []string{"alerts", "storm"}, Mode: model.MatchAll}
		if i%3 == 0 {
			f.Terms = []string{"alerts", "calm"}
		}
		if _, err := tn.Send(ctx, "n0", node.EncodeRegister(node.RegisterReq{Filter: f, PostingTerms: f.Terms})); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		matches := i%4 != 0 // every fourth is unregistered below
		for _, term := range f.Terms {
			matches = matches && slices.Contains(doc.Terms, term)
		}
		if matches {
			oracle = append(oracle, f.ID)
		}
	}
	for i := 4; i <= 200; i += 4 {
		if _, err := tn.Send(ctx, "n0", node.EncodeUnregister(model.FilterID(i))); err != nil {
			t.Fatalf("unregister %d: %v", i, err)
		}
	}
	if err := first.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	if err := first.Wait(); err != nil && sig != syscall.SIGKILL {
		t.Fatalf("moved after %v: %v", sig, err)
	}

	startMoved(t, bin, addr, dir)
	entry, tn := connect()
	if got := filters(tn); got != 150 {
		t.Fatalf("the restarted daemon holds %d filters, want 150", got)
	}
	if after := publish(entry); !slices.Equal(after, oracle) {
		t.Fatalf("match set after the restart:\n got  %v\n want %v", after, oracle)
	}
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestHealthzKeys: a moved with a subscriber listener and a debug server
// serves /healthz with exactly the keys the repository benchmark polls and
// its README freezes — no key added or lost.
func TestHealthzKeys(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "moved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	debugAddr := freeAddr(t)
	startMoved(t, bin, freeAddr(t), t.TempDir(), "-subscribe.addr", freeAddr(t), "-debug.addr", debugAddr)
	resp, err := http.Get("http://" + debugAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"delivery_pending", "delivery_sessions", "delivery_shard_sessions", "delivery_shards",
		"dual_read", "epoch", "filters", "goroutines", "info", "members_alive", "status",
		"transport_conns", "transport_inbound", "transport_peers", "transport_queued_bytes",
	}
	if got := sortedKeys(body); !slices.Equal(got, want) {
		t.Fatalf("/healthz keys\n got  %v\n want %v", got, want)
	}
	info, _ := body["info"].(map[string]any)
	if got := sortedKeys(info); !slices.Equal(got, []string{"id", "listen", "rack"}) {
		t.Fatalf("/healthz info keys %v, want [id listen rack]", got)
	}
}

// TestImageHasNoHTTPStack: the built moved links no HTTP server, TLS or
// X.509 code — its debug endpoint answers HTTP/1.1 itself — and its
// read-only and executable PT_LOAD segments, which every daemon maps and
// mostly keeps resident, stay within maxImageBytes.
func TestImageHasNoHTTPStack(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads an ELF image")
	}
	const maxImageBytes = 4 << 20
	bin := filepath.Join(t.TempDir(), "moved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	f, err := elf.Open(bin)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	syms, err := f.Symbols()
	if err != nil {
		t.Fatalf("symbols of %s: %v", bin, err)
	}
	banned := []string{"net/http.", "crypto/tls.", "crypto/x509.", "vendor/golang.org/x/net/http2"}
	found := map[string]string{} // banned prefix → first symbol found under it
	for _, s := range syms {
		for _, p := range banned {
			if _, ok := found[p]; !ok && strings.HasPrefix(s.Name, p) {
				found[p] = s.Name
			}
		}
	}
	for p, name := range found {
		t.Errorf("moved links %s code (%s)", p, name)
	}
	var text, rodata uint64
	for _, p := range f.Progs {
		switch {
		case p.Type != elf.PT_LOAD || p.Flags&elf.PF_W != 0:
		case p.Flags&elf.PF_X != 0:
			text += p.Filesz
		default:
			rodata += p.Filesz
		}
	}
	t.Logf("PT_LOAD R+X %d B, R %d B: %.2f MiB (ceiling %.2f MiB)", text, rodata, float64(text+rodata)/(1<<20), float64(maxImageBytes)/(1<<20))
	if text+rodata > maxImageBytes {
		t.Errorf("PT_LOAD R and R+X segments hold %d B, over %d", text+rodata, maxImageBytes)
	}
}

// TestBurstLeavesNoGoroutines: a moved with a data directory — so every
// registration detaches from its connection's reader before its fsync —
// takes a burst of 4,000 registrations from 8 concurrent callers over real
// TCP, and once it is quiet its /healthz goroutine count is back within a
// small constant of its value before the burst: no detached reader, handler
// or writer is left behind.
func TestBurstLeavesNoGoroutines(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "moved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	addr, debugAddr := freeAddr(t), freeAddr(t)
	startMoved(t, bin, addr, t.TempDir(), "-debug.addr", debugAddr)
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	goroutines := func() int {
		t.Helper()
		resp, err := hc.Get("http://" + debugAddr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Goroutines *int `json:"goroutines"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Goroutines == nil {
			t.Fatalf("/healthz goroutines: %v (decode: %v)", body.Goroutines, err)
		}
		return *body.Goroutines
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tn, err := transport.NewTCPOpts("client", "127.0.0.1:0", nil, transport.StaticResolver(map[ring.NodeID]string{"n0": addr}), transport.TCPOptions{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	for i := 0; i < 4; i++ { // dial both stripes: their readers are part of the baseline
		if _, err := tn.Send(ctx, "n0", node.EncodeStatsPull()); err != nil {
			t.Fatal(err)
		}
	}
	before := goroutines()

	const callers, each = 8, 500
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := c*each + i + 1
				f := model.Filter{ID: model.FilterID(id), Subscriber: fmt.Sprintf("sub-%d", id%32), Terms: []string{"alerts", fmt.Sprintf("t%d", id%97)}, Mode: model.MatchAny}
				if _, err := tn.Send(ctx, "n0", node.EncodeRegister(node.RegisterReq{Filter: f, PostingTerms: f.Terms})); err != nil {
					t.Errorf("register %d: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	const slack = 3
	after := goroutines()
	for deadline := time.Now().Add(10 * time.Second); after > before+slack && time.Now().Before(deadline); after = goroutines() {
		time.Sleep(50 * time.Millisecond)
	}
	if after > before+slack {
		t.Fatalf("%d goroutines after the burst went quiet, %d before it (slack %d)", after, before, slack)
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
