// Command harness is the repository's benchmark: publish → receipt over
// real TCP against two moved daemons, three workloads, end-to-end metrics
// untraced and a per-layer budget traced. benchmark/README.md has the
// commands and the metric definitions; BENCHMARK.json at the repository
// root is the contract the last output line follows.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/movesys/move/internal/dataset"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	traceOut  string
	moved     string
	selfcheck bool
}

// harness is one run's shared state.
type harness struct {
	opts options
	sp   *spec
	w    *workload
	exp  []expect
	// Per pool document, computed once the Bloom filter and the ring exist:
	// terms past the Bloom gate, distinct home nodes among them, and the
	// posting entries each home node holds for them (base population).
	passed, homes []int
	homePostings  [][numDaemons]int32

	t0     time.Time
	dir    string
	cancel context.CancelCauseFunc

	vmu        sync.Mutex
	violations []violation
	notes      []string
}

func (h *harness) now() int64 { return int64(time.Since(h.t0)) }

// fail aborts the run: a daemon died, an operation could not be issued.
func (h *harness) fail(err error) { h.cancel(err) }

func (h *harness) violation(v violation) {
	h.vmu.Lock()
	if len(h.violations) < 20 {
		h.violations = append(h.violations, v)
	}
	h.vmu.Unlock()
}

func init() {
	// Daemons are started with Pdeathsig, which the kernel ties to the
	// starting thread: keep main, which starts them, on one thread.
	runtime.LockOSThread()
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same filters and documents")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "length of the timed phases (warm-up + closed + open)")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	flag.StringVar(&o.traceOut, "trace-out", "", "traced run: write every span to this file (JSON lines) at exit")
	flag.StringVar(&o.moved, "moved", "", "moved binary (default: next to this binary)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two interleaved sets of runs per workload and compare their medians against the bounds")
	flag.Parse()
	o.trace = traceFlag != 0

	if o.moved == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "harness:", err)
			return 1
		}
		o.moved = filepath.Join(filepath.Dir(exe), "moved")
	}
	if _, err := os.Stat(o.moved); err != nil {
		fmt.Fprintf(os.Stderr, "harness: moved binary: %v (run through benchmark/run.sh, which builds it)\n", err)
		return 1
	}
	if o.seconds < 5 {
		fmt.Fprintln(os.Stderr, "harness: -seconds must be at least 5")
		return 1
	}

	// Every exit path below runs the deferred tear-down: SIGINT/SIGTERM
	// cancel the context, a daemon crash or an oracle-fatal error cancels it
	// with a cause, and the scratch directory goes last.
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		cancel(fmt.Errorf("interrupted by %v", s))
		<-sig // a second signal skips the graceful path
		os.Exit(130)
	}()

	printHeader()
	if o.selfcheck {
		return selfcheck(ctx, o)
	}
	sp := specByName(o.workload)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "harness: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 1
	}
	res, err := runOnce(ctx, o, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		return 1
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.contractLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var out []string
	for _, sp := range specs {
		out = append(out, sp.name)
	}
	return out
}

// printHeader states what machine and build the numbers belong to.
func printHeader() {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	load := "unknown"
	warn := ""
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		f := strings.Fields(string(raw))
		if len(f) > 0 {
			load = strings.Join(f[:min(3, len(f))], " ")
			var l1 float64
			fmt.Sscanf(f[0], "%g", &l1)
			if l1 > 0.5*float64(runtime.NumCPU()) {
				warn = fmt.Sprintf("  WARNING: 1-minute load %.2f is above 0.5 × nproc; expect wider spreads", l1)
			}
		}
	}
	fmt.Printf("# move benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d, loadavg %s, loopback only\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), load)
	if warn != "" {
		fmt.Println("#" + warn)
	}
}

// runOnce is one benchmark run: generate inputs, set up (several times),
// run the timed phases, drain, audit, tear down.
func runOnce(parent context.Context, o options, sp *spec) (_ *result, err error) {
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)
	// The driver allows 180 s per run; give up, with tear-down, before that.
	ctx, stopTimer := context.WithTimeoutCause(ctx, 165*time.Second, errors.New("run exceeded 165 s"))
	defer stopTimer()

	h := &harness{opts: o, sp: sp, t0: time.Now(), cancel: cancel}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if h.dir, err = os.MkdirTemp(filepath.Dir(exe), "run-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			// Keep what explains the failure: the daemons' log tails.
			dumpLogs(h.dir)
		}
		_ = os.RemoveAll(h.dir)
	}()

	genStart := time.Now()
	if h.w, err = sp.gen(sp, o.seed); err != nil {
		return nil, fmt.Errorf("generate %s: %w", sp.name, err)
	}
	h.exp = expectations(h.w)
	fmt.Printf("# workload %s, seed %d, %d s, trace %v: %d filters, %d sessions, %d pool documents, inputs and oracle built in %.2f s\n",
		sp.name, o.seed, o.seconds, o.trace, len(h.w.filters), len(h.w.subs), len(h.w.docs), time.Since(genStart).Seconds())

	if err = h.precompute(); err != nil {
		return nil, err
	}
	// Set up sp.setups times and report the median: the count is a constant
	// of the workload, so setup_s is the same estimator in every run. A
	// traced run sets up once.
	setups := sp.setups
	if o.trace {
		setups = 1
	}
	var s *sut
	var timings []setupTimings
	defer func() { s.close() }()
	for i := 0; i < setups; i++ {
		s.close()
		var tm setupTimings
		if s, tm, err = h.setup(ctx, i); err != nil {
			if cause := context.Cause(ctx); cause != nil {
				err = cause
			}
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		timings = append(timings, tm)
	}

	r := &result{h: h, setups: timings}
	if err = r.measure(ctx, s); err != nil {
		if cause := context.Cause(ctx); cause != nil {
			err = cause
		}
		return nil, err
	}
	return r, nil
}

// precompute fills the per-pool-document constants — terms past the Bloom
// gate, distinct home nodes among them — outside every timed phase. The
// Bloom filter and the ring are functions of the inputs alone, so a private
// copy of each gives the same answers as the ones set-up builds.
func (h *harness) precompute() error {
	r, err := newRing()
	if err != nil {
		return err
	}
	bf, err := newBloom(h.w)
	if err != nil {
		return err
	}
	ix := newOracleIndex(h.w.filters)
	h.passed = make([]int, len(h.w.docs))
	h.homes = make([]int, len(h.w.docs))
	h.homePostings = make([][numDaemons]int32, len(h.w.docs))
	for i := range h.w.docs {
		var seen [numDaemons]bool
		for _, t := range h.w.docs[i].terms {
			name := dataset.Term(int(t))
			if !bf.Contains(name) {
				continue
			}
			h.passed[i]++
			home, err := r.HomeNode(name)
			if err != nil {
				return err
			}
			k := daemonIndex(string(home))
			if k < 0 {
				return fmt.Errorf("term %s is homed on unknown node %s", name, home)
			}
			if !seen[k] {
				seen[k] = true
				h.homes[i]++
			}
			h.homePostings[i][k] += int32(len(ix.posting[t]))
		}
	}
	return nil
}

// daemonIndex maps "n<i>" back to i.
func daemonIndex(id string) int {
	for i := 0; i < numDaemons; i++ {
		if id == fmt.Sprintf("n%d", i) {
			return i
		}
	}
	return -1
}

func dumpLogs(dir string) {
	logs, _ := filepath.Glob(filepath.Join(dir, "setup*", "*.log"))
	for _, p := range logs {
		raw, err := os.ReadFile(p)
		if err != nil || len(raw) == 0 {
			continue
		}
		if len(raw) > 2048 {
			raw = raw[len(raw)-2048:]
		}
		fmt.Fprintf(os.Stderr, "--- %s (tail) ---\n%s\n", p, raw)
	}
}
