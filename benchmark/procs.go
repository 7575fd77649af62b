package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/movesys/move/internal/metrics"
)

// daemon is one spawned moved process.
type daemon struct {
	id        string
	addr      string // node RPC listener
	debugAddr string // /metrics, /healthz, /debug/pprof
	subAddr   string // subscriber sessions
	cmd       *exec.Cmd
	logPath   string
	exited    chan struct{} // closed when Wait returned
	waitErr   error
}

// cluster is the set of daemons of one set-up.
type cluster struct {
	daemons []*daemon
	mu      sync.Mutex
	stopped bool
}

// reservePorts picks n distinct loopback ports below the kernel's
// ephemeral range — so no outgoing connection can be handed one between
// the reservation and the daemon's bind — holding every listener until all
// are picked.
func reservePorts(n int) ([]string, error) {
	lo := 32768
	if raw, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(raw)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				lo = v
			}
		}
	}
	const floor = 12000
	if lo <= floor+n {
		return nil, fmt.Errorf("no room below the ephemeral port range (starts at %d)", lo)
	}
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	// Start at a per-process offset so overlapping harnesses rarely probe
	// the same ports; a taken port is skipped either way.
	span := lo - floor
	p := floor + (os.Getpid()*37)%span
	for tries := 0; len(addrs) < n && tries < span; tries++ {
		addr := fmt.Sprintf("127.0.0.1:%d", p)
		if p++; p >= lo {
			p = floor
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		lns = append(lns, ln)
		addrs = append(addrs, addr)
	}
	if len(addrs) < n {
		return nil, errors.New("could not reserve enough loopback ports")
	}
	return addrs, nil
}

// spawnCluster starts n moved daemons with default flags: only identity
// and addresses are given. onExit is called when a daemon exits before
// stop was requested.
func spawnCluster(movedBin, dir string, n int, onExit func(error)) (*cluster, error) {
	addrs, err := reservePorts(3 * n)
	if err != nil {
		return nil, err
	}
	c := &cluster{}
	var peers []string
	for i := 0; i < n; i++ {
		d := &daemon{id: fmt.Sprintf("n%d", i), addr: addrs[3*i], debugAddr: addrs[3*i+1], subAddr: addrs[3*i+2], exited: make(chan struct{})}
		c.daemons = append(c.daemons, d)
		peers = append(peers, d.id+"="+d.addr)
	}
	for _, d := range c.daemons {
		d.logPath = filepath.Join(dir, d.id+".log")
		logF, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			c.stop()
			return nil, err
		}
		d.cmd = exec.Command(movedBin,
			"-id", d.id, "-listen", d.addr, "-peers", strings.Join(peers, ","),
			"-debug.addr", d.debugAddr, "-subscribe.addr", d.subAddr)
		d.cmd.Stdout, d.cmd.Stderr = logF, logF
		// The daemon dies with the harness even if the harness is killed
		// outright; main keeps its goroutine on one OS thread for this.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = d.cmd.Start()
		_ = logF.Close()
		if err != nil {
			d.cmd = nil
			c.stop()
			return nil, fmt.Errorf("start %s: %w", d.id, err)
		}
		go func(d *daemon) {
			d.waitErr = d.cmd.Wait()
			close(d.exited)
			c.mu.Lock()
			stopped := c.stopped
			c.mu.Unlock()
			if !stopped && onExit != nil {
				onExit(fmt.Errorf("daemon %s exited: %v; log tail:\n%s", d.id, d.waitErr, d.logTail(1024)))
			}
		}(d)
	}
	return c, nil
}

func (d *daemon) logTail(n int) string {
	raw, _ := os.ReadFile(d.logPath)
	if len(raw) > n {
		raw = raw[len(raw)-n:]
	}
	return string(raw)
}

// stop ends every daemon: SIGTERM, SIGKILL after 5 s, and waits until each
// has been reaped.
func (c *cluster) stop() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
	for _, d := range c.daemons {
		if d.cmd != nil && d.cmd.Process != nil {
			_ = d.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	deadline := time.After(5 * time.Second)
	for _, d := range c.daemons {
		if d.cmd == nil {
			continue
		}
		select {
		case <-d.exited:
		case <-deadline:
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
}

var httpc = &http.Client{Timeout: 10 * time.Second}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// waitHealthy polls /healthz until the daemon answers.
func (d *daemon) waitHealthy(ctx context.Context) error {
	for {
		if _, err := httpGet(ctx, "http://"+d.debugAddr+"/healthz"); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("daemon %s never became healthy: %w; log tail:\n%s", d.id, context.Cause(ctx), d.logTail(1024))
		case <-d.exited:
			return fmt.Errorf("daemon %s exited during start-up; log tail:\n%s", d.id, d.logTail(1024))
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// scrape reads the daemon's metrics registry.
func (d *daemon) scrape(ctx context.Context) (metrics.Dump, error) {
	var dump metrics.Dump
	body, err := httpGet(ctx, "http://"+d.debugAddr+"/metrics?format=json")
	if err != nil {
		return dump, fmt.Errorf("scrape %s: %w", d.id, err)
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		return dump, fmt.Errorf("scrape %s: %w", d.id, err)
	}
	return dump, nil
}

// memCounters are the runtime's cumulative allocation counts, read from
// the MemStats block /debug/pprof/heap?debug=1 ends with.
type memCounters struct {
	mallocs, allocBytes, gcs float64
}

func (d *daemon) memCounters(ctx context.Context) (memCounters, error) {
	var mc memCounters
	body, err := httpGet(ctx, "http://"+d.debugAddr+"/debug/pprof/heap?debug=1")
	if err != nil {
		return mc, err
	}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		k, v, ok := strings.Cut(line[2:], " = ")
		if !ok {
			continue
		}
		var dst *float64
		switch k {
		case "Mallocs":
			dst = &mc.mallocs
		case "TotalAlloc":
			dst = &mc.allocBytes
		case "NumGC":
			dst = &mc.gcs
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
			return mc, fmt.Errorf("heap profile of %s: %q: %w", d.id, line, err)
		}
		found++
	}
	if found != 3 {
		return mc, fmt.Errorf("heap profile of %s: MemStats block not found", d.id)
	}
	return mc, nil
}

// procUsage is what the kernel accounts to one process.
type procUsage struct {
	cpuSec      float64 // user + system
	ctxSwitches float64 // voluntary + involuntary, all threads
}

const clockTick = 100.0 // USER_HZ; Linux fixes it at 100 for /proc

// cpuSeconds reads utime+stime from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (ut + st) / clockTick, nil
}

func (d *daemon) usage(withCtx bool) (procUsage, error) {
	pid := d.cmd.Process.Pid
	var u procUsage
	var err error
	if u.cpuSec, err = cpuSeconds(pid); err != nil {
		return u, err
	}
	if !withCtx {
		return u, nil
	}
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return u, err
	}
	for _, t := range tasks {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/status", pid, t.Name()))
		if err != nil {
			continue // thread exited between ReadDir and here
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "voluntary_ctxt_switches:") || strings.HasPrefix(line, "nonvoluntary_ctxt_switches:") {
				f := strings.Fields(line)
				v, _ := strconv.ParseFloat(f[len(f)-1], 64)
				u.ctxSwitches += v
			}
		}
	}
	return u, nil
}

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("VmHWM of %s not found", d.id)
}

// selfUsage is the harness process's own CPU and context switches.
func selfUsage() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procUsage{cpuSec: tv(ru.Utime) + tv(ru.Stime), ctxSwitches: float64(ru.Nvcsw + ru.Nivcsw)}
}
