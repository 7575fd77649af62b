package daemon

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"github.com/movesys/move/internal/metrics"
	movetrace "github.com/movesys/move/internal/trace"
)

// serveDebug binds the debug endpoint (moved -debug.addr): a JSON dump of
// reg (counters plus histogram quantiles), the node's recent publish traces,
// /healthz, and pprof. Its listener is its own, so the debug surface shares
// nothing with the data path — a wedged publish pipeline stays inspectable.
func (d *Daemon) serveDebug(addr string, reg *metrics.Registry, info map[string]string, extra func(map[string]any)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug server: listen %s: %w", addr, err)
	}
	routes := map[string]debugHandler{
		// ?format=json is accepted and changes nothing: JSON is the one format.
		"/metrics": func(_ *debugRequest, w *debugReply) { w.encodeJSON(reg.Dump()) },
		"/trace/last": func(r *debugRequest, w *debugReply) {
			n := 16 // without an n parameter
			if q := r.query.Get("n"); q != "" {
				v, err := strconv.Atoi(q)
				if err != nil || v < 1 {
					w.fail(400, "n must be a positive integer")
					return
				}
				n = v
			}
			summaries := d.Node.Traces().Last(n)
			if summaries == nil {
				summaries = []movetrace.Summary{}
			}
			w.encodeJSON(summaries)
		},
		"/healthz": func(_ *debugRequest, w *debugReply) {
			body := d.health(extra)
			body["status"], body["info"] = "ok", info
			w.encodeJSON(body)
		},
		"/debug/pprof/":        pprofIndex,
		"/debug/pprof/cmdline": pprofCmdline,
		"/debug/pprof/profile": timedProfile(30, pprof.StartCPUProfile, pprof.StopCPUProfile),
		"/debug/pprof/trace":   timedProfile(1, trace.Start, trace.Stop),
		"/debug/pprof/symbol":  pprofSymbol,
	}
	d.Debug = ln
	d.debug = startDebugServer(ln, func(path string) debugHandler {
		if h, ok := routes[path]; ok {
			return h
		}
		if name, ok := strings.CutPrefix(path, "/debug/pprof/"); ok {
			if p := pprof.Lookup(name); p != nil {
				return namedProfile(p)
			}
		}
		return nil
	})
	return nil
}

// maxProfileSeconds bounds ?seconds= of the CPU profile and the execution
// trace: a request holds its connection and the profiler that long.
const maxProfileSeconds = 60

// pprofIndex lists what /debug/pprof/ serves, the named profiles with their
// current counts first.
func pprofIndex(_ *debugRequest, w *debugReply) {
	w.ctype = textPlain
	w.body.WriteString("named profiles (?debug=1 for text, ?debug=0 or none for gzipped proto):\n")
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(&w.body, "%8d /debug/pprof/%s\n", p.Count(), p.Name())
	}
	fmt.Fprintf(&w.body, "\n/debug/pprof/cmdline\n/debug/pprof/profile?seconds=30 (CPU, at most %d s)\n"+
		"/debug/pprof/trace?seconds=1 (execution trace, at most %d s)\n/debug/pprof/symbol?0xPC+0xPC\n", maxProfileSeconds, maxProfileSeconds)
}

// pprofCmdline answers the process's arguments, NUL-separated.
func pprofCmdline(_ *debugRequest, w *debugReply) {
	w.ctype = textPlain
	w.body.WriteString(strings.Join(os.Args, "\x00"))
}

// timedProfile answers what start records into the body over ?seconds=
// (def when absent, at most maxProfileSeconds), stopped by stop, which
// returns once the recording is written: the CPU profile and the execution
// trace.
func timedProfile(def float64, start func(io.Writer) error, stop func()) debugHandler {
	return func(r *debugRequest, w *debugReply) {
		s := def
		if q := r.query.Get("seconds"); q != "" {
			v, err := strconv.ParseFloat(q, 64)
			if err != nil || !(v > 0 && v <= maxProfileSeconds) {
				w.fail(400, fmt.Sprintf("seconds must be a number in (0, %d]", maxProfileSeconds))
				return
			}
			s = v
		}
		w.ctype = "application/octet-stream"
		if err := start(&w.body); err != nil {
			w.fail(500, err.Error())
			return
		}
		r.wait(time.Duration(s * float64(time.Second)))
		stop()
	}
}

// pprofSymbol answers the function names of the program counters in the
// query ("?0x4a1b2c+0x4a1b3d"), after the "num_symbols: 1" line that tells
// pprof symbols are served.
func pprofSymbol(r *debugRequest, w *debugReply) {
	w.ctype = textPlain
	w.body.WriteString("num_symbols: 1\n")
	for _, word := range strings.Split(r.rawQuery, "+") {
		pc, _ := strconv.ParseUint(word, 0, 64)
		if f := runtime.FuncForPC(uintptr(pc)); pc != 0 && f != nil {
			fmt.Fprintf(&w.body, "%#x %s\n", pc, f.Name())
		}
	}
}

// namedProfile answers p (heap, goroutine, allocs, …) as gzipped proto, or
// as text for ?debug=N with N > 0; heap's text ends with the runtime's
// MemStats block. Delta profiles (?seconds=) are not served.
func namedProfile(p *pprof.Profile) debugHandler {
	return func(r *debugRequest, w *debugReply) {
		debug := 0
		if q := r.query.Get("debug"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				w.fail(400, "debug must be a non-negative integer")
				return
			}
			debug = v
		}
		if r.query.Has("seconds") {
			w.fail(400, "delta profiles (?seconds=) are not served; take two profiles and diff them")
			return
		}
		w.ctype = "application/octet-stream"
		if debug > 0 {
			w.ctype = textPlain
		}
		if err := p.WriteTo(&w.body, debug); err != nil {
			w.fail(500, "write profile: "+err.Error())
		}
	}
}
