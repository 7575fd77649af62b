package daemon

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/trace"
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
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, reg.Dump()) })
	mux.HandleFunc("/trace/last", func(w http.ResponseWriter, r *http.Request) {
		n := 16 // without an n parameter
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		summaries := d.Node.Traces().Last(n)
		if summaries == nil {
			summaries = []trace.Summary{}
		}
		writeJSON(w, summaries)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		body := d.health(extra)
		body["status"], body["info"] = "ok", info
		writeJSON(w, body)
	})
	// pprof handlers are registered explicitly rather than through the
	// package's DefaultServeMux side effect, keeping the debug mux closed
	// over exactly what it serves.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	d.Debug, d.debugSrv = ln, &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	// ErrServerClosed after Close; anything else is lost with the process
	// anyway (the debug surface is best-effort).
	go func() { _ = d.debugSrv.Serve(ln) }()
	return nil
}

// writeJSON serves v as indented JSON (these endpoints are read by humans
// and tests, not a scrape pipeline; bytes are not the constraint).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
