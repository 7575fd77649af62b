package daemon

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// startDebugDaemon starts a one-node daemon on memnet with a debug endpoint.
func startDebugDaemon(t *testing.T) *Daemon {
	t.Helper()
	r := ring.New(ring.Config{})
	if err := r.Add(ring.Member{ID: "node-a"}); err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewNetwork(transport.NetworkConfig{})
	d, err := Start(Config{ID: "node-a", Ring: r, DebugAddr: "127.0.0.1:0"},
		func(h transport.Handler) (transport.Transport, error) { return fabric.Join("node-a", h), nil })
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// stacksContain reports whether some goroutine's stack names fn.
func stacksContain(fn string) bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn)
}

// TestCloseStopsProfileInFlight: Daemon.Close, called while a 30 s CPU
// profile is being taken, returns within a second, the client sees its
// connection closed, and no goroutine Start made is left.
func TestCloseStopsProfileInFlight(t *testing.T) {
	// The runtime's network poller starts with the first listener.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		_ = ln.Close()
	}
	before := runtime.NumGoroutine()
	d := startDebugDaemon(t)
	t.Cleanup(func() { _ = d.Close() })
	c, err := net.Dial("tcp", d.Debug.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /debug/pprof/profile?seconds=30 HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !stacksContain("(*debugRequest).wait"); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the profile request never reached its wait")
		}
	}
	start := time.Now()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with a profile in flight, want under 1s", took)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := io.Copy(io.Discard, c); err != nil || n != 0 {
		t.Fatalf("the profile's client read %d bytes, %v; want a closed connection", n, err)
	}
	_ = c.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before Start:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
	// The profiler is free again.
	d = startDebugDaemon(t)
	defer d.Close()
	if status, _, body := fetch(t, "GET", "http://"+d.Debug.Addr().String()+"/debug/pprof/profile?seconds=0.1"); status != http.StatusOK {
		t.Fatalf("a profile after Close: status %d: %s", status, body)
	}
}

// TestDebugHeadDeadline: a client that sends its request line and headers a
// byte at a time is cut at the head deadline, without an answer.
func TestDebugHeadDeadline(t *testing.T) {
	t.Parallel()
	srv, cli := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveDebugConn(srv, func(string) debugHandler { return nil })
	}()
	head := "GET /healthz HTTP/1.1\r\nHost: x\r\nUser-Agent: " + strings.Repeat("s", 400) + "\r\n\r\n"
	start := time.Now()
	var err error
	for i := 0; i < len(head) && err == nil; i++ {
		_, err = cli.Write([]byte{head[i]})
		time.Sleep(20 * time.Millisecond)
	}
	cut := time.Since(start)
	<-done
	if err == nil {
		t.Fatalf("the whole head went through in %v; want the connection cut at %v", cut, debugHeadTimeout)
	}
	if cut < debugHeadTimeout || cut > debugHeadTimeout+2*time.Second {
		t.Fatalf("connection cut after %v, want at %v", cut, debugHeadTimeout)
	}
}

// TestDebugHeadTooLarge: a head over maxDebugHead is answered 431 over a
// real connection, the client reading the answer it was sent.
func TestDebugHeadTooLarge(t *testing.T) {
	d := startDebugDaemon(t)
	defer d.Close()
	c, err := net.Dial("tcp", d.Debug.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\nX-Pad: "+strings.Repeat("p", maxDebugHead)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("status %d, want 431", resp.StatusCode)
	}
}

// pipeConn is one side of a request: Read hands out in at most chunk bytes
// at a time and counts them, Write collects the answer. Only what
// serveDebugConn calls is implemented.
type pipeConn struct {
	net.Conn
	in    []byte
	chunk int
	read  int
	out   bytes.Buffer
}

func (c *pipeConn) Read(b []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(b[:min(len(b), c.chunk)], c.in)
	c.in, c.read = c.in[n:], c.read+n
	return n, nil
}

func (c *pipeConn) Write(b []byte) (int, error)     { return c.out.Write(b) }
func (c *pipeConn) Close() error                    { return nil }
func (c *pipeConn) SetReadDeadline(time.Time) error { return nil }

// FuzzDebugRequest feeds arbitrary bytes, in reads of arbitrary size, to
// the debug endpoint's request reader before a router that knows no path.
// It never panics, never reads past maxDebugHead, and either closes the
// connection without an answer — the bytes ran out before a whole head —
// or answers one well-formed 400, 404, 405 or 431.
func FuzzDebugRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
		"HEAD /metrics?format=json HTTP/1.0\n\n",
		"POST /healthz HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
		"GET http://x/debug/pprof/ HTTP/1.1\r\n\r\n",
		"GET * HTTP/1.1\r\n\r\n",
		"GET /a b HTTP/1.1\r\n\r\n",
		"GET / HTTP/2.0\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / HTTP/1.1\r\n folded\r\n\r\n",
		"GET / HTTP/1.1\r\nHost x\r\n\r\n",
		"GET /%zz HTTP/1.1\r\n\r\n",
		"\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\n",
		"GET / HTTP/1.1\r\nX: " + strings.Repeat("y", maxDebugHead),
	} {
		f.Add([]byte(seed), uint8(7))
	}
	f.Fuzz(func(t *testing.T, in []byte, chunk uint8) {
		c := &pipeConn{in: in, chunk: int(chunk) + 1}
		serveDebugConn(c, func(string) debugHandler { return nil })
		if c.read > maxDebugHead {
			t.Fatalf("read %d bytes, past the %d-byte cap", c.read, maxDebugHead)
		}
		if c.out.Len() == 0 {
			if len(in) >= maxDebugHead || headEnd(in) >= 0 {
				t.Fatalf("no answer to %d bytes holding a whole head or filling the cap", len(in))
			}
			return
		}
		out := bufio.NewReader(&c.out)
		resp, err := http.ReadResponse(out, nil)
		if err != nil {
			t.Fatalf("malformed answer %q: %v", c.out.String(), err)
		}
		switch resp.StatusCode {
		case 400, 404, 405, 431:
		default:
			t.Fatalf("status %d, want 400, 404, 405 or 431", resp.StatusCode)
		}
		if !resp.Close || resp.ContentLength < 0 {
			t.Fatalf("the answer's head lacks Connection: close or Content-Length: %v", resp.Header)
		}
		// A well-formed HEAD request is answered without the body.
		head := in[:min(len(in), maxDebugHead)]
		method := ""
		if end := headEnd(head); end >= 0 {
			method, _, _ = parseDebugHead(head[:end])
		}
		if method != "HEAD" {
			if body, err := io.ReadAll(resp.Body); err != nil || int64(len(body)) != resp.ContentLength {
				t.Fatalf("answer body %d bytes against Content-Length %d: %v", len(body), resp.ContentLength, err)
			}
		}
		if rest := out.Buffered() + c.out.Len(); rest != 0 {
			t.Fatalf("%d bytes after the answer", rest)
		}
	})
}
