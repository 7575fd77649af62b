package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"strings"
	"sync"
	"time"
)

// The debug endpoint answers HTTP/1.1 itself rather than through net/http:
// it serves a handful of GET paths to curl, a browser, `go tool pprof` and
// the benchmark's harness, and net/http would bring crypto/tls, crypto/x509,
// HTTP/2 and html into moved's image — about half of its mapped text and
// rodata, resident in every daemon (DESIGN.md §9). One request per
// connection: each answer carries Content-Length and Connection: close.
const (
	// debugHeadTimeout bounds the arrival of a request's line and headers;
	// a client slower than that is cut without an answer.
	debugHeadTimeout = 5 * time.Second
	// maxDebugHead caps a request's line plus headers; a longer head is
	// answered 431 without reading past the cap.
	maxDebugHead = 8 << 10
)

// debugRequest is one parsed GET or HEAD request.
type debugRequest struct {
	query    url.Values
	rawQuery string
	conn     net.Conn
}

// wait holds the request for d, returning early once the client hangs up or
// Daemon.Close closes the connection. What the client sends meanwhile is
// discarded: the connection carries one request.
func (r *debugRequest) wait(d time.Duration) {
	_ = r.conn.SetReadDeadline(time.Now().Add(d))
	var b [512]byte
	for {
		if _, err := r.conn.Read(b[:]); err != nil {
			return
		}
	}
}

// debugReply is one answer, its body whole before the head is written so the
// head can carry its length. A zero status is 200.
type debugReply struct {
	status int
	ctype  string
	body   bytes.Buffer
}

const textPlain = "text/plain; charset=utf-8"

// fail replaces the reply with status and a one-line message.
func (w *debugReply) fail(status int, msg string) {
	w.status, w.ctype = status, textPlain
	w.body.Reset()
	w.body.WriteString(msg + "\n")
}

// encodeJSON answers v as indented JSON (these endpoints are read by humans and
// tests, not a scrape pipeline; bytes are not the constraint).
func (w *debugReply) encodeJSON(v any) {
	w.ctype = "application/json"
	enc := json.NewEncoder(&w.body)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		w.fail(500, "encode: "+err.Error())
	}
}

// writeTo sends the reply on c, without its body when the request was HEAD.
func (w *debugReply) writeTo(c net.Conn, head bool) {
	if w.status == 0 {
		w.status = 200
	}
	h := fmt.Sprintf("HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n",
		w.status, statusText(w.status), w.ctype, w.body.Len())
	if w.status == 405 {
		h += "Allow: GET, HEAD\r\n"
	}
	bufs := net.Buffers{[]byte(h + "\r\n")}
	if !head {
		bufs = append(bufs, w.body.Bytes())
	}
	// A client gone before its answer loses nothing it still waits for.
	_, _ = bufs.WriteTo(c)
}

func statusText(status int) string {
	switch status {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 431:
		return "Request Header Fields Too Large"
	}
	return "Internal Server Error"
}

// debugHandler fills the reply to one request.
type debugHandler func(r *debugRequest, w *debugReply)

// serveDebugConn answers one request on c, then closes c. route names the
// handler of a path, nil for none (404). A connection that closes, fails or
// runs out of debugHeadTimeout before its head is whole gets no answer.
func serveDebugConn(c net.Conn, route func(path string) debugHandler) {
	defer c.Close()
	_ = c.SetReadDeadline(time.Now().Add(debugHeadTimeout))
	head, status := readDebugHead(c)
	if head == nil && status == 0 {
		return
	}
	method, u := "", (*url.URL)(nil)
	if status == 0 {
		method, u, status = parseDebugHead(head)
	}
	var h debugHandler
	if status == 0 {
		h = route(u.Path)
	}
	var w debugReply
	switch {
	case status != 0:
		w.fail(status, statusText(status))
	case h == nil:
		w.fail(404, "404 page not found")
	default:
		_ = c.SetReadDeadline(time.Time{})
		h(&debugRequest{query: u.Query(), rawQuery: u.RawQuery, conn: c}, &w)
	}
	w.writeTo(c, method == "HEAD")
}

// readDebugHead reads from c up to the blank line that ends a request's head,
// at most maxDebugHead bytes, and returns the head before that line. A head
// that fills the buffer first is a 431; a read error first (EOF, the head
// deadline, Close) returns neither head nor status.
func readDebugHead(c io.Reader) ([]byte, int) {
	buf := make([]byte, maxDebugHead)
	n := 0
	for n < len(buf) {
		m, err := c.Read(buf[n:])
		n += m
		if end := headEnd(buf[:n]); end >= 0 {
			return buf[:end], 0
		}
		if err != nil {
			return nil, 0
		}
	}
	return nil, 431
}

// headEnd is the offset in b of the line break before the first empty line
// (CRLF or bare LF endings), or -1 while there is none.
func headEnd(b []byte) int {
	for i := bytes.IndexByte(b, '\n'); i >= 0; {
		rest := b[i+1:]
		if bytes.HasPrefix(rest, []byte("\n")) || bytes.HasPrefix(rest, []byte("\r\n")) {
			return i
		}
		j := bytes.IndexByte(rest, '\n')
		if j < 0 {
			break
		}
		i += 1 + j
	}
	return -1
}

// parseDebugHead reads the method and target of "METHOD target HTTP/1.x"
// followed by "name: value" header lines: 400 for any other shape or a
// target that is no request URI, 405 for a method other than GET and HEAD.
// Header values are not consulted.
func parseDebugHead(head []byte) (method string, target *url.URL, status int) {
	lines := strings.Split(string(head), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimSuffix(l, "\r")
	}
	method, rest, ok1 := strings.Cut(lines[0], " ")
	raw, proto, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 || method == "" || (proto != "HTTP/1.1" && proto != "HTTP/1.0") {
		return "", nil, 400
	}
	for _, l := range lines[1:] {
		if i := strings.IndexByte(l, ':'); i <= 0 || strings.ContainsAny(l[:i], " \t") {
			return "", nil, 400
		}
	}
	if method != "GET" && method != "HEAD" {
		return "", nil, 405
	}
	target, err := url.ParseRequestURI(raw)
	if err != nil {
		return "", nil, 400
	}
	return method, target, 0
}

// debugServer accepts the debug endpoint's connections, one goroutine each.
type debugServer struct {
	ln    net.Listener
	route func(path string) debugHandler

	mu    sync.Mutex
	conns map[net.Conn]struct{} // open connections; nil once closed
	wg    sync.WaitGroup        // the accept loop and the connections' goroutines
}

func startDebugServer(ln net.Listener, route func(path string) debugHandler) *debugServer {
	s := &debugServer{ln: ln, route: route, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.accept()
	return s
}

func (s *debugServer) accept() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil { // out of descriptors, say: try again shortly
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		if s.conns == nil {
			s.mu.Unlock()
			_ = c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			serveDebugConn(c, s.route)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// close closes the listener and every open connection, then waits for the
// accept loop and every handler to return: a profile in flight stops early.
// Safe to call more than once.
func (s *debugServer) close() {
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	_ = s.ln.Close()
	for c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}
