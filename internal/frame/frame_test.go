package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"github.com/movesys/move/internal/metrics"
	"github.com/movesys/move/internal/testutil"
)

// prefixLen is the size of the uvarint prefix of an n-byte payload.
func prefixLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

// TestAppendReadRoundTrip pins the format at its edges: empty, one byte, both
// sides of each prefix-length step, exactly the limit, and one past it on
// both sides of the wire.
func TestAppendReadRoundTrip(t *testing.T) {
	const max = 1 << 15
	for _, tc := range []struct{ n, prefix int }{{0, 1}, {1, 1}, {127, 1}, {128, 2}, {1<<14 - 1, 2}, {1 << 14, 3}, {max, 3}} {
		payload := bytes.Repeat([]byte{0xab}, tc.n)
		wire, err := Append(nil, payload, max)
		if err != nil {
			t.Fatalf("Append(%d bytes): %v", tc.n, err)
		}
		if n, used := binary.Uvarint(wire); len(wire) != tc.prefix+tc.n || used != tc.prefix || int(n) != tc.n {
			t.Fatalf("Append(%d bytes) = %d bytes, prefix % x; want a %d-byte uvarint", tc.n, len(wire), wire[:used], tc.prefix)
		}
		var buf []byte
		got, err := Read(bytes.NewReader(wire), &buf, max)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Read(%d bytes) = %d bytes, %v", tc.n, len(got), err)
		}
	}

	over := make([]byte, max+1)
	if wire, err := Append([]byte("kept"), over, max); err == nil || string(wire) != "kept" {
		t.Fatalf("Append past the limit = %q, %v; want dst untouched and an error", wire, err)
	}
	// The same frame is legal under a larger bound; the reader's bound is
	// what refuses it, before allocating.
	wire, err := Append(nil, over, max+1)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	if _, err := Read(bytes.NewReader(wire), &buf, max); err == nil || buf != nil {
		t.Fatalf("Read past the limit: err %v, buffer grown to %d", err, cap(buf))
	}
}

// byteAtATime hides bytes.Reader's ReadByte, so Read takes the path an
// unbuffered socket does, and counts the Read calls it costs.
type byteAtATime struct {
	r     *bytes.Reader
	reads int
}

func (b *byteAtATime) Read(p []byte) (int, error) {
	b.reads++
	return b.r.Read(p)
}

// TestReadRefusesBadPrefix: a prefix that is over-long, non-minimal, past the
// bound or cut short is refused with nothing allocated and nothing consumed
// beyond the header bytes that decided it — on a buffered reader and on a
// bare one. A frame under 128 bytes costs a bare reader two reads, as the
// fixed-width header did.
func TestReadRefusesBadPrefix(t *testing.T) {
	const max = 1 << 10
	tail := []byte("the next frame's bytes")
	for _, tc := range []struct {
		name     string
		header   []byte
		consumed int // header bytes Read may take before refusing
		cut      bool
	}{
		{"10-byte varint", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 2, false},
		{"11-byte varint of zeros", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, 10, false},
		{"non-minimal 5", []byte{0x85, 0x00}, 2, false},
		{"non-minimal 0", []byte{0x80, 0x80, 0x00}, 3, false},
		{"max+1", binary.AppendUvarint(nil, max+1), 2, false},
		{"cut mid-varint", []byte{0x85}, 1, true},
	} {
		for _, bare := range []bool{false, true} {
			wire := tc.header
			if !tc.cut {
				wire = append(append([]byte(nil), tc.header...), tail...)
			}
			src := bytes.NewReader(wire)
			var r io.Reader = src
			if bare {
				r = &byteAtATime{r: src}
			}
			var buf []byte
			_, err := Read(r, &buf, max)
			if err == nil || buf != nil {
				t.Fatalf("%s (bare=%v): err %v, buffer grown to %d", tc.name, bare, err, cap(buf))
			}
			if tc.cut != errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s (bare=%v): err = %v", tc.name, bare, err)
			}
			if took := len(wire) - src.Len(); took > tc.consumed {
				t.Fatalf("%s (bare=%v): consumed %d bytes, the header settles it in %d", tc.name, bare, took, tc.consumed)
			}
		}
	}

	wire, _ := Append(nil, make([]byte, 127), max)
	wire, _ = Append(wire, make([]byte, 128), max)
	r := &byteAtATime{r: bytes.NewReader(wire)}
	var buf []byte
	if _, err := Read(r, &buf, max); err != nil || r.reads != 2 {
		t.Fatalf("a 127-byte frame cost a bare reader %d reads (%v), want 2", r.reads, err)
	}
	if _, err := Read(r, &buf, max); err != nil || r.reads != 5 {
		t.Fatalf("a 128-byte frame cost a bare reader %d reads (%v), want 3", r.reads-2, err)
	}
	if _, err := Read(r, &buf, max); err != io.EOF {
		t.Fatalf("clean end of stream = %v, want io.EOF", err)
	}
}

// TestReadReusesBuffer: frames that fit reuse *bp; one too large to retain
// gets its own array and leaves *bp alone.
func TestReadReusesBuffer(t *testing.T) {
	var wire []byte
	for _, n := range []int{100, 40, maxRetained + 1, 60} {
		wire, _ = Append(wire, make([]byte, n), maxRetained+1)
	}
	r := bytes.NewReader(wire)
	var buf []byte
	for i := 0; i < 4; i++ {
		got, err := Read(r, &buf, maxRetained+1)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if cap(buf) != 100 {
			t.Fatalf("after frame %d (%d bytes) the retained buffer holds %d bytes, want the first frame's 100", i, len(got), cap(buf))
		}
	}
}

// loop replays one wire image forever, and hides bytes.Reader's ReadByte.
type loop struct{ r *bytes.Reader }

func (l loop) Read(p []byte) (int, error) {
	if l.r.Len() == 0 {
		l.r.Seek(0, io.SeekStart)
	}
	return l.r.Read(p)
}

// TestReadZeroAlloc: once its buffer has held a frame, a frame read allocates
// nothing — through a bufio.Reader, which the length prefix is read from a
// byte at a time, and through a reader that does not buffer, whose prefix
// byte lands in the caller's buffer.
func TestReadZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	wire, _ := Append(nil, make([]byte, 300), 1<<10)
	for _, tc := range []struct {
		name string
		r    io.Reader
	}{
		{"bufio.Reader", bufio.NewReader(loop{bytes.NewReader(wire)})},
		{"plain io.Reader", loop{bytes.NewReader(wire)}},
	} {
		var buf []byte
		if _, err := Read(tc.r, &buf, 1<<10); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := Read(tc.r, &buf, 1<<10); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: a frame read allocated %.2f times, want 0", tc.name, allocs)
		}
	}
}

// sink is a net.Conn that records each Write.
type sink struct {
	net.Conn
	writes [][]byte
}

func (s *sink) Write(p []byte) (int, error) {
	s.writes = append(s.writes, append([]byte(nil), p...))
	return len(p), nil
}

func newStats() (*FlushStats, *metrics.Registry) {
	reg := metrics.NewRegistry()
	return NewFlushStats(reg, "t.frames", "t.syscalls", "t.per_syscall", "t.bytes"), reg
}

// TestBatchAlternatesBuffers walks the two ways a round's buffer comes back.
// Written synchronously (nothing appended during the write) a batch keeps
// one array; with appends racing the write it alternates two, and neither
// path retains an array above the cap.
func TestBatchAlternatesBuffers(t *testing.T) {
	const max = 4 << 20
	first := func(p []byte) *byte { return &p[:1][0] }
	var b Batch
	if out, frames := b.Take(); out != nil || frames != 0 {
		t.Fatalf("Take on an empty batch = %d bytes, %d frames", len(out), frames)
	}

	// Synchronous: Append, Take, Recycle — the same array every round.
	_ = b.Append([]byte("one"), max)
	out, frames := b.Take()
	if frames != 1 || len(out) != 4 || b.Len() != 0 {
		t.Fatalf("Take = %d bytes, %d frames, %d left", len(out), frames, b.Len())
	}
	arrayA := first(out)
	b.Recycle(out)
	_ = b.Append([]byte("two"), max)
	out, _ = b.Take()
	if first(out) != arrayA {
		t.Fatal("synchronous rounds did not reuse the one array")
	}

	// Concurrent: an append lands while round A is "on the wire", so it
	// starts array B; from then on A and B alternate.
	_ = b.Append([]byte("three"), max)
	b.Recycle(out)
	out, _ = b.Take()
	arrayB := first(out)
	if arrayB == arrayA {
		t.Fatal("append during a write reused the array being written")
	}
	_ = b.Append([]byte("four"), max)
	if got := first(b.buf); got != arrayA {
		t.Fatal("the recycled array did not become the next pending buffer")
	}
	b.Recycle(out)
	out, _ = b.Take()
	if first(out) != arrayA || first(b.buf[:1]) != arrayB {
		t.Fatal("rounds did not alternate the two arrays")
	}
	b.Recycle(out)

	// A giant round is written and dropped, not retained.
	_ = b.Append(make([]byte, maxRetained), max)
	out, _ = b.Take()
	if cap(out) <= maxRetained {
		t.Fatalf("giant round has capacity %d", cap(out))
	}
	b.Recycle(out)
	if cap(b.buf) > maxRetained || cap(b.spare) > maxRetained {
		t.Fatalf("retained %d / %d bytes after a giant round", cap(b.buf), cap(b.spare))
	}
}

// TestFlushStatsMatchTheWire: after k rounds the counters equal the frames
// and bytes (prefixes included) the connection actually saw — the quantity
// the benchmark's wire_bytes_per_doc is summed from.
func TestFlushStatsMatchTheWire(t *testing.T) {
	const max = 1 << 10
	st, reg := newStats()
	conn := &sink{}
	var b Batch
	wantFrames, wantBytes := 0, 0
	rounds := [][]int{{3}, {0, 1, 2}, {max, 7}, {5, 5, 5, 5}}
	for _, sizes := range rounds {
		for _, n := range sizes {
			if err := b.Append(make([]byte, n), max); err != nil {
				t.Fatal(err)
			}
			wantFrames++
			wantBytes += prefixLen(n) + n
		}
		out, frames := b.Take()
		if err := st.WriteRound(conn, 0, out, frames); err != nil {
			t.Fatal(err)
		}
		b.Recycle(out)
	}

	wrote := 0
	for _, w := range conn.writes {
		wrote += len(w)
	}
	if len(conn.writes) != len(rounds) || wrote != wantBytes {
		t.Fatalf("wire saw %d writes / %d bytes, want %d / %d", len(conn.writes), wrote, len(rounds), wantBytes)
	}
	if f, s := reg.Counter("t.frames").Value(), reg.Counter("t.syscalls").Value(); f != int64(wantFrames) || s != int64(len(rounds)) {
		t.Fatalf("frames=%d syscalls=%d, want %d / %d", f, s, wantFrames, len(rounds))
	}
	hs := reg.Histograms()
	if got := hs["t.bytes"]; got.Count != int64(len(rounds)) || got.SumNS != int64(wantBytes) {
		t.Fatalf("bytes histogram = %d observations summing %d, want %d / %d", got.Count, got.SumNS, len(rounds), wantBytes)
	}
	if got := hs["t.per_syscall"]; got.SumNS != int64(wantFrames)*1000 || got.MaxNS != 4000 {
		t.Fatalf("per-syscall histogram sums %d (max %d), want %d milli-frames (max 4000)", got.SumNS, got.MaxNS, wantFrames*1000)
	}

	// Every frame reads back, in order, from the concatenated writes.
	r := bytes.NewReader(bytes.Join(conn.writes, nil))
	var buf []byte
	for _, sizes := range rounds {
		for _, n := range sizes {
			if got, err := Read(r, &buf, max); err != nil || len(got) != n {
				t.Fatalf("read back %d bytes, %v; want %d", len(got), err, n)
			}
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d stray bytes on the wire", r.Len())
	}
}
