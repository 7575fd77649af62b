package frame

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"github.com/movesys/move/internal/testutil"
)

// FuzzFrameRead checks the two properties both wire tiers rest on. Bytes
// from the network, read as frames until the first error, never panic and
// never cost more memory than the frames the caller's bound admits — a
// header is not believed beyond max. And frames appended back-to-back, the
// shape one flush round puts in one buffer, read back byte-identical and in
// order.
func FuzzFrameRead(f *testing.F) {
	f.Add([]byte(nil), []byte(nil), []byte("x"), uint16(0))
	f.Add([]byte{1, 'x', 0, 2, 'a', 'b'}, []byte("ab"), []byte(nil), uint16(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, []byte("hello"), []byte("world"), uint16(5))
	f.Add([]byte{5, 'a', 'b'}, bytes.Repeat([]byte("z"), 300), []byte{0}, uint16(299))
	// Hostile prefixes: a 10-byte varint, a non-minimal encoding of a small
	// length, a header announcing max+1, and a header cut mid-varint.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'x'}, []byte("a"), []byte("b"), uint16(65535))
	f.Add([]byte{0x83, 0x00, 'a', 'b', 'c'}, []byte("a"), []byte("b"), uint16(64))
	f.Add([]byte{0xad, 0x02, 'x'}, []byte("a"), []byte("b"), uint16(300))
	f.Add([]byte{1, 'x', 0x80}, []byte("a"), []byte("b"), uint16(64))

	f.Fuzz(func(t *testing.T, raw, a, b []byte, limit uint16) {
		max := int(limit)

		r := bytes.NewReader(raw)
		var buf []byte
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		frames := 0
		for {
			before := r.Len()
			payload, err := Read(r, &buf, max)
			if err != nil {
				// A refused header is settled by the header alone: nothing
				// after it is consumed (a short stream is consumed whole).
				if took := before - r.Len(); err != io.EOF && err != io.ErrUnexpectedEOF && took > binary.MaxVarintLen64 {
					t.Fatalf("refusing a header (%v) consumed %d bytes", err, took)
				}
				break
			}
			if len(payload) > max {
				t.Fatalf("Read returned %d bytes under a limit of %d", len(payload), max)
			}
			frames++
		}
		runtime.ReadMemStats(&m1)
		// Buffer growth is paid for by payload bytes that really arrived,
		// except the last frame's, where a header alone can claim up to
		// max. TotalAlloc is process-wide, so the constant covers the
		// error values and whatever the test runtime allocates meanwhile;
		// a header believed past max (up to 2⁶⁴) still dwarfs it. The
		// race detector's shadow allocations are not the frame's.
		if grew, bound := m1.TotalAlloc-m0.TotalAlloc, uint64(len(raw)+max+64<<10); !testutil.RaceEnabled && grew > bound {
			t.Fatalf("reading %d raw bytes (%d frames) allocated %d bytes, limit %d", len(raw), frames, grew, bound)
		}

		// Several frames per buffer, through both entry points.
		var batch Batch
		var wire []byte
		var want [][]byte
		for _, p := range [][]byte{a, b, a, nil, b} {
			next, err := Append(wire, p, max)
			if berr := batch.Append(p, max); (err == nil) != (berr == nil) {
				t.Fatalf("Append and Batch.Append disagree on a %d-byte frame under limit %d: %v / %v", len(p), max, err, berr)
			}
			if (err == nil) != (len(p) <= max) {
				t.Fatalf("Append(%d bytes, limit %d) = %v", len(p), max, err)
			}
			if err == nil {
				wire = next
				want = append(want, p)
			}
		}
		out, n := batch.Take()
		if n != len(want) || !bytes.Equal(out, wire) {
			t.Fatalf("Batch holds %d frames / %d bytes, want %d / %d", n, len(out), len(want), len(wire))
		}
		r = bytes.NewReader(wire)
		for i, p := range want {
			got, err := Read(r, &buf, max)
			if err != nil || !bytes.Equal(got, p) {
				t.Fatalf("frame %d read back as %q, %v; want %q", i, got, err, p)
			}
		}
		if r.Len() != 0 {
			t.Fatalf("%d bytes left after the last frame", r.Len())
		}
	})
}
