// Package frame is the framed connection both wire tiers stand on: inter-node
// RPC (internal/transport) and subscriber delivery (internal/delivery). It
// owns the three decisions they share — the frame format, the flush round,
// and the flush accounting — and nothing else: no lock, no goroutine, and no
// knowledge of which tier is calling. Each tier adds its own scheduling on
// top (DESIGN.md §16).
package frame

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/movesys/move/internal/metrics"
)

// RoundBytes is the flush-round size bound: a pending buffer at or past it
// goes to the wire now instead of waiting for more frames to share the
// write. 64 KiB is roughly one socket buffer's worth, and matches the
// transport's read buffer so one read drains one round.
const RoundBytes = 64 << 10

// maxRetained bounds the buffers kept across frames and rounds; a rare giant
// frame is served from a one-shot allocation instead of pinning its backing
// array on an idle connection forever.
const maxRetained = 1 << 20

// Append appends one length-prefixed frame to dst: the payload length as a
// minimal uvarint (1 byte below 128 B, 2 below 16 KiB), then the payload.
// Frames appended back-to-back form one contiguous buffer a single Write puts
// on the wire. max is the caller's frame bound (the tiers differ: RPC carries
// documents, subscriber frames do not).
func Append(dst, payload []byte, max int) ([]byte, error) {
	if len(payload) > max {
		return dst, fmt.Errorf("frame: payload of %d bytes exceeds limit %d", len(payload), max)
	}
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...), nil
}

// readLen reads the uvarint length prefix one byte at a time — through
// ReadByte when r buffers, so a reader that does not is never asked for more
// than the header holds; that one reads into *bp, which the payload
// overwrites next. It stops at the first byte that settles the outcome: a
// length past max is refused as soon as the bits read exceed it, whatever
// follows, so a hostile header costs at most binary.MaxVarintLen64 reads and
// never grows *bp. A prefix that is not the shortest encoding of its value is
// a protocol error, not a synonym.
func readLen(r io.Reader, bp *[]byte, max int) (int, error) {
	br, _ := r.(io.ByteReader)
	var one []byte
	if br == nil {
		one = append((*bp)[:0], 0) // a fresh buffer's first header allocates
	}
	var n uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		var b byte
		var err error
		if br != nil {
			b, err = br.ReadByte()
		} else if _, err = io.ReadFull(r, one); err == nil {
			b = one[0]
		}
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		n |= uint64(b&0x7f) << (7 * i)
		if n > uint64(max) {
			return 0, fmt.Errorf("frame: header announces at least %d bytes, limit %d", n, max)
		}
		if b < 0x80 {
			if i > 0 && b == 0 {
				return 0, fmt.Errorf("frame: length %d in a non-minimal %d-byte prefix", n, i+1)
			}
			return int(n), nil
		}
	}
	return 0, fmt.Errorf("frame: length prefix longer than %d bytes", binary.MaxVarintLen64)
}

// Read reads one frame from r into *bp, growing it as needed, and returns
// the payload. The payload aliases *bp and is valid until the next Read with
// the same buffer. A header announcing more than max bytes is rejected
// before anything is allocated; a payload too large to be worth retaining is
// read into a buffer of its own.
func Read(r io.Reader, bp *[]byte, max int) ([]byte, error) {
	size, err := readLen(r, bp, max)
	if err != nil {
		return nil, err
	}
	buf := *bp
	if cap(buf) < size {
		buf = make([]byte, size)
		if size <= maxRetained {
			*bp = buf
		}
	}
	payload := buf[:size]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Batch is one connection's pending flush round: frames appended since the
// last Take, plus a spare buffer so appends continue into a warm array while
// the previous round is on the wire. It has no lock; the owner serializes
// Append, Take and Recycle (the write itself needs no serialization against
// them — that is what the spare is for).
type Batch struct {
	buf    []byte
	spare  []byte
	frames int
}

// Append adds one frame to the pending round.
func (b *Batch) Append(payload []byte, max int) error {
	buf, err := Append(b.buf, payload, max)
	if err != nil {
		return err
	}
	b.buf = buf
	b.frames++
	return nil
}

// Len is the pending round's size in wire bytes, prefixes included.
func (b *Batch) Len() int { return len(b.buf) }

// Take removes and returns the pending round (nil, 0 when there is none),
// leaving the spare buffer to collect the next one. Hand out back to
// Recycle once it has been written.
func (b *Batch) Take() (out []byte, frames int) {
	if b.frames == 0 {
		return nil, 0
	}
	out, frames = b.buf, b.frames
	b.buf, b.spare, b.frames = b.spare, nil, 0
	return out, frames
}

// Recycle returns a written round's buffer for reuse: as the pending buffer
// if nothing was appended meanwhile (so a connection written synchronously
// keeps a single array), as the spare otherwise.
func (b *Batch) Recycle(out []byte) {
	switch {
	case cap(out) > maxRetained:
	case b.buf == nil:
		b.buf = out[:0]
	case b.spare == nil:
		b.spare = out[:0]
	}
}

// FlushStats is the accounting of physical writes on one tier: how many
// frames went out in how many syscalls, and the per-write distributions.
// The ratio histogram stores milli-frames (1 frame = 1000) so sub-integer
// percentiles survive the log bucketing.
type FlushStats struct {
	frames     *metrics.Counter
	syscalls   *metrics.Counter
	perSyscall *metrics.Histogram
	bytes      *metrics.Histogram
}

// NewFlushStats registers the four series under the given names — explicit,
// because each tier's series predate this package and keep their names.
func NewFlushStats(reg *metrics.Registry, frames, syscalls, perSyscall, bytes string) *FlushStats {
	return &FlushStats{
		frames:     reg.Counter(frames),
		syscalls:   reg.Counter(syscalls),
		perSyscall: reg.Histogram(perSyscall),
		bytes:      reg.Histogram(bytes),
	}
}

// Observe records one physical write of frames frames over n wire bytes
// (prefixes included).
func (s *FlushStats) Observe(frames, n int) {
	s.frames.Add(int64(frames))
	s.syscalls.Inc()
	s.perSyscall.Observe(time.Duration(frames) * 1000)
	s.bytes.Observe(time.Duration(n))
}

// WriteRound puts one taken round on the wire: one write deadline (none
// when timeout is 0), one Write, one observation. An error — including a
// deadline that expired mid-buffer — leaves the stream holding a partial
// frame, so the caller must drop the connection, not retry.
func (s *FlushStats) WriteRound(conn net.Conn, timeout time.Duration, out []byte, frames int) error {
	if timeout > 0 {
		// A conn that cannot take a deadline still reports through Write.
		_ = conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	_, err := conn.Write(out)
	s.Observe(frames, len(out))
	return err
}
