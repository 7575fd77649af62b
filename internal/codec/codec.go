// Package codec implements the deterministic binary wire format shared by
// the transport layer and the message types of the MOVE cluster protocol.
// It avoids reflection on the hot path (every published document crosses
// the wire once per forwarded term), using length-prefixed primitives over
// a growable buffer.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Writer appends primitives to a byte buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Reset truncates the writer to zero length, keeping the backing array for
// reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// maxPooledWriterCap bounds the backing arrays the writer pool retains. A
// rare giant frame (a huge batch, a full Bloom exchange) should not pin
// megabytes inside the pool forever; oversized writers are dropped on Put
// and rebuilt on demand.
const maxPooledWriterCap = 1 << 20

// writerPool recycles Writers across RPC encodes. Steady-state frames are
// built in a warm backing array instead of a fresh allocation per message.
var writerPool = sync.Pool{
	New: func() any { return NewWriter(256) },
}

// GetWriter returns an empty pooled writer. Callers must not retain the
// writer — or any slice obtained from Bytes — after PutWriter: the buffer
// is recycled for the next frame. Copy (or send) the bytes first.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter recycles a writer obtained from GetWriter. Safe to call with
// nil; writers that grew beyond maxPooledWriterCap are dropped.
func PutWriter(w *Writer) {
	if w == nil || cap(w.buf) > maxPooledWriterCap {
		return
	}
	writerPool.Put(w)
}

// Bytes returns the encoded buffer. The returned slice aliases the writer's
// internal buffer; callers must not retain it across further writes (or,
// for pooled writers, past PutWriter).
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of encoded bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Uint8 appends one byte.
func (w *Writer) Uint8(v uint8) {
	w.buf = append(w.buf, v)
}

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Uint64 appends v as 8 little-endian bytes (a hash costs less than as a uvarint).
func (w *Writer) Uint64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Float64 appends an IEEE-754 double.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// StringSlice appends a length-prefixed slice of strings.
func (w *Writer) StringSlice(ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// Raw appends s's bytes with no length prefix: the caller's format carries
// the length elsewhere.
func (w *Writer) Raw(s string) {
	w.buf = append(w.buf, s...)
}

// Bytes0 appends a length-prefixed byte slice.
func (w *Writer) Bytes0(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// ErrTruncated reports a read past the end of the buffer.
var ErrTruncated = errors.New("codec: truncated input")

// ErrOverflow reports a length prefix larger than the remaining input.
var ErrOverflow = errors.New("codec: length prefix exceeds input")

// Reader consumes primitives from a byte buffer.
type Reader struct {
	buf []byte
	off int
}

// NewReader wraps data for reading. The reader does not copy data.
func NewReader(data []byte) *Reader {
	return &Reader{buf: data}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("codec: uvarint at offset %d: %w", r.off, ErrTruncated)
	}
	r.off += n
	return v, nil
}

// Uint8 reads one byte.
func (r *Reader) Uint8() (uint8, error) {
	if r.Remaining() < 1 {
		return 0, ErrTruncated
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

// Bool reads a boolean.
func (r *Reader) Bool() (bool, error) {
	b, err := r.Uint8()
	if err != nil {
		return false, err
	}
	return b != 0, nil
}

// Uint64 reads 8 little-endian bytes.
func (r *Reader) Uint64() (uint64, error) {
	if r.Remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() (float64, error) {
	v, err := r.Uint64()
	return math.Float64frombits(v), err
}

// String reads a length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.Remaining()) {
		return "", fmt.Errorf("codec: string of %d bytes: %w", n, ErrOverflow)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// StringSlice reads a length-prefixed slice of strings.
func (r *Reader) StringSlice() ([]string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		// Each element takes at least one byte (its length prefix).
		return nil, fmt.Errorf("codec: %d strings in %d bytes: %w", n, r.Remaining(), ErrOverflow)
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := r.String()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Raw reads n bytes that carry no length prefix of their own. The result
// aliases the input buffer.
func (r *Reader) Raw(n uint64) ([]byte, error) {
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("codec: bytes of %d: %w", n, ErrOverflow)
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// Bytes0 reads a length-prefixed byte slice. The result aliases the input
// buffer.
func (r *Reader) Bytes0() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	return r.Raw(n)
}
