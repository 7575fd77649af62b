package delivery

import (
	"fmt"
	"hash/maphash"
	"math/bits"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/model"
)

// Subscriber-facing frame types. Every frame on a subscriber connection is
// internal/frame's prefix — the payload length as a minimal uvarint, 1 byte
// for every frame a subscriber sends and for an event frame under 128 bytes —
// followed by a payload whose first byte is one of these. The bounds below
// are checked against the prefix before anything is allocated, and a prefix
// that is over-long or not minimal is a protocol error. The prefix was 4
// fixed bytes before this format: a client and a server from either side of
// that change cannot talk, and neither can two daemons (the inter-node tier
// shares the prefix).
//
// Event frames are stateful per connection (DESIGN.md §14). Both ends keep a
// table of the last 64 terms spelled out on the connection and the Seq and
// DocID of its last event, all empty/zero when the connection opens; a
// reattach is a new connection, so it starts over on both ends. An events
// payload is
//
//	type, event count, then per event:
//	  zigzag(Seq − (previous Seq + 1)), zigzag(DocID − previous DocID),
//	  filter count, filter IDs, term count, one tag per term
//
// where a term's tag t is a uvarint: an even t is a literal of t>>1 bytes
// that follows the tag, which both ends then store at the table's next slot
// (FIFO: the slot after the last one filled, wrapping at 64, so the oldest
// literal is replaced); an odd t names the term in slot t>>1. A literal
// shorter than 64 bytes costs what a length-prefixed string does, and a
// term the table holds costs one byte. A reference to a slot no literal has
// filled is a protocol error.
//
// Retired numbers are never reused: a frame from an older peer must fail as
// an unexpected frame, not decode as something else.
const (
	frameHello   = 1 // client → server: subscriber name + resume ack
	frameHelloOK = 2 // server → client: HelloInfo
	// 3 retired: events with every term spelled out and Seq and DocID sent
	// absolute (the layout before the per-connection term table).
	frameAck    = 4 // client → server: cumulative ack
	framePing   = 5 // server → client: heartbeat probe
	framePong   = 6 // client → server: heartbeat reply
	frameBye    = 7 // server → client: reason, then close
	frameEvents = 8 // server → client: batch of sequenced events, coded against the connection's state
)

// tableSlots is the size of each connection's term table.
const tableSlots = 64

// maxFrame bounds a server → client frame (events dominate); anything
// larger is a protocol error.
const maxFrame = 16 << 20

// maxInboundFrame bounds a client → server frame. Subscribers send only
// hello, ack and pong; the largest is a hello — type byte, subscriber name
// with its length prefix, resume ack (≤ 10 bytes) — so 4 KiB admits names
// of up to ~4,000 bytes while a bare header from an unidentified socket can
// make the server allocate at most this much.
const maxInboundFrame = 4 << 10

// inboundBuffer sizes the server's buffered reader per subscriber connection:
// room for several acks (type byte + uvarint seq, behind a one-byte prefix).
const inboundBuffer = 64

// AppendHello encodes a client hello: the subscriber name and the highest
// sequence number the client has durably consumed (0 for a fresh session).
func AppendHello(w *codec.Writer, sub string, resumeAck uint64) {
	w.Uint8(frameHello)
	w.String(sub)
	w.Uvarint(resumeAck)
}

// DecodeHello decodes a hello payload (after the type byte).
func DecodeHello(r *codec.Reader) (sub string, resumeAck uint64, err error) {
	if sub, err = r.String(); err != nil {
		return "", 0, err
	}
	if resumeAck, err = r.Uvarint(); err != nil {
		return "", 0, err
	}
	return sub, resumeAck, nil
}

// AppendHelloOK encodes the server's attach response.
func AppendHelloOK(w *codec.Writer, info HelloInfo) {
	w.Uint8(frameHelloOK)
	w.Uvarint(info.AckSeq)
	w.Uvarint(info.NextSeq)
	w.Uvarint(uint64(info.Redeliver))
}

// DecodeHelloOK decodes an attach response payload (after the type byte).
func DecodeHelloOK(r *codec.Reader) (HelloInfo, error) {
	var info HelloInfo
	var err error
	if info.AckSeq, err = r.Uvarint(); err != nil {
		return HelloInfo{}, err
	}
	if info.NextSeq, err = r.Uvarint(); err != nil {
		return HelloInfo{}, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return HelloInfo{}, err
	}
	if n > uint64(maxFrame) {
		return HelloInfo{}, fmt.Errorf("delivery: redeliver count %d overflows frame", n)
	}
	info.Redeliver = int(n)
	return info, nil
}

// EventEncoder is the server's half of one connection's event state. The
// zero value is a fresh connection's. Every frame Append encodes must reach
// the client, in order: the client's EventDecoder advances in lockstep.
type EventEncoder struct {
	table    encoderTable
	next     uint8 // slot the next literal fills
	seq, doc uint64
}

// encoderTable holds the terms and, per slot, a one-byte fingerprint of the
// term's hash (0 marks an empty slot; fingerprint never returns it). A lookup
// compares the fingerprints eight slots to a word, and a string only where a
// fingerprint matches: a miss — every term of a document the table does not
// hold — costs eight word operations, not 64 compares. The table is 1,088 B
// of every subscriber connection (TestWarmTermTableCost prices it).
type encoderTable struct {
	terms [tableSlots]string
	fps   [tableSlots / 8]uint64
}

const (
	lowBits  = 0x0101010101010101
	highBits = 0x8080808080808080
)

// slot returns the slot holding term, whose fingerprint is fp, or -1.
func (t *encoderTable) slot(term string, fp uint8) int {
	want := uint64(fp) * lowBits
	for w, word := range &t.fps {
		// A byte of x is zero where a slot's fingerprint is fp. The first
		// test says whether any byte is (a borrow can flag extra bytes, but
		// never in a word without a zero byte); the second marks which.
		x := word ^ want
		if (x-lowBits)&^x&highBits == 0 {
			continue
		}
		zero := ^((x&^highBits + ^uint64(highBits)) | x | ^uint64(highBits))
		for zero != 0 {
			if i := w*8 + bits.TrailingZeros64(zero)/8; t.terms[i] == term {
				return i
			}
			zero &= zero - 1
		}
	}
	return -1
}

// set stores term, whose fingerprint is fp, in slot i.
func (t *encoderTable) set(i int, term string, fp uint8) {
	t.terms[i] = term
	shift := 8 * (i % 8)
	t.fps[i/8] = t.fps[i/8]&^(0xff<<shift) | uint64(fp)<<shift
}

// fingerprint is a byte of the term's hash other than 0.
func fingerprint(term string) uint8 {
	return uint8(maphash.String(fingerprintSeed, term)%255) + 1
}

var fingerprintSeed = maphash.MakeSeed()

// zigzag maps a wrapped difference to a small uvarint whichever way it went.
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

func unzigzag(z uint64) uint64 { return z>>1 ^ -(z & 1) }

// Append encodes evs as one events frame and advances the connection's state
// past them.
func (e *EventEncoder) Append(w *codec.Writer, evs []*Event) {
	w.Uint8(frameEvents)
	w.Uvarint(uint64(len(evs)))
	for _, ev := range evs {
		w.Uvarint(zigzag(ev.Seq - (e.seq + 1)))
		w.Uvarint(zigzag(ev.DocID - e.doc))
		e.seq, e.doc = ev.Seq, ev.DocID
		w.Uvarint(uint64(len(ev.Filters)))
		for _, id := range ev.Filters {
			w.Uvarint(uint64(id))
		}
		w.Uvarint(uint64(len(ev.Terms)))
		for _, term := range ev.Terms {
			fp := fingerprint(term)
			if slot := e.table.slot(term, fp); slot >= 0 {
				w.Uvarint(uint64(slot)<<1 | 1)
				continue
			}
			w.Uvarint(uint64(len(term)) << 1)
			w.Raw(term)
			e.table.set(int(e.next), term, fp)
			e.next = (e.next + 1) % tableSlots
		}
	}
}

// EventDecoder is the client's half of one connection's event state. The
// zero value is a fresh connection's. After Decode returns an error the state
// no longer mirrors the server's, and the connection must be dropped.
type EventDecoder struct {
	terms    [tableSlots]string
	next     uint8 // slot the next literal fills
	filled   uint8 // slots [0, filled) hold a term
	seq, doc uint64
}

// Decode decodes an events payload (after the type byte) and advances the
// connection's state past it. Decoded events share the table's strings: a
// term the table holds costs no allocation.
func (d *EventDecoder) Decode(r *codec.Reader) ([]*Event, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("delivery: event count %d overflows payload", n)
	}
	evs := make([]*Event, 0, n)
	for i := uint64(0); i < n; i++ {
		ev := &Event{}
		ds, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		dd, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		ev.Seq, ev.DocID = d.seq+1+unzigzag(ds), d.doc+unzigzag(dd)
		d.seq, d.doc = ev.Seq, ev.DocID
		nf, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if nf > uint64(r.Remaining()) {
			return nil, fmt.Errorf("delivery: filter count %d overflows payload", nf)
		}
		if nf > 0 {
			ev.Filters = make([]model.FilterID, nf)
			for j := range ev.Filters {
				v, err := r.Uvarint()
				if err != nil {
					return nil, err
				}
				ev.Filters[j] = model.FilterID(v)
			}
		}
		nt, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if nt > uint64(r.Remaining()) {
			return nil, fmt.Errorf("delivery: term count %d overflows payload", nt)
		}
		ev.Terms = make([]string, nt)
		for j := range ev.Terms {
			if ev.Terms[j], err = d.term(r); err != nil {
				return nil, err
			}
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// term decodes one term tag, storing a literal in the table.
func (d *EventDecoder) term(r *codec.Reader) (string, error) {
	tag, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if tag&1 == 1 {
		slot := tag >> 1
		if slot >= uint64(d.filled) {
			return "", fmt.Errorf("delivery: term tag %d names slot %d, %d filled", tag, slot, d.filled)
		}
		return d.terms[slot], nil
	}
	b, err := r.Raw(tag >> 1)
	if err != nil {
		return "", err
	}
	term := string(b)
	d.terms[d.next] = term
	d.next = (d.next + 1) % tableSlots
	if d.filled < tableSlots {
		d.filled++
	}
	return term, nil
}

// AppendAck encodes a cumulative ack.
func AppendAck(w *codec.Writer, seq uint64) {
	w.Uint8(frameAck)
	w.Uvarint(seq)
}

// DecodeAck decodes an ack payload (after the type byte).
func DecodeAck(r *codec.Reader) (uint64, error) { return r.Uvarint() }

// AppendBye encodes a bye with its reason.
func AppendBye(w *codec.Writer, reason string) {
	w.Uint8(frameBye)
	w.String(reason)
}

// DecodeBye decodes a bye payload (after the type byte).
func DecodeBye(r *codec.Reader) (string, error) { return r.String() }

// Notification is one subscriber's slice of a routed delivery batch: the
// filter IDs of theirs that matched the document.
type Notification struct {
	Sub     string
	Filters []model.FilterID
}

// Batch is the node-to-node delivery payload (msgDeliverBatch body): one
// matched document plus every notification bound for sessions owned by the
// destination node. The document is encoded once no matter how many
// subscribers it fans out to — the same coalescing discipline as the
// publish fan-out.
type Batch struct {
	DocID  uint64
	Terms  []string
	Notifs []Notification
}

// AppendBatch encodes a routed delivery batch (no type byte — the node
// layer owns its message-type namespace).
func AppendBatch(w *codec.Writer, b *Batch) {
	w.Uvarint(b.DocID)
	w.StringSlice(b.Terms)
	w.Uvarint(uint64(len(b.Notifs)))
	for i := range b.Notifs {
		n := &b.Notifs[i]
		w.String(n.Sub)
		w.Uvarint(uint64(len(n.Filters)))
		for _, id := range n.Filters {
			w.Uvarint(uint64(id))
		}
	}
}

// DecodeBatch decodes a routed delivery batch.
func DecodeBatch(r *codec.Reader) (*Batch, error) {
	b := &Batch{}
	var err error
	if b.DocID, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if b.Terms, err = r.StringSlice(); err != nil {
		return nil, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("delivery: notification count %d overflows payload", n)
	}
	b.Notifs = make([]Notification, 0, n)
	for i := uint64(0); i < n; i++ {
		var nt Notification
		if nt.Sub, err = r.String(); err != nil {
			return nil, err
		}
		nf, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if nf > uint64(r.Remaining()) {
			return nil, fmt.Errorf("delivery: filter count %d overflows payload", nf)
		}
		if nf > 0 {
			nt.Filters = make([]model.FilterID, nf)
			for j := range nt.Filters {
				v, err := r.Uvarint()
				if err != nil {
					return nil, err
				}
				nt.Filters[j] = model.FilterID(v)
			}
		}
		b.Notifs = append(b.Notifs, nt)
	}
	return b, nil
}
