package delivery

import (
	"fmt"

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
const (
	frameHello   = 1 // client → server: subscriber name + resume ack
	frameHelloOK = 2 // server → client: HelloInfo
	frameEvents  = 3 // server → client: batch of sequenced events
	frameAck     = 4 // client → server: cumulative ack
	framePing    = 5 // server → client: heartbeat probe
	framePong    = 6 // client → server: heartbeat reply
	frameBye     = 7 // server → client: reason, then close
)

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

// AppendEvents encodes a batch of sequenced events.
func AppendEvents(w *codec.Writer, evs []*Event) {
	w.Uint8(frameEvents)
	w.Uvarint(uint64(len(evs)))
	for _, ev := range evs {
		w.Uvarint(ev.Seq)
		w.Uvarint(ev.DocID)
		w.Uvarint(uint64(len(ev.Filters)))
		for _, id := range ev.Filters {
			w.Uvarint(uint64(id))
		}
		w.StringSlice(ev.Terms)
	}
}

// DecodeEvents decodes an events payload (after the type byte).
func DecodeEvents(r *codec.Reader) ([]*Event, error) {
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
		if ev.Seq, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if ev.DocID, err = r.Uvarint(); err != nil {
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
			ev.Filters = make([]model.FilterID, nf)
			for j := range ev.Filters {
				v, err := r.Uvarint()
				if err != nil {
					return nil, err
				}
				ev.Filters[j] = model.FilterID(v)
			}
		}
		if ev.Terms, err = r.StringSlice(); err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
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
