package delivery

import (
	"fmt"
	"hash/maphash"

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
// table of up to 512 terms spelled out on the connection, in the order they
// were last used, and the Seq and DocID of its last event, all empty/zero
// when the connection opens; a reattach is a new connection, so it starts
// over on both ends. An events payload is
//
//	type, event count, then per event:
//	  zigzag(Seq − (previous Seq + 1)), zigzag(DocID − previous DocID),
//	  filter count, filter IDs, term count, one tag per term
//
// where a term's tag t is a uvarint: an even t is a literal of t>>1 bytes
// that follows the tag, which both ends then store in the table — at the
// next unfilled slot while there is one, else in the slot of the least
// recently used term; an odd t names the term in slot t>>1. Either way the
// term becomes the most recently used. A literal shorter than 64 bytes costs
// what a length-prefixed string does, and a term the table holds costs one
// byte in slots 0–63 and two in slots 64–511. A reference to a slot no
// literal has filled is a protocol error.
//
// Retired numbers are never reused: a frame from an older peer must fail as
// an unexpected frame, not decode as something else.
const (
	frameHello   = 1 // client → server: subscriber name + resume ack
	frameHelloOK = 2 // server → client: HelloInfo
	// 3 retired: events with every term spelled out and Seq and DocID sent
	// absolute (the layout before the per-connection term table).
	frameAck  = 4 // client → server: cumulative ack
	framePing = 5 // server → client: heartbeat probe
	framePong = 6 // client → server: heartbeat reply
	frameBye  = 7 // server → client: reason, then close
	// 8 retired: events coded against a 64-slot table that replaced its
	// oldest literal first.
	frameEvents = 9 // server → client: batch of sequenced events, coded against the connection's state
)

// tableSlots is the most terms a connection's term table holds.
const tableSlots = 512

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

// termTable is one end's copy of a connection's term table. Both ends apply
// the same two operations in the same order — use on a reference, place on a
// literal — so they hold the same term in every slot. The slices grow with
// the distinct terms the connection has carried, up to tableSlots: a session
// that repeats a small vocabulary (fanout_heavy's 18 terms) holds 18 slots,
// while a full table is ≈ 15.9 KB of string headers, links and (on the
// server) index plus the term bytes it keeps alive (TestWarmTermTableCost and
// TestFullTermTableCost price the two).
type termTable struct {
	terms []string
	// link is a circular recency list: link[0] is its sentinel and
	// link[s+1] slot s's entry, so link[0].next is 1 + the most recently
	// used slot and link[0].prev 1 + the least recently used.
	link []link
}

type link struct{ prev, next uint16 }

// use makes slot the most recently used.
func (t *termTable) use(slot int) {
	i := uint16(slot + 1)
	l := t.link[i]
	t.link[l.prev].next, t.link[l.next].prev = l.next, l.prev
	t.pushFront(i)
}

func (t *termTable) pushFront(i uint16) {
	head := t.link[0].next
	t.link[i] = link{next: head}
	t.link[head].prev = i
	t.link[0].next = i
}

// place stores a literal in the next unfilled slot while the table has one,
// else over the least recently used term, and makes it the most recently
// used. It returns the slot and, when full, the term it replaced.
func (t *termTable) place(term string) (slot int, replaced string, full bool) {
	if len(t.terms) == tableSlots {
		slot = int(t.link[0].prev - 1)
		replaced, t.terms[slot] = t.terms[slot], term
		t.use(slot)
		return slot, replaced, true
	}
	if len(t.terms) == cap(t.terms) {
		// Exact capacities: append would overshoot tableSlots.
		n := min(max(2*cap(t.terms), 8), tableSlots)
		t.terms = append(make([]string, 0, n), t.terms...)
		t.link = append(make([]link, 0, n+1), t.link...)
	}
	if len(t.link) == 0 {
		t.link = append(t.link, link{}) // the sentinel of an empty list
	}
	t.terms = append(t.terms, term)
	t.link = append(t.link, link{})
	t.pushFront(uint16(len(t.terms)))
	return len(t.terms) - 1, "", false
}

// EventEncoder is the server's half of one connection's event state. The
// zero value is a fresh connection's. Every frame Append encodes must reach
// the client, in order: the client's EventDecoder advances in lockstep.
type EventEncoder struct {
	table termTable
	// index finds a term's slot: open addressing with linear probing, kept
	// at most half full (1,024 buckets once the table is full). A bucket is
	// 0 when empty, else the low 16 bits of its term's hash above 1 + the
	// slot: a probe compares a string only where those bits agree, and
	// neither moving a bucket nor growing the index hashes a term again.
	index    []uint32
	seq, doc uint64
}

var indexSeed = maphash.MakeSeed()

func hashTerm(term string) uint64 { return maphash.String(indexSeed, term) }

// lookup returns the slot holding term, whose hash is h, or -1.
func (e *EventEncoder) lookup(term string, h uint64) int {
	if len(e.index) == 0 {
		return -1
	}
	mask := uint64(len(e.index) - 1)
	for b := h & mask; e.index[b] != 0; b = (b + 1) & mask {
		if x := e.index[b]; x>>16 == uint32(uint16(h)) && e.table.terms[x&0xffff-1] == term {
			return int(x&0xffff) - 1
		}
	}
	return -1
}

// learn places a literal, whose hash is h, in the table and the index.
func (e *EventEncoder) learn(term string, h uint64) {
	slot, replaced, full := e.table.place(term)
	if full {
		e.unindex(hashTerm(replaced), slot)
	}
	if 2*len(e.table.terms) > len(e.index) {
		old := e.index
		e.index = make([]uint32, max(16, 2*len(old)))
		for _, x := range old {
			if x != 0 {
				e.indexAt(x)
			}
		}
	}
	e.indexAt(uint32(uint16(h))<<16 | uint32(slot+1))
}

// indexAt puts bucket value x in the first empty bucket from its home on.
func (e *EventEncoder) indexAt(x uint32) {
	mask := uint32(len(e.index) - 1)
	b := x >> 16 & mask
	for e.index[b] != 0 {
		b = (b + 1) & mask
	}
	e.index[b] = x
}

// unindex removes slot's bucket — the term it held hashed to h — and moves
// later buckets of its probe run back over the hole, so that no lookup meets
// an empty bucket before its term.
func (e *EventEncoder) unindex(h uint64, slot int) {
	mask := uint32(len(e.index) - 1)
	hole := uint32(h) & mask
	for e.index[hole]&0xffff != uint32(slot+1) {
		hole = (hole + 1) & mask
	}
	for b := (hole + 1) & mask; e.index[b] != 0; b = (b + 1) & mask {
		// The bucket at b may fill the hole unless its home lies
		// cyclically after the hole, in (hole, b].
		if home := e.index[b] >> 16 & mask; (b-home)&mask >= (b-hole)&mask {
			e.index[hole] = e.index[b]
			hole = b
		}
	}
	e.index[hole] = 0
}

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
			h := hashTerm(term)
			if slot := e.lookup(term, h); slot >= 0 {
				e.table.use(slot)
				w.Uvarint(uint64(slot)<<1 | 1)
				continue
			}
			w.Uvarint(uint64(len(term)) << 1)
			w.Raw(term)
			e.learn(term, h)
		}
	}
}

// EventDecoder is the client's half of one connection's event state. The
// zero value is a fresh connection's. After Decode returns an error the state
// no longer mirrors the server's, and the connection must be dropped.
type EventDecoder struct {
	table    termTable
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
		if slot >= uint64(len(d.table.terms)) {
			return "", fmt.Errorf("delivery: term tag %d names slot %d, %d filled", tag, slot, len(d.table.terms))
		}
		d.table.use(int(slot))
		return d.table.terms[slot], nil
	}
	b, err := r.Raw(tag >> 1)
	if err != nil {
		return "", err
	}
	term := string(b)
	d.table.place(term)
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
// publish fan-out — or not at all: Ref asks for a reference to the copy the
// owner was just sent to match, DocID and TermsDigest (DESIGN.md §14). A
// decoded reference has Ref and Digest set and no Terms.
type Batch struct {
	DocID  uint64
	Terms  []string
	Ref    bool
	Digest uint64
	Notifs []Notification
}

// The forms of a batch's document field: its terms, or their digest.
const batchInline, batchRef = 0, 1

// AppendBatch encodes a routed delivery batch (no type byte — the node
// layer owns its message-type namespace): the document ID, the document
// field — a form byte, then the term list or, when Ref is set and it is
// shorter, the 8-byte digest — and the notifications.
func AppendBatch(w *codec.Writer, b *Batch) {
	w.Uvarint(b.DocID)
	if b.Ref && refShorter(b.Terms) {
		w.Uint8(batchRef)
		w.Uint64(TermsDigest(b.Terms))
	} else {
		w.Uint8(batchInline)
		w.StringSlice(b.Terms)
	}
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

// refShorter reports whether a reference's 8 digest bytes are fewer than the
// term list's: the sum is a lower bound of its size, exact below 9 bytes.
func refShorter(terms []string) bool {
	size := 1
	for _, t := range terms {
		if size += 1 + len(t); size > 8 {
			return true
		}
	}
	return false
}

// DecodeBatch decodes a routed delivery batch in either form.
func DecodeBatch(r *codec.Reader) (*Batch, error) {
	b := &Batch{}
	var err error
	if b.DocID, err = r.Uvarint(); err != nil {
		return nil, err
	}
	form, err := r.Uint8()
	if err != nil {
		return nil, err
	}
	switch form {
	case batchInline:
		b.Terms, err = r.StringSlice()
	case batchRef:
		b.Ref = true
		b.Digest, err = r.Uint64()
	default:
		err = fmt.Errorf("delivery: batch document form %d", form)
	}
	if err != nil {
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

// TermsDigest is the FNV-1a 64 hash of each term's uvarint length and bytes,
// so ["ab", "c"] and ["a", "bc"] differ: the same in every process, and
// allocation-free. A reference batch names its document by it.
func TermsDigest(terms []string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, t := range terms {
		n := uint64(len(t))
		for ; n >= 0x80; n >>= 7 {
			h = (h ^ (n&0x7f | 0x80)) * prime
		}
		h = (h ^ n) * prime
		for i := 0; i < len(t); i++ {
			h = (h ^ uint64(t[i])) * prime
		}
	}
	return h
}
