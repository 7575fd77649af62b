package delivery

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/model"
)

// FuzzDeliverFrameRoundTrip checks the two properties every delivery frame
// payload rests on (the same contract FuzzCodecRoundTrip enforces for the
// primitives): decode(encode(x)) == x for every frame type — hello,
// hello-ok, events, ack, bye, and the node-to-node routed batch — and
// decoding arbitrary or truncated bytes never panics (a malformed frame
// must not take down a session owner). Event frames are coded against a
// per-connection state, so they run as a sequence through one encoder and
// one decoder, and the raw bytes go through a fresh decoder and a warm one.
// The length framing around the payloads is internal/frame's, fuzzed there
// (FuzzFrameRead).
func FuzzDeliverFrameRoundTrip(f *testing.F) {
	f.Add("alice", uint64(0), uint64(1), uint64(1), uint64(7), uint64(9), "breaking,news", "replaced", []byte(nil))
	f.Add("", uint64(1<<40), uint64(1<<63), uint64(300), uint64(0), uint64(1<<20), "", "slow-consumer: disconnect", []byte{0x00, 0xff})
	f.Add("bob/with/slashes", uint64(2), uint64(2), uint64(128), uint64(1), uint64(1), "a", "", []byte("go test fuzz"))
	f.Add(strings.Repeat("s", 200), uint64(12345), uint64(99), uint64(7), uint64(42), uint64(43), "t1,t2,t3,t4", "idle-timeout", []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, sub string, resume, docID, seq, filterA, filterB uint64, termsCSV, reason string, raw []byte) {
		terms := strings.Split(termsCSV, ",")
		filters := []model.FilterID{model.FilterID(filterA), model.FilterID(filterB)}

		// Hello.
		w := codec.NewWriter(0)
		AppendHello(w, sub, resume)
		r := mustFrame(t, w.Bytes(), frameHello)
		gotSub, gotResume, err := DecodeHello(r)
		if err != nil || gotSub != sub || gotResume != resume {
			t.Fatalf("hello: %q %d %v, want %q %d", gotSub, gotResume, err, sub, resume)
		}

		// HelloOK.
		info := HelloInfo{AckSeq: resume, NextSeq: seq, Redeliver: int(uint16(docID))}
		w = codec.NewWriter(0)
		AppendHelloOK(w, info)
		r = mustFrame(t, w.Bytes(), frameHelloOK)
		gotInfo, err := DecodeHelloOK(r)
		if err != nil || gotInfo != info {
			t.Fatalf("hello-ok: %+v %v, want %+v", gotInfo, err, info)
		}

		// Events: one encoder/decoder pair across a connection's worth of
		// frames must stay in lockstep, every event round-tripping exactly.
		var enc EventEncoder
		var dec EventDecoder
		for k, evs := range eventFrames(seq, docID, filters, terms, raw) {
			w = codec.NewWriter(0)
			enc.Append(w, evs)
			r = mustFrame(t, w.Bytes(), frameEvents)
			got, err := dec.Decode(r)
			if err != nil || r.Remaining() != 0 {
				t.Fatalf("events frame %d: %v, %d bytes left over", k, err, r.Remaining())
			}
			if err := sameEvents(got, evs); err != nil {
				t.Fatalf("events frame %d: %v", k, err)
			}
		}

		// Ack.
		w = codec.NewWriter(0)
		AppendAck(w, seq)
		r = mustFrame(t, w.Bytes(), frameAck)
		if gotSeq, err := DecodeAck(r); err != nil || gotSeq != seq {
			t.Fatalf("ack: %d %v, want %d", gotSeq, err, seq)
		}

		// Bye.
		w = codec.NewWriter(0)
		AppendBye(w, reason)
		r = mustFrame(t, w.Bytes(), frameBye)
		if gotReason, err := DecodeBye(r); err != nil || gotReason != reason {
			t.Fatalf("bye: %q %v, want %q", gotReason, err, reason)
		}

		// Routed batch (msgDeliverBatch body), inline and asking for a
		// reference, which carries the digest and no terms when it is the
		// shorter form.
		var batchBytes []byte
		for _, ref := range []bool{false, true} {
			b := &Batch{
				DocID: docID,
				Terms: terms,
				Ref:   ref,
				Notifs: []Notification{
					{Sub: sub, Filters: filters},
					{Sub: sub + "-2"},
				},
			}
			w = codec.NewWriter(0)
			AppendBatch(w, b)
			batchBytes = append(batchBytes[:0], w.Bytes()...)
			gotB, err := DecodeBatch(codec.NewReader(batchBytes))
			byRef := ref && refShorter(terms)
			if err != nil || gotB.DocID != b.DocID || gotB.Ref != byRef || len(gotB.Notifs) != len(b.Notifs) {
				t.Fatalf("batch: %+v %v, want %+v", gotB, err, b)
			}
			if byRef && (gotB.Terms != nil || gotB.Digest != TermsDigest(terms)) || !byRef && len(gotB.Terms) != len(b.Terms) {
				t.Fatalf("batch document field (ref=%v): terms %q digest %x, want %d terms", byRef, gotB.Terms, gotB.Digest, len(terms))
			}
			for i := range b.Notifs {
				if gotB.Notifs[i].Sub != b.Notifs[i].Sub || len(gotB.Notifs[i].Filters) != len(b.Notifs[i].Filters) {
					t.Fatalf("batch notif[%d]: %+v, want %+v", i, gotB.Notifs[i], b.Notifs[i])
				}
			}
			for cut := 0; cut < len(batchBytes); cut++ {
				_, _ = DecodeBatch(codec.NewReader(batchBytes[:cut]))
			}
		}

		// Decode-never-panics: every decoder over the raw fuzz bytes from
		// several offsets (the truncated batches above are the shape a torn
		// read produces). Errors are expected; panics are bugs.
		for off := 0; off <= len(raw) && off < 32; off++ {
			chew(t, raw[off:])
		}
		// The same bytes through the decoder the frames above warmed.
		if evs, err := dec.Decode(codec.NewReader(raw)); err == nil {
			reencodes(t, evs)
		}
	})
}

// eventFrames is a connection's worth of event frames built from the fuzz
// inputs: the inputs' own events; more distinct terms than the table has
// slots, so least-recently-used replacement runs and the raw bytes, two to a
// pick, choose which replaced or resident terms come back, in one-byte and
// two-byte slots; literals of 63, 64 and 200 bytes — either side of the
// one-byte tag and far past it — sent twice; and Seq and DocID values that go
// down, wrap, and jump to 1<<63.
func eventFrames(seq, docID uint64, filters []model.FilterID, terms []string, raw []byte) [][]*Event {
	frames := [][]*Event{{
		{Seq: seq, DocID: docID, Filters: filters, Terms: terms},
		{Seq: seq + 1, DocID: docID + 1, Terms: terms},
	}}
	vocab := make([]string, tableSlots+88)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("v%03d", i)
	}
	heads := []uint64{seq + 2, seq - 5, 1 << 63, 0, math.MaxUint64, 1<<63 - 1, seq, 1, docID}
	var evs []*Event
	for i := 0; i < len(vocab)/8; i++ {
		evs = append(evs, &Event{
			Seq: heads[i%len(heads)], DocID: heads[(i+4)%len(heads)] ^ docID,
			Filters: filters[:i%3], Terms: vocab[8*i : 8*i+8],
		})
	}
	frames = append(frames, evs[:5], evs[5:])
	long := []string{strings.Repeat("a", 63), strings.Repeat("b", 64), strings.Repeat("c", 200)}
	var picks []string
	for i := 0; i+1 < len(raw); i += 2 {
		picks = append(picks, vocab[(int(raw[i])<<8|int(raw[i+1]))%len(vocab)])
	}
	frames = append(frames, []*Event{
		{Seq: 1 << 63, DocID: 1 << 63, Terms: append(append([]string{}, long...), long...)},
		{Seq: seq, DocID: docID - 1, Filters: filters, Terms: append(picks, terms...)},
		{Seq: seq + 1, DocID: docID, Terms: long},
	})
	return frames
}

// sameEvents reports the first difference between decoded and sent events.
func sameEvents(got, want []*Event) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, want %d", len(got), len(want))
	}
	for i, ev := range want {
		g := got[i]
		if g.Seq != ev.Seq || g.DocID != ev.DocID || len(g.Filters) != len(ev.Filters) || len(g.Terms) != len(ev.Terms) {
			return fmt.Errorf("event %d: %+v, want %+v", i, g, ev)
		}
		for j := range ev.Filters {
			if g.Filters[j] != ev.Filters[j] {
				return fmt.Errorf("event %d filter %d: %d, want %d", i, j, g.Filters[j], ev.Filters[j])
			}
		}
		for j := range ev.Terms {
			if g.Terms[j] != ev.Terms[j] {
				return fmt.Errorf("event %d term %d: %q, want %q", i, j, g.Terms[j], ev.Terms[j])
			}
		}
	}
	return nil
}

// mustFrame asserts the payload's leading frame-type byte and returns a
// reader positioned after it.
func mustFrame(t *testing.T, payload []byte, want uint8) *codec.Reader {
	t.Helper()
	r := codec.NewReader(payload)
	typ, err := r.Uint8()
	if err != nil || typ != want {
		t.Fatalf("frame type %d %v, want %d", typ, err, want)
	}
	return r
}

// chew runs every payload decoder over arbitrary bytes, the events decoder
// on a fresh connection.
func chew(t *testing.T, data []byte) {
	t.Helper()
	_, _, _ = DecodeHello(codec.NewReader(data))
	_, _ = DecodeHelloOK(codec.NewReader(data))
	var fresh EventDecoder
	if evs, err := fresh.Decode(codec.NewReader(data)); err == nil {
		reencodes(t, evs)
	}
	_, _ = DecodeAck(codec.NewReader(data))
	_, _ = DecodeBye(codec.NewReader(data))
	_, _ = DecodeBatch(codec.NewReader(data))
}

// reencodes holds events a decoder accepted to what an encoder sends: on a
// fresh connection they encode to a frame that decodes to the same events.
func reencodes(t *testing.T, evs []*Event) {
	t.Helper()
	var enc EventEncoder
	var dec EventDecoder
	w := codec.NewWriter(64)
	enc.Append(w, evs)
	again, err := dec.Decode(mustFrame(t, w.Bytes(), frameEvents))
	if err != nil {
		t.Fatalf("accepted events re-encode to an undecodable frame: %v", err)
	}
	if err := sameEvents(again, evs); err != nil {
		t.Fatalf("accepted events re-encode differently: %v", err)
	}
}
