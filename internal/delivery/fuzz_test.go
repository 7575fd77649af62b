package delivery

import (
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
// must not take down a session owner). The length framing around the
// payloads is internal/frame's, fuzzed there (FuzzFrameRead).
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

		// Events.
		evs := []*Event{
			{Seq: seq, DocID: docID, Filters: filters, Terms: terms},
			{Seq: seq + 1, DocID: docID + 1, Terms: terms},
		}
		w = codec.NewWriter(0)
		AppendEvents(w, evs)
		r = mustFrame(t, w.Bytes(), frameEvents)
		gotEvs, err := DecodeEvents(r)
		if err != nil || len(gotEvs) != len(evs) {
			t.Fatalf("events: %d %v, want %d", len(gotEvs), err, len(evs))
		}
		for i, ev := range evs {
			got := gotEvs[i]
			if got.Seq != ev.Seq || got.DocID != ev.DocID || len(got.Filters) != len(ev.Filters) || len(got.Terms) != len(ev.Terms) {
				t.Fatalf("events[%d]: %+v, want %+v", i, got, ev)
			}
			for j := range ev.Filters {
				if got.Filters[j] != ev.Filters[j] {
					t.Fatalf("events[%d].Filters[%d]: %d, want %d", i, j, got.Filters[j], ev.Filters[j])
				}
			}
			for j := range ev.Terms {
				if got.Terms[j] != ev.Terms[j] {
					t.Fatalf("events[%d].Terms[%d]: %q, want %q", i, j, got.Terms[j], ev.Terms[j])
				}
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

		// Routed batch (msgDeliverBatch body).
		b := &Batch{
			DocID: docID,
			Terms: terms,
			Notifs: []Notification{
				{Sub: sub, Filters: filters},
				{Sub: sub + "-2"},
			},
		}
		w = codec.NewWriter(0)
		AppendBatch(w, b)
		batchBytes := append([]byte(nil), w.Bytes()...)
		gotB, err := DecodeBatch(codec.NewReader(batchBytes))
		if err != nil || gotB.DocID != b.DocID || len(gotB.Terms) != len(b.Terms) || len(gotB.Notifs) != len(b.Notifs) {
			t.Fatalf("batch: %+v %v, want %+v", gotB, err, b)
		}
		for i := range b.Notifs {
			if gotB.Notifs[i].Sub != b.Notifs[i].Sub || len(gotB.Notifs[i].Filters) != len(b.Notifs[i].Filters) {
				t.Fatalf("batch notif[%d]: %+v, want %+v", i, gotB.Notifs[i], b.Notifs[i])
			}
		}

		// Decode-never-panics: every decoder over the raw fuzz bytes from
		// several offsets, and over truncated prefixes of a valid batch —
		// the shape a torn read produces. Errors are expected; panics are
		// bugs.
		for off := 0; off <= len(raw) && off < 32; off++ {
			chew(raw[off:])
		}
		for cut := 0; cut < len(batchBytes); cut++ {
			_, _ = DecodeBatch(codec.NewReader(batchBytes[:cut]))
		}
	})
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

// chew runs every payload decoder over arbitrary bytes.
func chew(data []byte) {
	_, _, _ = DecodeHello(codec.NewReader(data))
	_, _ = DecodeHelloOK(codec.NewReader(data))
	_, _ = DecodeEvents(codec.NewReader(data))
	_, _ = DecodeAck(codec.NewReader(data))
	_, _ = DecodeBye(codec.NewReader(data))
	_, _ = DecodeBatch(codec.NewReader(data))
}
