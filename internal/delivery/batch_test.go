package delivery

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/testutil"
)

// TestTermsDigest: the digest is the standard FNV-1a 64 of each term's
// uvarint length followed by its bytes — so a boundary moved between terms
// changes it — lengths past 127 included, and it allocates nothing.
func TestTermsDigest(t *testing.T) {
	long := strings.Repeat("x", 300)
	for _, terms := range [][]string{nil, {""}, {"ab", "c"}, {"a", "bc"}, {"abc"}, {long, "y"}, {"term0001", "term0002", "term0003"}} {
		h := fnv.New64a()
		for _, term := range terms {
			h.Write(binary.AppendUvarint(nil, uint64(len(term))))
			h.Write([]byte(term))
		}
		if got, want := TermsDigest(terms), h.Sum64(); got != want {
			t.Fatalf("TermsDigest(%.20q) = %x, want FNV-1a %x", terms, got, want)
		}
	}
	if TermsDigest([]string{"ab", "c"}) == TermsDigest([]string{"a", "bc"}) {
		t.Fatal(`["ab" "c"] and ["a" "bc"] share a digest`)
	}
	if testutil.RaceEnabled {
		return
	}
	terms := []string{"term0001", long}
	if allocs := testing.AllocsPerRun(100, func() { TermsDigest(terms) }); allocs != 0 {
		t.Fatalf("TermsDigest allocated %.0f times, want 0", allocs)
	}
}

// TestBatchReferenceForm: a batch asking for a reference spends a form byte
// and eight digest bytes on its document when the inline term list would take
// more than eight, and goes inline otherwise — on both sides of that line and
// past a two-byte term count; an unknown form byte is refused.
func TestBatchReferenceForm(t *testing.T) {
	notifs := []Notification{{Sub: "alice"}}
	size := func(terms []string, ref bool) int {
		w := codec.NewWriter(0)
		AppendBatch(w, &Batch{DocID: 70000, Terms: terms, Ref: ref, Notifs: notifs})
		return w.Len()
	}
	bare := size(nil, false) // DocID, form byte, zero terms, notifications
	for _, tc := range []struct {
		terms []string
		ref   bool // the reference form is taken
	}{
		{[]string{"abcdef"}, false},                         // 1 + 7 bytes of terms
		{[]string{"abcdefg"}, true},                         // 1 + 8
		{[]string{"ab", "cd", "e"}, true},                   // 1 + 3 + 3 + 2
		{strings.Split(strings.Repeat("t", 130), ""), true}, // 130 terms: a 2-byte count
	} {
		inline := size(tc.terms, false)
		got := size(tc.terms, true)
		want := inline
		if tc.ref {
			want = bare - 1 + 8
		}
		if got != want {
			t.Fatalf("%d term(s) of %d B inline: a reference batch is %d bytes, want %d", len(tc.terms), inline-bare, got, want)
		}
		w := codec.NewWriter(0)
		AppendBatch(w, &Batch{DocID: 70000, Terms: tc.terms, Ref: true, Notifs: notifs})
		b, err := DecodeBatch(codec.NewReader(w.Bytes()))
		if err != nil || b.Ref != tc.ref || tc.ref && (b.Terms != nil || b.Digest != TermsDigest(tc.terms)) {
			t.Fatalf("decoded %+v, %v; want ref=%v with the digest", b, err, tc.ref)
		}
	}
	w := codec.NewWriter(0)
	AppendBatch(w, &Batch{DocID: 7, Terms: []string{"a"}})
	raw := w.Bytes()
	raw[1] = 2 // the form byte, after the one-byte DocID
	if _, err := DecodeBatch(codec.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "document form 2") {
		t.Fatalf("form byte 2: err = %v", err)
	}
}
