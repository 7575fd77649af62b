package trace

import (
	"reflect"
	"strings"
	"testing"

	"github.com/movesys/move/internal/codec"
)

func encodeHops(hops []Hop, terms []string) []byte {
	w := codec.NewWriter(64)
	AppendHops(w, hops, terms)
	return w.Bytes()
}

// TestHopWireSizes pins what the two hops that dominate real responses cost
// once their node names have been introduced, and that names are introduced
// once.
func TestHopWireSizes(t *testing.T) {
	terms := []string{"alpha", "beta", "gamma"}
	local := func(term string) Hop { return Hop{Stage: "local", To: "n0", Term: term} }
	column := Hop{Stage: "column", From: "n0", To: "n1", Row: 1, Col: 2, ElapsedNS: 230_000}
	for _, tc := range []struct {
		name string
		hops []Hop
		want int
	}{
		{"no hops", nil, 1},
		{"one local hop: count, flags, name introduced, position", []Hop{local("alpha")}, 1 + 1 + 4 + 1},
		{"three local hops: 3 bytes each after the first", []Hop{local("alpha"), local("beta"), local("gamma")}, 7 + 3 + 3},
		{"local hops out of request order", []Hop{local("gamma"), local("alpha")}, 7 + 3},
		{"served column hop, both names new", []Hop{column}, 1 + 1 + 4 + 1 + 3 + 4 + 3 + 1},
		{"served column hop, names known: 11 bytes", []Hop{column, column}, 18 + 11},
		{"a term the request did not route is spelled out", []Hop{local("delta")}, 7 + 1 + 5},
	} {
		enc := encodeHops(tc.hops, terms)
		if len(enc) != tc.want {
			t.Errorf("%s: %d bytes, want %d", tc.name, len(enc), tc.want)
		}
		got, err := DecodeHops(codec.NewReader(enc), terms)
		if err != nil || !reflect.DeepEqual(got, tc.hops) {
			t.Errorf("%s: decoded %+v, %v", tc.name, got, err)
		}
	}
}

// TestDecodeHopsRefuses: references that point nowhere are errors, and a
// count is believed only as far as the bytes behind it go.
func TestDecodeHopsRefuses(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wire    []byte
		wantErr string
	}{
		{"count past the payload", []byte{2, 4, 0, 0}, "hop count 2 overflows payload"},
		{"stage code outside the vocabulary", []byte{1, 7, 0, 0}, "unknown stage code 7"},
		{"node reference skipping ahead", []byte{1, 4, 2, 0}, "node reference 2 with 0 name(s) introduced"},
		{"term position past the list", []byte{1, 4, 0, 5}, "term position 3 past the request's 2 term(s)"},
		{"cut inside the grid group", []byte{1, 4 | hopGrid, 0, 0, 1}, "truncated"},
	} {
		_, err := DecodeHops(codec.NewReader(tc.wire), []string{"alpha", "beta"})
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestIndexFrom(t *testing.T) {
	terms := []string{"a", "b", "a", "c"}
	for _, tc := range []struct {
		from int
		term string
		want int
	}{
		{0, "a", 0}, {1, "a", 2}, {3, "a", 0}, {4, "a", 0}, {2, "b", 1}, {0, "z", -1}, {4, "z", -1},
	} {
		if got := IndexFrom(terms, tc.from, tc.term); got != tc.want {
			t.Errorf("IndexFrom(%v, %d, %q) = %d, want %d", terms, tc.from, tc.term, got, tc.want)
		}
	}
	if got := IndexFrom(nil, 0, "a"); got != -1 {
		t.Errorf("IndexFrom(nil) = %d", got)
	}
}
