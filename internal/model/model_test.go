package model

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/movesys/move/internal/codec"
)

func TestFilterValidate(t *testing.T) {
	cases := []struct {
		name string
		f    Filter
		err  error
	}{
		{"ok-any", Filter{ID: 1, Terms: []string{"a"}, Mode: MatchAny}, nil},
		{"ok-all", Filter{ID: 2, Terms: []string{"a", "b"}, Mode: MatchAll}, nil},
		{"no-terms", Filter{ID: 4, Mode: MatchAny}, ErrNoTerms},
		{"bad-mode", Filter{ID: 5, Terms: []string{"a"}}, ErrBadMode},
		{"mode-3", Filter{ID: 6, Terms: []string{"a"}, Mode: 3}, ErrBadMode},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.f.Validate()
			if c.err == nil && err != nil {
				t.Fatalf("Validate = %v, want nil", err)
			}
			if c.err != nil && !errors.Is(err, c.err) {
				t.Fatalf("Validate = %v, want %v", err, c.err)
			}
		})
	}
}

func TestDocumentValidate(t *testing.T) {
	d := Document{ID: 1}
	if err := d.Validate(); !errors.Is(err, ErrNoTerms) {
		t.Fatalf("err = %v, want ErrNoTerms", err)
	}
	d.Terms = []string{"x"}
	if err := d.Validate(); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}

func TestFilterEncodeDecode(t *testing.T) {
	f := Filter{ID: 99, Subscriber: "bob", Terms: []string{"cloud", "db"}, Mode: MatchAll}
	got, err := DecodeFilter(codec.NewReader(f.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip: got %+v want %+v", got, f)
	}
}

func TestDocumentEncodeDecode(t *testing.T) {
	d := Document{ID: 7, Terms: []string{"alpha", "beta"}}
	got, err := DecodeDocument(codec.NewReader(d.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip: got %+v want %+v", got, d)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := DecodeFilter(codec.NewReader([]byte{0xFF})); err == nil {
		t.Fatal("expected error for corrupt filter")
	}
	if _, err := DecodeDocument(codec.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty document")
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := Filter{ID: 1, Terms: []string{"a", "b"}, Mode: MatchAny}
	c := f.Clone()
	c.Terms[0] = "mutated"
	if f.Terms[0] != "a" {
		t.Fatal("Clone shares term slice")
	}
}

func TestTermSet(t *testing.T) {
	d := Document{Terms: []string{"x", "y"}}
	set := d.TermSet()
	if len(set) != 2 {
		t.Fatalf("TermSet len = %d", len(set))
	}
	if _, ok := set["x"]; !ok {
		t.Fatal("missing x")
	}
}

func TestSortTerms(t *testing.T) {
	got := SortTerms([]string{"b", "a", "b", "c", "a"})
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("SortTerms = %v", got)
	}
	if got := SortTerms(nil); len(got) != 0 {
		t.Fatalf("SortTerms(nil) = %v", got)
	}
}

func TestModeAndIDStrings(t *testing.T) {
	if MatchAny.String() != "any" || MatchAll.String() != "all" || MatchMode(3).String() != "mode(3)" {
		t.Fatal("mode names wrong")
	}
	if MatchMode(9).String() != "mode(9)" {
		t.Fatal("unknown mode string wrong")
	}
	if FilterID(12).String() != "f12" {
		t.Fatal("filter id string wrong")
	}
}

// TestFilterRoundTripProperty: encode/decode is the identity on arbitrary
// filters of a known mode, and refuses modes 0 and 3 with ErrBadMode.
func TestFilterRoundTripProperty(t *testing.T) {
	prop := func(id uint64, sub string, terms []string, mode uint8) bool {
		f := Filter{
			ID:         FilterID(id),
			Subscriber: sub,
			Terms:      terms,
			Mode:       MatchMode(mode % 4),
		}
		got, err := DecodeFilter(codec.NewReader(f.Encode()))
		if f.Mode != MatchAny && f.Mode != MatchAll {
			return errors.Is(err, ErrBadMode)
		}
		if err != nil {
			return false
		}
		if got.ID != f.ID || got.Subscriber != f.Subscriber || got.Mode != f.Mode {
			return false
		}
		if len(got.Terms) != len(f.Terms) {
			return false
		}
		for i := range f.Terms {
			if got.Terms[i] != f.Terms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKeyTerm: the key term is one of the filter's terms, whatever their
// order, moves with the ID — so the filters over one popular term do not all
// key on it — and falls on each term of a set about equally often.
func TestKeyTerm(t *testing.T) {
	terms := []string{"alerts", "cloud", "storm"}
	picked := make(map[string]int)
	for id := FilterID(1); id <= 3000; id++ {
		f := Filter{ID: id, Terms: terms, Mode: MatchAll}
		key := f.KeyTerm()
		reversed := Filter{ID: id, Terms: []string{"storm", "cloud", "alerts"}, Mode: MatchAll}
		if got := reversed.KeyTerm(); got != key {
			t.Fatalf("filter %v: key term %q, %q with the terms reversed", id, key, got)
		}
		picked[key]++
	}
	for _, term := range terms {
		if n := picked[term]; n < 900 || n > 1100 {
			t.Fatalf("key terms over 3000 IDs: %v; want each of the three about 1000 times", picked)
		}
	}
	if len(picked) != len(terms) {
		t.Fatalf("key terms %v are not all terms of the filter", picked)
	}
	if got := (&Filter{ID: 1}).KeyTerm(); got != "" {
		t.Fatalf("key term of a filter without terms = %q", got)
	}
}
