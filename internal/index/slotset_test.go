package index

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSlotSetMatchesMapSet drives random insert/remove sequences into a
// slotSet and a plain map set, checking membership, cardinality, ascending
// iteration, and that the container promotes from array to bitmap exactly
// once and never loses elements doing so.
func TestSlotSetMatchesMapSet(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s slotSet
		ref := map[int]bool{}
		maxSlot := 1 + rng.Intn(3000)
		for step := 0; step < 2000; step++ {
			slot := rng.Intn(maxSlot)
			if rng.Intn(3) == 0 {
				if s.clear(slot) != ref[slot] {
					t.Errorf("seed %d: clear(%d) disagreed", seed, slot)
					return false
				}
				delete(ref, slot)
			} else {
				if s.testAndSet(slot) != !ref[slot] {
					t.Errorf("seed %d: testAndSet(%d) disagreed", seed, slot)
					return false
				}
				ref[slot] = true
			}
			if s.count() != len(ref) {
				t.Errorf("seed %d: count=%d ref=%d", seed, s.count(), len(ref))
				return false
			}
		}
		for slot := 0; slot < maxSlot; slot++ {
			if s.has(slot) != ref[slot] {
				t.Errorf("seed %d: has(%d)=%v ref=%v", seed, slot, s.has(slot), ref[slot])
				return false
			}
		}
		prev, n := -1, 0
		s.forEach(func(slot int) {
			if slot <= prev {
				t.Errorf("seed %d: forEach not ascending: %d after %d", seed, slot, prev)
			}
			if !ref[slot] {
				t.Errorf("seed %d: forEach yielded absent slot %d", seed, slot)
			}
			prev = slot
			n++
		})
		if n != len(ref) {
			t.Errorf("seed %d: forEach yielded %d, want %d", seed, n, len(ref))
			return false
		}
		return !t.Failed()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// slotForm names the container a slotSet currently uses.
func slotForm(s *slotSet) string {
	switch {
	case s.big == nil:
		return "inline"
	case s.big.words == nil:
		return "array"
	default:
		return "bitmap"
	}
}

// TestSlotSetPromotion pins the container transitions: a set that has held
// one slot stays inline (no heap half at all), the second distinct member
// promotes it to the sorted array, crossing slotArrayMax or seeing a slot
// beyond 16 bits promotes to the bitmap, promotion is one-way, and
// membership survives every step.
func TestSlotSetPromotion(t *testing.T) {
	seq := func(n, stride int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i * stride
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		insert []int
		clear  []int
		form   string
	}{
		{"empty", nil, nil, "inline"},
		{"one", []int{7}, nil, "inline"},
		{"one-repeated", []int{7, 7, 7}, nil, "inline"},
		{"one-wide", []int{1 << 20}, nil, "inline"},
		{"one-cleared-then-another", []int{7, 9}, []int{7}, "array"},
		{"two", []int{7, 3}, nil, "array"},
		{"array-full", seq(slotArrayMax, 3), nil, "array"},
		{"array-overflow", append(seq(slotArrayMax, 3), 1000), nil, "bitmap"},
		{"second-member-wide", []int{7, 1 << 16}, nil, "bitmap"},
		{"bitmap-drained", append(seq(slotArrayMax, 3), 1000), append(seq(slotArrayMax, 3), 1000), "bitmap"},
		{"array-drained", []int{7, 3}, []int{7, 3}, "array"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s slotSet
			want := map[int]bool{}
			for _, v := range tc.insert {
				if s.testAndSet(v) == want[v] {
					t.Fatalf("testAndSet(%d) = %v with the slot already present: %v", v, !want[v], want[v])
				}
				want[v] = true
			}
			for _, v := range tc.clear {
				if !s.clear(v) {
					t.Fatalf("clear(%d) found nothing", v)
				}
				delete(want, v)
			}
			if got := slotForm(&s); got != tc.form {
				t.Fatalf("container = %s, want %s", got, tc.form)
			}
			if s.count() != len(want) {
				t.Fatalf("count = %d, want %d", s.count(), len(want))
			}
			for _, v := range tc.insert {
				if s.has(v) != want[v] {
					t.Fatalf("has(%d) = %v, want %v", v, s.has(v), want[v])
				}
			}
			n := 0
			s.forEach(func(slot int) {
				if !want[slot] {
					t.Fatalf("forEach yielded absent slot %d", slot)
				}
				n++
			})
			if n != len(want) {
				t.Fatalf("forEach yielded %d slots, want %d", n, len(want))
			}
		})
	}

	// The inline form re-arms: a set emptied before it ever grew takes its
	// next member inline again.
	var s slotSet
	s.testAndSet(4)
	s.clear(4)
	s.testAndSet(11)
	if slotForm(&s) != "inline" || !s.has(11) || s.has(4) {
		t.Fatalf("emptied inline set: form=%s has(11)=%v has(4)=%v", slotForm(&s), s.has(11), s.has(4))
	}
}

// forEach calls fn for every slot of s in ascending order.
func (s *slotSet) forEach(fn func(slot int)) {
	b := s.big
	if b == nil {
		if s.one != 0 {
			fn(int(s.one - 1))
		}
		return
	}
	if b.words != nil {
		for w, bits := range b.words {
			for bits != 0 {
				fn(w<<6 + trailingZeros(bits))
				bits &= bits - 1
			}
		}
		return
	}
	for _, v := range b.arr {
		fn(int(v))
	}
}
