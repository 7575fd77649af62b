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
		var sets slotSets
		var s slotSet
		ref := map[int]bool{}
		maxSlot := 1 + rng.Intn(3000)
		for step := 0; step < 2000; step++ {
			slot := rng.Intn(maxSlot)
			if rng.Intn(3) == 0 {
				if sets.clear(&s, slot) != ref[slot] {
					t.Errorf("seed %d: clear(%d) disagreed", seed, slot)
					return false
				}
				delete(ref, slot)
			} else {
				if sets.testAndSet(&s, slot) != !ref[slot] {
					t.Errorf("seed %d: testAndSet(%d) disagreed", seed, slot)
					return false
				}
				ref[slot] = true
			}
			if sets.count(s) != len(ref) {
				t.Errorf("seed %d: count=%d ref=%d", seed, sets.count(s), len(ref))
				return false
			}
		}
		for slot := 0; slot < maxSlot; slot++ {
			if sets.has(s, slot) != ref[slot] {
				t.Errorf("seed %d: has(%d)=%v ref=%v", seed, slot, sets.has(s, slot), ref[slot])
				return false
			}
		}
		prev, n := -1, 0
		sets.forEach(s, func(slot int) {
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
func slotForm(sets *slotSets, s slotSet) string {
	switch b := sets.of(s); {
	case b == nil:
		return "inline"
	case b.words == nil:
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
			var sets slotSets
			var s slotSet
			want := map[int]bool{}
			for _, v := range tc.insert {
				if sets.testAndSet(&s, v) == want[v] {
					t.Fatalf("testAndSet(%d) = %v with the slot already present: %v", v, !want[v], want[v])
				}
				want[v] = true
			}
			for _, v := range tc.clear {
				if !sets.clear(&s, v) {
					t.Fatalf("clear(%d) found nothing", v)
				}
				delete(want, v)
			}
			if got := slotForm(&sets, s); got != tc.form {
				t.Fatalf("container = %s, want %s", got, tc.form)
			}
			if sets.count(s) != len(want) {
				t.Fatalf("count = %d, want %d", sets.count(s), len(want))
			}
			for _, v := range tc.insert {
				if sets.has(s, v) != want[v] {
					t.Fatalf("has(%d) = %v, want %v", v, sets.has(s, v), want[v])
				}
			}
			n := 0
			sets.forEach(s, func(slot int) {
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
	var sets slotSets
	var s slotSet
	sets.testAndSet(&s, 4)
	sets.clear(&s, 4)
	sets.testAndSet(&s, 11)
	if slotForm(&sets, s) != "inline" || !sets.has(s, 11) || sets.has(s, 4) {
		t.Fatalf("emptied inline set: form=%s has(11)=%v has(4)=%v", slotForm(&sets, s), sets.has(s, 11), sets.has(s, 4))
	}

	// A released container's index goes to the next set that promotes.
	var a, b slotSet
	sets.testAndSet(&a, 1)
	sets.testAndSet(&a, 2)
	sets.release(a)
	sets.testAndSet(&b, 5)
	sets.testAndSet(&b, 6)
	if b != a || len(sets.big) != 1 || !sets.has(b, 5) || sets.has(b, 1) || sets.count(b) != 2 {
		t.Fatalf("promotion after a release: set %d (released %d), %d containers, count %d", b, a, len(sets.big), sets.count(b))
	}
}

// forEach calls fn for every slot of s in ascending order.
func (t *slotSets) forEach(s slotSet, fn func(slot int)) {
	b := t.of(s)
	if b == nil {
		if s > 0 {
			fn(int(s - 1))
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
