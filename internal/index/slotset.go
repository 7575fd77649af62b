package index

import "math/bits"

// slotSet is a compressed bitset over a cover's dense member-slot indexes —
// the storage unit of the aggregated index's posting lists. One slotSet per
// (term, cover) pair records which of the cover's members are posted under
// that term.
//
// The representation is roaring-style with three container forms:
//
//   - inline: a set that has only ever held one slot keeps it in the 4-byte
//     slotSet value itself — no heap half. When subscriptions do not share
//     predicates nearly every (term, cover) container is this form, so it is
//     what bounds bytes per filter.
//   - array: a sorted []uint16 of slot indexes, used from the second member
//     while the set holds fewer than slotArrayMax entries and every slot
//     fits in 16 bits: 2 bytes per member.
//   - bitmap: []uint64 words indexed by slot, used once the set grows past
//     slotArrayMax or sees a slot ≥ 1<<16. Hot covers with hundreds of
//     thousands of members cost 1 bit per slot instead of an 8-byte
//     per-filter posting entry.
//
// The two promoted forms live in a slotBig, held by the term shard's
// slotSets table; the slotSet names it by its index there. So a posting
// entry carries no pointer for a set that never promoted.
//
// Promotion is one-way (inline → array → bitmap); clears never demote. The
// cached cardinality makes the logical posting-list length — what
// MatchStats charges — an O(1) read.
//
// slotSets are guarded by their term shard's RWMutex; they carry no
// synchronization of their own.
type slotSet int32 // > 0: the inline slot+1; < 0: -(i+1) for slotSets.big[i]; 0: empty

// slotSets is a term shard's table of promoted sets: slotBigs by index, and
// the indexes freed by entries that left, which the next promotion reuses.
type slotSets struct {
	big  []*slotBig
	free []int32
}

// slotBig is the heap half of a promoted slotSet: the array or bitmap
// container and its cardinality.
type slotBig struct {
	card  int32
	arr   []uint16 // sorted; nil once promoted to bitmap
	words []uint64 // nil until promoted to bitmap
}

// slotArrayMax is the array-container capacity before promotion to a
// bitmap. 64 entries × 2 bytes = 128 bytes, the point where a small bitmap
// stops losing to the array on both space and membership-test cost.
const slotArrayMax = 64

// of returns s's promoted container, nil for an inline or empty set.
func (t *slotSets) of(s slotSet) *slotBig {
	if s < 0 {
		return t.big[-s-1]
	}
	return nil
}

// count returns s's cardinality.
func (t *slotSets) count(s slotSet) int {
	switch {
	case s < 0:
		return int(t.big[-s-1].card)
	case s > 0:
		return 1
	}
	return 0
}

// arrFind returns the insertion index of slot in the sorted array container
// and whether it is already present.
func (b *slotBig) arrFind(slot int) (int, bool) {
	lo, hi := 0, len(b.arr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(b.arr[mid]) < slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(b.arr) && int(b.arr[lo]) == slot
}

// has reports slot membership.
func (t *slotSets) has(s slotSet, slot int) bool {
	if s >= 0 {
		return s != 0 && int(s-1) == slot
	}
	b := t.big[-s-1]
	if b.words != nil {
		w := slot >> 6
		return w < len(b.words) && b.words[w]&(1<<(uint(slot)&63)) != 0
	}
	_, ok := b.arrFind(slot)
	return ok
}

// testAndSet inserts slot into *s, reporting whether it was newly added.
// The second distinct slot promotes the set into a slotBig of the table.
func (t *slotSets) testAndSet(s *slotSet, slot int) bool {
	if *s >= 0 {
		if *s == 0 {
			*s = slotSet(slot + 1)
			return true
		}
		if int(*s-1) == slot {
			return false
		}
		b := &slotBig{}
		b.set(int(*s - 1))
		var i int32
		if n := len(t.free); n > 0 {
			i = t.free[n-1]
			t.free = t.free[:n-1]
			t.big[i] = b
		} else {
			i = int32(len(t.big))
			t.big = append(t.big, b)
		}
		*s = slotSet(-i - 1)
	}
	return t.big[-*s-1].set(slot)
}

// release gives s's promoted container back when its entry leaves the
// posting list.
func (t *slotSets) release(s slotSet) {
	if s < 0 {
		t.big[-s-1] = nil
		t.free = append(t.free, int32(-s-1))
	}
}

// set inserts slot into the array or bitmap container.
func (b *slotBig) set(slot int) bool {
	if b.words == nil {
		if len(b.arr) < slotArrayMax && slot < 1<<16 {
			i, ok := b.arrFind(slot)
			if ok {
				return false
			}
			b.arr = append(b.arr, 0)
			copy(b.arr[i+1:], b.arr[i:])
			b.arr[i] = uint16(slot)
			b.card++
			return true
		}
		b.promote(slot)
	}
	w, mask := slot>>6, uint64(1)<<(uint(slot)&63)
	if w >= len(b.words) {
		grown := make([]uint64, w+1)
		copy(grown, b.words)
		b.words = grown
	}
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	b.card++
	return true
}

// promote converts the array container to a bitmap sized for maxSlot.
func (b *slotBig) promote(maxSlot int) {
	top := maxSlot
	if len(b.arr) > 0 && int(b.arr[len(b.arr)-1]) > top {
		top = int(b.arr[len(b.arr)-1])
	}
	b.words = make([]uint64, top>>6+1)
	for _, v := range b.arr {
		b.words[v>>6] |= 1 << (uint(v) & 63)
	}
	b.arr = nil
}

// clear removes slot from s, reporting whether it was present.
func (t *slotSets) clear(s *slotSet, slot int) bool {
	if *s >= 0 {
		if *s == 0 || int(*s-1) != slot {
			return false
		}
		*s = 0
		return true
	}
	b := t.big[-*s-1]
	if b.words != nil {
		w, mask := slot>>6, uint64(1)<<(uint(slot)&63)
		if w >= len(b.words) || b.words[w]&mask == 0 {
			return false
		}
		b.words[w] &^= mask
		b.card--
		return true
	}
	i, ok := b.arrFind(slot)
	if !ok {
		return false
	}
	b.arr = append(b.arr[:i], b.arr[i+1:]...)
	b.card--
	return true
}

func trailingZeros(v uint64) int { return bits.TrailingZeros64(v) }
