package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
)

// The oracle answers "which (filter, subscriber) pairs must this document
// reach" from the generated inputs alone. It works on vocabulary IDs, never
// on the strings the daemons see, and shares no code with internal/index:
// matches reports the plain definition, and oracleIndex is a posting-map
// shortcut that the unit tests hold equal to it.

// matches is the definition: MatchAny fires on a non-empty intersection,
// MatchAll when the document holds every filter term.
func matches(f *filterDef, doc map[int32]struct{}) bool {
	hit := 0
	for _, t := range f.terms {
		if _, ok := doc[t]; ok {
			hit++
		}
	}
	if f.mode == model.MatchAll {
		return hit == len(f.terms)
	}
	return hit > 0
}

func termSet(terms []int32) map[int32]struct{} {
	s := make(map[int32]struct{}, len(terms))
	for _, t := range terms {
		s[t] = struct{}{}
	}
	return s
}

// oracleIndex is the brute-force definition with the filter loop turned
// inside out: per term, the slots of the filters that contain it.
type oracleIndex struct {
	filters []filterDef
	posting map[int32][]int32
	hits    []int32 // scratch: filter terms found in the current document
	touched []int32
}

func newOracleIndex(filters []filterDef) *oracleIndex {
	ix := &oracleIndex{filters: filters, posting: make(map[int32][]int32), hits: make([]int32, len(filters))}
	for slot := range filters {
		for _, t := range filters[slot].terms {
			ix.posting[t] = append(ix.posting[t], int32(slot))
		}
	}
	return ix
}

// match returns the slots of the filters doc matches (ascending) plus the
// work a posting-list matcher would do: entries scanned and lists retrieved
// (= document terms some filter uses).
func (ix *oracleIndex) match(doc []int32) (slots []int32, postings, lists int) {
	ix.touched = ix.touched[:0]
	for _, t := range doc {
		p := ix.posting[t]
		if len(p) == 0 {
			continue
		}
		lists++
		postings += len(p)
		for _, slot := range p {
			if ix.hits[slot] == 0 {
				ix.touched = append(ix.touched, slot)
			}
			ix.hits[slot]++
		}
	}
	for _, slot := range ix.touched {
		f := &ix.filters[slot]
		if f.mode != model.MatchAll || int(ix.hits[slot]) == len(f.terms) {
			slots = append(slots, slot)
		}
		ix.hits[slot] = 0
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a] < slots[b] })
	return slots, postings, lists
}

// expect is what one pool document must produce against the base filters.
type expect struct {
	matches   int32
	matchHash uint64   // Σ pairHash(filter ID, subscriber) over the match set
	subs      []uint16 // distinct subscribers reached, ascending
	postings  int32    // posting entries a list matcher scans for it
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return mix64(h)
}

// pairHash identifies one (filter, subscriber) match; sums of it compare
// match sets without regard to order.
func pairHash(filter uint64, sub string) uint64 { return mix64(filter) ^ strHash(sub) }

// expectations precomputes every pool document's verdict against the base
// population, outside any timed phase.
func expectations(w *workload) []expect {
	ix := newOracleIndex(w.filters)
	out := make([]expect, len(w.docs))
	seen := make([]bool, len(w.subs))
	for i := range w.docs {
		slots, postings, _ := ix.match(w.docs[i].terms)
		e := expect{matches: int32(len(slots)), postings: int32(postings)}
		for _, slot := range slots {
			f := &w.filters[slot]
			e.matchHash += pairHash(f.id, w.subs[f.sub])
			if !seen[f.sub] {
				seen[f.sub] = true
				e.subs = append(e.subs, uint16(f.sub))
			}
		}
		sort.Slice(e.subs, func(a, b int) bool { return e.subs[a] < e.subs[b] })
		for _, s := range e.subs {
			seen[s] = false
		}
		out[i] = e
	}
	return out
}

// scriptedFilter is a filter a publisher registered (or is registering, or
// unregistering) during a timed phase. Times are harness clock readings;
// zero means "has not happened".
type scriptedFilter struct {
	def                                      filterDef
	regStart, regDone, unregStart, unregDone int64
}

// scriptBook tracks the scripted filters a publish may or must observe.
// Envelope, then exact: a scripted filter must match when its register
// returned before the publish began and its unregister had not begun when
// the publish returned; it may match whenever the two operations overlap the
// publish at all; otherwise it must not.
type scriptBook struct {
	mu   sync.Mutex
	live map[uint64]*scriptedFilter
}

func newScriptBook() *scriptBook { return &scriptBook{live: make(map[uint64]*scriptedFilter)} }

func (b *scriptBook) add(s *scriptedFilter) {
	b.mu.Lock()
	b.live[s.def.id] = s
	b.mu.Unlock()
}

func (b *scriptBook) set(field *int64, v int64) {
	b.mu.Lock()
	*field = v
	b.mu.Unlock()
}

// prune forgets filters whose unregister completed before every publish
// still in flight began.
func (b *scriptBook) prune(oldestInFlight int64) {
	b.mu.Lock()
	for id, s := range b.live {
		if s.unregDone != 0 && s.unregDone < oldestInFlight {
			delete(b.live, id)
		}
	}
	b.mu.Unlock()
}

// classify splits the scripted filters that doc satisfies into those a
// publish over [start, end] must and may report.
func (b *scriptBook) classify(doc map[int32]struct{}, start, end int64) (must, may map[uint64]*filterDef) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, s := range b.live {
		if s.regStart == 0 || s.regStart > end || (s.unregDone != 0 && s.unregDone < start) {
			continue
		}
		if !matches(&s.def, doc) {
			continue
		}
		def := s.def
		if s.regDone != 0 && s.regDone < start && (s.unregStart == 0 || s.unregStart > end) {
			if must == nil {
				must = make(map[uint64]*filterDef)
			}
			must[id] = &def
		} else {
			if may == nil {
				may = make(map[uint64]*filterDef)
			}
			may[id] = &def
		}
	}
	return must, may
}

// violation describes one oracle failure.
type violation struct {
	docID     uint64
	what      string
	got, want int
}

func (v violation) String() string {
	return fmt.Sprintf("doc %d: %s: got %d, want %d", v.docID, v.what, v.got, v.want)
}

// checkMatches verifies the match set PublishEntry returned for one
// document. base is the document's precomputed verdict; must/may come from
// the script book (nil on workloads without writes). It returns the
// subscribers the returned set names — what the delivery tier must now
// hand to sessions — or a violation.
func checkMatches(w *workload, docID uint64, got []node.Match, base *expect, must, may map[uint64]*filterDef) ([]uint16, *violation) {
	baseMax := uint64(len(w.filters))
	var baseCount int
	var baseHash uint64
	var scripted []node.Match
	for i := range got {
		m := &got[i]
		if uint64(m.Filter) <= baseMax {
			baseCount++
			baseHash += pairHash(uint64(m.Filter), m.Subscriber)
		} else {
			scripted = append(scripted, *m)
		}
	}
	if baseCount != int(base.matches) || baseHash != base.matchHash {
		return nil, &violation{docID, "match set differs from oracle", baseCount, int(base.matches)}
	}
	if len(scripted) == 0 && len(must) == 0 {
		return base.subs, nil
	}
	subs := append([]uint16(nil), base.subs...)
	found := 0
	seenIDs := make(map[uint64]struct{}, len(scripted))
	for _, m := range scripted {
		id := uint64(m.Filter)
		if _, dup := seenIDs[id]; dup {
			return nil, &violation{docID, "scripted filter reported twice", len(scripted), len(must)}
		}
		seenIDs[id] = struct{}{}
		def, ok := must[id]
		if ok {
			found++
		} else if def, ok = may[id]; !ok {
			return nil, &violation{docID, "scripted filter matched outside its registration envelope", len(scripted), len(must)}
		}
		if m.Subscriber != w.subs[def.sub] {
			return nil, &violation{docID, "scripted match names the wrong subscriber", len(scripted), len(must)}
		}
		subs = append(subs, uint16(def.sub))
	}
	if found != len(must) {
		return nil, &violation{docID, "scripted filters registered before the publish are missing", found, len(must)}
	}
	sort.Slice(subs, func(a, b int) bool { return subs[a] < subs[b] })
	out := subs[:0]
	for i, s := range subs {
		if i == 0 || s != subs[i-1] {
			out = append(out, s)
		}
	}
	return out, nil
}

// ledger is the delivery side of the oracle: per document and per session,
// what must arrive (count and order-independent hash) against what the
// subscriber sockets produced. Publishers write the expected side, session
// readers the received side.
type ledger struct {
	base     uint64 // first document ID of this run
	docs     []docSlot
	sessions []sessionSlot
	next     atomic.Uint64
}

type docSlot struct {
	due      atomic.Int64 // harness clock at the document's due time
	expCount int32
	expHash  uint64
	gotCount atomic.Int32
	gotHash  atomic.Uint64
	state    atomic.Uint32 // docIssued, docChecked, docFailed
	phase    uint8
	// first/last event receipt, traced runs only.
	firstRecv, lastRecv atomic.Int64
}

type sessionSlot struct {
	expCount, gotCount atomic.Int64
	expHash, gotHash   atomic.Uint64
}

const (
	docUnused uint32 = iota
	docIssued
	docChecked
	docFailed
)

func newLedger(base uint64, capacity, sessions int) *ledger {
	return &ledger{base: base, docs: make([]docSlot, capacity), sessions: make([]sessionSlot, sessions)}
}

// errDocIDsExhausted reports a run that outgrew the ledger.
var errDocIDsExhausted = fmt.Errorf("DocID space exhausted: the ledger holds no more documents")

// issue reserves the next document ID.
func (l *ledger) issue(due int64, phase uint8) (uint64, *docSlot, error) {
	i := l.next.Add(1) - 1
	if i >= uint64(len(l.docs)) {
		return 0, nil, errDocIDsExhausted
	}
	d := &l.docs[i]
	d.phase = phase
	d.due.Store(due)
	d.state.Store(docIssued)
	return l.base + i, d, nil
}

func (l *ledger) slot(docID uint64) *docSlot {
	if docID < l.base || docID-l.base >= uint64(len(l.docs)) {
		return nil
	}
	return &l.docs[docID-l.base]
}

// expectEvents records that docID must reach exactly subs.
func (l *ledger) expectEvents(w *workload, docID uint64, d *docSlot, subs []uint16) {
	var h uint64
	for _, s := range subs {
		h += strHash(w.subs[s])
		ss := &l.sessions[s]
		ss.expCount.Add(1)
		ss.expHash.Add(mix64(docID))
	}
	d.expCount, d.expHash = int32(len(subs)), h
	d.state.Store(docChecked)
}

// received is called by session sub's reader for every event.
func (l *ledger) received(sub int, subHash uint64, docID uint64) *docSlot {
	ss := &l.sessions[sub]
	ss.gotCount.Add(1)
	ss.gotHash.Add(mix64(docID))
	d := l.slot(docID)
	if d != nil {
		d.gotCount.Add(1)
		d.gotHash.Add(subHash)
	}
	return d
}

// audit compares both sides once the drain deadline has passed. phantom
// counts events for documents that were never issued.
func (l *ledger) audit(w *workload, phantoms int64) (failedDocs int, out []violation) {
	n := int(min(l.next.Load(), uint64(len(l.docs))))
	for i := 0; i < n; i++ {
		d := &l.docs[i]
		if d.state.Load() != docChecked {
			continue // failed at publish time, already counted
		}
		got, want := int(d.gotCount.Load()), int(d.expCount)
		if got != want || d.gotHash.Load() != d.expHash {
			failedDocs++
			what := "events differ from the match set"
			switch {
			case got < want:
				what = "events missing at the drain deadline"
			case got > want:
				what = "phantom or duplicate events"
			}
			out = append(out, violation{l.base + uint64(i), what, got, want})
		}
	}
	for s := range l.sessions {
		ss := &l.sessions[s]
		if ss.gotCount.Load() != ss.expCount.Load() || ss.gotHash.Load() != ss.expHash.Load() {
			out = append(out, violation{0, "session " + w.subs[s] + " event stream differs", int(ss.gotCount.Load()), int(ss.expCount.Load())})
		}
	}
	if phantoms > 0 {
		out = append(out, violation{0, "events for documents never published", int(phantoms), 0})
	}
	return failedDocs, out
}
