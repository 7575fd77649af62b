package main

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
)

// plainMatch is the definition, applied filter by filter.
func plainMatch(filters []filterDef, doc []int32) []int32 {
	set := termSet(doc)
	var out []int32
	for slot := range filters {
		if matches(&filters[slot], set) {
			out = append(out, int32(slot))
		}
	}
	return out
}

func randomFilters(rng *rand.Rand, n, vocab int) []filterDef {
	out := make([]filterDef, n)
	for i := range out {
		k := 1 + rng.Intn(4)
		seen := map[int32]bool{}
		var terms []int32
		for len(terms) < k {
			t := int32(rng.Intn(vocab))
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
		sort.Slice(terms, func(a, b int) bool { return terms[a] < terms[b] })
		mode := model.MatchAny
		if rng.Intn(2) == 0 {
			mode = model.MatchAll
		}
		out[i] = filterDef{id: uint64(i + 1), sub: i % 7, terms: terms, mode: mode}
	}
	return out
}

// The posting-map oracle must equal the plain definition on match sets and
// account exactly the entries of the lists it reads.
func TestIndexedOracleEqualsDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const vocab = 40
	filters := randomFilters(rng, 500, vocab)
	ix := newOracleIndex(filters)
	for d := 0; d < 400; d++ {
		perm := rng.Perm(vocab)
		doc := make([]int32, 1+rng.Intn(10))
		for i := range doc {
			doc[i] = int32(perm[i])
		}
		got, postings, lists := ix.match(doc)
		want := plainMatch(filters, doc)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %v: indexed oracle matched %v, definition %v", doc, got, want)
		}
		wantPostings, wantLists := 0, 0
		for _, term := range doc {
			n := 0
			for i := range filters {
				for _, ft := range filters[i].terms {
					if ft == term {
						n++
					}
				}
			}
			wantPostings += n
			if n > 0 {
				wantLists++
			}
		}
		if postings != wantPostings || lists != wantLists {
			t.Fatalf("doc %v: %d postings in %d lists, want %d in %d", doc, postings, lists, wantPostings, wantLists)
		}
	}
}

// On the real workloads too: a sample of pool documents, indexed against plain.
func TestExpectationsEqualDefinitionOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs with every rebuild")
	}
	for _, sp := range specs {
		w, err := sp.gen(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		exp := expectations(w)
		for i := 0; i < len(w.docs); i += len(w.docs)/8 + 1 {
			want := plainMatch(w.filters, w.docs[i].terms)
			subs := map[int]bool{}
			var hash uint64
			for _, slot := range want {
				f := &w.filters[slot]
				subs[f.sub] = true
				hash += pairHash(f.id, w.subs[f.sub])
			}
			e := &exp[i]
			if int(e.matches) != len(want) || e.matchHash != hash || len(e.subs) != len(subs) {
				t.Fatalf("%s doc %d: oracle says %d matches / %d subscribers, definition %d / %d", sp.name, i, e.matches, len(e.subs), len(want), len(subs))
			}
		}
	}
}

func tinyWorkload() *workload {
	sp := &spec{name: "tiny", sessions: 3, mode: model.MatchAny}
	w := &workload{sp: sp, filters: []filterDef{
		{id: 1, sub: 0, terms: []int32{1}, mode: model.MatchAny},
		{id: 2, sub: 1, terms: []int32{2}, mode: model.MatchAny},
		{id: 3, sub: 1, terms: []int32{1, 2}, mode: model.MatchAll},
	}, docs: []docDef{{terms: []int32{1, 2}}, {terms: []int32{2}}, {terms: []int32{9}}}}
	w.finish()
	return w
}

func matchesOf(w *workload, slots ...int) []node.Match {
	var out []node.Match
	for _, s := range slots {
		f := &w.filters[s]
		out = append(out, node.Match{Filter: model.FilterID(f.id), Subscriber: w.subs[f.sub]})
	}
	return out
}

func TestCheckMatchesAcceptsExactSetOnly(t *testing.T) {
	w := tinyWorkload()
	exp := expectations(w)
	subs, v := checkMatches(w, 10, matchesOf(w, 0, 1, 2), &exp[0], nil, nil)
	if v != nil || !reflect.DeepEqual(subs, []uint16{0, 1}) {
		t.Fatalf("exact set refused: %v %v", subs, v)
	}
	if _, v := checkMatches(w, 10, matchesOf(w, 0, 1), &exp[0], nil, nil); v == nil {
		t.Fatal("a missing match went unnoticed")
	} else if v.got != 2 || v.want != 3 || !strings.Contains(v.String(), "doc 10") {
		t.Fatalf("violation does not name the document and both sizes: %v", v)
	}
	if _, v := checkMatches(w, 11, matchesOf(w, 0, 1), &exp[1], nil, nil); v == nil {
		t.Fatal("an extra match went unnoticed")
	}
	wrong := matchesOf(w, 1)
	wrong[0].Subscriber = w.subs[2]
	if _, v := checkMatches(w, 11, wrong, &exp[1], nil, nil); v == nil {
		t.Fatal("a match naming the wrong subscriber went unnoticed")
	}
	if subs, v := checkMatches(w, 12, nil, &exp[2], nil, nil); v != nil || len(subs) != 0 {
		t.Fatalf("empty match set refused: %v", v)
	}
}

// Envelope, then exact: what a scripted filter must, may and must not do.
func TestScriptBookEnvelope(t *testing.T) {
	w := tinyWorkload()
	exp := expectations(w)
	b := newScriptBook()
	sf := &scriptedFilter{def: filterDef{id: 100, sub: 2, terms: []int32{2}, mode: model.MatchAny}, regStart: 10, regDone: 20, unregStart: 50, unregDone: 60}
	b.add(sf)
	doc := termSet(w.docs[1].terms)
	hit := node.Match{Filter: 100, Subscriber: w.subs[2]}
	base := matchesOf(w, 1)
	cases := []struct {
		name       string
		start, end int64
		with       bool
		ok         bool
	}{
		{"before registration began: must not", 1, 5, true, false},
		{"before registration began: absent is right", 1, 5, false, true},
		{"overlaps the register: may", 15, 25, true, true},
		{"overlaps the register: may be absent", 15, 25, false, true},
		{"inside the stable window: must", 25, 45, true, true},
		{"inside the stable window: absent fails", 25, 45, false, false},
		{"overlaps the unregister: may be absent", 45, 55, false, true},
		{"overlaps the unregister: may", 45, 55, true, true},
		{"after the unregister returned: must not", 65, 70, true, false},
	}
	for _, c := range cases {
		must, may := b.classify(doc, c.start, c.end)
		got := base
		if c.with {
			got = append(append([]node.Match(nil), base...), hit)
		}
		subs, v := checkMatches(w, 1, got, &exp[1], must, may)
		if (v == nil) != c.ok {
			t.Errorf("%s: violation=%v", c.name, v)
		}
		if v == nil && c.with && !reflect.DeepEqual(subs, []uint16{1, 2}) {
			t.Errorf("%s: events owed to %v", c.name, subs)
		}
	}
	b.prune(61)
	if len(b.live) != 0 {
		t.Error("a filter unregistered before every in-flight publish was kept")
	}
}

// A dropped or an extra event must fail the document it belongs to.
func TestLedgerCatchesDroppedAndExtraEvents(t *testing.T) {
	w := tinyWorkload()
	deliver := func(l *ledger, docID uint64, subs ...int) {
		for _, s := range subs {
			l.received(s, strHash(w.subs[s]), docID)
		}
	}
	run := func(mutate func(l *ledger, id uint64)) (int, []violation) {
		l := newLedger(1, 8, len(w.subs))
		id, slot, err := l.issue(0, phClosed)
		if err != nil {
			t.Fatal(err)
		}
		l.expectEvents(w, id, slot, []uint16{0, 1})
		mutate(l, id)
		return l.audit(w, 0)
	}
	if failed, vs := run(func(l *ledger, id uint64) { deliver(l, id, 0, 1) }); failed != 0 || len(vs) != 0 {
		t.Fatalf("complete delivery failed the audit: %v", vs)
	}
	if failed, vs := run(func(l *ledger, id uint64) { deliver(l, id, 0) }); failed != 1 || !strings.Contains(vs[0].String(), "missing") {
		t.Fatalf("dropped event: failed=%d %v", failed, vs)
	}
	if failed, vs := run(func(l *ledger, id uint64) { deliver(l, id, 0, 1, 1) }); failed != 1 || !strings.Contains(vs[0].String(), "duplicate") {
		t.Fatalf("duplicate event: failed=%d %v", failed, vs)
	}
	if failed, _ := run(func(l *ledger, id uint64) { deliver(l, id, 0, 2) }); failed != 1 {
		t.Fatal("an event for the wrong subscriber went unnoticed")
	}
	if _, vs := run(func(l *ledger, id uint64) { deliver(l, id, 0, 1); deliver(l, 7, 2) }); len(vs) == 0 {
		t.Fatal("an event for a document never published went unnoticed")
	}
}

func TestDocIDExhaustionIsAnError(t *testing.T) {
	l := newLedger(1, 2, 1)
	for i := 0; i < 2; i++ {
		if id, _, err := l.issue(0, phClosed); err != nil || id != uint64(i+1) {
			t.Fatalf("issue %d: id %d err %v", i, id, err)
		}
	}
	if _, _, err := l.issue(0, phClosed); err != errDocIDsExhausted {
		t.Fatalf("third document of a two-document ledger: err = %v", err)
	}
	if l.slot(3) != nil || l.slot(0) != nil {
		t.Fatal("slot outside the ledger")
	}
}
