package index

import (
	"bytes"
	"slices"
	"testing"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/store"
)

// FuzzIndexRegisterMatch interprets the input as an operation stream over
// a small vocabulary and drives it into an index and the reference
// (refIndex), comparing every matcher after each match op. Any divergence in
// the sorted match set, MatchStats, or counters fails the target. The
// seeds below and in testdata/fuzz/FuzzIndexRegisterMatch cover the
// interleavings the table tests pin: same-signature sharing, unregister
// of a cover representative, signature splits and merges with overlapping
// posting terms, migration replays, a cover matched while it
// holds a member mid-move, documents none of whose terms any filter names, a
// cover's promotion from its inline member to a slot table and back to one
// live member, slots vacated and reused under fresh-ID churn, a retired
// cover's signature registered again, a retirement across a restart,
// MatchAll filters over terms documents carried before a filter named them,
// and migration replays that grow a live copy's posting terms — under its
// own signature and under a newer one's — before a restart.
//
// A second index — over a data directory — takes the same
// operations, and every op 5 also closes its store and reopens it: a
// restart in the middle of a sequence must not change any later match set,
// MatchStats, counter or posting choice. A verdict depends on the filter and
// the document alone, so the reopened index is held byte for byte to the same
// reference as before the restart, and to the index that never restarted.
//
// Byte grammar, per op: [opcode, args...] with opcode % 7 selecting
//
//	0,1 register   (id, termMask, modeByte, postingPrefixByte)
//	2   unregister (id)
//	3   ensure     (id, termMask, modeByte)
//	4,6 match      (termMask)
//	5   matchDoc   (termMask), then restart the durable index
//
// An even modeByte registers a MatchAny filter, an odd one a MatchAll filter;
// modeByte/2 picks its subscriber among three, so a live ID re-registers
// under its signature with another subscriber (and a byte below 2 keeps the
// first, "s", which every older input used).
//
// Opcode 4 was drop-term (termIndex), an operation the index no longer has.
// It still takes one argument byte, read as a match's term mask, so every
// input under testdata/fuzz keeps its alignment. Truncated args end the
// stream.
func FuzzIndexRegisterMatch(f *testing.F) {
	// Same-sig cover sharing, then match.
	f.Add([]byte{0, 1, 0x03, 0, 0, 0, 2, 0x03, 0, 0, 6, 0x03})
	// Unregister the representative, match the survivors.
	f.Add([]byte{0, 1, 0x07, 1, 0, 0, 2, 0x07, 1, 0, 2, 1, 6, 0x07})
	// Split to a new signature with an overlapping term, then merge back.
	f.Add([]byte{0, 1, 0x03, 0, 0, 6, 0x03, 0, 1, 0x05, 0, 0, 6, 0x07, 0, 1, 0x03, 0, 0, 6, 0x03})
	// Tombstone, migration replay under a new signature, match.
	f.Add([]byte{0, 2, 0x0c, 2, 0, 2, 2, 3, 2, 0x06, 2, 6, 0x0e})
	// MatchAll members of one cover, registered after a document that held
	// their terms, the second posted under one of its terms.
	f.Add([]byte{5, 0x1f, 0, 3, 0x18, 1, 0, 6, 0x1f, 0, 4, 0x18, 1, 1, 6, 0x18})
	// Two members of an {a,b} cover; one leaves for {c,d} posted under c,d
	// only, taking its a,b bits along: match, unregister it, match,
	// re-register it back, match.
	f.Add([]byte{0, 1, 0x03, 1, 0, 0, 2, 0x03, 1, 0, 0, 2, 0x0c, 0, 0, 6, 0x05, 6, 0x0f, 2, 2, 6, 0x0f, 0, 2, 0x03, 1, 0, 6, 0x0f})
	// Documents over g,h while only a,b,c are in the dictionary; then a
	// half-known document.
	f.Add([]byte{0, 1, 0x03, 0, 0, 0, 2, 0x05, 1, 1, 6, 0xc0, 6, 0x80, 6, 0xc3})
	// Restarts around a cover that gains a member after one, an
	// unregistered filter, and one moved to another signature.
	f.Add([]byte{0, 1, 0x03, 0, 0, 0, 2, 0x03, 1, 0, 5, 0x01, 0, 3, 0x03, 0, 0, 2, 1, 5, 0x02, 6, 0x03, 0, 2, 0x05, 0, 0, 5, 0x04, 6, 0x07})
	// A singleton cover promoted by a second member posted under one term;
	// the first member unregisters (one member behind the pointer), returns
	// to its vacated slot, restart.
	f.Add([]byte{0, 1, 0x03, 1, 0, 6, 0x03, 0, 2, 0x03, 1, 1, 6, 0x03, 2, 1, 6, 0x03, 0, 1, 0x03, 1, 0, 6, 0x03, 5, 0x01, 6, 0x07})
	// A singleton retires with its member, which registers again into a new
	// one; a second member, the first leaves again, the second leaves for
	// another signature while a third joins; restart.
	f.Add([]byte{0, 3, 0x06, 0, 0, 2, 3, 6, 0x06, 0, 3, 0x06, 0, 1, 6, 0x02, 2, 3, 0, 4, 0x06, 0, 0, 6, 0x06, 0, 4, 0x18, 1, 1, 0, 5, 0x06, 0, 0, 6, 0x1e, 5, 0x02, 6, 0x1e})
	// Fresh-ID churn on one signature: three members, the first leaves and a
	// fresh ID takes its slot 0, the third leaves and another takes slot 2;
	// then all leave and the cover retires.
	f.Add([]byte{0, 1, 0x03, 0, 0, 0, 2, 0x03, 0, 0, 0, 3, 0x03, 0, 1, 2, 1, 0, 4, 0x03, 0, 0, 6, 0x03, 2, 3, 0, 5, 0x03, 0, 2, 6, 0x07, 2, 2, 2, 4, 2, 5, 6, 0x03})
	// A singleton retires with its member; its signature registers again —
	// a fresh ID, then the departed one.
	f.Add([]byte{0, 1, 0x05, 1, 0, 6, 0x05, 2, 1, 6, 0x05, 0, 7, 0x05, 1, 1, 6, 0x07, 0, 1, 0x05, 1, 0, 6, 0x05})
	// A retirement, then a restart of the durable twin; the departed ID
	// returns under one of its old posting terms, restart; the last
	// member of the other cover leaves, restart.
	f.Add([]byte{0, 1, 0x03, 0, 0, 0, 2, 0x0c, 1, 0, 2, 2, 5, 0x01, 6, 0x0f, 0, 2, 0x0c, 1, 1, 5, 0x02, 6, 0x0f, 2, 1, 5, 0x04, 6, 0x0f})
	// MatchAll filters over terms that documents carried before any filter
	// named them, across restarts: a two-term filter, a three-term one posted
	// under one term, a replayed one, an unregistration.
	f.Add([]byte{5, 0x03, 6, 0x01, 0, 0, 0x03, 33, 0, 6, 0x02, 0, 1, 0x07, 15, 1, 5, 0x05, 6, 0x03, 6, 0x04, 6, 0x07, 3, 2, 0x06, 3, 6, 0x06, 2, 0, 5, 0x01, 6, 0x07})
	// Same-signature re-registrations under another subscriber: a singleton,
	// a second member in slot 1, and a fresh ID in the vacated slot 0, the
	// last re-registered under one of its terms; restart.
	f.Add([]byte{0, 0, 0x03, 0, 0, 0, 0, 0x03, 2, 0, 6, 0x03, 0, 1, 0x03, 0, 0, 0, 1, 0x03, 4, 0, 6, 0x03, 2, 0, 0, 2, 0x03, 2, 0, 0, 2, 0x03, 4, 1, 5, 0x03, 6, 0x07})
	// A filter registered under one of its terms; a migration replay posts
	// the live copy under all three, restart; a replay of a newer definition
	// posts its cover under two terms it does not name, restart.
	f.Add([]byte{0, 1, 0x07, 0, 1, 3, 1, 0x07, 0, 5, 0x01, 6, 0x07, 3, 1, 0x18, 0, 5, 0x10, 6, 0xff})
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := &enginePair{ix: newIndex(t), ref: newRefIndex()}
		ix := p.ix
		dir := t.TempDir()
		dur, sd := openDurable(t, dir, store.Options{})
		dp := &enginePair{ix: dur, ref: newRefIndex()}
		// compare checks each index against its reference, and the durable
		// index's match sets, stats, counters and posting choices against
		// the index's.
		compare := func(d *model.Document) {
			t.Helper()
			am, ast := p.compareAll(t, d)
			dm, dst := dp.compareAll(t, d)
			if !bytes.Equal(encodeMatches(am, ast), encodeMatches(dm, dst)) {
				t.Fatalf("MatchTerms(%v) after a restart: %v %+v, never restarted: %v %+v",
					d.Terms, matchedIDs(dm), dst, matchedIDs(am), ast)
			}
			for _, term := range d.Terms {
				am, ast, _ := ix.MatchTerm(d, term)
				dm, dst, err := dur.MatchTerm(d, term)
				if err != nil || !bytes.Equal(encodeMatches(am, ast), encodeMatches(dm, dst)) {
					t.Fatalf("MatchTerm(%v, %q) after a restart: %v %+v (err %v), never restarted: %v %+v",
						d.Terms, term, matchedIDs(dm), dst, err, matchedIDs(am), ast)
				}
			}
			if a, b := ix.NumFilters(), dur.NumFilters(); a != b {
				t.Fatalf("NumFilters after a restart %d, never restarted %d", b, a)
			}
			for id := model.FilterID(1); id <= 12; id++ {
				if a, b := ix.PostedUnder(id, d.Terms), dur.PostedUnder(id, d.Terms); !slices.Equal(a, b) {
					t.Fatalf("PostedUnder(%v, %v) after a restart %v, never restarted %v", id, d.Terms, b, a)
				}
			}
		}

		vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		termsFromMask := func(mask byte) []string {
			var terms []string
			for b := 0; b < len(vocab); b++ {
				if mask&(1<<b) != 0 {
					terms = append(terms, vocab[b])
				}
			}
			if len(terms) == 0 {
				terms = []string{vocab[mask%8]}
			}
			return terms
		}
		subscribers := []string{"s", "t", "u"}
		buildFilter := func(id, mask, modeByte byte) model.Filter {
			f := model.Filter{
				ID:         model.FilterID(1 + id%12),
				Subscriber: subscribers[int(modeByte/2)%len(subscribers)],
				Terms:      termsFromMask(mask),
			}
			f.Mode = model.MatchAny
			if modeByte%2 == 1 {
				f.Mode = model.MatchAll
			}
			return f
		}

		docID := uint64(0)
		i := 0
		take := func(n int) []byte {
			if i+n > len(ops) {
				return nil
			}
			out := ops[i : i+n]
			i += n
			return out
		}
		for i < len(ops) {
			op := ops[i] % 7
			i++
			switch op {
			case 0, 1:
				args := take(4)
				if args == nil {
					return
				}
				fl := buildFilter(args[0], args[1], args[2])
				postingTerms := fl.Terms
				if n := int(args[3]) % (len(fl.Terms) + 1); n > 0 {
					postingTerms = fl.Terms[:n]
				}
				p.register(t, fl, postingTerms)
				dp.register(t, fl, postingTerms)
			case 2:
				args := take(1)
				if args == nil {
					return
				}
				p.unregister(t, model.FilterID(1+args[0]%12))
				dp.unregister(t, model.FilterID(1+args[0]%12))
			case 3:
				args := take(3)
				if args == nil {
					return
				}
				fl := buildFilter(args[0], args[1], args[2])
				p.ensure(t, fl, fl.Terms)
				dp.ensure(t, fl, fl.Terms)
			case 5:
				args := take(1)
				if args == nil {
					return
				}
				docID++
				d := model.Document{ID: docID, Terms: termsFromMask(args[0])}
				p.matchDoc(t, &d)
				dp.matchDoc(t, &d)
				if err := sd.Close(); err != nil {
					t.Fatalf("durable index: %v", err)
				}
				dur, sd = openDurable(t, dir, store.Options{})
				dp = &enginePair{ix: dur, ref: dp.ref}
			case 4, 6:
				args := take(1)
				if args == nil {
					return
				}
				docID++
				d := model.Document{ID: docID, Terms: termsFromMask(args[0])}
				compare(&d)
			}
		}
		// Terminal probe: full-vocabulary document through every matcher.
		compare(&model.Document{ID: docID + 1, Terms: vocab})
	})
}
