package text

import (
	"sort"
	"strings"
	"testing"
)

// FuzzTokenize checks the invariants every consumer of Terms relies on —
// the ring hashes terms, the codec frames them, and the index keys posting
// lists by them, so the pipeline's output shape is load-bearing:
//
//   - never panics, for any input bytes
//   - output is sorted and strictly deduplicated
//   - every term is >= MinTermLen bytes of [a-z0-9] only
//   - deterministic: the same input yields the same terms
//   - stop-word removal only removes: Terms ⊆ Terms(KeepStopWords)
//   - byte-identical to termsReference, the tokenizer it replaced, under
//     every option set referenceOptions lists, for Terms and NormalizeTerms
func FuzzTokenize(f *testing.F) {
	f.Add("Breaking news tonight: markets RALLY 7%!")
	f.Add("the a an and or of to in is was")
	f.Add("running runner ran runs easily flying")
	f.Add("")
	f.Add("    \t\n\r  ")
	f.Add("héllo wörld — naïve café ☃ 日本語 emoji 🎉 mixed ASCII2000")
	f.Add("a b c d e f g aa bb cc")
	f.Add(strings.Repeat("wikipedia ", 50))
	f.Add("x\x00y\xff\xfez invalid\xc3(utf8")

	f.Fuzz(func(t *testing.T, raw string) {
		checkReference(t, raw)
		terms := Terms(raw, Options{})

		for i, term := range terms {
			if len(term) < 2 {
				t.Fatalf("term %q shorter than default MinTermLen 2 (input %q)", term, raw)
			}
			for _, r := range term {
				if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9') {
					t.Fatalf("term %q contains %q outside [a-z0-9] (input %q)", term, r, raw)
				}
			}
			if i > 0 && terms[i-1] >= term {
				t.Fatalf("terms not sorted strictly ascending: %q >= %q (input %q)", terms[i-1], term, raw)
			}
		}
		if !sort.StringsAreSorted(terms) {
			t.Fatalf("terms not sorted: %v", terms)
		}

		again := Terms(raw, Options{})
		if len(again) != len(terms) {
			t.Fatalf("non-deterministic: %v then %v", terms, again)
		}
		for i := range terms {
			if again[i] != terms[i] {
				t.Fatalf("non-deterministic at %d: %v vs %v", i, terms, again)
			}
		}

		// Stop-word removal can only shrink the term set (both pipelines
		// stem, so the surviving stems are identical).
		kept := Terms(raw, Options{KeepStopWords: true})
		keptSet := make(map[string]struct{}, len(kept))
		for _, term := range kept {
			keptSet[term] = struct{}{}
		}
		for _, term := range terms {
			if _, ok := keptSet[term]; !ok {
				t.Fatalf("term %q in filtered output but not in KeepStopWords output %v (input %q)", term, kept, raw)
			}
		}

		// NormalizeTerms over the output must agree with re-running Terms
		// on the joined output (same pipeline by construction).
		joined := strings.Join(terms, " ")
		if n, r2 := NormalizeTerms(terms, Options{}), Terms(joined, Options{}); len(n) != len(r2) {
			t.Fatalf("NormalizeTerms disagrees with Terms on joined output: %v vs %v", n, r2)
		}
	})
}

// TestStopWordsFilteredPreStem pins the pipeline ordering the fuzz target's
// invariants rest on: stop words are dropped before stemming, so a token
// that IS a stop word never survives — but a non-stop-word may legally stem
// onto one ("doings" → "do"), which is why the fuzz target does not assert
// stop-word absence on the output.
func TestStopWordsFilteredPreStem(t *testing.T) {
	if got := Terms("the and doing was", Options{}); len(got) != 0 {
		t.Fatalf("stop-word-only input produced %v", got)
	}
	got := Terms("doings", Options{})
	if len(got) != 1 || got[0] != "do" {
		t.Fatalf("Terms(doings) = %v, want [do] (stem collides with a stop word by design)", got)
	}
}
