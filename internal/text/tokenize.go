package text

import (
	"bytes"
	"slices"
)

// Options controls the preprocessing pipeline. The zero value enables the
// full paper pipeline (lower-casing, stop-word removal, Porter stemming,
// deduplication).
type Options struct {
	// KeepStopWords disables stop-word removal.
	KeepStopWords bool
	// NoStem disables Porter stemming.
	NoStem bool
	// MinTermLen drops terms shorter than this many bytes after stemming.
	// Zero means a default of 2.
	MinTermLen int
}

// Terms runs the preprocessing pipeline on raw text and returns the sorted,
// deduplicated term set — the representation both documents and filters use
// throughout the system (§III.A represents each as a set of terms).
//
// A token is a maximal run of ASCII letters and digits; every other byte —
// each byte of a non-ASCII or invalid UTF-8 sequence included — separates
// tokens. Terms are built side by side in a scratch arena, sorted and
// compacted there, and only the surviving ones are allocated.
func Terms(raw string, opts Options) []string {
	var arena [1024]byte
	var spans [128]span
	a, s := appendTerms(arena[:0], spans[:0], raw, opts)
	return uniqueTerms(a, s)
}

// NormalizeTerms applies stemming/stop-word filtering to an already
// tokenized list (e.g. a trace file with one term per field) and returns the
// sorted deduplicated set: Terms of the tokens joined by spaces.
func NormalizeTerms(tokens []string, opts Options) []string {
	var arena [1024]byte
	var spans [128]span
	a, s := arena[:0], spans[:0]
	for _, tok := range tokens {
		a, s = appendTerms(a, s, tok, opts)
	}
	return uniqueTerms(a, s)
}

// span is one term in the arena: arena[off:end].
type span struct{ off, end int }

// appendTerms appends raw's terms to the arena — each token lower-cased,
// stop words and short tokens dropped, the rest stemmed in place — and a
// span for each.
func appendTerms(arena []byte, spans []span, raw string, opts Options) ([]byte, []span) {
	minLen := opts.MinTermLen
	if minLen == 0 {
		minLen = 2
	}
	for i := 0; i < len(raw); {
		if !isTokenByte(raw[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(raw) && isTokenByte(raw[j]) {
			j++
		}
		tok := raw[i:j]
		i = j
		if len(tok) < minLen {
			continue
		}
		off := len(arena)
		arena = append(arena, tok...)
		term := arena[off:]
		for k, c := range term {
			if 'A' <= c && c <= 'Z' {
				term[k] = c + 'a' - 'A'
			}
		}
		if !opts.KeepStopWords && isStopWord(term) {
			arena = arena[:off]
			continue
		}
		if !opts.NoStem {
			term = stem(term) // in place: a prefix of arena[off:]
			if len(term) < minLen {
				arena = arena[:off]
				continue
			}
			arena = arena[:off+len(term)]
		}
		spans = append(spans, span{off, len(arena)})
	}
	return arena, spans
}

func isTokenByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// uniqueTerms sorts the spans by their bytes and allocates one string per
// distinct term; nil when there is none.
func uniqueTerms(arena []byte, spans []span) []string {
	if len(spans) == 0 {
		return nil
	}
	term := func(s span) []byte { return arena[s.off:s.end] }
	slices.SortFunc(spans, func(a, b span) int { return bytes.Compare(term(a), term(b)) })
	n := 1
	for k := 1; k < len(spans); k++ {
		if !bytes.Equal(term(spans[k]), term(spans[k-1])) {
			n++
		}
	}
	out := make([]string, 0, n)
	for k, s := range spans {
		if k == 0 || !bytes.Equal(term(s), term(spans[k-1])) {
			out = append(out, string(term(s)))
		}
	}
	return out
}
