// Package text implements the document/filter preprocessing pipeline used
// by MOVE: tokenization, stop-word removal, and Porter stemming. It mirrors
// the preprocessing the paper applies to the TREC corpora ("pre-processed
// with the Porter algorithm and common stop words ... removed", §VI.A).
package text

// Stem reduces an English word to its stem using the Porter algorithm
// (M.F. Porter, "An algorithm for suffix stripping", Program 14(3), 1980).
// The input is expected to be lower-case ASCII letters; words shorter than
// three characters are returned unchanged, as in the reference
// implementation.
func Stem(word string) string {
	if len(word) < 3 {
		return word
	}
	return string(stem([]byte(word)))
}

// stem is Stem in place: it rewrites the lower-case ASCII word in b and
// returns it. The result is never longer than b, and no step writes past the
// length it has cut the word to, so b's own array always holds it.
func stem(b []byte) []byte {
	if len(b) < 3 {
		return b
	}
	s := stemmer{buf: b}
	s.step1a()
	s.step1b()
	s.step1c()
	s.step2()
	s.step3()
	s.step4()
	s.step5a()
	s.step5b()
	return s.buf
}

// stemmer holds the working buffer for one word. All step methods mutate
// buf in place (truncation or suffix rewrite only, so nothing is
// reallocated).
type stemmer struct {
	buf []byte
}

// isConsonant reports whether buf[i] is a consonant per Porter's definition:
// a letter other than a, e, i, o, u, and other than y preceded by a
// consonant.
func (s *stemmer) isConsonant(i int) bool {
	switch s.buf[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.isConsonant(i - 1)
	default:
		return true
	}
}

// measure computes m, the number of VC (vowel-consonant) sequences in
// buf[:end], per the [C](VC)^m[V] decomposition.
func (s *stemmer) measure(end int) int {
	m := 0
	i := 0
	// Skip the optional initial consonant run [C].
	for i < end && s.isConsonant(i) {
		i++
	}
	for {
		// Vowel run.
		for i < end && !s.isConsonant(i) {
			i++
		}
		if i >= end {
			return m
		}
		// Consonant run closes one VC pair.
		for i < end && s.isConsonant(i) {
			i++
		}
		m++
		if i >= end {
			return m
		}
	}
}

// hasVowel reports whether buf[:end] contains a vowel.
func (s *stemmer) hasVowel(end int) bool {
	for i := 0; i < end; i++ {
		if !s.isConsonant(i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether buf[:end] ends with a doubled
// consonant (e.g. -tt, -ss).
func (s *stemmer) endsDoubleConsonant(end int) bool {
	if end < 2 {
		return false
	}
	if s.buf[end-1] != s.buf[end-2] {
		return false
	}
	return s.isConsonant(end - 1)
}

// endsCVC reports whether buf[:end] ends consonant-vowel-consonant where the
// final consonant is not w, x, or y. Used by the *o condition.
func (s *stemmer) endsCVC(end int) bool {
	if end < 3 {
		return false
	}
	if !s.isConsonant(end-3) || s.isConsonant(end-2) || !s.isConsonant(end-1) {
		return false
	}
	switch s.buf[end-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// hasSuffix reports whether buf ends with suf. Most probes fail on the
// last byte, which is checked first.
func (s *stemmer) hasSuffix(suf string) bool {
	n := len(s.buf)
	if n < len(suf) || s.buf[n-1] != suf[len(suf)-1] {
		return false
	}
	return string(s.buf[n-len(suf):]) == suf
}

// replaceSuffix replaces a trailing suffix of length lenSuf with repl when
// the measure of the remaining stem is greater than minM. Returns whether a
// replacement happened.
func (s *stemmer) replaceSuffix(suf, repl string, minM int) bool {
	if !s.hasSuffix(suf) {
		return false
	}
	stemEnd := len(s.buf) - len(suf)
	if s.measure(stemEnd) <= minM {
		return false
	}
	s.setSuffix(stemEnd, repl)
	return true
}

// setSuffix cuts buf to buf[:stemEnd] and appends repl in place. No rewrite
// makes the word longer than it came in (step 1b's restored e follows the
// longer ed or ing it removed), so buf's array holds it: buf is only ever
// resliced, never reallocated, which keeps a caller's buffer on its stack.
func (s *stemmer) setSuffix(stemEnd int, repl string) {
	s.buf = s.buf[:stemEnd+len(repl)]
	copy(s.buf[stemEnd:], repl)
}

// step1a handles plurals: sses→ss, ies→i, ss→ss, s→"".
func (s *stemmer) step1a() {
	switch {
	case s.hasSuffix("sses"):
		s.buf = s.buf[:len(s.buf)-2]
	case s.hasSuffix("ies"):
		s.buf = s.buf[:len(s.buf)-2]
	case s.hasSuffix("ss"):
		// Keep.
	case s.hasSuffix("s"):
		s.buf = s.buf[:len(s.buf)-1]
	}
}

// step1b handles past tenses and gerunds: eed, ed, ing.
func (s *stemmer) step1b() {
	if s.hasSuffix("eed") {
		if s.measure(len(s.buf)-3) > 0 {
			s.buf = s.buf[:len(s.buf)-1]
		}
		return
	}
	cleanup := false
	if s.hasSuffix("ed") && s.hasVowel(len(s.buf)-2) {
		s.buf = s.buf[:len(s.buf)-2]
		cleanup = true
	} else if s.hasSuffix("ing") && s.hasVowel(len(s.buf)-3) {
		s.buf = s.buf[:len(s.buf)-3]
		cleanup = true
	}
	if !cleanup {
		return
	}
	switch {
	case s.hasSuffix("at"), s.hasSuffix("bl"), s.hasSuffix("iz"):
		s.setSuffix(len(s.buf), "e")
	case s.endsDoubleConsonant(len(s.buf)):
		last := s.buf[len(s.buf)-1]
		if last != 'l' && last != 's' && last != 'z' {
			s.buf = s.buf[:len(s.buf)-1]
		}
	case s.measure(len(s.buf)) == 1 && s.endsCVC(len(s.buf)):
		s.setSuffix(len(s.buf), "e")
	}
}

// step1c turns terminal y into i when the stem contains a vowel.
func (s *stemmer) step1c() {
	if s.hasSuffix("y") && s.hasVowel(len(s.buf)-1) {
		s.buf[len(s.buf)-1] = 'i'
	}
}

// suffixRule rewrites suffix suf to repl, never longer.
type suffixRule struct{ suf, repl string }

var (
	step2Pairs = []suffixRule{
		{"ational", "ate"}, {"tional", "tion"},
		{"enci", "ence"}, {"anci", "ance"},
		{"izer", "ize"},
		{"abli", "able"}, {"alli", "al"}, {"entli", "ent"}, {"eli", "e"}, {"ousli", "ous"},
		{"ization", "ize"}, {"ation", "ate"}, {"ator", "ate"},
		{"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"}, {"ousness", "ous"},
		{"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
	}
	step3Pairs = []suffixRule{
		{"icate", "ic"}, {"ative", ""}, {"alize", "al"},
		{"iciti", "ic"}, {"ical", "ic"}, {"ful", ""}, {"ness", ""},
	}
	step4Suffixes = []string{
		"al", "ance", "ence", "er", "ic", "able", "ible", "ant",
		"ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
		"ous", "ive", "ize",
	}
)

// step2 maps double suffixes to single ones when m > 0. Ordered by the
// penultimate letter as in Porter's original table.
func (s *stemmer) step2() {
	for _, p := range step2Pairs {
		if s.hasSuffix(p.suf) {
			s.replaceSuffix(p.suf, p.repl, 0)
			return
		}
	}
}

// step3 strips -ic-, -full, -ness etc. when m > 0.
func (s *stemmer) step3() {
	for _, p := range step3Pairs {
		if s.hasSuffix(p.suf) {
			s.replaceSuffix(p.suf, p.repl, 0)
			return
		}
	}
}

// step4 strips -ant, -ence etc. when m > 1.
func (s *stemmer) step4() {
	for _, suf := range step4Suffixes {
		if !s.hasSuffix(suf) {
			continue
		}
		stemEnd := len(s.buf) - len(suf)
		if suf == "ion" {
			// -ion is removed only after s or t.
			if stemEnd == 0 || (s.buf[stemEnd-1] != 's' && s.buf[stemEnd-1] != 't') {
				continue
			}
		}
		if s.measure(stemEnd) > 1 {
			s.buf = s.buf[:stemEnd]
		}
		return
	}
}

// step5a removes a terminal e when m > 1, or when m == 1 and the stem does
// not end CVC.
func (s *stemmer) step5a() {
	if !s.hasSuffix("e") {
		return
	}
	stemEnd := len(s.buf) - 1
	m := s.measure(stemEnd)
	if m > 1 || (m == 1 && !s.endsCVC(stemEnd)) {
		s.buf = s.buf[:stemEnd]
	}
}

// step5b maps -ll to -l when m > 1.
func (s *stemmer) step5b() {
	n := len(s.buf)
	if n >= 2 && s.buf[n-1] == 'l' && s.buf[n-2] == 'l' && s.measure(n-1) > 1 {
		s.buf = s.buf[:n-1]
	}
}
