package text

// stopWords is the classic English stop-word list (the SMART/van Rijsbergen
// core subset) used to strip function words before indexing, matching the
// paper's preprocessing ("common stop words such as 'the', 'and', etc. were
// removed", §VI.A).
var stopWords = buildStopWords()

// stopWordList enumerates the stop words; kept as a slice so tests can
// verify coverage and so the set is built once, deterministically.
var stopWordList = []string{
	"a", "about", "above", "after", "again", "against", "all", "am", "an",
	"and", "any", "are", "as", "at", "be", "because", "been", "before",
	"being", "below", "between", "both", "but", "by", "can", "cannot",
	"could", "did", "do", "does", "doing", "down", "during", "each", "few",
	"for", "from", "further", "had", "has", "have", "having", "he", "her",
	"here", "hers", "herself", "him", "himself", "his", "how", "i", "if",
	"in", "into", "is", "it", "its", "itself", "me", "more", "most", "my",
	"myself", "no", "nor", "not", "of", "off", "on", "once", "only", "or",
	"other", "ought", "our", "ours", "ourselves", "out", "over", "own",
	"same", "she", "should", "so", "some", "such", "than", "that", "the",
	"their", "theirs", "them", "themselves", "then", "there", "these",
	"they", "this", "those", "through", "to", "too", "under", "until", "up",
	"very", "was", "we", "were", "what", "when", "where", "which", "while",
	"who", "whom", "why", "with", "would", "you", "your", "yours",
	"yourself", "yourselves",
}

// buildStopWords materializes the lookup set from stopWordList. Run once at
// package variable initialization, which is deterministic and has no
// side effects outside the returned value.
func buildStopWords() map[string]struct{} {
	set := make(map[string]struct{}, len(stopWordList))
	for _, w := range stopWordList {
		set[w] = struct{}{}
	}
	return set
}

// IsStopWord reports whether w (already lower-cased) is an English stop
// word.
func IsStopWord(w string) bool {
	_, ok := stopWords[w]
	return ok
}

// isStopWord is IsStopWord on bytes, without converting them.
func isStopWord(w []byte) bool {
	_, ok := stopWords[string(w)]
	return ok
}
