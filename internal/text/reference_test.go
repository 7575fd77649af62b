package text

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// termsReference is the tokenizer Terms replaced, kept as the definition its
// output must equal byte for byte: a rune loop through a strings.Builder,
// the allocating Stem, and a map for deduplication.
func termsReference(raw string, opts Options) []string {
	minLen := opts.MinTermLen
	if minLen == 0 {
		minLen = 2
	}
	seen := make(map[string]struct{})
	var terms []string
	emit := func(tok string) {
		if len(tok) < minLen {
			return
		}
		if !opts.KeepStopWords && IsStopWord(tok) {
			return
		}
		if !opts.NoStem {
			tok = Stem(tok)
			if len(tok) < minLen {
				return
			}
		}
		if _, dup := seen[tok]; dup {
			return
		}
		seen[tok] = struct{}{}
		terms = append(terms, tok)
	}

	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			emit(b.String())
			b.Reset()
		}
	}
	for _, r := range raw {
		switch {
		case r >= 'a' && r <= 'z':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		case r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	sort.Strings(terms)
	return terms
}

// referenceOptions are the pipelines the equality checks run.
var referenceOptions = []Options{
	{},
	{KeepStopWords: true},
	{NoStem: true},
	{KeepStopWords: true, NoStem: true, MinTermLen: 1},
	{MinTermLen: 4},
	{MinTermLen: -1},
}

// checkReference fails t unless Terms and NormalizeTerms equal the reference
// on raw under every option set — nil-ness included.
func checkReference(t *testing.T, raw string) {
	t.Helper()
	for _, opts := range referenceOptions {
		want := termsReference(raw, opts)
		if got := Terms(raw, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("Terms(%q, %+v) = %#v, reference %#v", raw, opts, got, want)
		}
		fields := strings.Fields(raw)
		want = termsReference(strings.Join(fields, " "), opts)
		if got := NormalizeTerms(fields, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("NormalizeTerms(%q, %+v) = %#v, reference %#v", fields, opts, got, want)
		}
	}
}

func TestTermsEqualReference(t *testing.T) {
	for _, raw := range []string{
		"",
		"The quick brown foxes are RUNNING over the lazy dogs!",
		"cache caches caching CACHED",
		"héllo wörld — naïve café ☃ 日本語 emoji 🎉 mixed ASCII2000",
		"x\x00y\xff\xfez invalid\xc3(utf8 \xe2\x82",
		strings.Repeat("generalization operational hopefulness ", 40),
		benchDoc,
		benchFilter,
	} {
		checkReference(t, raw)
	}
	// A document past the scratch arena and span capacity.
	var long strings.Builder
	for i := 0; i < 3000; i++ {
		long.WriteString("Word")
		long.WriteByte(byte('a' + i%26))
		long.WriteByte(byte('a' + i/26%26))
		long.WriteString("ing ")
	}
	checkReference(t, long.String())
}

// benchFilter and benchDoc are the two shapes the pipeline serves: a 3-term
// filter, and a document of 65 distinct terms with stop words and repeats
// around them, as match_heavy's generator writes them.
const (
	benchFilter = "Breaking markets rally"
	benchDoc    = "Officials said the regional electricity markets rallied sharply on Tuesday " +
		"after forecasters warned that an unusually cold winter would strain supplies, " +
		"while analysts cautioned investors about volatile prices, shrinking reserves, " +
		"delayed pipeline construction and growing demand from industrial consumers. " +
		"Several utilities announced emergency procurement plans, hedging contracts and " +
		"temporary subsidies for vulnerable households; regulators promised transparent " +
		"audits, independent monitoring, stricter penalties, faster approvals and weekly " +
		"briefings. Economists expect inflation, wages, exports, shipping, insurance, " +
		"agriculture and manufacturing output to respond unevenly " +
		"through winter."
)

func TestBenchDocShape(t *testing.T) {
	if n := len(Terms(benchFilter, Options{})); n != 3 {
		t.Fatalf("benchFilter has %d terms, want 3", n)
	}
	if n := len(Terms(benchDoc, Options{})); n != 65 {
		t.Fatalf("benchDoc has %d terms, want 65", n)
	}
}

// BenchmarkTerms is the tokenizer's microbench: one 3-term filter and one
// 65-term document per op, the two shapes text.terms_ns_per_doc and the
// harness's registrations run.
func BenchmarkTerms(b *testing.B) {
	for _, bc := range []struct{ name, raw string }{{"filter3", benchFilter}, {"doc65", benchDoc}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Terms(bc.raw, Options{})
			}
		})
	}
}
