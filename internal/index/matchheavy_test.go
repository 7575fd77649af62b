package index

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/model"
)

// matchHeavyDoc is one document as a home node sees it: the full term set
// (view primed, as the RPC decode does) and the terms the node serves.
type matchHeavyDoc struct {
	doc   model.Document
	terms []string
}

// homedHere splits a vocabulary in two the way a two-node ring does, so a
// filter is posted under about half of its terms and a document queries
// about half of its own.
func homedHere(term string) bool {
	h := fnv.New32a()
	h.Write([]byte(term))
	return h.Sum32()&1 == 0
}

// matchHeavyPopulation builds the repository benchmark's match_heavy shape
// on one index, deterministically: nFilters MatchAll filters of three and
// more terms drawn from internal/dataset's Zipf query model over a 10 k
// vocabulary — nearly every one its own cover — each posted under the terms
// homed here, and nDocs documents of 65 terms: 20 spread evenly over the 250
// most popular query terms (the paper's 31.3 % overlap between popular query
// and document terms, as the benchmark's document table spreads it) and 45
// over the rest of the vocabulary. A document then scans about a tenth of
// the stored posting entries and matches next to none of them.
// bytesPerFilter is the heap the registrations retained.
func matchHeavyPopulation(tb testing.TB, nFilters, nDocs int) (ix *Index, docs []matchHeavyDoc, bytesPerFilter float64) {
	tb.Helper()
	const vocab, seed = 10000, 20120618
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: vocab, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	type reg struct {
		f     model.Filter
		terms []string
	}
	regs := make([]reg, 0, nFilters)
	for len(regs) < nFilters {
		terms := model.SortTerms(fg.Next())
		if len(terms) < 3 {
			continue
		}
		var mine []string
		for _, t := range terms {
			if homedHere(t) {
				mine = append(mine, t)
			}
		}
		if len(mine) == 0 {
			continue
		}
		id := model.FilterID(len(regs) + 1)
		regs = append(regs, reg{model.Filter{ID: id, Subscriber: "s", Terms: terms, Mode: model.MatchAll}, mine})
	}
	const docTerms, hotTerms, hotVocab = 65, 20, 250
	rng := rand.New(rand.NewSource(seed + 1))
	for len(docs) < nDocs {
		var terms []string
		for len(terms) < hotTerms {
			terms = model.SortTerms(append(terms, dataset.Term(rng.Intn(hotVocab))))
		}
		for len(terms) < docTerms {
			terms = model.SortTerms(append(terms, dataset.Term(hotVocab+rng.Intn(vocab-hotVocab))))
		}
		d := matchHeavyDoc{doc: model.Document{ID: uint64(len(docs) + 1), Terms: terms}}
		for _, t := range d.doc.Terms {
			if homedHere(t) {
				d.terms = append(d.terms, t)
			}
		}
		if len(d.terms) < 2 {
			continue
		}
		d.doc.View()
		docs = append(docs, d)
	}

	ix = newIndex(tb)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range regs {
		// Registered from a private copy of the terms, as a decoded RPC
		// delivers them: what the index retains of it is the index's cost.
		f := regs[i].f
		f.Terms = make([]string, len(regs[i].f.Terms))
		for j, t := range regs[i].f.Terms {
			f.Terms[j] = string([]byte(t))
		}
		if err := ix.Register(f, regs[i].terms); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return ix, docs, float64(after.HeapAlloc-before.HeapAlloc) / float64(nFilters)
}

// BenchmarkIndexMatchHeavy is the index layer's microbench for the
// repository benchmark's match_heavy workload (ROADMAP aim 1): one
// iteration is one document through MatchTerms over the terms homed here.
// Besides ns/doc it reports the logical posting entries a document scans —
// the count the §IV cost model charges, which no change to the engine may
// move — the matches it finds, and the heap bytes one registered filter
// costs (store included).
func BenchmarkIndexMatchHeavy(b *testing.B) {
	ix, docs, bytesPerFilter := matchHeavyPopulation(b, 35000, 256)
	var postings, matches int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := &docs[i%len(docs)]
		fs, st, err := ix.MatchTerms(&d.doc, d.terms)
		if err != nil {
			b.Fatal(err)
		}
		postings += st.Postings
		matches += len(fs)
		allocSinkFilters = fs
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/doc")
	b.ReportMetric(float64(postings)/float64(b.N), "postings/doc")
	b.ReportMetric(float64(matches)/float64(b.N), "matches/doc")
	b.ReportMetric(bytesPerFilter, "heapB/filter")
}
