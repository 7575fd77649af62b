package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/movesys/move/internal/dataset"
	"github.com/movesys/move/internal/model"
)

// spec is one workload's frozen shape. Everything a run's cost depends on
// is a constant here; --seed only chooses which filters and documents are
// drawn from the fixed tables below.
type spec struct {
	name string
	why  string // one line, repeated in BENCHMARK.json

	sessions int // subscribers, one delivery connection each
	filters  int // base filter population registered during set-up
	mode     model.MatchMode
	// grid: set-up ends with a two-phase allocation round so both homes
	// serve through an allocation grid.
	grid bool
	// scripted: publishers interleave register/unregister with publishes
	// (4 publishes, 1 register, 1 unregister), population constant.
	scripted bool
	// openRate is the open phase's fixed schedule in documents per second,
	// frozen at ≈ 35 % of the closed-phase docs_per_sec measured at the
	// commit that added the benchmark (benchmark/README.md has the figures).
	openRate float64
	// setups is how many times an untraced run sets the system up (setup_s is
	// their median). A constant, so the estimator is the same in every run;
	// sized from the driver's time cap: one wire_mixed set-up takes ≈ 3 s, one
	// match_heavy set-up 5–8 s, one fanout_heavy set-up ≈ 0.4 s.
	setups int

	gen func(sp *spec, seed int64) (*workload, error)
}

const (
	scriptPublishes = 4 // publishes per script cycle
	scriptCycle     = 6 // + 1 register + 1 unregister
	// scriptWindow is how many script cycles a scripted filter stays
	// registered before its publisher unregisters it.
	scriptWindow = 16
	// scriptPool is the number of distinct scripted term sets per
	// publisher; their terms are in the Bloom filter from set-up on.
	scriptPool = 2048

	numPublishers = 2 // = nproc on the host the bounds were sized on
)

var specs = []*spec{
	{
		name:     "wire_mixed",
		why:      "small frames, grid fan-out and scripted writes: entry, codec, transport syscalls and resilience dominate; only workload with node.grid",
		sessions: 64, filters: 20000, mode: model.MatchAny, grid: true, scripted: true,
		openRate: 640, setups: 2, gen: genWireMixed,
	},
	{
		name:     "match_heavy",
		why:      "40k MatchAll filters against 65-term documents, no grid, no writes: index matching dominates the home node",
		sessions: 64, filters: 40000, mode: model.MatchAll,
		openRate: 77, setups: 1, gen: genMatchHeavy,
	},
	{
		name:     "fanout_heavy",
		why:      "256 sessions, half reached by every document: match responses, routing, hub flush and client acks dominate; index idle",
		sessions: 256, filters: 256, mode: model.MatchAny,
		openRate: 150, setups: 5, gen: genFanoutHeavy,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// filterDef is one generated filter. terms are vocabulary IDs (sorted,
// distinct); the daemons see dataset.Term(id) strings.
type filterDef struct {
	id    uint64
	sub   int
	terms []int32
	mode  model.MatchMode
}

// docDef is one pool document: the vocabulary IDs drawn and the raw text
// the publisher hands to text.Terms.
type docDef struct {
	terms []int32
	text  string
	set   map[int32]struct{} // terms as a set, scripted workloads only
}

// workload is everything generated from (spec, seed) before any process is
// started. The daemons only ever see these inputs.
type workload struct {
	sp      *spec
	subs    []string
	filters []filterDef
	docs    []docDef
	// scripts[p] is publisher p's pool of scripted term sets (wire_mixed).
	scripts [numPublishers][][]int32
}

func subName(i int) string { return fmt.Sprintf("s%03d", i) }

func (w *workload) finish() {
	w.subs = make([]string, w.sp.sessions)
	for i := range w.subs {
		w.subs[i] = subName(i)
	}
	for i := range w.docs {
		w.docs[i].text = docText(w.docs[i].terms)
		if w.sp.scripted {
			w.docs[i].set = termSet(w.docs[i].terms)
		}
	}
}

func docText(terms []int32) string {
	var b strings.Builder
	for i, t := range terms {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(dataset.Term(int(t)))
	}
	return b.String()
}

// termIDs turns dataset.Term names back into sorted vocabulary IDs.
func termIDs(names []string) ([]int32, error) {
	out := make([]int32, len(names))
	for i, n := range names {
		id, err := strconv.Atoi(strings.TrimPrefix(n, "term"))
		if err != nil {
			return nil, fmt.Errorf("generator term %q: %w", n, err)
		}
		out[i] = int32(id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// stratifiedTermSets draws n term sets of at least minLen terms from the
// MSN-like generator, keeping exactly the published share of every query
// length (dataset.MSNLenCDF1–3, geometric tail, 20 terms at most): the terms
// are the generator's draws, but the number of posting entries the
// population creates is the same for every seed.
func stratifiedTermSets(fg *dataset.FilterGen, n, minLen int) ([][]int32, error) {
	const maxLen = 20
	const tailMean = (dataset.MSNMeanTermsPerFilter - (dataset.MSNLenCDF1 + 2*(dataset.MSNLenCDF2-dataset.MSNLenCDF1) + 3*(dataset.MSNLenCDF3-dataset.MSNLenCDF2))) / (1 - dataset.MSNLenCDF3)
	const g = (tailMean - 4) / (tailMean - 3)
	share := make([]float64, maxLen+1)
	share[1], share[2], share[3] = dataset.MSNLenCDF1, dataset.MSNLenCDF2-dataset.MSNLenCDF1, dataset.MSNLenCDF3-dataset.MSNLenCDF2
	rest := 1 - dataset.MSNLenCDF3
	for l := 4; l < maxLen; l++ {
		share[l] = rest * (1 - g)
		rest *= g
	}
	share[maxLen] = rest
	var total float64
	for l := minLen; l <= maxLen; l++ {
		total += share[l]
	}
	// Largest-remainder rounding of n·share to whole quotas.
	quota := make([]int, maxLen+1)
	type rem struct {
		l int
		f float64
	}
	var rems []rem
	left := n
	for l := minLen; l <= maxLen; l++ {
		x := float64(n) * share[l] / total
		quota[l] = int(x)
		left -= quota[l]
		rems = append(rems, rem{l, x - float64(quota[l])})
	}
	sort.Slice(rems, func(a, b int) bool { return rems[a].f > rems[b].f })
	for i := 0; i < left; i++ {
		quota[rems[i].l]++
	}
	out := make([][]int32, 0, n)
	for draws := 0; len(out) < n; draws++ {
		if draws > 200*n {
			return nil, fmt.Errorf("filter generator did not fill the length quotas in %d draws", draws)
		}
		names := fg.Next()
		if l := len(names); l > maxLen || quota[l] == 0 {
			continue
		}
		quota[len(names)]--
		ids, err := termIDs(names)
		if err != nil {
			return nil, err
		}
		out = append(out, ids)
	}
	return out, nil
}

// --- wire_mixed ---

const (
	wmFilterVocab = 16000
	wmDocTerms    = 8
)

// genWireMixed: MSN-like MatchAny filters over wmFilterVocab terms;
// documents are consecutive 8-blocks of a seeded permutation of twice that
// vocabulary, so over one pass of the pool every vocabulary term is
// published exactly once and the matching work per document does not depend
// on which permutation the seed picked.
func genWireMixed(sp *spec, seed int64) (*workload, error) {
	w := &workload{sp: sp}
	fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: wmFilterVocab, Seed: seed})
	if err != nil {
		return nil, err
	}
	sets, err := stratifiedTermSets(fg, sp.filters, 1)
	if err != nil {
		return nil, err
	}
	w.filters = make([]filterDef, sp.filters)
	for i, ids := range sets {
		w.filters[i] = filterDef{id: uint64(i + 1), sub: i % sp.sessions, terms: ids, mode: sp.mode}
	}
	for p := range w.scripts {
		w.scripts[p] = make([][]int32, scriptPool)
		for i := range w.scripts[p] {
			if w.scripts[p][i], err = termIDs(fg.Next()); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0d0c))
	perm := rng.Perm(2 * wmFilterVocab)
	w.docs = make([]docDef, len(perm)/wmDocTerms)
	for i := range w.docs {
		terms := make([]int32, wmDocTerms)
		for j := range terms {
			terms[j] = int32(perm[i*wmDocTerms+j])
		}
		w.docs[i].terms = terms
	}
	w.finish()
	return w, nil
}

// --- match_heavy ---

const (
	mhFilterVocab = 10000
	mhDocVocab    = 10000
	mhDocPool     = 2048
	mhMinTerms    = 3
)

// wtSampler is the WT-like document sampler: Zipf term frequency calibrated
// to the published WT10G entropy, document length a truncated normal around
// 64.8 terms (internal/dataset's shape), and a rank→term table that is a
// constant — so the hot document terms, their home nodes and their posting
// lists are the same for every seed and only the draws differ.
type wtSampler struct {
	cdf    []float64
	rankID []int32
}

var (
	wtOnce sync.Once
	wt     *wtSampler
)

func newWTSampler() *wtSampler {
	wtOnce.Do(func() {
		s := &wtSampler{}
		lo, hi := 0.0, 3.0
		for iter := 0; iter < 40; iter++ {
			mid := (lo + hi) / 2
			if zipfEntropy(mhDocVocab, mid) > dataset.WTEntropy {
				lo = mid
			} else {
				hi = mid
			}
		}
		s.cdf = zipfCDF(mhDocVocab, (lo+hi)/2)
		// Constant table: the paper's 31.3 % overlap between the top query
		// terms and the top document terms, spread evenly over the head
		// (internal/dataset's rule) with a fixed shuffle behind it.
		s.rankID = overlapTable(mhDocVocab, dataset.OverlapAnchor(mhFilterVocab)*6, dataset.WTOverlapTop1000)
		wt = s
	})
	return wt
}

func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

func zipfEntropy(n int, s float64) float64 {
	cdf := zipfCDF(n, s)
	h, prev := 0.0, 0.0
	for _, c := range cdf {
		if p := c - prev; p > 0 {
			h -= p * math.Log2(p)
		}
		prev = c
	}
	return h
}

// overlapTable maps document frequency rank → vocabulary ID so that the
// stated share of the top-anchor ranks lands on the filter generator's
// most popular IDs (ID 0 is the most popular filter term).
func overlapTable(v, anchor int, overlap float64) []int32 {
	rng := rand.New(rand.NewSource(20120618)) // constant: the table never depends on --seed
	var head, tail []int32
	for _, id := range rng.Perm(v) {
		if id < anchor {
			head = append(head, int32(id))
		} else {
			tail = append(tail, int32(id))
		}
	}
	out := make([]int32, v)
	for rank := range out {
		useHead := rank < anchor && int(float64(rank+1)*overlap) > int(float64(rank)*overlap)
		switch {
		case useHead && len(head) > 0:
			out[rank], head = head[0], head[1:]
		case len(tail) > 0:
			out[rank], tail = tail[0], tail[1:]
		default:
			out[rank], head = head[0], head[1:]
		}
	}
	return out
}

func (s *wtSampler) next(rng *rand.Rand) []int32 {
	const mean = dataset.WTMeanTermsPerDoc
	l := int(math.Round(rng.NormFloat64()*mean/3 + mean))
	if l < 1 {
		l = 1
	}
	if maxLen := int(math.Floor(3 * mean)); l > maxLen {
		l = maxLen
	}
	seen := make(map[int32]struct{}, l)
	out := make([]int32, 0, l)
	for len(out) < l {
		id := s.rankID[sort.SearchFloat64s(s.cdf, rng.Float64())]
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// mhTables are match_heavy's fixed tables: the filter catalogue and the
// document table. MatchAll filters of three and more terms match rarely and
// a few all-hot filters carry most of the matches, so catalogues drawn per
// seed differ by ±20 % in events per document; the tables are therefore
// constants of the shape, and --seed draws who owns which filter, under
// which ID and registration order, and the order documents are published in.
var (
	mhOnce   sync.Once
	mhSets   [][]int32
	mhDocs   [][]int32
	mhTabErr error
)

func mhTables(n int) ([][]int32, [][]int32, error) {
	mhOnce.Do(func() {
		const tableSeed = 20120618
		fg, err := dataset.NewFilterGen(dataset.FilterConfig{DistinctTerms: mhFilterVocab, Seed: tableSeed})
		if err != nil {
			mhTabErr = err
			return
		}
		if mhSets, mhTabErr = stratifiedTermSets(fg, n, mhMinTerms); mhTabErr != nil {
			return
		}
		s := newWTSampler()
		rng := rand.New(rand.NewSource(tableSeed))
		mhDocs = make([][]int32, mhDocPool)
		for i := range mhDocs {
			mhDocs[i] = s.next(rng)
		}
	})
	return mhSets, mhDocs, mhTabErr
}

func genMatchHeavy(sp *spec, seed int64) (*workload, error) {
	w := &workload{sp: sp}
	sets, docs, err := mhTables(sp.filters)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0d0c))
	ids, owners := rng.Perm(len(sets)), rng.Perm(sp.sessions)
	w.filters = make([]filterDef, len(sets))
	for i, terms := range sets {
		// filters[k] carries ID k+1 and registration follows slice order.
		w.filters[ids[i]] = filterDef{id: uint64(ids[i] + 1), sub: owners[i%sp.sessions], terms: terms, mode: sp.mode}
	}
	w.docs = make([]docDef, len(docs))
	for i, j := range rng.Perm(len(docs)) {
		w.docs[i].terms = docs[j]
	}
	w.finish()
	return w, nil
}

// --- fanout_heavy ---

const (
	fhVocab       = 18
	fhFilterTerms = 3
	fhDocTerms    = 4
)

// genFanoutHeavy: every session holds one 3-term MatchAny filter over an
// 18-term vocabulary (consecutive blocks of seeded permutations, so every
// term is used equally often); the pool is every 4-term subset of the
// vocabulary, shuffled. Each filter matches exactly the same number of
// pool documents, so events per document is a constant of the shape.
func genFanoutHeavy(sp *spec, seed int64) (*workload, error) {
	w := &workload{sp: sp}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0d0c))
	w.filters = make([]filterDef, sp.filters)
	var perm []int
	for i := range w.filters {
		if len(perm) < fhFilterTerms {
			perm = rng.Perm(fhVocab) // fhVocab is a multiple of fhFilterTerms
		}
		terms := make([]int32, fhFilterTerms)
		for j := range terms {
			terms[j] = int32(perm[j])
		}
		perm = perm[fhFilterTerms:]
		sort.Slice(terms, func(a, b int) bool { return terms[a] < terms[b] })
		w.filters[i] = filterDef{id: uint64(i + 1), sub: i % sp.sessions, terms: terms, mode: sp.mode}
	}
	var subsets [][]int32
	var rec func(start int, cur []int32)
	rec = func(start int, cur []int32) {
		if len(cur) == fhDocTerms {
			subsets = append(subsets, append([]int32(nil), cur...))
			return
		}
		for t := start; t < fhVocab; t++ {
			rec(t+1, append(cur, int32(t)))
		}
	}
	rec(0, nil)
	rng.Shuffle(len(subsets), func(a, b int) { subsets[a], subsets[b] = subsets[b], subsets[a] })
	w.docs = make([]docDef, len(subsets))
	for i := range w.docs {
		w.docs[i].terms = subsets[i]
	}
	w.finish()
	return w, nil
}
