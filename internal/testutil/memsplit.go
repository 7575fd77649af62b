package testutil

import (
	"runtime"
	"strings"
)

// MemComponent is one part a heap split charges live bytes to, named by the
// functions that allocate it.
type MemComponent struct {
	Name  string
	Funcs []string
}

// IndexMemComponents are the parts make mem-budget splits a filter index's
// heap into, by the internal/index functions that allocate them. The index
// rows (internal/index) and the node rows (internal/node, the index behind
// Handle) read the same list.
var IndexMemComponents = []MemComponent{
	{"long predicates", []string{"slices.Clone"}},
	{"dictionary", []string{"(*termDict).intern"}},
	{"posting entries", []string{"(*termShard).add", "(*slotSets).", "(*slotBig)."}},
	{"cover slab chunks (records, subscribers)", []string{"(*coverSlab).reach"}},
	{"side tables (member tables, long-predicate index)", []string{"(*sideTable[", "(*Index).memberSlot"}},
	{"signature table", []string{"(*coverSigShard)."}},
	{"filter table", []string{"(*filterShard).", "(*Index).ownTerms", "(*subCache).share"}},
}

// HeapByComponent sums the live heap bytes the allocation profile holds per
// component: a live object is charged to the first component one of whose
// functions is found on its allocation stack, innermost frame first; the
// last element is everything else. Exact only for what was allocated while
// runtime.MemProfileRate was 1.
func HeapByComponent(comps []MemComponent) []float64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		panic("allocation profile grew while it was read")
	}
	out := make([]float64, len(comps)+1)
records:
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			for i, c := range comps {
				for _, fn := range c.Funcs {
					if strings.Contains(fr.Function, fn) {
						out[i] += float64(r.InUseBytes())
						continue records
					}
				}
			}
			if !more {
				break
			}
		}
		out[len(comps)] += float64(r.InUseBytes())
	}
	return out
}
