package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/movesys/move/internal/model"
)

// TestPublishOracleUnderConcurrentMutation is the oracle-backed
// concurrency stress for the sharded index under the publish path. Phase 1
// runs concurrent registrars/unregistrars against concurrent publishers
// (under -race this exercises every shard boundary): each publish is
// checked against a stable base oracle — every base match must be present
// (no dropped matches) and no base non-match may appear (no phantoms);
// filters registered concurrently are allowed to surface as they land.
// Phase 2 quiesces, folds the mutations into the oracle, and requires every
// match set of a second concurrent publish wave to equal the brute-force
// oracle exactly.
func TestPublishOracleUnderConcurrentMutation(t *testing.T) {
	for _, seed := range []int64{2, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runPublishOracleStress(t, seed)
		})
	}
}

func runPublishOracleStress(t *testing.T, seed int64) {
	t.Helper()
	ctx := context.Background()
	c, err := New(Config{Scheme: SchemeMove, Nodes: 10, Capacity: 500, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	const vocabSize = 30
	term := func(rng *rand.Rand) string { return fmt.Sprintf("t%d", rng.Intn(vocabSize)) }
	randTerms := func(rng *rand.Rand, n int) []string {
		seen := map[string]struct{}{}
		var out []string
		for len(out) < n {
			tm := term(rng)
			if _, dup := seen[tm]; dup {
				continue
			}
			seen[tm] = struct{}{}
			out = append(out, tm)
		}
		return model.SortTerms(out)
	}

	// Phase 0: a stable base filter set, allocated onto grids so the
	// publishes exercise the column path, not just local matches.
	baseRng := rand.New(rand.NewSource(seed))
	o := &oracle{filters: make(map[model.FilterID][]string)}
	var baseMaxID model.FilterID
	for i := 0; i < 120; i++ {
		terms := randTerms(baseRng, 1+baseRng.Intn(3))
		id, err := c.Register(ctx, "s", terms, model.MatchAny)
		if err != nil {
			t.Fatal(err)
		}
		o.filters[id] = terms
		if id > baseMaxID {
			baseMaxID = id
		}
	}
	if _, err := c.Allocate(ctx); err != nil {
		t.Fatal(err)
	}

	// Phase 1: concurrent mutators + publishers.
	const (
		mutators      = 3
		publishers    = 3
		opsPerWorker  = 60
		pubsPerWorker = 40
	)
	type mutation struct {
		id      model.FilterID
		terms   []string // nil means unregistered
		removed bool
	}
	recorded := make([][]mutation, mutators)
	var wg sync.WaitGroup
	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*101))
			var mine []mutation
			for i := 0; i < opsPerWorker; i++ {
				terms := randTerms(rng, 1+rng.Intn(3))
				id, err := c.Register(ctx, "s", terms, model.MatchAny)
				if err != nil {
					t.Errorf("mutator %d: register: %v", w, err)
					return
				}
				mine = append(mine, mutation{id: id, terms: terms})
				// Occasionally remove a filter this mutator owns, so
				// unregisters race the publishes too. Base filters are never
				// touched — they are the stable oracle.
				if rng.Intn(4) == 0 && len(mine) > 0 {
					j := rng.Intn(len(mine))
					if !mine[j].removed {
						if err := c.Unregister(ctx, mine[j].id); err != nil {
							t.Errorf("mutator %d: unregister: %v", w, err)
							return
						}
						mine[j].removed = true
					}
				}
			}
			recorded[w] = mine
		}(w)
	}
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 1000 + int64(w)*37))
			for i := 0; i < pubsPerWorker; i++ {
				doc := randTerms(rng, 1+rng.Intn(4))
				res, err := c.Publish(ctx, doc)
				if err != nil {
					t.Errorf("publisher %d doc %d: %v", w, i, err)
					return
				}
				if !res.Complete {
					t.Errorf("publisher %d doc %d: incomplete publish with no failures injected", w, i)
					return
				}
				got := matchIDs(res.Matches)
				want := o.match(doc)
				gotSet := make(map[model.FilterID]struct{}, len(got))
				for _, id := range got {
					gotSet[id] = struct{}{}
				}
				// No dropped matches: every stable base match must be found.
				for _, id := range want {
					if _, ok := gotSet[id]; !ok {
						t.Errorf("publisher %d doc %v: dropped base match %v (got %v, want ⊇ %v)", w, doc, id, got, want)
						return
					}
				}
				// No phantoms: a base-range ID that the oracle rejects must
				// not appear. (IDs above baseMaxID belong to concurrent
				// registrations and are legitimately in flux.)
				wantSet := make(map[model.FilterID]struct{}, len(want))
				for _, id := range want {
					wantSet[id] = struct{}{}
				}
				for _, id := range got {
					if id <= baseMaxID {
						if _, ok := wantSet[id]; !ok {
							t.Errorf("publisher %d doc %v: phantom base match %v (oracle says %v)", w, doc, id, want)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Phase 2: fold the concurrent mutations into the oracle and require
	// exact equality from a wave of concurrent publishes.
	for _, mine := range recorded {
		for _, m := range mine {
			if m.removed {
				continue
			}
			o.filters[m.id] = m.terms
		}
	}
	verifyRng := rand.New(rand.NewSource(seed + 9999))
	docs := make([][]string, 40)
	for i := range docs {
		docs[i] = randTerms(verifyRng, 1+verifyRng.Intn(4))
	}
	results := make([]PublishResult, len(docs))
	errs := make([]error, len(docs))
	for i := range docs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Publish(ctx, docs[i])
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("quiesced doc %v: %v", docs[i], errs[i])
		}
		got := matchIDs(res.Matches)
		want := o.match(docs[i])
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("quiesced doc %v matched %v, oracle says %v", docs[i], got, want)
		}
	}
}
