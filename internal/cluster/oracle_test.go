package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/movesys/move/internal/model"
)

// oracle is a brute-force reference matcher over all registered filters.
type oracle struct {
	filters map[model.FilterID][]string
}

func (o *oracle) match(doc []string) []model.FilterID {
	set := make(map[string]struct{}, len(doc))
	for _, t := range doc {
		set[t] = struct{}{}
	}
	var out []model.FilterID
	for id, terms := range o.filters {
		for _, t := range terms {
			if _, ok := set[t]; ok {
				out = append(out, id)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestClusterNeverMissesMatchesUnderRandomAllocation interleaves random
// registrations, publishes, allocation rounds and window renewals, checking every publish against the brute-force oracle —
// the §IV correctness invariant ("we can ensure all matching filters ...
// are found") under arbitrary allocation churn.
func TestClusterNeverMissesMatchesUnderRandomAllocation(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runOracleTrial(t, seed)
		})
	}
}

func runOracleTrial(t *testing.T, seed int64) {
	t.Helper()
	ctx := context.Background()
	c, err := New(Config{Scheme: SchemeMove, Nodes: 12, Capacity: 500, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	o := &oracle{filters: make(map[model.FilterID][]string)}

	term := func() string { return fmt.Sprintf("t%d", rng.Intn(40)) }
	randTerms := func(n int) []string {
		seen := map[string]struct{}{}
		var out []string
		for len(out) < n {
			tm := term()
			if _, dup := seen[tm]; dup {
				continue
			}
			seen[tm] = struct{}{}
			out = append(out, tm)
		}
		return out
	}

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // register
			terms := randTerms(1 + rng.Intn(3))
			id, err := c.Register(ctx, "s", terms, model.MatchAny)
			if err != nil {
				t.Fatal(err)
			}
			o.filters[id] = terms
		case op < 8: // publish + verify against the oracle
			doc := randTerms(1 + rng.Intn(6))
			res, err := c.Publish(ctx, doc)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete {
				t.Fatalf("step %d: incomplete publish with no failures", step)
			}
			got := matchIDs(res.Matches)
			want := o.match(doc)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: doc %v matched %v, oracle says %v", step, doc, got, want)
			}
		case op == 8: // allocation round
			if len(o.filters) == 0 {
				continue
			}
			if _, err := c.Allocate(ctx); err != nil {
				t.Fatalf("step %d: allocate: %v", step, err)
			}
		default: // window renewal
			c.RenewWindow()
		}
	}
}

// TestClusterOracleWithUnregister extends the invariant across removals.
func TestClusterOracleWithUnregister(t *testing.T) {
	ctx := context.Background()
	c, err := New(Config{Scheme: SchemeMove, Nodes: 8, Capacity: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	o := &oracle{filters: make(map[model.FilterID][]string)}
	var live []model.FilterID

	for step := 0; step < 200; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			terms := []string{fmt.Sprintf("t%d", rng.Intn(25))}
			if rng.Intn(2) == 0 {
				terms = append(terms, fmt.Sprintf("t%d", rng.Intn(25)))
			}
			id, err := c.Register(ctx, "s", model.SortTerms(terms), model.MatchAny)
			if err != nil {
				t.Fatal(err)
			}
			o.filters[id] = model.SortTerms(terms)
			live = append(live, id)
		case op < 5 && len(live) > 0:
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := c.Unregister(ctx, id); err != nil {
				t.Fatal(err)
			}
			delete(o.filters, id)
		case op == 5 && len(o.filters) > 0:
			if _, err := c.Allocate(ctx); err != nil {
				t.Fatal(err)
			}
		default:
			doc := []string{fmt.Sprintf("t%d", rng.Intn(25)), fmt.Sprintf("t%d", rng.Intn(25))}
			res, err := c.Publish(ctx, model.SortTerms(doc))
			if err != nil {
				t.Fatal(err)
			}
			got := matchIDs(res.Matches)
			want := o.match(doc)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: doc %v matched %v, oracle says %v", step, doc, got, want)
			}
		}
	}
}
