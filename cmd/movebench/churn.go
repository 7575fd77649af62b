package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/movesys/move/internal/cluster"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/resilience"
	"github.com/movesys/move/internal/transport"
)

// churnReport is the JSON document `movebench -fig churn` writes: the
// two-phase reallocation protocol's latency and safety numbers under a
// Zipf-drifting, flash-crowding workload with seeded fault injection.
// Checked into the repo as BENCH_churn.json, the stored report
// `make bench-churn` guards against.
type churnReport struct {
	GeneratedBy string `json:"generated_by"`
	Nodes       int    `json:"nodes"`
	Rounds      int    `json:"rounds"`
	Filters     int    `json:"filters"`
	Seed        int64  `json:"seed"`

	// RoundsCommitted / RoundsAborted partition the reallocation rounds
	// the soak drove (aborts come from nodes crashed mid-round).
	RoundsCommitted int64 `json:"rounds_committed"`
	RoundsAborted   int64 `json:"rounds_aborted"`
	// ReallocP50MS / ReallocP95MS summarize full round latency (stats
	// pull through commit + GC).
	ReallocP50MS float64 `json:"realloc_p50_ms"`
	ReallocP95MS float64 `json:"realloc_p95_ms"`
	// DualReadWindows counts cutovers a node observed; DualReadP95MS is
	// the p95 length of the window publishes spent fanning out to both
	// grids.
	DualReadWindows int64   `json:"dual_read_windows"`
	DualReadP95MS   float64 `json:"dual_read_p95_ms"`
	// MigratedFilters / GCFilters are filter copies shipped to new
	// placements and collected from retired ones.
	MigratedFilters int64 `json:"migrated_filters"`
	GCFilters       int64 `json:"gc_filters"`

	// OracleDocs is the number of publishes verified byte-identical
	// against the brute-force oracle; DroppedMatches MUST be zero — any
	// other value fails the run before the report is written.
	OracleDocs     int `json:"oracle_docs"`
	DroppedMatches int `json:"dropped_matches"`

	FinalEpoch uint64 `json:"final_epoch"`
}

// oracleFilter is the brute-force oracle's record of one registered
// filter: match-any semantics over its term list.
type oracleFilter struct {
	id    model.FilterID
	sub   string
	terms []string
}

// oracleMatches computes the expected match set for a document by
// scanning every registered filter — no index, no routing, no dedup
// subtleties — and returns it in canonical encoded form.
func oracleMatches(filters []oracleFilter, docTerms []string) string {
	doc := make(map[string]struct{}, len(docTerms))
	for _, t := range docTerms {
		doc[t] = struct{}{}
	}
	var exp []node.Match
	for _, f := range filters {
		for _, t := range f.terms {
			if _, ok := doc[t]; ok {
				exp = append(exp, node.Match{Filter: f.id, Subscriber: f.sub})
				break
			}
		}
	}
	return canonicalMatches(exp)
}

// canonicalMatches renders a match set as a canonical byte string so
// cluster results and oracle results can be compared byte-identically
// regardless of arrival order.
func canonicalMatches(ms []node.Match) string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = fmt.Sprintf("%d:%s", m.Filter, m.Subscriber)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// churnRounds is the number of reallocation rounds -fig churn drives.
const churnRounds = 15

// runChurnFig drives the two-phase reallocation protocol through a chaos
// soak: a Zipf-drifting workload with flash crowds, seeded fault injection
// on the data path, crash/recover churn, and reallocation rounds racing
// live publishes through their dual-read windows. Every publish's match
// set is checked byte-identical against a brute-force oracle; a single
// dropped (or phantom) match fails the run.
func runChurnFig(outPath, baselinePath string, nodes, rounds int, seed int64) error {
	c, err := cluster.New(cluster.Config{
		Scheme:   cluster.SchemeMove,
		Nodes:    nodes,
		RackSize: 4,
		Capacity: 200_000,
		Seed:     seed,
		Fault: &transport.FaultConfig{
			Seed:    seed,
			Default: transport.FaultProbs{Drop: 0.01, Error: 0.01, Duplicate: 0.01},
		},
		Resilience: &resilience.Policy{
			MaxAttempts:      5,
			BaseDelay:        200 * time.Microsecond,
			MaxDelay:         2 * time.Millisecond,
			BreakerThreshold: 12,
			BreakerCooldown:  20 * time.Millisecond,
			Retryable:        transport.IsAvailabilityError,
		},
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))

	var oracle []oracleFilter
	register := func(sub string, terms []string) error {
		id, err := c.Register(ctx, sub, terms, model.MatchAny)
		if err != nil {
			return err
		}
		oracle = append(oracle, oracleFilter{id: id, sub: sub, terms: terms})
		return nil
	}
	oracleDocs, dropped := 0, 0
	checkPublish := func(doc []string) error {
		res, err := c.Publish(ctx, doc)
		if err != nil {
			return fmt.Errorf("publish %v: %w", doc, err)
		}
		oracleDocs++
		if canonicalMatches(res.Matches) != oracleMatches(oracle, doc) {
			dropped++
		}
		return nil
	}

	// Zipf-drifting vocabulary: the rank→keyword mapping rotates every
	// round so the hot set migrates across home nodes, forcing real
	// placement changes.
	const vocab = 48
	zipf := rand.NewZipf(rng, 1.3, 1.0, vocab-1)
	term := func(round int) string {
		return fmt.Sprintf("k%d", (int(zipf.Uint64())+round)%vocab)
	}

	for i := 0; i < 250; i++ {
		if err := register(fmt.Sprintf("seed-%d", i), []string{term(0), term(0)}); err != nil {
			return err
		}
	}
	for i := 0; i < 40; i++ {
		if err := checkPublish([]string{term(0), term(0)}); err != nil {
			return err
		}
	}

	for round := 1; round <= rounds; round++ {
		for i := 0; i < 10; i++ {
			if err := register(fmt.Sprintf("r%d-%d", round, i), []string{term(round), term(round)}); err != nil {
				return err
			}
		}
		flash := ""
		if round%4 == 0 {
			flash = fmt.Sprintf("flash%d", round)
			for i := 0; i < 40; i++ {
				if err := register(fmt.Sprintf("f%d-%d", round, i), []string{flash}); err != nil {
					return err
				}
			}
			for i := 0; i < 25; i++ {
				if err := checkPublish([]string{flash, term(round)}); err != nil {
					return err
				}
			}
		}

		if round%3 == 0 {
			// Crash a slice of the cluster, reallocate (commit or clean
			// abort — both counted by the metrics), recover.
			victims := c.FailFraction(0.25, round%2 == 0)
			_, _ = c.Allocate(ctx) // aborts are an expected outcome here
			c.RecoverNodes(victims...)
		}

		// A reallocation round racing live publishes: every publish below
		// may cross the dual-read window and must still match exactly.
		done := make(chan error, 1)
		go func() {
			_, err := c.Allocate(context.Background())
			done <- err
		}()
		for i := 0; i < 25; i++ {
			doc := []string{term(round), term(round)}
			if flash != "" && i%3 == 0 {
				doc = append(doc, flash)
			}
			if err := checkPublish(doc); err != nil {
				return err
			}
		}
		<-done // abort is acceptable; safety is asserted by the oracle
		for i := 0; i < 10; i++ {
			if err := checkPublish([]string{term(round), term(round)}); err != nil {
				return err
			}
		}
	}

	if dropped != 0 {
		return fmt.Errorf("churn: %d of %d publishes diverged from the brute-force oracle (dropped or phantom matches)", dropped, oracleDocs)
	}

	snap := c.Metrics().Snapshot()
	hists := c.Metrics().Histograms()
	roundH := hists["realloc.round.latency"]
	dualH := hists["realloc.dualread.window"]
	rep := churnReport{
		GeneratedBy:     "movebench -fig churn",
		Nodes:           nodes,
		Rounds:          rounds,
		Filters:         len(oracle),
		Seed:            seed,
		RoundsCommitted: snap["realloc.rounds.committed"],
		RoundsAborted:   snap["realloc.rounds.aborted"],
		ReallocP50MS:    float64(roundH.P50NS) / 1e6,
		ReallocP95MS:    float64(roundH.P95NS) / 1e6,
		DualReadWindows: dualH.Count,
		DualReadP95MS:   float64(dualH.P95NS) / 1e6,
		MigratedFilters: snap["realloc.filters.migrated"],
		GCFilters:       snap["realloc.gc.filters"],
		OracleDocs:      oracleDocs,
		DroppedMatches:  dropped,
		FinalEpoch:      c.CommittedEpoch(),
	}
	if rep.RoundsCommitted == 0 {
		return fmt.Errorf("churn: no reallocation round committed; the soak exercised nothing")
	}
	if rep.DualReadWindows == 0 {
		return fmt.Errorf("churn: no dual-read window observed; cutovers never overlapped publishes")
	}
	// Correctness is not compared — a dropped match already failed the
	// run — only the latency envelope is guarded.
	if err := checkBaseline("churn", baselinePath, []guard{
		{field: "realloc_p95_ms", got: rep.ReallocP95MS, kind: atMost, tol: guardTolerance, slack: guardSlackMS},
		{field: "dual_read_p95_ms", got: rep.DualReadP95MS, kind: atMost, tol: guardTolerance, slack: guardSlackMS},
	}); err != nil {
		return err
	}
	return writeReport(outPath, rep, fmt.Sprintf(
		"churn: %d rounds (%d committed, %d aborted), realloc p95 %.2fms, dual-read p95 %.2fms over %d windows, %d migrated, %d gc'd, %d publishes oracle-verified, 0 dropped",
		rep.Rounds, rep.RoundsCommitted, rep.RoundsAborted, rep.ReallocP95MS,
		rep.DualReadP95MS, rep.DualReadWindows, rep.MigratedFilters, rep.GCFilters,
		rep.OracleDocs))
}
