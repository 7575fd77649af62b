package main

import (
	"context"
	"fmt"
	"os"
)

// selfcheckRounds is the number of runs per set.
const selfcheckRounds = 3

// selfcheck runs two interleaved sets of untraced runs per workload on the
// same seed — A1 B1 A2 B2 … so slow drifts of the host land on both sets —
// and compares the sets' medians the way the driver compares a change with
// its parent: the second may not be worse than the first by more than the
// metric's bound.
func selfcheck(ctx context.Context, o options) int {
	o.trace = false
	todo := specs
	if o.workload != "" {
		sp := specByName(o.workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "harness: unknown workload %q\n", o.workload)
			return 1
		}
		todo = []*spec{sp}
	}
	exceeded := 0
	for _, sp := range todo {
		sets := [2]map[string][]float64{{}, {}}
		for round := 0; round < selfcheckRounds; round++ {
			for set := range sets {
				res, err := runOnce(ctx, o, sp)
				if err != nil {
					fmt.Fprintf(os.Stderr, "harness: selfcheck %s: %v\n", sp.name, err)
					return 1
				}
				if !res.correct() {
					res.print(os.Stdout)
					fmt.Fprintf(os.Stderr, "harness: selfcheck %s: run failed the oracle\n", sp.name)
					return 1
				}
				fmt.Printf("selfcheck %s set %c run %d:", sp.name, 'A'+set, round+1)
				for _, d := range readings() {
					sets[set][d.Name] = append(sets[set][d.Name], res.e2e[d.Name])
					fmt.Printf(" %s=%.4g", d.Name, res.e2e[d.Name])
				}
				fmt.Println()
			}
		}
		fmt.Printf("\n== selfcheck %s: %d runs per set, seed %d ==\n", sp.name, selfcheckRounds, o.seed)
		fmt.Printf("%-20s %14s %14s %10s %8s\n", "metric", "median A", "median B", "worse by", "bound")
		for _, d := range readings() {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			if d.Bound == 0 {
				fmt.Printf("%-20s %14.4f %14.4f %9.2f%%  (no bound)\n", d.Name, a, b, 100*worse)
				continue
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-20s %14.4f %14.4f %9.2f%% %7.0f%%%s\n", d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
		fmt.Println()
	}
	if exceeded > 0 {
		fmt.Fprintf(os.Stderr, "harness: selfcheck: %d metric(s) moved by more than their bound between two sets of runs of the same code\n", exceeded)
		return 1
	}
	fmt.Println("selfcheck passed: no end-to-end metric moved by more than its bound")
	return 0
}

// readings are all six end-to-end readings of an untraced run, the bounded
// ones first.
func readings() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), unbounded...)
}
