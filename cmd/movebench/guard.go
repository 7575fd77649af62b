package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// guardKind says how a fresh figure is held against the stored one.
type guardKind int

const (
	// sameProfile: a stored value that differs means the two reports were
	// measured on different workloads, so every comparison is skipped.
	sameProfile guardKind = iota
	// atMost: lower is better; fails above base·(1+tol) + slack.
	atMost
	// atLeast: higher is better; fails below base·(1−tol) − slack.
	atLeast
	// within: the workload itself must not drift; fails outside both bounds.
	within
)

// guard is one number of a fresh report held against the same JSON field
// of the report stored at -baseline. A comparison fails only when the
// relative budget tol and the absolute budget slack (in the field's own
// unit) are both exceeded.
type guard struct {
	field string
	got   float64
	kind  guardKind
	tol   float64
	slack float64
}

// guardTolerance and guardSlackMS are the budget every stored-number
// comparison uses: 10 % relative, plus 25 ms absolute on latencies so
// scheduler noise on a small figure is not a regression.
const (
	guardTolerance = 0.10
	guardSlackMS   = 25.0
)

// checkBaseline holds a fresh report's numbers against the report stored
// at path — the one "read stored report → compare with tolerance + slack →
// skip if absent" every JSON-writing figure shares. A missing file is not
// an error (first runs have nothing to compare), nor is a stored report
// from a different profile; a stored field that is absent or not positive
// is skipped on its own.
func checkBaseline(fig, path string, guards []guard) error {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("%s: baseline %s not found, skipping regression check\n", fig, path)
			return nil
		}
		return fmt.Errorf("read baseline: %w", err)
	}
	var stored map[string]any
	if err := json.Unmarshal(data, &stored); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	base := func(g guard) float64 {
		v, _ := stored[g.field].(float64)
		return v
	}
	for _, g := range guards {
		if b := base(g); g.kind == sameProfile && b > 0 && b != g.got {
			fmt.Printf("%s: baseline %s has %s %v (this run: %v), skipping regression check\n", fig, path, g.field, b, g.got)
			return nil
		}
	}
	for _, g := range guards {
		b := base(g)
		if g.kind == sameProfile || b <= 0 {
			continue
		}
		hi, lo := b*(1+g.tol)+g.slack, b*(1-g.tol)-g.slack
		if (g.kind != atLeast && g.got > hi) || (g.kind != atMost && g.got < lo) {
			sign := [...]string{atMost: "+", atLeast: "-", within: "±"}[g.kind]
			return fmt.Errorf("%s regression: %.4g vs baseline %.4g (budget %s%d%% %s%.4g)",
				g.field, g.got, b, sign, int(g.tol*100), sign, g.slack)
		}
		fmt.Printf("%s: %s %.4g within budget of baseline %.4g\n", fig, g.field, g.got, b)
	}
	return nil
}

// writeReport writes a figure's report as indented JSON to outPath ("-" =
// stdout, with no summary line after it).
func writeReport(outPath string, rep any, summary string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s -> %s\n", summary, outPath)
	return nil
}
