package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root must be exactly what the harness
// believes the contract to be.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, inCode any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(contractJSON()), &inCode); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(onDisk)
	b, _ := json.Marshal(inCode)
	if string(a) != string(b) {
		t.Fatalf("BENCHMARK.json differs from the tables in contract.go; it should read:\n%s", contractJSON())
	}
}

func TestContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the contract's naming limits", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	setup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("setup_s [s, lower] is missing")
	}
	for _, d := range perLayer {
		check(d)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(specs) < 2 || len(specs) > 8 {
		t.Error("too many metrics or workloads")
	}
	for _, sp := range specs {
		if !name.MatchString(sp.name) || len(sp.why) > 200 || seen[sp.name] {
			t.Errorf("workload %q breaks the contract's limits", sp.name)
		}
		seen[sp.name] = true
	}
	// 4 + 22 × workloads runs of (set-up + run_seconds + tear-down) must fit
	// 3420 s; benchmark/README.md has the arithmetic with measured set-ups.
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1 … 60", runSeconds)
	}
}

// The result line must hold exactly the metrics the contract lists for the
// kind of run, by name and unit.
func TestResultLineHoldsExactlyTheListedMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := &result{h: &harness{opts: options{trace: traced}, sp: specByName("match_heavy")}, e2e: map[string]float64{}, layer: map[string]float64{}, attempt: 10}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for i, d := range endToEnd {
			r.e2e[d.Name] = float64(i) + 0.5
		}
		for i, d := range perLayer {
			r.layer[d.Name] = float64(i) + 0.25
		}
		raw, err := json.Marshal(r.contractLine())
		if err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatal(err)
		}
		_ = json.Unmarshal(raw, &keys)
		if len(keys) != 4 || line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
			t.Fatalf("result line keys: %s", raw)
		}
		if len(line.Metrics) != len(defs) {
			t.Fatalf("traced=%v: %d metrics on the line, %d in the contract", traced, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := line.Metrics[d.Name]
			if !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s missing or with the wrong unit on the line", traced, d.Name)
			}
		}
		if err := r.validate(); err != nil {
			t.Errorf("traced=%v: complete result refused: %v", traced, err)
		}
		// 0 is a reading only where it can be one: failure counters, and
		// the grid's metrics on a workload without a grid.
		r.layer["resilience.retries"], r.layer["node.grid.column_rpcs_per_doc"] = 0, 0
		if err := r.validate(); err != nil {
			t.Errorf("traced=%v: legitimate zeros refused: %v", traced, err)
		}
		r.h.sp = specByName("wire_mixed")
		if err := r.validate(); traced && err == nil {
			t.Error("a grid workload without column RPCs was accepted")
		}
		r.h.sp = specByName("match_heavy")
		r.e2e["wire_bytes_per_doc"], r.layer["transport.bytes_per_doc"] = 0, 0
		if err := r.validate(); err == nil {
			t.Errorf("traced=%v: a metric that stopped counting was accepted", traced)
		}
		r.e2e["wire_bytes_per_doc"], r.layer["transport.bytes_per_doc"] = 1, 1
		delete(r.e2e, "rss_mb")
		delete(r.layer, "index.covers")
		if err := r.validate(); err == nil {
			t.Errorf("traced=%v: a result with an unmeasured metric was accepted", traced)
		}
	}
}
