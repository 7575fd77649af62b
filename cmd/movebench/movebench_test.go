package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckBaseline pins the one stored-number comparison every
// JSON-writing figure goes through.
func TestCheckBaseline(t *testing.T) {
	stored := filepath.Join(t.TempDir(), "stored.json")
	if err := os.WriteFile(stored, []byte(`{"generated_by":"test","subscribers":100000,"p99_ms":200,"reduction":0.40,"fanout":1000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p99 := func(got float64) guard {
		return guard{field: "p99_ms", got: got, kind: atMost, tol: 0.10, slack: 25}
	}
	profile := func(subs float64) guard {
		return guard{field: "subscribers", got: subs, kind: sameProfile}
	}
	for _, tc := range []struct {
		name    string
		path    string
		guards  []guard
		wantErr string
	}{
		{"no baseline asked for", "", []guard{p99(1e9)}, ""},
		{"missing baseline skips", filepath.Join(t.TempDir(), "absent.json"), []guard{p99(1e9)}, ""},
		{"better passes", stored, []guard{p99(150)}, ""},
		{"past tolerance but inside slack passes", stored, []guard{p99(244)}, ""},
		{"at the limit passes", stored, []guard{p99(245)}, ""},
		{"past tolerance and slack fails", stored, []guard{p99(246)}, "p99_ms regression"},
		{"same profile still compares", stored, []guard{profile(100_000), p99(246)}, "p99_ms regression"},
		{"other profile skips", stored, []guard{profile(2_000), p99(1e9)}, ""},
		{"other profile skips wherever it is listed", stored, []guard{p99(1e9), profile(2_000)}, ""},
		{"field absent from the stored report is skipped", stored, []guard{{field: "new_field", got: 1e9, kind: atMost}}, ""},
		{"atLeast: inside passes", stored, []guard{{field: "reduction", got: 0.37, kind: atLeast, tol: 0.10}}, ""},
		{"atLeast: below fails", stored, []guard{{field: "reduction", got: 0.35, kind: atLeast, tol: 0.10}}, "reduction regression"},
		{"atLeast: above never fails", stored, []guard{{field: "reduction", got: 0.90, kind: atLeast, tol: 0.10}}, ""},
		{"within: high fails", stored, []guard{{field: "fanout", got: 1101, kind: within, tol: 0.10}}, "fanout regression"},
		{"within: low fails", stored, []guard{{field: "fanout", got: 899, kind: within, tol: 0.10}}, "fanout regression"},
		{"within: inside passes", stored, []guard{{field: "fanout", got: 1100, kind: within, tol: 0.10}}, ""},
	} {
		err := checkBaseline("test", tc.path, tc.guards)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}

	garbled := filepath.Join(t.TempDir(), "garbled.json")
	if err := os.WriteFile(garbled, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkBaseline("test", garbled, []guard{p99(1)}); err == nil {
		t.Error("a baseline that does not parse must be an error, not a skip")
	}
}

// readReport parses the report a figure wrote.
func readReport(t *testing.T, path string, rep any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestFiguresSmoke runs the JSON-writing figures at a scale of seconds,
// the way their make targets do (-baseline and -out on one path that does
// not exist yet): each must pass its own oracle and hard gates and write a
// report that parses.
func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three in-process clusters")
	}
	// First: the figure prices retained heap by process-wide deltas, so it
	// runs before the other two leave clusters behind for the collector.
	t.Run("aggregate", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "aggregate.json")
		if err := runAggregateFig(out, out, 50_000, 7_500, 5_000, 5, 1); err != nil {
			t.Fatal(err)
		}
		var rep aggregateReport
		readReport(t, out, &rep)
		// runAggregateFig fails on any document whose match set is not the
		// brute-force oracle's.
		if rep.Filters != 50_000 || rep.OracleDocs != 5 || rep.CoveredFilters != 50_000 {
			t.Fatalf("report %+v", rep)
		}
	})
	t.Run("churn", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "churn.json")
		if err := runChurnFig(out, out, 8, 4, 1); err != nil {
			t.Fatal(err)
		}
		var rep churnReport
		readReport(t, out, &rep)
		if rep.Nodes != 8 || rep.Rounds != 4 || rep.OracleDocs == 0 || rep.DroppedMatches != 0 || rep.RoundsCommitted == 0 {
			t.Fatalf("report %+v", rep)
		}
	})
	t.Run("delivery", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "delivery.json")
		if err := runDeliveryFig(out, out, 4, 2_000, 1); err != nil {
			t.Fatal(err)
		}
		var rep deliveryReport
		readReport(t, out, &rep)
		if rep.Subscribers != 2_000 || rep.Docs != deliveryDocs || rep.DeliveredEvents == 0 || rep.Dropped != 0 || rep.Redelivered != 0 {
			t.Fatalf("report %+v", rep)
		}
		if want := float64(rep.DeliveredEvents) / deliveryDocs; rep.FanoutAmplification != want {
			t.Fatalf("fanout %v, want delivered/docs = %v", rep.FanoutAmplification, want)
		}
		// The report just written is a 2,000-subscriber profile: a second
		// run at another size must skip the comparison, not fail it.
		if err := runDeliveryFig(filepath.Join(t.TempDir(), "other.json"), out, 4, 500, 1); err != nil {
			t.Fatal(err)
		}
	})
}
