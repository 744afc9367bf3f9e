package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// tinyRun runs one workload at test size.
func tinyRun(t *testing.T, workload string, trace, corrupt bool) report {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: time.Second, trace: trace, tiny: true, corrupt: corrupt}
	rep, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s (trace %v, corrupt %v): %v", workload, trace, corrupt, err)
	}
	if rep.Attempted < 1 || rep.Failed < 0 || rep.Failed > rep.Attempted {
		t.Fatalf("%s: attempted %d, failed %d", workload, rep.Attempted, rep.Failed)
	}
	return rep
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkJSON reads the metric declarations the benchmark is run by.
func benchmarkJSON(t *testing.T) (endToEnd, perLayerDecl []declared, workloadNames []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, w := range b.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return b.EndToEnd, b.PerLayer, workloadNames
}

func emitted(m metrics) []declared {
	var out []declared
	for name, v := range m {
		out = append(out, declared{name, v.Unit})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func sorted(ds []declared) []declared {
	out := append([]declared(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TestMetricsMatchDeclaration runs every workload untraced and traced and
// checks that each prints exactly the declared metrics, with their units,
// and that every solve passes its check.
func TestMetricsMatchDeclaration(t *testing.T) {
	e2e, layers, names := benchmarkJSON(t)
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rep := tinyRun(t, w, trace, false)
				want := sorted(e2e)
				if trace {
					want = sorted(layers)
				}
				if got := emitted(rep.Metrics); !reflect.DeepEqual(got, want) {
					t.Errorf("trace %v: metrics\n got  %v\n want %v", trace, got, want)
				}
				if !rep.Correct || rep.Failed != 0 {
					t.Errorf("trace %v: correct %v, %d of %d failed", trace, rep.Correct, rep.Failed, rep.Attempted)
				}
			}
		})
	}
}

// TestWrongAnswersCount corrupts every expected value the workload knows
// in advance and checks that the run reports failures instead of hiding
// them.
func TestWrongAnswersCount(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			rep := tinyRun(t, w, false, true)
			if rep.Correct || rep.Failed == 0 {
				t.Fatalf("corrupted expectations: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			okFrac := rep.Metrics["ok_frac"].Value
			if want := float64(rep.Attempted-rep.Failed) / float64(rep.Attempted); okFrac != want {
				t.Fatalf("ok_frac %v, want %v", okFrac, want)
			}
		})
	}
}

// seedOnlyCounts are the per-layer counts that depend only on the seed
// and the run's arguments; later changes may cite them as counts.
var seedOnlyCounts = []string{
	"packing.trees", "packing.attempts", "packing.model_work",
	"abscan.model_work", "abscan.heavy_paths",
	"respect.model_work", "respect.bough_phases",
	"engine.solves.geissmann", "engine.solves.stoerwagner",
	"engine.solves.kargerstein", "engine.solves.andersonblelloch",
}

// TestCountsRepeat checks that two traced runs with the same seed report
// identical seed-only counts.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			a, b := tinyRun(t, w, true, false), tinyRun(t, w, true, false)
			for _, name := range seedOnlyCounts {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}
