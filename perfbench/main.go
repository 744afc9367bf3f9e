// Command perfbench is the repository's solve benchmark. One run executes
// one workload for a fixed number of seconds, checks every cut it gets
// back, and prints one JSON result line. With -trace 0 the line carries
// the end-to-end metrics; with -trace 1 it carries the per-layer split,
// measured by timers wrapped around each layer's public entry point.
//
//	bash perfbench/run.sh --workload sparse-ab --seed 1 --seconds 20 --trace 0
//
// README.md in this directory explains the workloads and which
// per-layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow set-up (a GC, a page-fault burst) does not move it.
const setupReps = 7

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// tiny shrinks every input so a test can run each workload in seconds.
	tiny bool
	// corrupt offsets every expected cut value by one; tests use it to
	// prove that wrong answers are counted as failures.
	corrupt bool
}

// result is the last line a run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is a run's result plus the metadata printed before it.
type report struct {
	result
	meta map[string]any
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (report, error){
	"sparse-ab":       libraryRunner(sparseAB),
	"long-cycle":      libraryRunner(longCycle),
	"paper-geissmann": libraryRunner(paperGeissmann),
	"service-mix":     runServiceMix,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 replays each solve layer by layer and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
	}
	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	meta, err := json.Marshal(rep.meta)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("meta %s\n%s\n", meta, line)
	return 0
}

// baseMeta is the metadata every run records.
func baseMeta(cfg config, width int) map[string]any {
	return map[string]any{
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds.Seconds(),
		"trace":          cfg.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"executor_width": width,
		"go_version":     runtime.Version(),
		"setup_reps":     setupReps,
	}
}

// endToEnd fills the six end-to-end metrics from a measured window:
// per-solve latencies (failed solves included), the number of correct
// solves, the window's wall and CPU time, and the repeated set-up times.
func endToEnd(lat []float64, ok int, wall, cpu time.Duration, setups []float64) metrics {
	m := metrics{}
	m.set("solve_p50_s", "s", median(lat))
	m.set("solves_per_s", "1/s", ratio(float64(ok), wall.Seconds()))
	m.set("cpu_s_per_solve", "s", ratio(cpu.Seconds(), float64(len(lat))))
	m.set("peak_rss_mb", "MB", float64(readUsage().maxRSSK)/1024)
	m.set("setup_s", "s", median(setups))
	m.set("ok_frac", "fraction", ratio(float64(ok), float64(len(lat))))
	return m
}

// perLayer is every metric a traced run prints, with its unit. A layer
// the workload does not cross reads 0: the library workloads never reach
// the service layers, service-mix is not replayed layer by layer, and
// each scan engine's metrics are 0 on workloads routed to the other.
var perLayer = []struct{ name, unit string }{
	{"mst.forest_s", "s"},
	{"packing.busy_s", "s"},
	{"packing.share", "fraction"},
	{"packing.trees", "count"},
	{"packing.attempts", "count"},
	{"packing.accept_ratio", "ratio"},
	{"packing.model_work", "count"},
	{"packing.alloc_mb", "MB"},
	{"abscan.scan_s", "s"},
	{"abscan.scan_s_per_tree", "s"},
	{"abscan.witness_s", "s"},
	{"abscan.heavy_paths", "count"},
	{"abscan.model_work", "count"},
	{"abscan.alloc_mb", "MB"},
	{"abscan.share", "fraction"},
	{"respect.scan_s", "s"},
	{"respect.scan_s_per_tree", "s"},
	{"respect.witness_s", "s"},
	{"respect.bough_phases", "count"},
	{"respect.model_work", "count"},
	{"respect.alloc_mb", "MB"},
	{"respect.share", "fraction"},
	{"tree.root_s", "s"},
	{"graph.adj_s", "s"},
	{"graph.read_s", "s"},
	{"par.efficiency", "ratio"},
	{"par.steal_ratio", "ratio"},
	{"par.arena_hit_ratio", "ratio"},
	{"parcut.alloc_mb_per_solve", "MB"},
	{"parcut.gc_cycles_per_solve", "count"},
	{"parcut.model_depth", "count"},
	{"parcut.ns_per_model_work", "ns"},
	{"engine.solves.geissmann", "count"},
	{"engine.solves.stoerwagner", "count"},
	{"engine.solves.kargerstein", "count"},
	{"engine.solves.andersonblelloch", "count"},
	{"sched.queue_wait_s", "s"},
	{"sched.run_s", "s"},
	{"sched.cache_hit_ratio", "ratio"},
	{"baseline.run_s", "s"},
	{"httpapi.solve_overhead_s", "s"},
	{"httpapi.upload_s", "s"},
	{"registry.graphs", "count"},
	{"registry.bytes", "bytes"},
	{"trace.solve_p50_s", "s"},
	{"trace.overhead_s", "s"},
}

// perLayerOnly returns exactly the perLayer metrics: those m measured,
// and 0 for the layers this workload does not cross.
func perLayerOnly(m metrics) metrics {
	out := metrics{}
	for _, p := range perLayer {
		out.set(p.name, p.unit, m[p.name].Value)
	}
	return out
}
