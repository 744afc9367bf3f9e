package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	parcut "repro"
	"repro/internal/abscan"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/mst"
	"repro/internal/packing"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/respect"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/wd"
)

// libWidth is the library workloads' executor width and GOMAXPROCS:
// half the cores, at least one. On a shared 2-vCPU host whose hypervisor
// steals a tenth to a quarter of the time, a width-2 solve waits at every
// join for whichever lane was descheduled (wall time varied by 9–29%
// between runs), and with a second P the garbage collector's mark work
// waits on the second vCPU too. At width 1 and GOMAXPROCS 1, interleaved
// paper-geissmann runs spread 7% in median solve time and 2.5% in peak
// RSS, against 27% and 37% with GOMAXPROCS 2.
var libWidth = max(1, runtime.NumCPU()/2)

// libWorkload is a closed loop of one caller solving through the public
// library API on one executor of width libWidth.
type libWorkload struct {
	engine string // Options.Engine
	graphs int    // distinct graphs a run parses and cycles through
	// tracePair is the expected time of one untraced solve plus its
	// traced replay; a traced run replays seconds/tracePair solves, a
	// count fixed by the arguments so seed-only counts repeat exactly.
	tracePair time.Duration
	// make returns a graph and its known minimum cut value.
	make func(seed int64, tiny bool) (*graph.Graph, int64)
}

// sparseAB: planted two-community graphs, m ≈ 2.5n, which auto sends to
// the Anderson–Blelloch scan. The planted cut is not a singleton.
var sparseAB = libWorkload{
	engine: "auto", graphs: 16, tracePair: 3500 * time.Millisecond,
	make: func(seed int64, tiny bool) (*graph.Graph, int64) {
		n := 2048
		if tiny {
			n = 640 // still above the Stoer–Wagner region
		}
		p := gen.PlantedCut(n/2, n-n/2, 16, seed)
		return p.G, p.CutValue
	},
}

// longCycle: one weighted cycle, the highest-diameter input there is.
var longCycle = libWorkload{
	engine: "auto", graphs: 8, tracePair: 3 * time.Second,
	make: func(seed int64, tiny bool) (*graph.Graph, int64) {
		n := 8192
		if tiny {
			n = 1024
		}
		rng := rand.New(rand.NewSource(seed))
		w := make([]int64, n)
		for i := range w {
			w[i] = 1000 + rng.Int63n(1001)
		}
		p := gen.Cycle(w) // CutValue is the sum of the two lightest edges
		return p.G, p.CutValue
	},
}

// paperGeissmann: planted graphs on the paper's own engine, named
// explicitly because auto never routes to it.
var paperGeissmann = libWorkload{
	engine: "geissmann", graphs: 16, tracePair: 2500 * time.Millisecond,
	make: func(seed int64, tiny bool) (*graph.Graph, int64) {
		n := 1024
		if tiny {
			n = 256
		}
		p := gen.PlantedCut(n/2, n-n/2, 16, seed)
		return p.G, p.CutValue
	},
}

// libInputs is a run's generated input: each graph serialized in the
// program's text format, and the expected cut value.
type libInputs struct {
	texts [][]byte
	wants []int64
}

func makeLibInputs(cfg config, w libWorkload) (libInputs, error) {
	in := libInputs{texts: make([][]byte, w.graphs), wants: make([]int64, w.graphs)}
	for i := range in.texts {
		g, want := w.make(mix(cfg.seed, 1, i), cfg.tiny)
		var b bytes.Buffer
		if err := graph.Write(&b, g); err != nil {
			return in, fmt.Errorf("serialize graph %d: %w", i, err)
		}
		in.texts[i] = b.Bytes()
		if cfg.corrupt {
			want++
		}
		in.wants[i] = want
	}
	return in, nil
}

// libSetup parses every graph and creates the executor; it is what a
// library caller pays before its first solve.
func libSetup(in libInputs, width int) ([]*parcut.Graph, *parcut.Executor, time.Duration, error) {
	t0 := time.Now()
	gs := make([]*parcut.Graph, len(in.texts))
	for i, b := range in.texts {
		g, err := parcut.ReadGraph(bytes.NewReader(b))
		if err != nil {
			return nil, nil, 0, fmt.Errorf("parse graph %d: %w", i, err)
		}
		gs[i] = g
	}
	read := time.Since(t0)
	return gs, parcut.NewExecutor(width), read, nil
}

// cutOK checks a returned cut: the known value, and a partition whose
// weight in G is that value.
func cutOK(g *parcut.Graph, res parcut.Result, want int64) bool {
	return res.Value == want && len(res.InCut) == g.N() && g.CutValue(res.InCut) == res.Value
}

func libraryRunner(w libWorkload) func(config) (report, error) {
	return func(cfg config) (report, error) { return runLibrary(cfg, w) }
}

// libRun is a library workload after set-up.
type libRun struct {
	cfg   config
	w     libWorkload
	in    libInputs
	gs    []*parcut.Graph
	ex    *parcut.Executor
	reads []float64 // parse time of each set-up
}

// opt is solve i's options; i = -1 is the warm-up.
func (r *libRun) opt(i int) parcut.Options {
	return parcut.Options{Engine: r.w.engine, Seed: mix(r.cfg.seed, 2, i), WantPartition: true, Executor: r.ex}
}

func runLibrary(cfg config, w libWorkload) (report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(libWidth))
	ctx := context.Background()
	in, err := makeLibInputs(cfg, w)
	if err != nil {
		return report{}, err
	}
	r := &libRun{cfg: cfg, w: w, in: in}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if r.ex != nil {
			r.ex.Close()
		}
		t0 := time.Now()
		var read time.Duration
		r.gs, r.ex, read, err = libSetup(in, libWidth)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.reads = append(r.reads, read.Seconds())
	}
	defer r.ex.Close()
	// One untimed warm-up solve: worker start-up and arena growth are
	// set-up, not solve time.
	if _, err := parcut.MinCutContext(ctx, r.gs[0], r.opt(-1)); err != nil {
		return report{}, fmt.Errorf("warm-up solve: %w", err)
	}
	rep := report{meta: baseMeta(cfg, libWidth)}
	rep.meta["engine"] = w.engine
	rep.meta["graphs"] = len(r.gs)
	rep.meta["n"], rep.meta["m"] = r.gs[0].N(), r.gs[0].M()
	rep.meta["setup_s_samples"] = setups
	if cfg.trace {
		return traceLibrary(ctx, r, rep)
	}

	var lat []float64
	ok := 0
	u0 := readUsage()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
		k := i % len(r.gs)
		t := time.Now()
		res, err := parcut.MinCutContext(ctx, r.gs[k], r.opt(i))
		lat = append(lat, time.Since(t).Seconds())
		if err == nil && cutOK(r.gs[k], res, in.wants[k]) {
			ok++
		}
	}
	wall := time.Since(start)
	cpu := readUsage().cpu - u0.cpu
	rep.result = result{Correct: ok == len(lat), Attempted: len(lat), Failed: len(lat) - ok,
		Metrics: endToEnd(lat, ok, wall, cpu, setups)}
	rep.meta["samples"] = map[string]int{"solve": len(lat), "setup": len(setups)}
	rep.meta["solve_s"] = latencySummary(lat)
	return rep, nil
}

// layerSample is one replayed solve's split across layers.
type layerSample struct {
	value                                     int64
	engine                                    string
	wall                                      time.Duration
	forest, packing, adj, root, scan, witness time.Duration
	scanBusy                                  time.Duration // Σ per-tree scan time
	baseline                                  time.Duration // Stoer–Wagner run, when routed there
	packAlloc, scanAlloc                      uint64        // bytes
	trees, attempts                           int
	segments                                  int64 // heavy paths (abscan) or bough phases (respect)
	packWork, scanWork, work, depth           int64
}

// add accumulates o's durations and counts into s.
func (s *layerSample) add(o layerSample) {
	s.wall += o.wall
	s.forest += o.forest
	s.packing += o.packing
	s.adj += o.adj
	s.root += o.root
	s.scan += o.scan
	s.witness += o.witness
	s.scanBusy += o.scanBusy
	s.baseline += o.baseline
	s.packAlloc += o.packAlloc
	s.scanAlloc += o.scanAlloc
	s.trees += o.trees
	s.attempts += o.attempts
	s.segments += o.segments
	s.packWork += o.packWork
	s.scanWork += o.scanWork
	s.work += o.work
	s.depth += o.depth
}

// totalAlloc reads the process's cumulative allocated bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// replay re-runs one solve the way the named engine runs it, calling each
// layer's public function in the engine's order with a timer, an
// allocation reading and a model-work meter around it:
// mst.ForestWithLabels, packing.SampleTreesContext (seed+1),
// tree.RootEdgeList, the per-tree scan, and the winning tree's witness.
// Every tree is rooted before any is scanned so rooting and scanning are
// timed apart; both passes fan out over trees as the engine does.
func replay(ctx context.Context, g *graph.Graph, seed int64, eng string, pool *par.Pool) (layerSample, error) {
	s := layerSample{engine: eng}
	n := g.N()
	start := time.Now()
	if eng == "stoerwagner" {
		v, _, err := baseline.StoerWagnerContext(ctx, g, pool, nil, trace.SpanRef{})
		s.value, s.baseline = v, time.Since(start)
		s.wall = s.baseline
		return s, err
	}
	if eng != "andersonblelloch" && eng != "geissmann" {
		return s, fmt.Errorf("no layer replay for engine %q", eng)
	}
	total := new(wd.Meter)

	t := time.Now()
	fm := new(wd.Meter)
	if _, _, comps := mst.ForestWithLabels(n, g.Edges(), nil, pool, fm); comps > 1 {
		return s, fmt.Errorf("replay: graph is disconnected")
	}
	deg := g.WeightedDegrees()
	minDeg, _ := pool.MinInt64(deg)
	fm.Add(int64(n), wd.CeilLog2(n))
	s.forest = time.Since(t)
	total.Seq(fm)

	a0 := totalAlloc()
	t = time.Now()
	pm := new(wd.Meter)
	pk, err := packing.SampleTreesContext(ctx, g, packing.Options{Seed: seed + 1}, pool, pm, nil, trace.SpanRef{})
	if err != nil {
		return s, fmt.Errorf("replay packing: %w", err)
	}
	s.packing = time.Since(t)
	s.packAlloc = totalAlloc() - a0
	s.trees, s.attempts, s.packWork = len(pk.Trees), pk.Packings, pm.Work()
	total.Seq(pm)

	var adj *graph.Adj
	if eng == "andersonblelloch" {
		t = time.Now()
		adj = g.BuildAdjOn(pool)
		s.adj = time.Since(t)
	}

	t = time.Now()
	parents := make([][]int32, len(pk.Trees))
	branch := make([]*wd.Meter, len(pk.Trees))
	errs := make([]error, len(pk.Trees))
	pool.ForGrain(len(pk.Trees), 1, func(i int) {
		edges := make([][2]int32, len(pk.Trees[i]))
		for j, ei := range pk.Trees[i] {
			e := g.Edge(int(ei))
			edges[j] = [2]int32{e.U, e.V}
		}
		branch[i] = new(wd.Meter)
		parents[i], errs[i] = tree.RootEdgeList(n, edges, 0, pool, branch[i])
	})
	s.root = time.Since(t)
	for _, err := range errs {
		if err != nil {
			return s, fmt.Errorf("replay rooting: %w", err)
		}
	}

	sink := new(progress.Sink)
	aFinds := make([]abscan.Finding, len(pk.Trees))
	rFinds := make([]respect.Finding, len(pk.Trees))
	scanMeters := make([]*wd.Meter, len(pk.Trees))
	var busy atomic.Int64
	a0 = totalAlloc()
	t = time.Now()
	pool.ForGrain(len(pk.Trees), 1, func(i int) {
		ts := time.Now()
		scanMeters[i] = new(wd.Meter)
		if adj != nil {
			aFinds[i], errs[i] = abscan.Scan(ctx, g, adj, deg, parents[i], false, pool, scanMeters[i], sink, trace.SpanRef{})
		} else {
			rFinds[i], errs[i] = respect.ScanContext(ctx, g, parents[i], pool, scanMeters[i], sink, trace.SpanRef{})
		}
		branch[i].Seq(scanMeters[i])
		busy.Add(int64(time.Since(ts)))
	})
	s.scan = time.Since(t)
	s.scanBusy = time.Duration(busy.Load())
	s.segments = sink.Snapshot().BoughPhasesDone
	total.Par(branch...)
	for _, m := range scanMeters {
		s.scanWork += m.Work()
	}
	best, bestTree := minDeg, -1
	for i, err := range errs {
		if err != nil {
			return s, fmt.Errorf("replay scan of tree %d: %w", i, err)
		}
		v := rFinds[i].Value
		if adj != nil {
			v = aFinds[i].Value
		}
		if v < best {
			best, bestTree = v, i
		}
	}
	s.value = best

	if bestTree >= 0 {
		t = time.Now()
		wm := new(wd.Meter)
		if adj != nil {
			_, err = abscan.Witness(g, parents[bestTree], aFinds[bestTree], pool, wm)
		} else {
			_, err = respect.Witness(g, parents[bestTree], rFinds[bestTree], pool, wm)
		}
		if err != nil {
			return s, fmt.Errorf("replay witness: %w", err)
		}
		s.witness = time.Since(t)
		s.scanWork += wm.Work()
		total.Seq(wm)
	}
	s.scanAlloc = totalAlloc() - a0
	s.wall = time.Since(start)
	s.work, s.depth = total.Work(), total.Depth()
	return s, nil
}

// traceLibrary is the traced run of a library workload: a fixed number of
// solves, each made once through parcut.MinCutContext (the program as
// timed) and once replayed layer by layer. The replay must return the
// same value as the solve it describes.
func traceLibrary(ctx context.Context, r *libRun, rep report) (report, error) {
	width := r.ex.Width()
	igs := make([]*graph.Graph, len(r.in.texts))
	for i, b := range r.in.texts {
		g, err := graph.Read(bytes.NewReader(b))
		if err != nil {
			return rep, fmt.Errorf("parse graph %d: %w", i, err)
		}
		igs[i] = g
	}
	pool := par.NewPool(width)
	defer pool.Close()

	solves := int(r.cfg.seconds / r.w.tracePair)
	if solves < 2 {
		solves = 2
	}
	var (
		untraced, traced []float64
		samples          []layerSample
		cpu              time.Duration
		allocs, gcs      uint64
		ok, mismatches   int
	)
	engines := map[string]int{}
	st0 := r.ex.Stats()
	for i := 0; i < solves; i++ {
		k := i % len(r.gs)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		u0 := readUsage()
		t := time.Now()
		res, err := parcut.MinCutContext(ctx, r.gs[k], r.opt(i))
		untraced = append(untraced, time.Since(t).Seconds())
		cpu += readUsage().cpu - u0.cpu
		runtime.ReadMemStats(&ms1)
		allocs += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)

		e, rerr := engine.Resolve(r.w.engine, igs[k].N(), igs[k].M())
		if rerr != nil {
			return rep, rerr
		}
		engines[e.Name()]++
		s, rerr := replay(ctx, igs[k], r.opt(i).Seed, e.Name(), pool)
		if rerr != nil {
			return rep, rerr
		}
		traced = append(traced, s.wall.Seconds())
		samples = append(samples, s)
		switch {
		case err != nil || !cutOK(r.gs[k], res, r.in.wants[k]):
		case s.value != res.Value:
			mismatches++
		default:
			ok++
		}
	}
	st1 := r.ex.Stats()

	// Per-layer values are per-solve means over the replayed solves; each
	// solve's scan numbers go to the layer its engine uses.
	var all layerSample
	byEngine := map[string]*layerSample{}
	for _, s := range samples {
		all.add(s)
		if byEngine[s.engine] == nil {
			byEngine[s.engine] = &layerSample{}
		}
		byEngine[s.engine].add(s)
	}
	per := 1 / float64(solves)
	m := metrics{}
	trees := float64(all.trees) * per
	attempts := float64(all.attempts) * per
	m.set("mst.forest_s", "s", all.forest.Seconds()*per)
	m.set("packing.busy_s", "s", all.packing.Seconds()*per)
	m.set("packing.share", "fraction", ratio(all.packing.Seconds(), all.wall.Seconds()))
	m.set("packing.trees", "count", trees)
	m.set("packing.attempts", "count", attempts)
	m.set("packing.accept_ratio", "ratio", ratio(1, attempts))
	m.set("packing.model_work", "count", float64(all.packWork)*per)
	m.set("packing.alloc_mb", "MB", float64(all.packAlloc)*per/(1<<20))
	m.set("tree.root_s", "s", all.root.Seconds()*per)
	m.set("graph.adj_s", "s", all.adj.Seconds()*per)
	m.set("graph.read_s", "s", median(r.reads))
	m.set("baseline.run_s", "s", all.baseline.Seconds()*per)
	for eng, prefix := range map[string]string{"andersonblelloch": "abscan", "geissmann": "respect"} {
		e := byEngine[eng]
		if e == nil {
			continue
		}
		segments := "heavy_paths"
		if prefix == "respect" {
			segments = "bough_phases"
		}
		m.set(prefix+".scan_s", "s", e.scan.Seconds()*per)
		m.set(prefix+".scan_s_per_tree", "s", ratio(e.scanBusy.Seconds(), float64(e.trees)))
		m.set(prefix+".witness_s", "s", e.witness.Seconds()*per)
		m.set(prefix+"."+segments, "count", float64(e.segments)*per)
		m.set(prefix+".model_work", "count", float64(e.scanWork)*per)
		m.set(prefix+".alloc_mb", "MB", float64(e.scanAlloc)*per/(1<<20))
		m.set(prefix+".share", "fraction", ratio((e.scan+e.witness).Seconds(), all.wall.Seconds()))
	}
	m.set("par.efficiency", "ratio", ratio(cpu.Seconds(), sum(untraced)*float64(width)))
	pushes := (st1.LocalPushes + st1.SharedPushes + st1.OverflowPushes) - (st0.LocalPushes + st0.SharedPushes + st0.OverflowPushes)
	m.set("par.steal_ratio", "ratio", ratio(float64(st1.Steals-st0.Steals), float64(pushes)))
	hits, misses := st1.ArenaHits-st0.ArenaHits, st1.ArenaMisses-st0.ArenaMisses
	m.set("par.arena_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	m.set("parcut.alloc_mb_per_solve", "MB", float64(allocs)/float64(solves)/(1<<20))
	m.set("parcut.gc_cycles_per_solve", "count", float64(gcs)/float64(solves))
	m.set("parcut.model_depth", "count", float64(all.depth)*per)
	m.set("parcut.ns_per_model_work", "ns", ratio(float64(cpu.Nanoseconds()), float64(all.work)))
	setEngineCounts(m, engines)
	m.set("trace.solve_p50_s", "s", median(traced))
	m.set("trace.overhead_s", "s", median(traced)-median(untraced))

	rep.result = result{Correct: ok == solves, Attempted: solves, Failed: solves - ok, Metrics: perLayerOnly(m)}
	rep.meta["samples"] = map[string]int{"solve": solves, "setup": len(r.reads)}
	rep.meta["replay_mismatches"] = mismatches
	return rep, nil
}

// setEngineCounts reports solves per resolved engine, for every
// registered engine, so a change to the auto table shows as a count.
func setEngineCounts(m metrics, counts map[string]int) {
	for _, name := range engine.Names() {
		m.set("engine.solves."+name, "count", float64(counts[name]))
	}
}
