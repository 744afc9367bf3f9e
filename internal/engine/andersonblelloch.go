package engine

import (
	"context"
	"fmt"

	"repro/internal/abscan"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/packing"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/tree"
	"repro/internal/wd"
)

// andersonBlellochEngine shares the paper solver's outer loop — Karger
// tree packing (internal/packing), per-tree search, minimum-degree
// fallback — but searches each sampled tree with the Anderson–Blelloch
// compact 2-respecting scan (internal/abscan: heavy-path decomposition
// + one contraction ladder per sweep) instead of the bough
// decomposition and batched Minimum Path operations. The packing is
// seeded identically, so the engine returns geissmann's cut values at
// every pool width wherever the bough scan finds each tree's minimum;
// per tree it does O(m log n) path
// updates at O(log² n) ladder work each, O(m log³ n), with far less
// machinery. Unlike the bough scan, which can miss a 2-respecting pair
// on some trees, the scan is exact per tree.
type andersonBlellochEngine struct{}

func (andersonBlellochEngine) Name() string { return "andersonblelloch" }

func (andersonBlellochEngine) Caps() Caps {
	return Caps{
		Seeded:            true,
		BoostDecomposable: true,
		ParallelPhases:    true,
		Phases:            []progress.Phase{progress.PhasePacking, progress.PhaseScan},
	}
}

func (andersonBlellochEngine) Solve(ctx context.Context, g *graph.Graph, opt Options) (Result, error) {
	n := g.N()
	if n < 2 {
		return Result{}, fmt.Errorf("andersonblelloch: minimum cut needs at least 2 vertices, have %d", n)
	}
	m := opt.Meter
	pool := opt.Pool
	// Disconnected graphs have a minimum cut of 0, same as core.
	_, labels, comps := mst.ForestWithLabels(n, g.Edges(), nil, pool, m)
	if comps > 1 {
		res := Result{Value: 0}
		if opt.WantPartition {
			inCut := make([]bool, n)
			ref := labels[0]
			pool.For(n, func(v int) { inCut[v] = labels[v] == ref })
			res.InCut = inCut
		}
		return res, nil
	}
	deg := g.WeightedDegrees()
	minDeg, minDegV := pool.MinInt64(deg)
	m.Add(int64(n), wd.CeilLog2(n))

	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("andersonblelloch: canceled before packing: %w", err)
	}
	sink := opt.Progress
	sink.EnterPhase(progress.PhasePacking)
	// Same seed derivation as core.MinCutContext, so the sampled trees —
	// and therefore the cut values — match geissmann's bit for bit.
	popt := packing.Options{Seed: opt.Seed + 1}
	packSp := opt.Trace.Child("packing")
	pk, err := packing.SampleTreesContext(ctx, g, popt, pool, m, sink, packSp)
	if err != nil {
		packSp.End()
		if ctx.Err() != nil {
			return Result{}, fmt.Errorf("andersonblelloch: tree packing canceled: %w", ctx.Err())
		}
		return Result{}, fmt.Errorf("andersonblelloch: tree packing failed: %v", err)
	}
	packSp.AttrInt("trees", int64(len(pk.Trees))).AttrInt("estimate", pk.Estimate).
		AttrInt("packings", int64(pk.Packings)).End()

	// One CSR adjacency, shared read-only by every tree's sweep.
	adj := g.BuildAdjOn(pool)
	type scanOut struct {
		finding abscan.Finding
		parent  []int32
		err     error
	}
	outs := make([]scanOut, len(pk.Trees))
	locals := make([]*wd.Meter, len(pk.Trees))
	sink.AddTrees(int64(len(pk.Trees)))
	sink.EnterPhase(progress.PhaseScan)
	scanSp := opt.Trace.Child("scan").AttrInt("trees", int64(len(pk.Trees)))
	var obs par.RegionFunc
	if scanSp.Active() {
		obs = func(name string, items, width int) func() {
			fsp := scanSp.Child(name).AttrInt("items", int64(items)).AttrInt("width", int64(width))
			return fsp.End
		}
	}
	pool.ForGrainRegion("fork:trees", obs, len(pk.Trees), 1, func(i int) {
		if err := ctx.Err(); err != nil {
			outs[i].err = fmt.Errorf("canceled: %w", err)
			return
		}
		tsp := scanSp.Child("tree-scan").AttrInt("tree", int64(i))
		defer tsp.End()
		edges := make([][2]int32, len(pk.Trees[i]))
		for j, ei := range pk.Trees[i] {
			e := g.Edge(int(ei))
			edges[j] = [2]int32{e.U, e.V}
		}
		locals[i] = new(wd.Meter)
		parent, err := tree.RootEdgeList(n, edges, 0, pool, locals[i])
		if err != nil {
			outs[i].err = err
			return
		}
		f, err := abscan.Scan(ctx, g, adj, deg, parent, opt.ParallelPhases, pool, locals[i], sink, tsp)
		outs[i] = scanOut{finding: f, parent: parent, err: err}
		if err == nil {
			sink.TreeDone()
		}
	})
	scanSp.End()
	m.Par(locals...)
	best := Result{Value: minDeg, TreesScanned: len(pk.Trees)}
	bestTree := -1
	for i, o := range outs {
		if o.err != nil {
			return Result{}, fmt.Errorf("andersonblelloch: tree %d scan failed: %w", i, o.err)
		}
		if o.finding.Value < best.Value {
			best.Value = o.finding.Value
			bestTree = i
		}
	}
	if opt.WantPartition {
		if bestTree < 0 {
			inCut := make([]bool, n)
			inCut[minDegV] = true
			best.InCut = inCut
		} else {
			inCut, err := abscan.Witness(g, outs[bestTree].parent, outs[bestTree].finding, pool, m)
			if err != nil {
				return Result{}, fmt.Errorf("andersonblelloch: witness extraction failed: %v", err)
			}
			best.InCut = inCut
		}
	}
	return best, nil
}
