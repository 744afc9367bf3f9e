package packing

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/mst"
	"repro/internal/par"
	"repro/internal/trace"
)

// The reference below is the packing in its unit-copy form: the skeleton
// holds one W=1 edge per sampled copy and every copy carries its own load.
// The weighted skeleton must reproduce it exactly.

// refSkeleton draws the same binomial samples as skeleton and writes each
// sampled copy out as its own unit edge.
func refSkeleton(g *graph.Graph, p float64, clamp, multCap int64, rng *rand.Rand) (edges []graph.Edge, origin []int32) {
	for i, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		c := binomial(min(e.W, clamp), p, multCap, rng)
		for j := int64(0); j < c; j++ {
			edges = append(edges, graph.Edge{U: e.U, V: e.V, W: 1})
			origin = append(origin, int32(i))
		}
	}
	return edges, origin
}

// refPack is the greedy packing over unit copies, each with its own load.
func refPack(n int, edges []graph.Edge, rounds int, pool *par.Pool) (trees [][]int32, maxLoad int64, ok bool) {
	if len(edges) < n-1 {
		return nil, 0, false
	}
	load := make([]int64, len(edges))
	for r := 0; r < rounds; r++ {
		sel, comps := mst.Forest(n, edges, load, pool, nil)
		if comps != 1 {
			return nil, 0, false
		}
		for _, i := range sel {
			load[i]++
		}
		trees = append(trees, sel)
	}
	return trees, max(1, slices.Max(load)), true
}

// refEstimateCut is EstimateCut over the unit-copy skeleton.
func refEstimateCut(g *graph.Graph, seed int64, pool *par.Pool) int64 {
	n := g.N()
	if n < 2 {
		return 1
	}
	upper := max(slices.Min(g.WeightedDegrees()), 1)
	lnN := math.Log(float64(n) + 1)
	rng := rand.New(rand.NewSource(seed))
	for j := int(math.Log2(float64(upper)/lnN)) + 1; j > 0; j-- {
		p := math.Ldexp(1, -j)
		edges, _ := refSkeleton(g, p, int64(3*lnN/p)+1, int64(8*lnN)+4, rng)
		if len(edges) >= n-1 && mst.Components(n, edges, pool, nil) == 1 {
			return min(max(int64(lnN*math.Ldexp(1, j)/2), 1), upper)
		}
	}
	return upper
}

// refSampleTrees is SampleTrees over the unit-copy skeleton, without
// cancellation or instrumentation.
func refSampleTrees(g *graph.Graph, opt Options, pool *par.Pool) (*Result, error) {
	opt = opt.withDefaults()
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("packing: need at least 2 vertices, have %d", n)
	}
	lnN := math.Log(float64(n) + 1)
	rounds := max(int(math.Ceil(opt.RoundsFactor*lnN*lnN)), 24)
	treeCount := opt.TreeCount
	if treeCount <= 0 {
		treeCount = int(math.Ceil(2*math.Log2(float64(n)))) + 3
	}
	upper := slices.Min(g.WeightedDegrees())
	if upper < 1 {
		return nil, fmt.Errorf("packing: graph has an isolated vertex")
	}
	ch := max(min(2*refEstimateCut(g, opt.Seed, pool), upper), 1)
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	for guess := 0; guess <= 64; guess++ {
		p := min(opt.Kappa*lnN/float64(ch), 1)
		edges, origin := refSkeleton(g, p, ch, int64(rounds), rng)
		trees, maxLoad, ok := refPack(n, edges, rounds, pool)
		if ok {
			tau := float64(rounds) / float64(maxLoad)
			if tau >= opt.AcceptFraction*opt.Kappa*lnN || p >= 1 {
				return &Result{Estimate: ch, PackValue: tau, SkeletonCopies: len(edges), Packings: guess + 1,
					Trees: chooseTrees(trees, origin, treeCount, rng)}, nil
			}
		} else if p >= 1 {
			return nil, fmt.Errorf("packing: graph is disconnected")
		}
		ch = max(ch/2, 1)
	}
	return nil, fmt.Errorf("packing: estimate loop failed to converge")
}

// repeatsAndLoops is a random connected graph with repeated original edges
// and self-loops added on top.
func repeatsAndLoops(seed int64) *graph.Graph {
	g := gen.RandomConnected(60, 180, 40, seed)
	rng := rand.New(rand.NewSource(seed))
	for _, e := range slices.Clone(g.Edges()[:40]) {
		_ = g.AddEdge(int(e.U), int(e.V), 1+rng.Int63n(50))
	}
	for v := 0; v < 10; v++ {
		_ = g.AddEdge(v, v, 1+rng.Int63n(1000))
	}
	return g
}

// equivalenceGraphs is the graph matrix the weighted packing is checked on
// against the unit-copy reference.
func equivalenceGraphs() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(17))
	w := make([]int64, 96)
	for i := range w {
		w[i] = 1 + rng.Int63n(3000)
	}
	return map[string]*graph.Graph{
		"planted":      gen.PlantedCut(40, 40, 3, 5).G,
		"dumbbell":     gen.Dumbbell(16, 4, 6).G,
		"cycle":        gen.Cycle(w).G,
		"grid":         gen.Grid(8, 9, true, 1, 7),
		"repeats":      repeatsAndLoops(8),
		"disconnected": gen.Disconnected(20, 24, 9),
	}
}

// samePack runs pack and refPack for 30 rounds on the unclamped skeletons
// of one seed and compares the per-round trees as original-edge sets, the
// maximum load and the connectivity verdict.
func samePack(t *testing.T, g *graph.Graph, p float64, seed int64, pool *par.Pool) {
	t.Helper()
	const clamp, rounds = 1 << 40, 30
	sc := &scratch{}
	edges, origin, copies := skeleton(g, p, clamp, int64(rounds), rand.New(rand.NewSource(seed)), sc)
	uedges, uorigin := refSkeleton(g, p, clamp, int64(rounds), rand.New(rand.NewSource(seed)))
	if copies != len(uedges) {
		t.Fatalf("p=%g: %d copies, unit-copy skeleton has %d", p, copies, len(uedges))
	}
	load, cost := sc.loadsFor(len(edges))
	trees, maxLoad, ok, err := pack(context.Background(), g.N(), edges, rounds, load, cost, pool, nil, nil, trace.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	utrees, umaxLoad, uok := refPack(g.N(), uedges, rounds, pool)
	if ok != uok || maxLoad != umaxLoad || len(trees) != len(utrees) {
		t.Fatalf("p=%g: ok %v maxLoad %d trees %d, unit copies give %v %d %d",
			p, ok, maxLoad, len(trees), uok, umaxLoad, len(utrees))
	}
	for r := range trees {
		a, b := originals(trees[r], origin), originals(utrees[r], uorigin)
		if !slices.Equal(a, b) {
			t.Fatalf("p=%g round %d: tree %v, unit copies give %v", p, r, a, b)
		}
	}
}

// originals translates skeleton indices to sorted original edge indices.
func originals(tree, origin []int32) []int32 {
	out := make([]int32, len(tree))
	for i, ei := range tree {
		out[i] = origin[ei]
	}
	slices.Sort(out)
	return out
}

// TestPackMatchesUnitCopies pins the weighted packing to the unit-copy
// reference: per-round trees, EstimateCut, and the whole SampleTrees
// Result and error, at pool widths 1, 2 and 4.
func TestPackMatchesUnitCopies(t *testing.T) {
	opts := []Options{{}, {Kappa: 1}, {RoundsFactor: 0.5, AcceptFraction: 0.9}}
	var multiGuess, atFloor bool
	for _, width := range []int{1, 2, 4} {
		pool := par.NewPool(width)
		defer pool.Close()
		for name, g := range equivalenceGraphs() {
			for _, p := range []float64{0.05, 0.3, 1} {
				samePack(t, g, p, int64(width), pool)
			}
			if est, ref := EstimateCut(g, 3, pool, nil), refEstimateCut(g, 3, pool); est != ref {
				t.Fatalf("width %d %s: EstimateCut %d, unit copies give %d", width, name, est, ref)
			}
			for oi, o := range opts {
				for seed := int64(1); seed <= 2; seed++ {
					o.Seed = seed
					got, err := SampleTrees(g, o, pool, nil)
					want, werr := refSampleTrees(g, o, pool)
					if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("width %d %s opts %d seed %d: got %+v (%v), unit copies give %+v (%v)",
							width, name, oi, seed, got, err, want, werr)
					}
					if err == nil {
						multiGuess = multiGuess || got.Packings > 1
						kappa := o.withDefaults().Kappa
						atFloor = atFloor || kappa*math.Log(float64(g.N())+1) >= float64(got.Estimate)
					}
				}
			}
		}
	}
	if !multiGuess || !atFloor {
		t.Fatalf("matrix no longer reaches both paths: multi-guess %v, p ≥ 1 floor %v", multiGuess, atFloor)
	}
}
