package abscan

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/packing"
	"repro/internal/par"
	"repro/internal/respect"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/wd"
)

func scanTree(t *testing.T, g *graph.Graph, parent []int32, parallelPaths bool, pool *par.Pool) Finding {
	t.Helper()
	adj := g.BuildAdjOn(pool)
	f, err := Scan(context.Background(), g, adj, g.WeightedDegrees(), parent, parallelPaths, pool, nil, nil, trace.SpanRef{})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return f
}

// packingTrees returns up to count trees that packing.SampleTrees draws
// from g, as parent arrays rooted at vertex 0: the long-path shapes the
// engine actually scans, not random spanning trees.
func packingTrees(tb testing.TB, g *graph.Graph, seed int64, count int) [][]int32 {
	tb.Helper()
	pk, err := packing.SampleTrees(g, packing.Options{Seed: seed, TreeCount: count}, nil, nil)
	if err != nil {
		tb.Fatalf("SampleTrees: %v", err)
	}
	out := make([][]int32, 0, len(pk.Trees))
	for _, tr := range pk.Trees {
		edges := make([][2]int32, len(tr))
		for j, ei := range tr {
			e := g.Edge(int(ei))
			edges[j] = [2]int32{e.U, e.V}
		}
		parent, err := tree.RootEdgeList(g.N(), edges, 0, nil, nil)
		if err != nil {
			tb.Fatalf("RootEdgeList: %v", err)
		}
		out = append(out, parent)
	}
	return out
}

// TestScanMatchesRespect is the ground-truth property test: on random
// connected graphs of varied density, with several random spanning trees
// each, the AB sweep must find exactly the value the bough-decomposition
// scan (internal/respect, Lemma 13) finds — both are exact minimum
// ≤2-respecting cut searches for the given tree.
func TestScanMatchesRespect(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		n := 2 + rng.Intn(70)
		maxM := n * (n - 1) / 2
		m := n - 1
		if maxM > n-1 {
			m += rng.Intn(maxM - (n - 1) + 1)
		}
		g := gen.RandomConnected(n, m, 50, int64(2000+i))
		for tr := 0; tr < 3; tr++ {
			parent := gen.SpanningTreeParent(g, int64(i*10+tr))
			want, err := respect.TwoRespect(g, parent, false, nil, nil)
			if err != nil {
				t.Fatalf("graph %d tree %d: respect: %v", i, tr, err)
			}
			f := scanTree(t, g, parent, tr%2 == 1, nil)
			if f.Value != want.Value {
				t.Fatalf("graph %d (n=%d m=%d) tree %d: abscan=%d respect=%d",
					i, n, m, tr, f.Value, want.Value)
			}
			// The witness partition must re-evaluate to the found value.
			inCut, err := Witness(g, parent, f, nil, nil)
			if err != nil {
				t.Fatalf("graph %d tree %d: witness: %v", i, tr, err)
			}
			if v := g.CutValue(inCut); v != f.Value {
				t.Fatalf("graph %d tree %d: witness re-evaluates to %d, found %d", i, tr, v, f.Value)
			}
		}
	}
}

// TestScanHandcraftedShapes exercises the decomposition's edge cases:
// the 2-vertex tree (no 2-respecting pair exists), stars (every heavy
// path has length 1), paths (one heavy path), and multigraphs with
// parallel edges and self-loops.
func TestScanHandcraftedShapes(t *testing.T) {
	t.Parallel()
	build := func(n int, edges [][3]int64) *graph.Graph {
		g := graph.New(n)
		for _, e := range edges {
			if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
		}
		return g
	}
	cases := []struct {
		name   string
		g      *graph.Graph
		parent []int32
		want   int64
	}{
		{
			name:   "two vertices",
			g:      build(2, [][3]int64{{0, 1, 7}}),
			parent: []int32{-1, 0},
			want:   7,
		},
		{
			name:   "parallel edges",
			g:      build(2, [][3]int64{{0, 1, 3}, {0, 1, 4}}),
			parent: []int32{-1, 0},
			want:   7,
		},
		{
			name: "star with a weak spoke",
			g: build(5, [][3]int64{
				{0, 1, 9}, {0, 2, 9}, {0, 3, 9}, {0, 4, 1},
			}),
			parent: []int32{-1, 0, 0, 0, 0},
			want:   1,
		},
		{
			name: "path graph, interior pair",
			// 0-1-2-3 path weights 5,1,5 plus chord 0-3 of weight 2: best
			// ≤2-respecting cut of the path tree cuts {1-2} and the chord.
			g: build(4, [][3]int64{
				{0, 1, 5}, {1, 2, 1}, {2, 3, 5}, {0, 3, 2},
			}),
			parent: []int32{-1, 0, 1, 2},
			want:   3,
		},
		{
			name: "self loops ignored",
			g: build(3, [][3]int64{
				{0, 1, 2}, {1, 2, 3}, {1, 1, 50}, {0, 2, 1},
			}),
			parent: []int32{-1, 0, 1},
			want:   3,
		},
	}
	for _, c := range cases {
		f := scanTree(t, c.g, c.parent, false, nil)
		if f.Value != c.want {
			t.Errorf("%s: value = %d, want %d", c.name, f.Value, c.want)
		}
		want, err := respect.TwoRespect(c.g, c.parent, false, nil, nil)
		if err != nil {
			t.Fatalf("%s: respect: %v", c.name, err)
		}
		if f.Value != want.Value {
			t.Errorf("%s: abscan=%d respect=%d", c.name, f.Value, want.Value)
		}
	}
}

// TestScanModesAndWidthsIdentical: the sequential sweep, the chunked
// parallel-paths sweep, and every pool width produce bit-identical
// findings (value and provenance).
func TestScanModesAndWidthsIdentical(t *testing.T) {
	t.Parallel()
	g := gen.RandomConnected(90, 700, 40, 31)
	parent := gen.SpanningTreeParent(g, 8)
	ref := scanTree(t, g, parent, false, nil)
	for _, w := range []int{1, 2, 7} {
		pool := par.NewPool(w)
		for _, pp := range []bool{false, true} {
			f := scanTree(t, g, parent, pp, pool)
			if !reflect.DeepEqual(f, ref) {
				t.Fatalf("width %d parallelPaths=%v: finding %+v differs from reference %+v", w, pp, f, ref)
			}
		}
		pool.Close()
	}
}

// TestScanCancellation: a canceled context aborts the sweep between
// heavy paths, in both path-scheduling modes.
func TestScanCancellation(t *testing.T) {
	t.Parallel()
	g := gen.RandomConnected(60, 300, 20, 77)
	parent := gen.SpanningTreeParent(g, 1)
	adj := g.BuildAdj()
	deg := g.WeightedDegrees()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, pp := range []bool{false, true} {
		if _, err := Scan(ctx, g, adj, deg, parent, pp, nil, nil, nil, trace.SpanRef{}); err == nil {
			t.Fatalf("parallelPaths=%v: Scan on a canceled context succeeded", pp)
		}
	}
}

// TestScanMeters: the scan charges deterministic work/depth to the meter
// regardless of mode, so engine-level metering stays width-invariant.
func TestScanMeters(t *testing.T) {
	t.Parallel()
	g := gen.RandomConnected(50, 200, 10, 5)
	parent := gen.SpanningTreeParent(g, 2)
	adj := g.BuildAdj()
	deg := g.WeightedDegrees()
	var m1, m2 wd.Meter
	if _, err := Scan(context.Background(), g, adj, deg, parent, false, nil, &m1, nil, trace.SpanRef{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(context.Background(), g, adj, deg, parent, true, nil, &m2, nil, trace.SpanRef{}); err != nil {
		t.Fatal(err)
	}
	if m1.Work() == 0 || m1.Depth() == 0 {
		t.Fatalf("meter not charged: work=%d depth=%d", m1.Work(), m1.Depth())
	}
	if m1.Work() != m2.Work() || m1.Depth() != m2.Depth() {
		t.Fatalf("meter differs across modes: (%d,%d) vs (%d,%d)", m1.Work(), m1.Depth(), m2.Work(), m2.Depth())
	}
}

// TestScanMatchesRespectOnPackingTrees is the ground-truth test on the
// trees the engine really scans: packing.SampleTrees trees of graphs
// with n >= 512, whose minimum cut is not a singleton, so ladder bases
// reach 1024 and heavy paths run long. Every tree's scan must match
// internal/respect in both path-scheduling modes, and the best tree
// must find a cut below the minimum weighted degree — the min-degree
// fallback cannot answer these graphs.
func TestScanMatchesRespectOnPackingTrees(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	cycleW := make([]int64, 600)
	for i := range cycleW {
		cycleW[i] = 100 + rng.Int63n(900)
	}
	cases := []struct {
		name string
		pl   *gen.Planted
	}{
		{"planted", gen.PlantedCut(256, 300, 6, 42)},
		{"dumbbell", gen.Dumbbell(256, 5, 43)},
		{"cycle", gen.Cycle(cycleW)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			g := c.pl.G
			minDeg := slices.Min(g.WeightedDegrees())
			if c.pl.CutValue >= minDeg {
				t.Fatalf("minimum cut %d is not below the minimum weighted degree %d", c.pl.CutValue, minDeg)
			}
			pool := par.NewPool(2)
			defer pool.Close()
			best := maxValue
			for i, parent := range packingTrees(t, g, 44, 4) {
				want, err := respect.TwoRespect(g, parent, false, nil, nil)
				if err != nil {
					t.Fatalf("tree %d: respect: %v", i, err)
				}
				for _, pp := range []bool{false, true} {
					f := scanTree(t, g, parent, pp, pool)
					if f.Value != want.Value {
						t.Fatalf("tree %d parallelPaths=%v: abscan=%d respect=%d", i, pp, f.Value, want.Value)
					}
					inCut, err := Witness(g, parent, f, pool, nil)
					if err != nil {
						t.Fatalf("tree %d: witness: %v", i, err)
					}
					if v := g.CutValue(inCut); v != f.Value {
						t.Fatalf("tree %d: witness re-evaluates to %d, found %d", i, v, f.Value)
					}
				}
				best = min(best, want.Value)
			}
			if best >= minDeg {
				t.Fatalf("best tree cut %d is not below the minimum weighted degree %d", best, minDeg)
			}
		})
	}
}
