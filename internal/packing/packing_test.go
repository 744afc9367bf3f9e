package packing

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/mst"
	"repro/internal/par"
)

func TestBinomialBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := binomial(0, 0.5, 100, rng); got != 0 {
		t.Errorf("binomial(0)=%d", got)
	}
	if got := binomial(10, 0, 100, rng); got != 0 {
		t.Errorf("p=0 gave %d", got)
	}
	if got := binomial(10, 1, 100, rng); got != 10 {
		t.Errorf("p=1 gave %d", got)
	}
	if got := binomial(10, 1, 4, rng); got != 4 {
		t.Errorf("cap ignored: %d", got)
	}
	// Statistical sanity: mean of Binomial(1000, 0.3) is 300.
	var sum int64
	const trials = 300
	for i := 0; i < trials; i++ {
		sum += binomial(1000, 0.3, 1<<30, rng)
	}
	mean := float64(sum) / trials
	if mean < 270 || mean > 330 {
		t.Errorf("binomial mean %.1f, want ≈300", mean)
	}
}

// isSpanningTree verifies that the edge indices form a spanning tree of g.
func isSpanningTree(g *graph.Graph, idxs []int32) bool {
	if len(idxs) != g.N()-1 {
		return false
	}
	edges := make([]graph.Edge, len(idxs))
	for i, ei := range idxs {
		edges[i] = g.Edge(int(ei))
	}
	return mst.Components(g.N(), edges, nil, nil) == 1
}

// respects counts how many tree edges cross the cut.
func respects(g *graph.Graph, idxs []int32, inCut []bool) int {
	crossing := 0
	for _, ei := range idxs {
		e := g.Edge(int(ei))
		if inCut[e.U] != inCut[e.V] {
			crossing++
		}
	}
	return crossing
}

func TestSampleTreesAreSpanningTrees(t *testing.T) {
	g := gen.RandomConnected(64, 256, 20, 5)
	res, err := SampleTrees(g, Options{Seed: 42}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) == 0 {
		t.Fatal("no trees sampled")
	}
	for i, tr := range res.Trees {
		if !isSpanningTree(g, tr) {
			t.Fatalf("tree %d is not a spanning tree", i)
		}
	}
	if res.PackValue <= 0 {
		t.Fatalf("pack value %f", res.PackValue)
	}
}

// TestPackingRespectsPlantedCut is experiment E6: with high probability at
// least one sampled tree crosses the (known) minimum cut at most twice.
func TestPackingRespectsPlantedCut(t *testing.T) {
	failures := 0
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		p := gen.PlantedCut(24, 20, 3, seed)
		res, err := SampleTrees(p.G, Options{Seed: seed * 31}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		good := false
		for _, tr := range res.Trees {
			if respects(p.G, tr, p.InCut) <= 2 {
				good = true
				break
			}
		}
		if !good {
			failures++
		}
	}
	if failures > 1 { // allow one unlucky seed out of ten
		t.Fatalf("%d/%d trials had no 2-respecting tree", failures, trials)
	}
}

func TestEstimateCutOrder(t *testing.T) {
	// Dumbbell: true min cut is the bridge (3); the estimate must be a
	// lower-bound-leaning constant-factor figure, far below the heavy
	// degrees inside the cliques.
	p := gen.Dumbbell(12, 3, 7)
	deg := p.G.WeightedDegrees()
	minDeg := deg[0]
	for _, d := range deg {
		if d < minDeg {
			minDeg = d
		}
	}
	est := EstimateCut(p.G, 3, nil, nil)
	if est > minDeg {
		t.Fatalf("estimate %d above min degree %d", est, minDeg)
	}
	if est > 100*3 {
		t.Fatalf("estimate %d too far above bridge weight 3", est)
	}
}

func TestSampleTreesSmallGraphs(t *testing.T) {
	// Two vertices, one edge.
	g := graph.New(2)
	if err := g.AddEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	res, err := SampleTrees(g, Options{Seed: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) == 0 || len(res.Trees[0]) != 1 {
		t.Fatalf("trees: %v", res.Trees)
	}
	// Triangle.
	tri := gen.Clique(3, 4, 2)
	res, err = SampleTrees(tri, Options{Seed: 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Trees {
		if !isSpanningTree(tri, tr) {
			t.Fatal("triangle tree invalid")
		}
	}
}

func TestSampleTreesDisconnected(t *testing.T) {
	g := gen.Disconnected(5, 6, 3)
	if _, err := SampleTrees(g, Options{Seed: 4}, nil, nil); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

// TestSampleTreesDeterministicInSeed pins that the whole Result depends on
// the seed alone: not on the run, and not on the pool width.
func TestSampleTreesDeterministicInSeed(t *testing.T) {
	g := gen.RandomConnected(40, 160, 10, 9)
	a, err := SampleTrees(g, Options{Seed: 5}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2, 4} {
		pool := par.NewPool(width)
		b, err := SampleTrees(g, Options{Seed: 5}, pool, nil)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("width %d: same seed, different outcome: %+v vs %+v", width, a, b)
		}
	}
}

// TestSkeletonOneEntryPerEdge pins the weighted skeleton's size: at most
// one entry per non-loop original edge, in original-edge order, each
// carrying its capped copy count, with Σ W equal to the reported copies.
// Its size therefore bounds mst's input by m, not by the copy count.
func TestSkeletonOneEntryPerEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := make([]int64, 4096)
	for i := range w {
		w[i] = 1000 + rng.Int63n(1001)
	}
	for gi, g := range []*graph.Graph{gen.Cycle(w).G, repeatsAndLoops(3)} {
		for _, c := range []struct {
			p              float64
			clamp, multCap int64
		}{{1, 1 << 40, 128}, {1, 40, 128}, {0.3, 500, 7}, {0.01, 1 << 40, 1 << 40}} {
			edges, origin, copies := skeleton(g, c.p, c.clamp, c.multCap, rng, &scratch{})
			if len(edges) != len(origin) {
				t.Fatalf("graph %d: %d entries, %d origins", gi, len(edges), len(origin))
			}
			sum := 0
			for i, e := range edges {
				o := g.Edge(int(origin[i]))
				if i > 0 && origin[i] <= origin[i-1] {
					t.Fatalf("graph %d: origin %d after %d: more than one entry per edge", gi, origin[i], origin[i-1])
				}
				if o.U == o.V || e.U != o.U || e.V != o.V {
					t.Fatalf("graph %d: entry %d = %+v for original %+v", gi, i, e, o)
				}
				if e.W < 1 || e.W > min(o.W, c.clamp, c.multCap) {
					t.Fatalf("graph %d: entry %d has %d copies, cap %d", gi, i, e.W, min(o.W, c.clamp, c.multCap))
				}
				sum += int(e.W)
			}
			if sum != copies {
				t.Fatalf("graph %d: Σ W = %d, copies = %d", gi, sum, copies)
			}
		}
	}
}

func TestPackValueBelowSkeletonCut(t *testing.T) {
	// Packing value never exceeds the skeleton's minimum cut; on a cycle
	// (min cut 2 everywhere) with p=1 the value must be ≤ 2 and ≥ 1.
	weights := make([]int64, 12)
	for i := range weights {
		weights[i] = 1
	}
	p := gen.Cycle(weights)
	res, err := SampleTrees(p.G, Options{Seed: 11}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PackValue > 2.01 || res.PackValue < 0.5 {
		t.Fatalf("cycle pack value %f outside [0.5, 2]", res.PackValue)
	}
}

// BenchmarkSampleTrees measures the whole packing pipeline on the two
// shapes where skeleton size dominates: a long weighted cycle (weights
// in [1000, 2000], as in the long-cycle solve benchmark) and a planted
// two-community graph.
func BenchmarkSampleTrees(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := make([]int64, 8192)
	for i := range w {
		w[i] = 1000 + rng.Int63n(1001)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"cycle-8192", gen.Cycle(w).G}, {"planted-2048", gen.PlantedCut(1024, 1024, 16, 1).G}}
	for _, c := range graphs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SampleTrees(c.g, Options{Seed: 3}, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
