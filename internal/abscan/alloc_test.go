package abscan

import (
	"context"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/par"
	"repro/internal/trace"
)

// BenchmarkScan measures one sequential Scan of a packing tree of a
// PlantedCut graph with n=2048 (m≈2.5n), the sparse-ab benchmark's
// per-tree unit of work, on a width-1 pool whose arena is warm.
func BenchmarkScan(b *testing.B) {
	g := gen.PlantedCut(1024, 1024, 8, 11).G
	parent := packingTrees(b, g, 12, 1)[0]
	pool := par.NewPool(1)
	defer pool.Close()
	adj := g.BuildAdjOn(pool)
	deg := g.WeightedDegrees()
	ctx := context.Background()
	if _, err := Scan(ctx, g, adj, deg, parent, false, pool, nil, nil, trace.SpanRef{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Scan(ctx, g, adj, deg, parent, false, pool, nil, nil, trace.SpanRef{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScanSteadyStateAllocs pins the allocations of a steady-state Scan
// on a warm width-1 pool: every O(n) array — the decomposition, the
// ladder, its pristine checkpoint and touched-node list — comes from
// the arena, so only a few fixed-size headers and closures remain.
func TestScanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; the steady-state bound holds only in normal builds")
	}
	g := gen.PlantedCut(256, 256, 6, 21).G
	parent := packingTrees(t, g, 22, 1)[0]
	pool := par.NewPool(1)
	defer pool.Close()
	adj := g.BuildAdjOn(pool)
	deg := g.WeightedDegrees()
	for _, c := range []struct {
		parallelPaths bool
		limit         float64
	}{{false, 6}, {true, 7}} {
		run := func() {
			if _, err := Scan(context.Background(), g, adj, deg, parent, c.parallelPaths, pool, nil, nil, trace.SpanRef{}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the arena
		if avg := testing.AllocsPerRun(20, run); avg > c.limit {
			t.Errorf("parallelPaths=%v: %.1f allocs/op in steady state, want <= %.0f", c.parallelPaths, avg, c.limit)
		}
	}
}
