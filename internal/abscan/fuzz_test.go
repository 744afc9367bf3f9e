package abscan

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/respect"
	"repro/internal/trace"
)

// isTree reports whether parent (negative = root) describes one rooted
// tree over all its vertices: exactly one root, every entry in range,
// and every vertex reaches the root.
func isTree(parent []int32) bool {
	n := len(parent)
	roots := 0
	for _, p := range parent {
		if p < 0 {
			roots++
		} else if int(p) >= n {
			return false
		}
	}
	if roots != 1 {
		return false
	}
	for v := range parent {
		x, steps := int32(v), 0
		for parent[x] >= 0 {
			x = parent[x]
			if steps++; steps > n {
				return false
			}
		}
	}
	return true
}

// bruteTwoRespect is the exhaustive minimum over every cut crossing at
// most two edges of the tree: each subtree u↓ and each u↓ xor v↓.
func bruteTwoRespect(g *graph.Graph, parent []int32) int64 {
	n := len(parent)
	sub := make([][]bool, n)
	for v := range sub {
		sub[v] = make([]bool, n)
		for x := 0; x < n; x++ {
			for y := x; y >= 0; y = int(parent[y]) {
				if y == v {
					sub[v][x] = true
					break
				}
			}
		}
	}
	side := make([]bool, n)
	best := maxValue
	for u := range parent {
		if parent[u] < 0 {
			continue
		}
		best = min(best, g.CutValue(sub[u]))
		for v := u + 1; v < n; v++ {
			if parent[v] < 0 {
				continue
			}
			for x := range side {
				side[x] = sub[u][x] != sub[v][x]
			}
			best = min(best, g.CutValue(side))
		}
	}
	return best
}

// FuzzScanMatchesRespect decodes arbitrary bytes into a small graph and
// a parent array and runs Scan on them. Byte 0 picks n and the shape of
// the parent array: a tree by construction (each vertex hangs below a
// smaller one, labels rotated so any vertex can be the root) or raw
// entries in [-1, n], which are mostly not trees. The graph holds every
// in-range parent edge plus one edge per remaining byte triple.
//
// Scan must never panic and must reject parent arrays that are not one
// tree. On trees it must equal the exhaustive minimum, its witness must
// re-evaluate to that value, and internal/respect must never report
// less. respect can report more: for a bough vertex y it only probes
// partners reached from y's own neighbours, so it misses a pair (y, x)
// whose crossing edges all leave y↓ below y. The second and third seeds
// are such trees; in the third the missed pair is the graph's minimum
// cut.
func FuzzScanMatchesRespect(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 2, 1, 3, 9})
	f.Add([]byte("Z000127208%2"))
	f.Add([]byte("00Z00090Y201072Z\"2100"))
	f.Add([]byte{6, 3, 0, 1, 1, 2, 0, 4, 5, 7, 1, 2, 3})
	f.Add([]byte{1, 2, 0, 3, 1, 0, 2, 5})
	f.Add([]byte{3, 255, 254, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0]>>1)%14
		raw := data[0]&1 == 1
		body := data[1:]
		at := func(i int) int { return int(body[i%len(body)]) }
		parent := make([]int32, n)
		if raw {
			for v := range parent {
				parent[v] = int32(at(v)%(n+2)) - 1
			}
		} else {
			k := at(0) % n // rotation: label(v) = (v+k) mod n
			parent[k] = -1
			for v := 1; v < n; v++ {
				parent[(v+k)%n] = int32((at(v)%v + k) % n)
			}
		}
		g := graph.New(n)
		for v, p := range parent {
			if p >= 0 && int(p) < n && int(p) != v {
				if err := g.AddEdge(v, int(p), int64(1+at(v+n)%9)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := n; i+2 < len(body); i += 3 {
			if err := g.AddEdge(at(i)%n, at(i+1)%n, int64(1+at(i+2)%16)); err != nil {
				t.Fatal(err)
			}
		}
		adj := g.BuildAdj()
		f, err := Scan(context.Background(), g, adj, g.WeightedDegrees(), parent, raw, nil, nil, nil, trace.SpanRef{})
		if !isTree(parent) {
			if err == nil {
				t.Fatalf("parent %v is not a tree, Scan returned %+v", parent, f)
			}
			return
		}
		if err != nil {
			t.Fatalf("parent %v: Scan: %v", parent, err)
		}
		want, err := respect.TwoRespect(g, parent, false, nil, nil)
		if err != nil {
			t.Fatalf("parent %v: respect: %v", parent, err)
		}
		if exact := bruteTwoRespect(g, parent); f.Value != exact {
			t.Fatalf("parent %v: abscan=%d, exhaustive minimum %d", parent, f.Value, exact)
		}
		if want.Value < f.Value {
			t.Fatalf("parent %v: respect=%d below the exhaustive minimum %d", parent, want.Value, f.Value)
		}
		inCut, err := Witness(g, parent, f, nil, nil)
		if err != nil {
			t.Fatalf("parent %v: witness: %v", parent, err)
		}
		if v := g.CutValue(inCut); v != f.Value {
			t.Fatalf("parent %v: witness re-evaluates to %d, found %d", parent, v, f.Value)
		}
	})
}
