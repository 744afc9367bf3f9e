// Package abscan finds the minimum cut crossing at most two edges of a
// spanning tree with the compact search of Anderson–Blelloch
// (arXiv 2102.05301), the follow-up that improved the source paper's
// work bound: instead of decomposing the tree into boughs and running
// batched Minimum Path mixed operations per phase (internal/decomp +
// internal/respect), decompose it once into heavy paths and sweep a
// single bounded-depth contraction structure down each path.
//
// The search rests on Karger's pair identity: for tree edges e_v, e_u
// (named by their lower endpoints) the 2-respecting cut value is
//
//	cut(e_v, e_u) = c(v) + c(u) − 2·B(v, u)
//
// where c(x) is the weight of the 1-respecting cut at x (the cut of the
// subtree x↓) and B(v, u) is the total weight of graph edges whose
// tree path crosses both e_v and e_u. The identity holds for
// incomparable pairs (the cut is v↓ ∪ u↓) and nested pairs (v↓ \ u↓)
// alike, so one sweep covers both shapes — where the bough scan needed
// two separate operation batches (§4.1 pass A and Appendix A pass B).
//
// A heavy-first DFS makes both every subtree and every heavy path a
// contiguous range of DFS positions. The contraction structure ("the
// ladder") is a perfect binary tree over those positions with lazy
// range-add and leftmost-argmin range-min, both iterative walks: leaf p
// holds c(order[p]) − 2·B(v, order[p]) for the currently fixed edge
// e_v, so the best partner for e_v is one root-to-leaf query. Fixing
// the next edge is cheap exactly on heavy paths: walking from a path's
// head to its leaf re-evaluates only the graph edges incident to the
// vertex left behind and its light subtrees, which is the classic
// O(log n)-re-evaluations-per-edge bound: O(m log n) path updates per
// tree, each O(log n) heavy-path hops of an O(log n) range add, so
// O(m log³ n) work per tree. Heavy paths are independent of each
// other: each starts from a pristine checkpoint of the ladder, built
// once per tree, and on exit restores the nodes it touched from it (the
// whole ladder, once it touched more nodes than the ladder has). So
// they run either sequentially on one ladder (O(n) extra memory) or
// chunked across the pool with one ladder per chunk, all sharing the
// checkpoint — the same memory/depth trade the bough scan exposes as
// ParallelPhases.
//
// Determinism: candidates are combined in (heavy path, position) order
// with strict <, the ladder returns the leftmost argmin, and chunk
// boundaries depend only on the path count, so the winning cut is
// bit-identical at every pool width.
package abscan

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/trace"
	"repro/internal/wd"
)

const maxValue = int64(1)<<62 - 1

// Finding kinds.
const (
	kindOne  = byte('1') // 1-respecting cut u↓
	kindPair = byte('2') // 2-respecting pair: u↓ xor v↓ (union or difference)
)

// Finding is the outcome of one tree's scan: the smallest cut value
// among cuts crossing at most two tree edges, plus enough provenance
// for Witness to rebuild the partition.
type Finding struct {
	// Value is the smallest cut value found.
	Value int64
	kind  byte
	u, v  int32
}

// decomposition is the heavy-path decomposition of one rooted tree in
// heavy-first DFS position space: the subtree of v occupies positions
// [tin[v], tin[v]+size[v]), and every heavy path is the consecutive run
// [tin[head], tin[tail]].
type decomposition struct {
	n      int
	root   int32
	parent []int32
	tin    []int32
	size   []int32
	head   []int32 // top vertex of v's heavy path
	heavy  []int32 // heavy child of v, or -1
	depth  []int32
	order  []int32 // DFS position -> vertex
}

// inSub reports whether x lies in the subtree of v.
func (d *decomposition) inSub(v, x int32) bool {
	return d.tin[x] >= d.tin[v] && d.tin[x] < d.tin[v]+d.size[v]
}

// lca by heavy-path hopping: O(log n).
func (d *decomposition) lca(x, y int32) int32 {
	for d.head[x] != d.head[y] {
		if d.depth[d.head[x]] < d.depth[d.head[y]] {
			x, y = y, x
		}
		x = d.parent[d.head[x]]
	}
	if d.tin[x] <= d.tin[y] {
		return x
	}
	return y
}

// build fills d from a parent array (root marked by a negative entry).
// All slices are caller-provided scratch of length n (the caller borrows
// them from the pool's arena); bfs and childList are length n, childEnd
// length n. Sequential: one tree's decomposition is O(n) and trees fan
// out in parallel above this call.
func (d *decomposition) build(parent []int32, childEnd, childList, bfs []int32) error {
	n := len(parent)
	d.n = n
	d.parent = parent
	d.root = -1
	for v := 0; v < n; v++ {
		childEnd[v] = 0
	}
	for v := 0; v < n; v++ {
		if p := parent[v]; p >= 0 {
			if int(p) >= n {
				return fmt.Errorf("abscan: parent[%d] = %d out of range", v, p)
			}
			childEnd[p]++
		} else {
			if d.root >= 0 {
				return fmt.Errorf("abscan: two roots %d and %d", d.root, v)
			}
			d.root = int32(v)
		}
	}
	if d.root < 0 {
		return fmt.Errorf("abscan: parent array has no root")
	}
	// Prefix-sum the counts into start offsets, then place children in
	// ascending vertex order; afterwards childEnd[v] is the end of v's
	// children and the start is childEnd[v-1] (0 for v == 0).
	sum := int32(0)
	for v := 0; v < n; v++ {
		c := childEnd[v]
		childEnd[v] = sum
		sum += c
	}
	for v := int32(0); v < int32(n); v++ {
		if p := parent[v]; p >= 0 {
			childList[childEnd[p]] = v
			childEnd[p]++
		}
	}
	// BFS for depths, reverse BFS for subtree sizes.
	bfs[0] = d.root
	d.depth[d.root] = 0
	qt := 1
	for qh := 0; qh < qt; qh++ {
		v := bfs[qh]
		cs := int32(0)
		if v > 0 {
			cs = childEnd[v-1]
		}
		for i := cs; i < childEnd[v]; i++ {
			c := childList[i]
			d.depth[c] = d.depth[v] + 1
			bfs[qt] = c
			qt++
		}
	}
	if qt != n {
		return fmt.Errorf("abscan: parent array is not a single tree (%d of %d reachable)", qt, n)
	}
	for v := 0; v < n; v++ {
		d.size[v] = 1
		d.heavy[v] = -1
	}
	for i := n - 1; i >= 1; i-- {
		v := bfs[i]
		d.size[parent[v]] += d.size[v]
	}
	// Heavy child: largest subtree, smallest vertex id on ties (childList
	// is ascending, strict > keeps the first maximum).
	for v := int32(0); v < int32(n); v++ {
		p := parent[v]
		if p < 0 {
			continue
		}
		if h := d.heavy[p]; h < 0 || d.size[v] > d.size[h] {
			d.heavy[p] = v
		}
	}
	// Heavy-first DFS (explicit stack, reusing bfs as the stack): the
	// heavy child is entered first so heavy paths are consecutive
	// positions; light children follow in ascending vertex order.
	stack := bfs
	stack[0] = d.root
	d.head[d.root] = d.root
	top := 1
	t := int32(0)
	for top > 0 {
		top--
		v := stack[top]
		d.tin[v] = t
		d.order[t] = v
		t++
		cs := int32(0)
		if v > 0 {
			cs = childEnd[v-1]
		}
		h := d.heavy[v]
		for i := childEnd[v] - 1; i >= cs; i-- {
			c := childList[i]
			if c == h {
				continue
			}
			d.head[c] = c
			stack[top] = c
			top++
		}
		if h >= 0 {
			d.head[h] = d.head[v]
			stack[top] = h
			top++
		}
	}
	return nil
}

// ladder is the bounded-depth contraction structure: a perfect binary
// tree over DFS positions with lazy range-add and leftmost-argmin
// range-min, depth h = log₂ base. Node x has children 2x and 2x+1, leaf
// p is node base+p, and every node keeps the invariant
// minv[x] = min(minv[2x], minv[2x+1]) + lazy[x] (leaves: their value
// plus their own adds), with arg[x] the leftmost position attaining it.
// All operations are iterative walks over the implicit tree.
//
// Between heavy paths the ladder returns to its pristine post-reset
// state: every node an add writes is recorded, and restore copies those
// nodes back (or the whole arrays, once the list outgrows them).
type ladder struct {
	base int // leaf count, power of two >= n
	h    int // log₂ base
	minv []int64
	arg  []int32
	lazy []int64

	pristine checkpoint // post-reset minv/arg; shared read-only
	touched  []int32    // nodes written since the last restore
	full     bool       // touched overflowed: restore copies everything
}

// checkpoint is the ladder state S(∅) every heavy path starts from and
// returns to. lazy is all zero there, so only minv and arg are kept.
type checkpoint struct {
	minv []int64
	arg  []int32
}

// ladderBase returns the leaf count (smallest power of two >= n) and
// its log₂.
func ladderBase(n int) (base, h int) {
	base = 1
	for base < n {
		base *= 2
		h++
	}
	return base, h
}

// build fills cp (both slices of length 2·base) with the ladder over
// vals (leaf p = vals[p]); leaves at and past len(vals), and leaf 0
// (the root vertex, which names no tree edge), hold the +inf sentinel.
// No range-add ever reaches a sentinel leaf — addPath never touches
// position 0 — so sentinels stay inert.
func (cp checkpoint) build(vals []int64) {
	base := len(cp.minv) / 2
	for p := 0; p < base; p++ {
		if p > 0 && p < len(vals) {
			cp.minv[base+p] = vals[p]
		} else {
			cp.minv[base+p] = maxValue
		}
		cp.arg[base+p] = int32(p)
	}
	for x := base - 1; x >= 1; x-- {
		l, r := 2*x, 2*x+1
		if cp.minv[l] <= cp.minv[r] {
			cp.minv[x], cp.arg[x] = cp.minv[l], cp.arg[l]
		} else {
			cp.minv[x], cp.arg[x] = cp.minv[r], cp.arg[r]
		}
	}
}

// reset loads the pristine state into the ladder and empties the
// touched list.
func (t *ladder) reset() {
	copy(t.minv, t.pristine.minv)
	copy(t.arg, t.pristine.arg)
	clear(t.lazy)
	t.touched = t.touched[:0]
	t.full = false
}

// restore returns the ladder to its post-reset state. Restoring a node
// is idempotent, so duplicates in the touched list are harmless.
func (t *ladder) restore() {
	if t.full {
		t.reset()
		return
	}
	for _, x := range t.touched {
		t.minv[x] = t.pristine.minv[x]
		t.arg[x] = t.pristine.arg[x]
		t.lazy[x] = 0
	}
	t.touched = t.touched[:0]
}

// add adds delta to positions [l, r] (inclusive; no-op when l > r). The
// canonical cover of the range takes the add lazily; then the strict
// ancestors of the cover — the nodes on the paths from both boundary
// leaves to the root that the range only partly covers — are
// recomputed bottom-up in one joint walk, level by level and once each.
func (t *ladder) add(l, r int, delta int64) {
	if l > r {
		return
	}
	lo, hi := l+t.base, r+t.base+1 // half-open leaf range
	for a, b := lo, hi; a < b; a, b = a>>1, b>>1 {
		if a&1 == 1 {
			t.apply(a, delta)
			a++
		}
		if b&1 == 1 {
			b--
			t.apply(b, delta)
		}
	}
	for i := 1; i <= t.h; i++ {
		x := -1
		if (lo>>i)<<i != lo {
			x = lo >> i
			t.pull(x)
		}
		if (hi>>i)<<i != hi {
			if y := (hi - 1) >> i; y != x {
				t.pull(y)
			}
		}
	}
	if !t.full && len(t.touched) >= 2*t.base {
		t.full = true
		t.touched = t.touched[:0]
	}
}

// apply adds delta to the whole subtree of node x, lazily.
func (t *ladder) apply(x int, delta int64) {
	t.minv[x] += delta
	t.lazy[x] += delta
	t.touch(x)
}

// pull recomputes node x from its children; ties keep the left child,
// so arg stays the leftmost argmin.
func (t *ladder) pull(x int) {
	l := 2 * x
	ml, mr := t.minv[l], t.minv[l+1]
	right := 0 // branch-free select: the comparison is a coin flip
	if mr < ml {
		right = 1
	}
	t.minv[x], t.arg[x] = min(ml, mr)+t.lazy[x], t.arg[l+right]
	t.touch(x)
}

// touch records node x for restore, unless restore will copy
// everything anyway.
func (t *ladder) touch(x int) {
	if !t.full {
		t.touched = append(t.touched, int32(x))
	}
}

// minExcept returns the minimum over every position other than p and
// the leftmost position attaining it, in one root-to-leaf walk: the
// siblings hanging off the path to leaf p partition the other
// positions, and each contributes its subtree minimum plus the lazy
// adds above it. Sentinel leaves never win (strict <), so the result is
// (maxValue, -1) when no other position holds a finite value.
func (t *ladder) minExcept(p int) (int64, int32) {
	best, arg := maxValue, int32(-1)
	acc := int64(0)
	x := 1
	for i := t.h - 1; i >= 0; i-- {
		acc += t.lazy[x]
		x *= 2
		sib := x + 1
		if (p>>i)&1 == 1 {
			x, sib = sib, x
		}
		if v, a := t.minv[sib]+acc, t.arg[sib]; v < best || (v == best && a < arg) {
			best, arg = v, a
		}
	}
	return best, arg
}

// pathOut is one heavy path's best candidate.
type pathOut struct {
	value int64
	u, v  int32
}

// sweep walks heavy paths over one ladder. Parallel chunks each own a
// sweep; the sequential mode uses a single one.
type sweep struct {
	d   *decomposition
	adj *graph.Adj
	c   []int64
	lad ladder
}

// addPath adds delta to the ladder position of every tree edge on the
// tree path x..y, by heavy-path hops: positions along one heavy path
// are consecutive, and the edge out of a path's head is the head's own
// position.
func (s *sweep) addPath(x, y int32, delta int64) {
	d := s.d
	for d.head[x] != d.head[y] {
		if d.depth[d.head[x]] < d.depth[d.head[y]] {
			x, y = y, x
		}
		hx := d.head[x]
		s.lad.add(int(d.tin[hx]), int(d.tin[x]), delta)
		x = d.parent[hx]
	}
	if d.tin[x] > d.tin[y] {
		x, y = y, x
	}
	if x != y {
		// x is the LCA; the path covers the edges of (x, y]'s vertices.
		s.lad.add(int(d.tin[x])+1, int(d.tin[y]), delta)
	}
}

// shift re-evaluates the graph edges of vertex x for the transition from
// fixed edge e_v to e_u (u = heavy child of v, x ∈ {v} ∪ light subtrees
// of v): an edge leaves the active set when its far endpoint is outside
// v↓ (it crossed e_v but not e_u) and enters it when the far endpoint is
// inside u↓. Far endpoints in the departing region itself are no-ops on
// both counts, so edges inside the region are touched twice and changed
// never.
func (s *sweep) shift(x, v, u int32) {
	d := s.d
	adj := s.adj
	for k := adj.Off[x]; k < adj.Off[x+1]; k++ {
		y := adj.Nbr[k]
		if !d.inSub(v, y) {
			s.addPath(x, y, 2*adj.W[k])
		} else if d.inSub(u, y) {
			s.addPath(x, y, -2*adj.W[k])
		}
	}
}

// runPath scans the heavy path with head hd: enters S(hd) by activating
// every graph edge crossing e_hd, then walks down the path, querying the
// best partner for each fixed edge and shifting the active set to the
// heavy child, and finally restores the ladder from its checkpoint so it
// is clean for the next path.
func (s *sweep) runPath(hd int32) pathOut {
	d := s.d
	adj := s.adj
	lo, hi := int(d.tin[hd]), int(d.tin[hd])+int(d.size[hd])-1
	// Entry: edges with exactly one endpoint in hd↓ cross e_hd. Edges
	// with both endpoints inside contribute nothing and are skipped.
	for p := lo; p <= hi; p++ {
		x := d.order[p]
		for k := adj.Off[x]; k < adj.Off[x+1]; k++ {
			y := adj.Nbr[k]
			if !d.inSub(hd, y) {
				s.addPath(x, y, -2*adj.W[k])
			}
		}
	}
	out := pathOut{value: maxValue}
	v := hd
	for {
		// Best partner for e_v: min over every other edge position. The
		// fixed edge's own position must be excluded (its leaf currently
		// holds c(v) − 2·B(v,v), which is not a pair value).
		m, a := s.lad.minExcept(int(d.tin[v]))
		if a >= 0 && m < maxValue/2 && s.c[v]+m < out.value {
			out = pathOut{value: s.c[v] + m, u: v, v: d.order[a]}
		}
		u := d.heavy[v]
		if u < 0 {
			break
		}
		// Shift S(v) -> S(u): re-evaluate edges incident to the departing
		// region {v} ∪ light subtrees of v.
		s.shift(v, v, u)
		for i := d.tin[v] + 1; i < d.tin[v]+d.size[v]; i++ {
			x := d.order[i]
			if x == u {
				// Skip u's own (heavy) subtree: positions jump past it.
				i += d.size[u] - 1
				continue
			}
			s.shift(x, v, u)
		}
		v = u
	}
	s.lad.restore()
	return out
}

// Scan finds the minimum cut of g crossing at most two edges of the
// spanning tree given by parent (root marked by -1). adj is g's CSR
// adjacency (shared read-only across trees) and deg its weighted
// degrees. With parallelPaths the heavy paths are chunked across the
// pool, one ladder per chunk (more memory, less depth); results are
// identical either way and at every pool width. ctx is checked between
// heavy paths; sink counts each completed heavy path through the
// bough-phase counters (heavy paths play the role bough phases play in
// the respect scan, including as park/cancel seams); sp gets the
// path-decompose / contract / path-scan child spans.
func Scan(ctx context.Context, g *graph.Graph, adj *graph.Adj, deg []int64, parent []int32, parallelPaths bool, pool *par.Pool, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef) (Finding, error) {
	n := g.N()
	if n < 2 {
		return Finding{}, fmt.Errorf("abscan: graph needs at least 2 vertices")
	}
	if len(parent) != n {
		return Finding{}, fmt.Errorf("abscan: parent array length %d != n %d", len(parent), n)
	}
	ar := pool.Arena()
	logn := wd.CeilLog2(n)

	// Phase 1: heavy-path decomposition.
	dsp := sp.Child("path-decompose")
	d, put, err := buildDecomposition(parent, ar)
	if err != nil {
		dsp.End()
		return Finding{}, err
	}
	defer put()
	m.Add(int64(4*n), logn)
	dsp.End()

	// Phase 2: per-vertex 1-respecting cut values and the contraction
	// ladder. c(v) = (Σ_{x∈v↓} deg(x)) − 2·(Σ_{x∈v↓} ρ(x)) where ρ(x) is
	// the weight of edges whose tree-path LCA is x: both sums accumulate
	// bottom-up in reverse DFS order.
	csp := sp.Child("contract")
	cp := ar.Int64(n)
	rhop := ar.Int64(n)
	defer ar.PutInt64(cp)
	defer ar.PutInt64(rhop)
	c, rho := *cp, *rhop
	for v := 0; v < n; v++ {
		c[v] = deg[v]
		rho[v] = 0
	}
	for _, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		rho[d.lca(e.U, e.V)] += e.W
	}
	for p := n - 1; p >= 1; p-- {
		v := d.order[p]
		pa := parent[v]
		c[pa] += c[v]
		rho[pa] += rho[v]
	}
	for v := 0; v < n; v++ {
		c[v] -= 2 * rho[v]
	}
	// The pristine ladder S(∅), built once and shared read-only by every
	// sweep. Leaf p carries c(order[p]): ladder positions are DFS
	// positions. rho is dead from here on and holds the leaf values.
	base, _ := ladderBase(n)
	ckMinvP := ar.Int64(2 * base)
	ckArgP := ar.Int32(2 * base)
	defer ar.PutInt64(ckMinvP)
	defer ar.PutInt32(ckArgP)
	ckpt := checkpoint{minv: *ckMinvP, arg: *ckArgP}
	vals := rho
	for p := 0; p < n; p++ {
		vals[p] = c[d.order[p]]
	}
	ckpt.build(vals)
	m.Add(int64(g.M())*logn+int64(2*n), logn)
	csp.End()

	// 1-respecting candidate: smallest c(v) over non-root vertices, in
	// position order (leftmost wins ties — same tie-break the ladder uses).
	best := Finding{Value: maxValue}
	for p := 1; p < n; p++ {
		if v := d.order[p]; c[v] < best.Value {
			best = Finding{Value: c[v], kind: kindOne, u: v}
		}
	}

	// Collect heavy-path heads in position order.
	headsP := ar.Int32(n)
	defer ar.PutInt32(headsP)
	heads := (*headsP)[:0]
	for p := 0; p < n; p++ {
		if v := d.order[p]; d.head[v] == v {
			heads = append(heads, v)
		}
	}
	sink.AddBoughs(len(heads))

	// Phase 3: sweep every heavy path.
	ssp := sp.Child("path-scan").AttrInt("paths", int64(len(heads)))
	defer ssp.End()
	outsP := par.Slice[pathOut](ar, len(heads))
	defer par.PutSlice(ar, outsP)
	outs := *outsP
	runRange := func(lo, hi int) error {
		sw, putSweep := newSweep(d, adj, c, ckpt, ar)
		defer putSweep()
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			outs[i] = sw.runPath(heads[i])
			sink.BoughPhaseDone()
		}
		return nil
	}
	if parallelPaths && len(heads) > 1 {
		pool.ForChunk(len(heads), 1, func(lo, hi int) {
			// Cancellation aborts the chunk; the error surfaces below.
			_ = runRange(lo, hi)
		})
		if err := ctx.Err(); err != nil {
			return Finding{}, fmt.Errorf("abscan: scan canceled: %w", err)
		}
	} else {
		if err := runRange(0, len(heads)); err != nil {
			return Finding{}, fmt.Errorf("abscan: scan canceled: %w", err)
		}
	}
	// Combine in path order with strict <, matching the sequential sweep.
	for i := range outs {
		if outs[i].value < best.Value {
			best = Finding{Value: outs[i].value, kind: kindPair, u: outs[i].u, v: outs[i].v}
		}
	}
	m.Add(int64(g.M())*logn*logn, logn*logn)
	if best.Value >= maxValue {
		return Finding{}, fmt.Errorf("abscan: no cut candidate found")
	}
	return best, nil
}

// buildDecomposition borrows scratch for a decomposition from the arena
// and fills it; put returns everything.
func buildDecomposition(parent []int32, ar *par.Arena) (*decomposition, func(), error) {
	n := len(parent)
	bufs := make([]*[]int32, 0, 9)
	grab := func() []int32 {
		sp := ar.Int32(n)
		bufs = append(bufs, sp)
		return *sp
	}
	d := &decomposition{
		tin:   grab(),
		size:  grab(),
		head:  grab(),
		heavy: grab(),
		depth: grab(),
		order: grab(),
	}
	childEnd, childList, bfs := grab(), grab(), grab()
	put := func() {
		for _, sp := range bufs {
			ar.PutInt32(sp)
		}
	}
	if err := d.build(parent, childEnd, childList, bfs); err != nil {
		put()
		return nil, nil, err
	}
	return d, put, nil
}

// newSweep borrows a ladder sized like cp from the arena and loads cp
// into it.
func newSweep(d *decomposition, adj *graph.Adj, c []int64, cp checkpoint, ar *par.Arena) (*sweep, func()) {
	base, h := ladderBase(d.n)
	minvP := ar.Int64(2 * base)
	lazyP := ar.Int64(2 * base)
	argP := ar.Int32(2 * base)
	// One add records at most 4h+2 nodes and the list is cut at 2·base,
	// so this capacity never grows.
	touchedP := ar.Int32(2*base + 4*h + 2)
	sw := &sweep{d: d, adj: adj, c: c, lad: ladder{
		base: base, h: h,
		minv: *minvP, arg: *argP, lazy: *lazyP,
		pristine: cp, touched: (*touchedP)[:0],
	}}
	sw.lad.reset()
	put := func() {
		ar.PutInt64(minvP)
		ar.PutInt64(lazyP)
		ar.PutInt32(argP)
		ar.PutInt32(touchedP)
	}
	return sw, put
}

// Witness reconstructs one side of the cut a Finding describes: for a
// 1-respecting cut the subtree u↓; for a pair, the symmetric difference
// u↓ xor v↓, which is the union for incomparable edges and the
// set difference for nested ones.
func Witness(g *graph.Graph, parent []int32, f Finding, pool *par.Pool, m *wd.Meter) ([]bool, error) {
	n := g.N()
	if len(parent) != n {
		return nil, fmt.Errorf("abscan: parent array length %d != n %d", len(parent), n)
	}
	d, put, err := buildDecomposition(parent, pool.Arena())
	if err != nil {
		return nil, err
	}
	defer put()
	inCut := make([]bool, n)
	u, v, kind := f.u, f.v, f.kind
	pool.For(n, func(x int) {
		in := d.inSub(u, int32(x))
		if kind == kindPair {
			in = in != d.inSub(v, int32(x))
		}
		inCut[x] = in
	})
	m.Add(int64(n), 1)
	return inCut, nil
}
