package abscan

import (
	"math/rand"
	"slices"
	"testing"
)

// newTestLadder builds a ladder over vals (position 0 and positions past
// len(vals) are sentinels) with its own pristine checkpoint.
func newTestLadder(vals []int64) *ladder {
	base, h := ladderBase(len(vals))
	cp := checkpoint{minv: make([]int64, 2*base), arg: make([]int32, 2*base)}
	cp.build(vals)
	t := &ladder{
		base: base, h: h,
		minv: make([]int64, 2*base), arg: make([]int32, 2*base), lazy: make([]int64, 2*base),
		pristine: cp, touched: make([]int32, 0, 2*base+4*h+2),
	}
	t.reset()
	return t
}

// naiveMinExcept is the ladder query on a plain array: the smallest
// value over positions [1, len(vals)) other than p, and the leftmost
// position attaining it.
func naiveMinExcept(vals []int64, p int) (int64, int32) {
	best, arg := maxValue, int32(-1)
	for q := 1; q < len(vals); q++ {
		if q != p && vals[q] < best {
			best, arg = vals[q], int32(q)
		}
	}
	return best, arg
}

// TestLadderMatchesModel drives the ladder and a naive []int64 model
// through the same random range adds and minExcept queries. Values and
// deltas are tiny so ties are frequent and the leftmost-argmin rule is
// exercised. After restore the ladder must equal its post-reset state
// bit for bit, through both the touched-list and the full-copy path.
func TestLadderMatchesModel(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 3, 5, 64, 1000, 2049} {
		vals := make([]int64, n)
		for p := range vals {
			vals[p] = int64(rng.Intn(11) - 5)
		}
		lad := newTestLadder(vals)
		minv0, arg0, lazy0 := slices.Clone(lad.minv), slices.Clone(lad.arg), slices.Clone(lad.lazy)
		// A short round stays on the touched list; a long one overflows
		// it (2·base nodes) and restores by full copy.
		for _, ops := range []int{3, 40, 4 * n} {
			model := slices.Clone(vals)
			for op := 0; op < ops; op++ {
				l := 1 + rng.Intn(n-1)
				r := l + rng.Intn(n-l)
				if rng.Intn(8) == 0 {
					l = r + 1 // empty range: no-op
				}
				delta := int64(rng.Intn(7) - 3)
				lad.add(l, r, delta)
				for q := l; q <= r; q++ {
					model[q] += delta
				}
				p := rng.Intn(n)
				gv, ga := lad.minExcept(p)
				wv, wa := naiveMinExcept(model, p)
				if gv != wv || ga != wa {
					t.Fatalf("n=%d op %d: minExcept(%d) = (%d, %d), model (%d, %d)", n, op, p, gv, ga, wv, wa)
				}
			}
			if ops == 4*n && !lad.full {
				t.Fatalf("n=%d: %d ops did not overflow the touched list", n, ops)
			}
			if ops == 3 && n >= 64 && lad.full {
				t.Fatalf("n=%d: 3 ops overflowed the touched list", n)
			}
			lad.restore()
			if !slices.Equal(lad.minv, minv0) || !slices.Equal(lad.arg, arg0) || !slices.Equal(lad.lazy, lazy0) {
				t.Fatalf("n=%d after %d ops: restore did not return the post-reset state", n, ops)
			}
			if lad.full || len(lad.touched) != 0 {
				t.Fatalf("n=%d: restore left full=%v touched=%d", n, lad.full, len(lad.touched))
			}
		}
	}
}
