package engine

// Thresholds parameterize the Auto selection rule. The rule is
// intentionally coarse — a few comparisons on numbers the registry
// already has (n, m) — because the measured crossovers (paperbench -exp
// engines, BENCH_engines.json) are themselves coarse. The four-engine
// selection table it implements:
//
//	n <= SmallN                        → stoerwagner
//	n <= DenseN and m >= DenseFrac·n²  → stoerwagner
//	otherwise, n > ABN                 → andersonblelloch
//	otherwise                          → geissmann (Default)
//
// Tuned sequential Stoer–Wagner wins while the n³ term is small or the
// graph is dense enough that the polylog machinery has no sparsity to
// exploit. Past that region, both 2-respecting-scan engines pack the
// same trees and find bit-identical values, so the choice between them
// is purely a constant-factor race between geissmann's
// bough-decomposition scan and the Anderson–Blelloch heavy-path scan
// (internal/abscan), which does O(m log³ n) work per tree: O(m log n)
// path updates, each O(log² n) ladder work.
// Karger–Stein is never auto-selected: on every measured cell it is
// dominated by one of the other three (it exists for cross-checking and
// as the Table 1 comparator).
type Thresholds struct {
	// SmallN: graphs with n <= SmallN go to stoerwagner regardless of
	// density.
	SmallN int
	// DenseN / DenseFrac: graphs with n <= DenseN whose edge count is at
	// least DenseFrac·n² also go to stoerwagner (dense enough that m is
	// Θ(n²), where the sequential baseline's cache-friendly inner loops
	// win longer).
	DenseN    int
	DenseFrac float64
	// ABN: above the stoerwagner region, graphs with n > ABN go to
	// andersonblelloch; at or below it they stay on geissmann. Both scans
	// return bit-identical values, so this threshold only moves time, not
	// answers.
	ABN int
}

// DefaultThresholds hold the shipped calibration, refreshed from the
// crossover measurements in BENCH_engines.json (paperbench -exp engines).
// Last measured: on the sparse family (m = 4n) stoerwagner wins through
// n = 512 (265 ms vs 294 ms) and loses at n = 1024 (2.0 s vs 0.94 s); on
// the dense family (m = n²/8) it still wins 14× at n = 512 (258 ms vs
// 3.7 s), so the dense rule extends one doubling past the sparse one.
// Between the two scan engines, andersonblelloch beat geissmann on every
// measured cell (e.g. sparse n = 1024: 883 ms vs 938 ms; n = 2048:
// 2.5 s vs 2.9 s; dense n = 512: 3.7 s vs 4.9 s), so ABN ships at 0 and
// geissmann is never auto-selected — the field exists so a hardware
// recalibration that finds a mid-size geissmann window can express it.
var DefaultThresholds = Thresholds{SmallN: 512, DenseN: 1024, DenseFrac: 0.125, ABN: 0}

// Select applies the thresholds to a graph with n vertices and m edges.
func (t Thresholds) Select(n, m int) string {
	if n <= t.SmallN {
		return "stoerwagner"
	}
	if n <= t.DenseN && float64(m) >= t.DenseFrac*float64(n)*float64(n) {
		return "stoerwagner"
	}
	if n > t.ABN {
		return "andersonblelloch"
	}
	return Default
}

// Select is the Auto rule at the default calibration.
func Select(n, m int) string {
	return DefaultThresholds.Select(n, m)
}
