//go:build !race

package abscan

// raceEnabled reports whether the race detector is active. The
// steady-state allocation test skips under -race: the race-mode
// sync.Pool deliberately drops a fraction of Puts, so arena borrows
// legitimately re-allocate there.
const raceEnabled = false
