//go:build race

package abscan

const raceEnabled = true
