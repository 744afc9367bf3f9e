package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// latencySummary is a latency sample's size and spread for the run
// metadata: minimum, 10th/50th/90th percentiles (nearest rank), maximum.
func latencySummary(xs []float64) map[string]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := func(q float64) float64 { return s[int(q*float64(len(s)-1)+0.5)] }
	return map[string]float64{"n": float64(len(s)), "min": s[0], "p10": rank(0.1), "p50": rank(0.5),
		"p90": rank(0.9), "max": s[len(s)-1]}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the average of xs; 0 for an empty sample.
func mean(xs []float64) float64 {
	return ratio(sum(xs), float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not cross).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix derives independent seeds from the workload seed: stream picks the
// purpose (graph pool, solve seeds, request order) and i the item.
func mix(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// usage is the process's CPU time and peak resident set size so far.
type usage struct {
	cpu     time.Duration
	maxRSSK int64 // KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSSK: int64(ru.Maxrss)}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a run's named results.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}
