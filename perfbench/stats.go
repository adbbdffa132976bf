package main

import (
	"math"
	"sort"
	"syscall"
)

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least a q share of the samples at or below it.
// beyond is how many samples lie strictly after that rank, which is what
// the ">= 10 samples beyond the reported percentile" rule counts. xs is
// not modified.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minSamplesFor is the smallest sample count that leaves at least beyond
// samples after the nearest-rank q-quantile.
func minSamplesFor(q float64, beyond int) int {
	for n := 1; ; n++ {
		if _, b := percentile(make([]float64, n), q); b >= beyond {
			return n
		}
	}
}

// splitmix64 is the SplitMix64 finalizer: a bijective 64-bit mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seed-derivation streams. Each names one family of generated inputs so
// that, for example, the warm-up passes never reuse a timed pass's seed.
const (
	streamPass = iota + 1
	streamSetup
	streamServe
	streamRepeat
)

// derive returns the input seed for item i of a stream under the
// benchmark seed. It is a pure function of its arguments, always positive
// (a spec seed of 0 would normalize to the default seed and alias every
// zero-derived item), and distinct streams are independent.
func derive(seed int64, stream, i int) int64 {
	x := splitmix64(uint64(seed))
	x = splitmix64(x ^ uint64(stream)<<56)
	x = splitmix64(x ^ uint64(i))
	return int64(x>>2) + 1
}

// peakRSSMiB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
