package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest sample with at least a q share of the samples at or
// below it. xs is not modified. An empty xs gives NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle sample of xs, or the mean of the two middle
// samples when len(xs) is even. An empty xs gives NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// poissonSchedule returns n arrival offsets of a Poisson process over
// [0, horizon) conditioned on n arrivals: n independent uniform draws,
// sorted. Conditioning on the count keeps the offered rate exactly
// n/horizon on every seed while the gaps stay exponential-like, so the
// open-loop runs differ only in arrival pattern, not in offered load.
func poissonSchedule(rng *rand.Rand, n int, horizon time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(horizon))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// subSeed derives an independent, positive seed for one named input
// stream (data, model initialization, shuffling, arrivals) from the
// run's --seed, so that each stream changes with the seed while the
// streams do not share a sequence. The FNV-1a hash of the stream name
// is mixed into the seed with the splitmix64 finalizer.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream)) // hash.Hash writes never fail
	z := uint64(seed) ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}
