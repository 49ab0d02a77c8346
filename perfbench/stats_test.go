package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.9, 90},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("median/mean of no samples should be NaN")
	}
}

func TestPoissonSchedule(t *testing.T) {
	const n = 20000
	horizon := 10 * time.Second
	due := poissonSchedule(rand.New(rand.NewSource(7)), n, horizon)
	if len(due) != n {
		t.Fatalf("got %d arrivals, want %d", len(due), n)
	}
	for i, d := range due {
		if d < 0 || d >= horizon {
			t.Fatalf("arrival %d at %v outside [0, %v)", i, d, horizon)
		}
		if i > 0 && d < due[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
	// Gaps of a Poisson process are exponential: mean equals standard
	// deviation (coefficient of variation 1), and about e^-1 of the
	// gaps exceed the mean.
	gaps := make([]float64, n-1)
	for i := range gaps {
		gaps[i] = float64(due[i+1] - due[i])
	}
	m := mean(gaps)
	var v float64
	long := 0
	for _, g := range gaps {
		v += (g - m) * (g - m)
		if g > m {
			long++
		}
	}
	cv := math.Sqrt(v/float64(len(gaps))) / m
	if math.Abs(cv-1) > 0.05 {
		t.Errorf("gap coefficient of variation %.3f, want about 1", cv)
	}
	if frac := float64(long) / float64(len(gaps)); math.Abs(frac-math.Exp(-1)) > 0.02 {
		t.Errorf("share of gaps above the mean %.3f, want about %.3f", frac, math.Exp(-1))
	}
	again := poissonSchedule(rand.New(rand.NewSource(7)), n, horizon)
	for i := range due {
		if due[i] != again[i] {
			t.Fatal("same seed gave a different schedule")
		}
	}
}

func TestSubSeed(t *testing.T) {
	if subSeed(1, "data") != subSeed(1, "data") {
		t.Fatal("subSeed is not deterministic")
	}
	seen := map[int64]string{}
	for _, seed := range []int64{0, 1, 2, -1, 1 << 40} {
		for _, stream := range []string{"data", "model", "shuffle", "arrivals"} {
			s := subSeed(seed, stream)
			if s <= 0 {
				t.Errorf("subSeed(%d, %q) = %d, want positive", seed, stream, s)
			}
			key := stream
			if prev, dup := seen[s]; dup {
				t.Errorf("subSeed collision: %q and seed %d/%q", prev, seed, key)
			}
			seen[s] = key
		}
	}
}
