package main

import (
	"math"
	"sort"
	"time"
)

// samples is a list of measurements in one unit; percentiles use the
// nearest-rank definition so a reported p99 is a value that was observed.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// pct returns the p-th percentile (0 < p <= 1) by nearest rank, or NaN
// when s is empty.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(p*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s samples) median() float64 { return s.pct(0.5) }

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

// tailOK reports whether at least ten samples lie beyond the p-th
// percentile, the minimum for a tail figure to mean anything.
func tailOK(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}
