package main

import (
	"math"
	"sort"
)

// stat summarises the repetitions of one metric. Virtual metrics have
// n identical samples (the command checks that they are), so their
// quartiles coincide with the median.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// exact is the stat of a deterministic value observed n times.
func exact(v float64, n int) stat { return stat{Median: v, Q1: v, Q3: v, N: n} }

// summarise computes the median and quartiles of xs with the same rule
// as Python's statistics.quantiles(xs, n=4) (exclusive method), the
// rule the contract in BENCHMARK.json is checked with.
func summarise(xs []float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return stat{}
	case 1:
		return exact(s[0], 1)
	}
	q := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		switch {
		case j < 1:
			j, delta = 1, 0
		case j > n-1:
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return stat{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
