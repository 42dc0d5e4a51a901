package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// quartiles summarises one side's runs of a metric: median and
// quartiles by the exclusive rule of Python's
// statistics.quantiles(xs, n=4), the benchmark's own.
type quartiles struct{ q1, median, q3 float64 }

func summarise(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return quartiles{s[0], s[0], s[0]}
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
	return quartiles{q(1), q(2), q(3)}
}

func (q quartiles) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q.median, q.q1, q.q3)
}

// comparison is one metric over pairs of runs: the pairs the head won
// and lost (ties count for neither) and each side's quartiles.
type comparison struct {
	base, head   quartiles
	wins, losses int
	pairs        int
	lowerBetter  bool
}

// compare pairs base[i] with head[i]; lowerBetter says which way is a
// win.
func compare(base, head []float64, lowerBetter bool) comparison {
	c := comparison{base: summarise(base), head: summarise(head), pairs: len(base), lowerBetter: lowerBetter}
	for i := range base {
		d := head[i] - base[i]
		if lowerBetter {
			d = -d
		}
		switch {
		case d > 0:
			c.wins++
		case d < 0:
			c.losses++
		}
	}
	return c
}

// change is the head's median relative to the base's.
func (c comparison) change() float64 {
	if c.base.median == 0 {
		return 0
	}
	return (c.head.median - c.base.median) / math.Abs(c.base.median)
}

// worseBy is how far the head's median is from the base's in the worse
// direction, relative to the base's; zero or below when it is not worse.
func (c comparison) worseBy() float64 {
	if c.lowerBetter {
		return c.change()
	}
	return -c.change()
}

// verdict applies the rule for claiming a change: one side won at least
// nine tenths of the pairs and the medians differ by more than the
// base's interquartile distance.
func (c comparison) verdict() string {
	gap, iqr := math.Abs(c.head.median-c.base.median), c.base.q3-c.base.q1
	switch {
	case gap <= iqr:
	case 10*c.wins >= 9*c.pairs && c.worseBy() < 0:
		return "gain"
	case 10*c.losses >= 9*c.pairs && c.worseBy() > 0:
		return "loss"
	}
	return ""
}

// moved lists the metrics that read one value on every one of the n
// runs of the base and otherwise at the head — another value on every
// run, values that differ between runs, or no value on some runs or on
// all — and the metrics only the head reports, as "name: base -> head",
// in name order. A metric whose base runs differ (a wall-clock figure)
// is not listed: it is not deterministic.
func moved(base, head map[string][]float64, n int) []string {
	var out []string
	for name := range base {
		if b, h := reading(base[name], n), reading(head[name], n); b == fmt.Sprint(base[name][0]) && b != h {
			out = append(out, fmt.Sprintf("%s: %s -> %s", name, b, h))
		}
	}
	for name, h := range head {
		if _, ok := base[name]; !ok {
			out = append(out, fmt.Sprintf("%s: missing -> %s", name, reading(h, n)))
		}
	}
	sort.Strings(out)
	return out
}

// reading names what a metric read over n runs: its value if one on
// every run.
func reading(xs []float64, n int) string {
	switch {
	case len(xs) == 0:
		return "missing"
	case len(xs) < n:
		return fmt.Sprintf("on %d of %d runs", len(xs), n)
	case slices.Min(xs) != slices.Max(xs):
		return fmt.Sprintf("varies %v..%v", slices.Min(xs), slices.Max(xs))
	}
	return fmt.Sprint(xs[0])
}
