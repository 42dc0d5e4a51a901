package main

import "testing"

// The quartiles follow the benchmark's rule (Python's
// statistics.quantiles, exclusive method).
func TestSummarise(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want quartiles
	}{
		{[]float64{5}, quartiles{5, 5, 5}},
		{[]float64{1, 2}, quartiles{1, 1.5, 2}},
		{[]float64{4, 1, 3, 2}, quartiles{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, quartiles{2.75, 5.5, 8.25}},
	} {
		if got := summarise(c.xs); got != c.want {
			t.Errorf("summarise(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

// A gain needs nine pairs in ten and a median gap wider than the base's
// interquartile distance; a loss is the same rule the other way; ties
// count for neither side.
func TestVerdict(t *testing.T) {
	base := []float64{10, 11, 12, 13, 14, 10, 11, 12, 13, 14} // median 12, quartiles 10.75 and 13.25
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	nineOfTen := shift(base, -3)
	nineOfTen[4] = base[4] // one tie: nine wins, no loss
	eightOfTen := shift(base, -3)
	eightOfTen[0], eightOfTen[1] = base[0]+1, base[1]+1
	for _, c := range []struct {
		name         string
		head         []float64
		lowerBetter  bool
		verdict      string
		wins, losses int
	}{
		{"ten of ten, gap 3 over an IQR of 2.5", shift(base, -3), true, "gain", 10, 0},
		{"the same runs when higher is better", shift(base, -3), false, "loss", 0, 10},
		{"nine wins and a tie", nineOfTen, true, "gain", 9, 0},
		{"eight of ten", eightOfTen, true, "", 8, 2},
		{"ten of ten within the IQR", shift(base, -2), true, "", 10, 0},
		{"all ties", base, true, "", 0, 0},
		{"ten losses", shift(base, 3), true, "loss", 0, 10},
	} {
		cmp := compare(base, c.head, c.lowerBetter)
		if got := cmp.verdict(); got != c.verdict || cmp.wins != c.wins || cmp.losses != c.losses {
			t.Errorf("%s: verdict %q, %d wins, %d losses; want %q, %d, %d", c.name, got, cmp.wins, cmp.losses, c.verdict, c.wins, c.losses)
		}
	}
	if c := compare([]float64{100}, []float64{110}, true); c.change() != 0.1 || c.worseBy() != 0.1 {
		t.Errorf("100 to 110, lower better: change %v, worse by %v; want 0.1 and 0.1", c.change(), c.worseBy())
	}
	if c := compare([]float64{100}, []float64{110}, false); c.worseBy() != -0.1 {
		t.Errorf("100 to 110, higher better: worse by %v, want -0.1", c.worseBy())
	}
}
