package rts

import (
	"testing"

	"repro/internal/sim"
)

func TestLatencyHistExactSmall(t *testing.T) {
	// Values below 2^latSubBits land in dedicated buckets: percentiles
	// of small samples are exact, not approximations.
	var h LatencyHist
	for v := sim.Time(0); v < 16; v++ {
		h.Record(v)
	}
	if h.Count() != 16 {
		t.Fatalf("count = %d, want 16", h.Count())
	}
	if got := h.Percentile(0.5); got != 7 {
		t.Errorf("p50 = %d, want 7", int64(got))
	}
	if got := h.Percentile(1.0); got != 15 {
		t.Errorf("p100 = %d, want 15", int64(got))
	}
	if h.Max() != 15 {
		t.Errorf("max = %d, want 15", int64(h.Max()))
	}
}

func TestLatencyHistBucketBounds(t *testing.T) {
	// A recorded value's bucket upper bound must be >= the value and
	// within ~1/latSub relative error (the log-bucket resolution).
	for _, v := range []int64{1, 15, 16, 17, 100, 999, 12345, 1 << 20, 1<<40 + 12345} {
		var h LatencyHist
		h.Record(sim.Time(v))
		got := int64(h.Percentile(1.0))
		if got < v {
			t.Errorf("Percentile(1.0) of %d = %d, below the sample", v, got)
		}
		// Max is tracked exactly, and percentiles clamp to it.
		if got != v {
			t.Errorf("single-sample p100 of %d = %d, want exact (clamped to max)", v, got)
		}
		idx := latIndex(sim.Time(v))
		up := int64(latUpper(idx))
		if up < v {
			t.Errorf("latUpper(latIndex(%d)) = %d, below the value", v, up)
		}
		if v >= 16 && float64(up-v) > float64(v)/float64(latSub)+1 {
			t.Errorf("latUpper(latIndex(%d)) = %d, coarser than 1/%d resolution", v, up, latSub)
		}
	}
}

func TestLatencyHistPercentileMonotonic(t *testing.T) {
	var h LatencyHist
	rng := int64(1)
	for i := 0; i < 10000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := (rng >> 33) & 0xfffff // [0, 2^20)
		h.Record(sim.Time(v))
	}
	prev := sim.Time(-1)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		p := h.Percentile(q)
		if p < prev {
			t.Fatalf("Percentile(%v) = %d < previous %d: not monotonic", q, int64(p), int64(prev))
		}
		prev = p
	}
	if h.Percentile(1.0) != h.Max() {
		t.Errorf("p100 = %d, want max %d", int64(h.Percentile(1.0)), int64(h.Max()))
	}
}

func TestLatencyHistMerge(t *testing.T) {
	var a, b, both LatencyHist
	for i := int64(0); i < 1000; i++ {
		v := sim.Time(i * 37 % 5000)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() || a.Max() != both.Max() {
		t.Fatalf("merge: count/sum/max = %d/%d/%d, want %d/%d/%d",
			a.Count(), a.Sum(), int64(a.Max()), both.Count(), both.Sum(), int64(both.Max()))
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if a.Percentile(q) != both.Percentile(q) {
			t.Errorf("merge: p%v = %d, want %d", q*100, int64(a.Percentile(q)), int64(both.Percentile(q)))
		}
	}
}

func TestLatencyHistEmptyAndNegative(t *testing.T) {
	var h LatencyHist
	if h.Percentile(0.5) != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram percentile/sum/max not zero")
	}
	h.Record(-5) // clamped to 0
	if h.Count() != 1 || h.Percentile(1.0) != 0 {
		t.Errorf("negative record: count=%d p100=%d, want 1/0", h.Count(), int64(h.Percentile(1.0)))
	}
}
