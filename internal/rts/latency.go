package rts

import (
	"math/bits"

	"repro/internal/sim"
)

// Virtual-latency accounting. Serving workloads are judged by their
// tail: a throughput figure hides the requests that waited behind a
// hot shard or a sequencer frame. LatencyHist is the repo's one
// latency representation — a fixed log-bucket histogram of virtual
// durations, deterministic by construction (bucket boundaries are
// fixed powers of two split into linear sub-buckets, so identical op
// streams produce bit-identical histograms and percentiles; no
// sampling, no reservoir randomness). The orca layer owns a named
// registry of them (Runtime.Histogram) and publishes the registry in
// Report.Latency; the harness and bench/ render p50/p95/p99.

const (
	// latSubBits splits each power-of-two octave into 2^latSubBits
	// linear sub-buckets: ~6% value resolution at every magnitude.
	latSubBits = 4
	latSub     = 1 << latSubBits
	// latBuckets covers the full non-negative int64 range: values
	// below latSub are exact, then (63-latSubBits+1) octaves of latSub
	// sub-buckets each.
	latBuckets = (64 - latSubBits) * latSub
)

// LatencyHist is a fixed log-bucket histogram of virtual durations.
// The zero value is an empty histogram ready to use. Record, Merge,
// and the percentile queries are all deterministic: the histogram is
// a pure function of the recorded multiset.
type LatencyHist struct {
	counts [latBuckets]int64
	n      int64
	sum    sim.Time
	max    sim.Time
}

// latIndex maps a duration to its bucket. Values in [0, latSub) are
// exact; a larger value v in [2^k, 2^(k+1)) lands in one of latSub
// linear sub-buckets of its octave.
func latIndex(d sim.Time) int {
	v := uint64(d)
	if v < latSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - latSubBits
	sub := int(v>>uint(exp)) & (latSub - 1)
	return (exp+1)*latSub + sub
}

// latUpper is the inclusive upper bound of bucket i — the value the
// percentile queries report, so a percentile never understates the
// recorded durations in its bucket.
func latUpper(i int) sim.Time {
	if i < latSub {
		return sim.Time(i)
	}
	exp := uint(i/latSub - 1)
	sub := uint64(i%latSub) + latSub
	return sim.Time((sub << exp) + (1 << exp) - 1)
}

// Record adds one duration. Negative durations clamp to zero (a
// request cannot complete before it arrived).
func (h *LatencyHist) Record(d sim.Time) {
	if d < 0 {
		d = 0
	}
	h.counts[latIndex(d)]++
	h.n++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Merge adds o's recordings into h.
func (h *LatencyHist) Merge(o *LatencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count reports the number of recorded durations.
func (h *LatencyHist) Count() int64 { return h.n }

// Sum reports the total of the recorded durations.
func (h *LatencyHist) Sum() sim.Time { return h.sum }

// Max reports the largest recorded duration exactly (not bucketed).
func (h *LatencyHist) Max() sim.Time { return h.max }

// Percentile reports the q-quantile (0 < q <= 1) as the upper bound
// of the bucket holding the ceil(q*n)-th smallest recording — a
// deterministic, conservative figure within ~6% of the true value.
func (h *LatencyHist) Percentile(q float64) sim.Time {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			u := latUpper(i)
			if u > h.max {
				u = h.max // never report beyond the observed maximum
			}
			return u
		}
	}
	return h.max
}
