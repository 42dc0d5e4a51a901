package main

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// The rate ladder runs a kv workload's configuration for two virtual
// seconds at multiples of its stated rate. It is deterministic, so one
// pass is enough. Latency inside kv.Run is timed from each request's
// scheduled arrival, so a client that falls behind charges its backlog
// to the tail; there is no wall-clock generator that could run late.
var ladderMults = []float64{0.05, 0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3}

const (
	ladderSeconds = 2.0
	ladderP99     = 20 * sim.Millisecond // latency limit on kv.all p99
	ladderKeepUp  = 0.98                 // achieved / offered below this: the backlog grows
)

type ladderRow struct {
	Mult     float64 `json:"mult"`
	Offered  float64 `json:"offered_virtual_ops_per_s"`
	Achieved float64 `json:"achieved_virtual_ops_per_s"`
	P50US    float64 `json:"p50_virtual_us"`
	P99US    float64 `json:"p99_virtual_us"`
	Samples  int64   `json:"samples"`
	Pass     bool    `json:"pass"`
	getP50US float64
	putP50US float64
}

// rateLadder returns the rows and the knee: the highest passing rate
// below the first failing one (0 when the lowest rung fails). Offered
// load is the arrivals the generator actually drew over the horizon,
// not the nominal rate: on a short rung the Poisson count is a few
// percent off nominal, which would fail a rung that kept up.
func rateLadder(s *kvSpec, name string, seed int64, scale float64) ([]ladderRow, float64, error) {
	dur := ladderSeconds * min(scale*10, 1) // the smoke test's rungs are shorter
	var rows []ladderRow
	knee, failed := 0.0, false
	for _, m := range ladderMults {
		r := s.run(seed, m, dur, false)
		if r.Report.TimedOut || r.LostAcked != 0 {
			return nil, 0, fmt.Errorf("%s ladder at %.2fx: timed out %v, %d acknowledged writes lost",
				name, m, r.Report.TimedOut, r.LostAcked)
		}
		lat := r.Report.Latency
		row := ladderRow{Mult: m, Offered: float64(r.Ops) / dur, Achieved: r.Throughput,
			P50US: lat["kv.all"].Percentile(0.50).Microseconds(), P99US: lat["kv.all"].Percentile(0.99).Microseconds(),
			Samples:  r.Ops,
			getP50US: lat["kv.get"].Percentile(0.50).Microseconds(), putP50US: lat["kv.put"].Percentile(0.50).Microseconds()}
		row.Pass = lat["kv.all"].Percentile(0.99) <= ladderP99 && row.Achieved >= ladderKeepUp*row.Offered
		if !row.Pass {
			failed = true
		} else if !failed {
			knee = s.rate * m
		}
		rows = append(rows, row)
	}
	return rows, knee, nil
}

// ladderMetrics turns the ladder into the per-layer figures that need
// it: the knee, and how long a get and a put waited for a busy
// sequencer, CPU or bus (median at the stated rate less the median on
// the unloaded 0.05x rung).
func ladderMetrics(rows []ladderRow, knee float64, into map[string]float64) {
	var idle, stated ladderRow
	for _, r := range rows {
		switch r.Mult {
		case ladderMults[0]:
			idle = r
		case 1:
			stated = r
		}
	}
	into["apps.kv.knee_virtual_ops_per_s"] = knee
	into["apps.kv.get_wait_virtual_us"] = stated.getP50US - idle.getP50US
	into["apps.kv.put_wait_virtual_us"] = stated.putP50US - idle.putP50US
}

func printLadder(w io.Writer, name string, rows []ladderRow, knee float64) {
	fmt.Fprintf(w, "\nrate ladder %s (pass: kv.all p99 <= %v and achieved >= %.2f x offered)\n", name, ladderP99, ladderKeepUp)
	fmt.Fprintf(w, "  %5s %12s %12s %12s %12s %8s %s\n", "x", "offered/s", "achieved/s", "p50 us", "p99 us", "samples", "pass")
	for _, r := range rows {
		fmt.Fprintf(w, "  %5.2f %12.1f %12.1f %12.1f %12.1f %8d %v\n", r.Mult, r.Offered, r.Achieved, r.P50US, r.P99US, r.Samples, r.Pass)
	}
	fmt.Fprintf(w, "  knee: %.0f virtual ops/s\n", knee)
}
