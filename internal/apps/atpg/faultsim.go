package atpg

// Event-driven fault simulation: given the good-circuit values for a
// pattern, propagate only the differences a fault causes through its
// fanout cone. Typical faults touch a few dozen gates, which is what
// makes fault simulation so much cheaper than running PODEM for every
// fault — the optimization the paper evaluates ("If a test pattern has
// been computed for a certain gate, this pattern will probably test
// other gates in the circuit as well").

// FaultSimulator amortizes allocations across many fault checks for
// one pattern.
type FaultSimulator struct {
	c       *Circuit
	good    []V3
	faulty  []V3
	dirty   []bool
	touched []int
	// GateEvals accumulates evaluation counts for CPU accounting.
	GateEvals int64
}

// NewFaultSimulator prepares a simulator for one pattern (binary
// inputs). The good-circuit simulation is charged to GateEvals.
func NewFaultSimulator(c *Circuit, pattern []V3) *FaultSimulator {
	fs := &FaultSimulator{
		c:      c,
		faulty: make([]V3, c.Lines()),
		dirty:  make([]bool, c.Lines()),
	}
	fs.good = SimulateGood(c, pattern, &fs.GateEvals)
	return fs
}

// Detects reports whether the pattern detects the fault, evaluating
// only gates in the changed cone.
func (fs *FaultSimulator) Detects(fault Fault) bool {
	stuck := V3(F3)
	if fault.StuckAt == 1 {
		stuck = T3
	}
	if fs.good[fault.Line] == stuck {
		return false // fault not activated by this pattern
	}
	c := fs.c
	// reset scratch from the previous query
	for _, li := range fs.touched {
		fs.dirty[li] = false
	}
	fs.touched = fs.touched[:0]

	mark := func(li int, v V3) {
		fs.faulty[li] = v
		fs.dirty[li] = true
		fs.touched = append(fs.touched, li)
	}
	mark(fault.Line, stuck)
	val := func(li int) V3 {
		if fs.dirty[li] {
			return fs.faulty[li]
		}
		return fs.good[li]
	}
	// Gates are topologically ordered, so a single ascending sweep
	// over gates fed by dirty lines is an event-driven simulation.
	var ins [8]V5
	for gi := fault.Line + 1; gi < c.Lines(); gi++ {
		g := c.Gates[gi]
		if g.Type == Input || fs.dirty[gi] {
			continue
		}
		affected := false
		for _, in := range g.Ins {
			if fs.dirty[in] {
				affected = true
				break
			}
		}
		if !affected {
			continue
		}
		vals := ins[:0]
		for _, in := range g.Ins {
			v := val(in)
			vals = append(vals, V5{v, v})
		}
		fs.GateEvals++
		nv := EvalGate(g.Type, vals).G
		if nv != fs.good[gi] {
			mark(gi, nv)
		}
	}
	for _, out := range c.Outputs {
		if fs.dirty[out] && fs.faulty[out] != fs.good[out] {
			return true
		}
	}
	return false
}

// SeqResult is the outcome of the sequential ATPG baseline.
type SeqResult struct {
	Detected   int
	Aborted    int
	Untestable int
	Patterns   int
	GateEvals  int64
}

// SolveSeq runs the sequential ATPG flow over all faults, optionally
// with fault simulation after each generated pattern.
func SolveSeq(c *Circuit, faults []Fault, maxBacktracks int, faultSim bool) SeqResult {
	res := SeqResult{}
	detected := make([]bool, len(faults))
	for fi, f := range faults {
		if detected[fi] {
			continue
		}
		pr := Podem(c, f, maxBacktracks)
		res.GateEvals += pr.GateEvals
		switch {
		case pr.Detected:
			res.Patterns++
			detected[fi] = true
			res.Detected++
			if faultSim {
				fs := NewFaultSimulator(c, pr.Pattern)
				for oi := range faults {
					if !detected[oi] && fs.Detects(faults[oi]) {
						detected[oi] = true
						res.Detected++
					}
				}
				res.GateEvals += fs.GateEvals
			}
		case pr.Aborted:
			res.Aborted++
		default:
			res.Untestable++
		}
	}
	return res
}
