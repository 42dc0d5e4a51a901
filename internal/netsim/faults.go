package netsim

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Fault injection. A FaultPlan is a declarative schedule of failures —
// machine crashes, transient partitions, per-link loss windows — that
// is installed before a run and replayed from virtual time, so a
// faulty run is exactly as deterministic as a healthy one: same seed,
// same plan, same simulation. The plan expresses the failure models
// the paper's fault-tolerance claims are about ("if the sequencer
// machine subsequently crashes, the remaining members elect a new
// one") plus the transient network faults the reliability machinery of
// the group layer is built to mask.

// Crash takes a node off the network permanently at a virtual instant.
// The network only marks the node down; the crash callback given to
// InstallFaults is responsible for killing the machine above it.
type Crash struct {
	// Node is the crashing node id.
	Node int
	// At is the virtual time of the crash.
	At sim.Time
}

// Partition cuts all links between node set A and node set B during
// [From, Until). Traffic within each side is unaffected. A healed
// partition simply stops cutting: recovering from the lost frames is
// the job of the protocols above.
type Partition struct {
	A, B        []int
	From, Until sim.Time
}

// cuts reports whether the partition separates src from dst at time t.
func (pt *Partition) cuts(src, dst int, t sim.Time) bool {
	if t < pt.From || t >= pt.Until {
		return false
	}
	return (contains(pt.A, src) && contains(pt.B, dst)) ||
		(contains(pt.B, src) && contains(pt.A, dst))
}

// LossWindow adds fragment loss probability Prob on the Src→Dst link
// during [From, Until). Src or Dst set to AnyNode matches every
// sender or receiver. Loss rolls draw from the simulation's seeded
// random source, so they are deterministic per (seed, plan).
type LossWindow struct {
	Src, Dst    int
	From, Until sim.Time
	Prob        float64
}

// AnyNode is the wildcard for LossWindow endpoints.
const AnyNode = -1

// prob reports the window's loss probability for src→dst at time t
// (zero when the window does not apply).
func (lw *LossWindow) prob(src, dst int, t sim.Time) float64 {
	if t < lw.From || t >= lw.Until {
		return 0
	}
	if lw.Src != AnyNode && lw.Src != src {
		return 0
	}
	if lw.Dst != AnyNode && lw.Dst != dst {
		return 0
	}
	return lw.Prob
}

// FaultPlan is a failure schedule for one run.
type FaultPlan struct {
	Crashes    []Crash
	Partitions []Partition
	Losses     []LossWindow
}

// Validate reports the first reason the plan cannot run on a network of
// nodes nodes, or nil: a crash, a partition side or a loss window that
// names a node outside [0, nodes) (AnyNode apart), a window whose Until
// is not after its From, or a loss probability outside [0, 1].
func (p *FaultPlan) Validate(nodes int) error {
	absent := func(n int) bool { return n < 0 || n >= nodes }
	for _, c := range p.Crashes {
		if absent(c.Node) {
			return fmt.Errorf("netsim: fault plan crashes unknown node %d", c.Node)
		}
	}
	for _, pt := range p.Partitions {
		for _, n := range slices.Concat(pt.A, pt.B) {
			if absent(n) {
				return fmt.Errorf("netsim: fault plan partitions unknown node %d", n)
			}
		}
		if pt.Until <= pt.From {
			return fmt.Errorf("netsim: fault plan partition window [%v, %v) is empty", pt.From, pt.Until)
		}
	}
	for _, lw := range p.Losses {
		switch {
		case lw.Src != AnyNode && absent(lw.Src) || lw.Dst != AnyNode && absent(lw.Dst):
			return fmt.Errorf("netsim: fault plan loss window %d->%d names an unknown node", lw.Src, lw.Dst)
		case lw.Until <= lw.From:
			return fmt.Errorf("netsim: fault plan loss window [%v, %v) is empty", lw.From, lw.Until)
		case !(lw.Prob >= 0 && lw.Prob <= 1):
			return fmt.Errorf("netsim: fault plan loss probability %v is outside [0, 1]", lw.Prob)
		}
	}
	return nil
}

// InstallFaults arms a fault plan on the network. Each crash entry is
// scheduled at its instant; onCrash, when non-nil, performs the actual
// crash (the kernel layer passes a callback that kills the machine),
// otherwise the node is only marked down at the wire. Partitions and
// loss windows become link filters consulted on every delivery.
// Installing a plan on a network that already has one, or a plan that
// fails Validate, panics; a nil plan is a no-op, and a healthy run with
// no plan takes exactly the pre-fault code paths (bit-identical
// schedules).
func (nw *Network) InstallFaults(plan *FaultPlan, onCrash func(node int)) {
	if plan == nil {
		return
	}
	if nw.faults != nil {
		panic("netsim: fault plan already installed")
	}
	if err := plan.Validate(nw.n); err != nil {
		panic(err.Error())
	}
	nw.faults = plan
	for _, c := range plan.Crashes {
		node := c.Node
		nw.env.At(c.At, func() {
			if onCrash != nil {
				onCrash(node)
				return
			}
			nw.SetDown(node, true)
		})
	}
}

// faultsActive reports whether any link fault (partition or loss
// window) can apply at time t. The broadcast fast path checks it to
// fall back to per-receiver delivery during fault windows.
func (nw *Network) faultsActive(t sim.Time) bool {
	if nw.faults == nil {
		return false
	}
	for i := range nw.faults.Partitions {
		pt := &nw.faults.Partitions[i]
		if t >= pt.From && t < pt.Until {
			return true
		}
	}
	for i := range nw.faults.Losses {
		lw := &nw.faults.Losses[i]
		if t >= lw.From && t < lw.Until {
			return true
		}
	}
	return false
}

// linkCut reports whether a partition severs src→dst at time t.
func (nw *Network) linkCut(src, dst int, t sim.Time) bool {
	if nw.faults == nil {
		return false
	}
	for i := range nw.faults.Partitions {
		if nw.faults.Partitions[i].cuts(src, dst, t) {
			return true
		}
	}
	return false
}

// linkLoss returns the per-fragment loss probability on src→dst at
// time t: the largest of the installed plan's loss windows open there,
// zero for none.
func (nw *Network) linkLoss(src, dst int, t sim.Time) float64 {
	if nw.faults == nil {
		return 0
	}
	p := 0.0
	for i := range nw.faults.Losses {
		if q := nw.faults.Losses[i].prob(src, dst, t); q > p {
			p = q
		}
	}
	return p
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
