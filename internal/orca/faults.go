package orca

import (
	"sort"

	"repro/internal/sim"
)

// Fault execution. A Config.Faults plan makes machine crashes part of
// the simulated program: at each crash instant the runtime takes the
// machine down in one cascade — kernel, threads, process accounting,
// runtime-system routing — so the surviving processes keep running
// against a smaller machine. The paper's claim that "if the sequencer
// machine subsequently crashes, the remaining members elect a new one"
// (and, more broadly, that the shared-object model hides machine
// boundaries) is exercised end-to-end by crash plans: the group layer
// re-elects, the runtime systems re-route and re-home, and the
// application either tolerates the lost processes or re-issues their
// work (see the crash-aware TSP and ACP variants in internal/apps).

// CrashRecord reports one executed crash.
type CrashRecord struct {
	// Node is the crashed machine.
	Node int
	// At is the virtual time of the crash.
	At sim.Time
	// ProcsKilled is how many live Orca processes died on the machine.
	ProcsKilled int
	// ForksReaped is how many in-flight forks targeting the machine
	// were abandoned.
	ForksReaped int
}

// procRec tracks one Orca process for crash accounting: when its
// machine crashes the runtime settles the process's liveness here and
// the thread's own exit path (which never runs again) is skipped.
type procRec struct {
	node int
	done bool
}

// crashNode executes one fault-plan crash: kill the machine (which
// kills every thread on it), settle the liveness accounting of the
// Orca processes that died, abandon in-flight forks targeting the
// machine, and tell the runtime system so it routes around the corpse.
// Runs in event context at the crash instant.
func (rt *Runtime) crashNode(node int) {
	m := rt.machines[node]
	if m.Crashed() {
		return
	}
	rec := CrashRecord{Node: node, At: rt.env.Now()}
	m.Crash()
	for _, pr := range rt.procs {
		if pr.node == node && !pr.done {
			pr.done = true
			rec.ProcsKilled++
			rt.liveProcs--
		}
	}
	// In-flight forks die with either endpoint. A fork *targeting* the
	// dead machine will never start (its message is undeliverable or
	// lands on a dead object manager); a fork *from* the dead machine
	// may never have reached the sequencer, and its sender can no
	// longer retransmit, so it is abandoned too (if its message does
	// arrive, startFork finds no entry and ignores it). Both were
	// counted live at Fork time.
	for fid, fe := range rt.forks {
		if fe.cpu == node || fe.origin == node {
			delete(rt.forks, fid)
			rec.ForksReaped++
			rt.liveProcs--
		}
	}
	rt.sys.NodeCrashed(node)
	rt.crashes = append(rt.crashes, rec)
	rt.env.Tracef("orca: node %d crashed (%d procs, %d forks reaped)", node, rec.ProcsKilled, rec.ForksReaped)
	if rt.liveProcs == 0 {
		rt.env.Stop()
	}
}

// DeadNodes reports the machines crashed so far, in ascending order.
// Crash-aware programs poll it (worker liveness is not a shared
// object: it changes underneath the consistency protocols).
func (rt *Runtime) DeadNodes() []int {
	var out []int
	for _, c := range rt.crashes {
		out = append(out, c.Node)
	}
	sort.Ints(out)
	return out
}

// Crashes reports the executed crash records so far.
func (rt *Runtime) Crashes() []CrashRecord {
	return append([]CrashRecord(nil), rt.crashes...)
}

// DeadNodes reports the machines that have crashed so far, ascending.
func (p *Proc) DeadNodes() []int { return p.rt.DeadNodes() }

// NodeDown reports whether a machine has crashed.
func (p *Proc) NodeDown(node int) bool { return p.rt.machines[node].Crashed() }
