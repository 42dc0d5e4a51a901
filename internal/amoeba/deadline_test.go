package amoeba

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// arm arms a kernel deadline on m: round runs in interrupt context d
// from now, unless the returned cancel comes first. A script cancels a
// deadline at most once, and never after its round has started.
func arm(m *Machine, d sim.Time, round func(p *sim.Proc)) (cancel func()) {
	return m.Deadline(d, round).Cancel
}

// deadlineScript runs one scripted case on a two-machine cluster and
// returns every round's instant in the order the rounds ran, and the
// events the run dispatched. Node 0 arms the deadlines; "busy" is a
// round due at 1 ms, armed before anything else, whose send keeps
// node 0's interrupt service busy until 1.180 ms, so that a deadline
// that fires at 1 ms has its round queued behind it.
func deadlineScript(t *testing.T, script string) string {
	t.Helper()
	env, _, ms := cluster(t, 2, nil)
	defer env.Shutdown()
	ms[1].Bind("sink", func(*sim.Proc, int, Packet) {})
	m := ms[0]
	var log []string
	round := func(name string) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			if p != m.isr {
				t.Errorf("%s: round ran as %s, not the interrupt claimant", name, p.Name())
			}
			log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
		}
	}
	busy := func() {
		arm(m, sim.Millisecond, func(p *sim.Proc) {
			round("busy")(p)
			m.SendOn(p, 1, Packet{Port: "sink", Size: 8}, sim.Func(func() {}))
		})
	}
	at := func(when sim.Time, fn func()) { env.At(when, fn) }
	switch script {
	case "fire":
		arm(m, 3*sim.Millisecond, round("a"))
		arm(m, 2*sim.Millisecond, round("b"))
		arm(m, 3*sim.Millisecond, round("c"))
	case "cancel before firing":
		cancel := arm(m, 5*sim.Millisecond, round("a"))
		arm(m, 5*sim.Millisecond, round("b"))
		at(2*sim.Millisecond, cancel)
		at(4*sim.Millisecond, func() { arm(m, 3*sim.Millisecond, round("c")) })
	case "cancel after firing":
		busy()
		cancel := arm(m, sim.Millisecond, round("a"))
		at(1100*sim.Microsecond, cancel) // a has fired; its round waits behind busy
	case "re-arm while the round waits":
		// A packer's shape: its deadline fires while interrupt service is
		// busy, a flush on MaxOps cancels it and the next op arms it
		// again. Both rounds run.
		busy()
		cancel := arm(m, sim.Millisecond, round("a"))
		at(1100*sim.Microsecond, func() {
			cancel()
			arm(m, 500*sim.Microsecond, round("a again"))
		})
		at(2*sim.Millisecond, func() { arm(m, sim.Millisecond, round("b")) })
	case "cancel and re-arm in one instant":
		// The cancelled firing is already due: its record is reused while
		// the event still waits among those due now.
		at(2*sim.Millisecond, func() {
			arm(m, 0, round("a"))()
			arm(m, 0, round("b"))
			arm(m, sim.Millisecond, round("c"))
		})
	case "crash with a round pending":
		busy()
		arm(m, sim.Millisecond, round("a"))
		arm(m, 2*sim.Millisecond, round("b"))
		at(1100*sim.Microsecond, m.Crash)
	default:
		t.Fatalf("unknown script %q", script)
	}
	env.Run()
	return fmt.Sprintf("%s; events %d", strings.Join(log, " "), env.Events())
}

// A kernel deadline's round runs in interrupt context at the instant it
// fires, or behind the interrupt work queued before it. A cancel before
// the firing removes the round, even one already due at this instant; one
// after it leaves the queued round alone, and a deadline armed again
// meanwhile runs a round of its own. A machine that crashes drops every
// round still to run. The pins were
// taken with Machine.After, which allocated an event and a closure per
// arm; every form must keep each round's instant and order and the
// events of the run.
func TestDeadlineScript(t *testing.T) {
	for _, c := range []struct{ script, want string }{
		{"fire", "b@2.000ms a@3.000ms c@3.000ms; events 7"},
		{"cancel before firing", "b@5.000ms c@7.000ms; events 8"},
		{"cancel after firing", "busy@1.000ms a@1.180ms; events 10"},
		{"re-arm while the round waits", "busy@1.000ms a@1.180ms a again@1.600ms b@3.000ms; events 15"},
		{"cancel and re-arm in one instant", "b@2.000ms c@3.000ms; events 7"},
		{"crash with a round pending", "busy@1.000ms; events 8"},
	} {
		if got := deadlineScript(t, c.script); got != c.want {
			t.Errorf("%s: %s, want %s", c.script, got, c.want)
		}
	}
}

// A deadline allocates nothing once its machine holds as many records as
// it ever has deadlines pending: an arm takes the record that the last
// round or cancel gave back.
func TestDeadlineAllocations(t *testing.T) {
	skipUnderRace(t)
	env, _, ms := cluster(t, 1, nil)
	defer env.Shutdown()
	m := ms[0]
	rounds := 0
	round := func(*sim.Proc) { rounds++ }
	cycle := func() {
		m.Deadline(sim.Millisecond, round)
		m.Deadline(2*sim.Millisecond, round).Cancel()
		env.RunUntil(env.Now() + 3*sim.Millisecond)
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 || rounds != 102 {
		t.Errorf("%v allocations a cycle over %d rounds, want none over 102", a, rounds)
	}
}
