package amoeba

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// crashRun broadcasts four packets from machine 0 to a counting port on
// machines 1 and 2, crashes machine 1 at crashAt (never, if zero), and
// reports every figure an observer could take. Deliveries arrive faster
// than they are served (a send costs 180 µs, a receipt 210 µs), so
// machine 1 always has successors queued behind the delivery in
// service.
func crashRun(t *testing.T, nonblocking bool, crashAt sim.Time) (handled [3][]sim.Time, fig string) {
	t.Helper()
	env, nw, ms := cluster(t, 3, nil)
	for i := 1; i <= 2; i++ {
		i := i
		ms[i].Bind("sink", func(p *sim.Proc, from int, pkt Packet) {
			handled[i] = append(handled[i], p.Now())
		})
		if nonblocking {
			ms[i].BindNonblocking("sink", func(int, Packet) bool { return true })
		}
	}
	ms[0].SpawnThread("sender", func(p *sim.Proc) {
		for k := 0; k < 4; k++ {
			ms[0].Broadcast(p, Packet{Port: "sink", Kind: "test", Body: k, Size: 64})
		}
	})
	queued := -1
	if crashAt > 0 {
		env.At(crashAt, func() {
			queued = ms[1].inq.Len()
			ms[1].Crash()
		})
	}
	env.At(5*sim.Millisecond, func() {}) // the clock runs on well past the traffic
	env.Run()
	st := nw.Stats()
	fig = fmt.Sprintf("queued=%d events=%d frames=%d busy=%d/%d/%d",
		queued, env.Events(), st.Frames, ms[0].CPU().BusyTime(), ms[1].CPU().BusyTime(), ms[2].CPU().BusyTime())
	env.Shutdown()
	return handled, fig
}

// A machine that crashes while interrupt service holds its CPU on the
// dispatch lane, with further deliveries queued behind, is as dead as
// one whose interrupt thread was killed mid-charge: no handler runs
// again, the CPU stays with the dead holder (its busy time runs to the
// end of the run), and the other machines see nothing different. The
// pinned figures (events, frames, CPU busy ns per machine) were taken
// from the kernel whose interrupt service was a thread throughout.
func TestCrashDuringInlineInterrupt(t *testing.T) {
	for _, nonblocking := range []bool{false, true} {
		clean, fig := crashRun(t, nonblocking, 0)
		if want := "queued=-1 events=23 frames=4 busy=720000/840000/840000"; fig != want {
			t.Errorf("nonblocking=%t, no crash: %s, want %s", nonblocking, fig, want)
		}
		if len(clean[1]) != 4 || len(clean[2]) != 4 {
			t.Fatalf("nonblocking=%t: handled %d and %d packets, want 4 and 4", nonblocking, len(clean[1]), len(clean[2]))
		}
		for _, c := range []struct {
			name    string
			crashAt sim.Time
			handled int
			fig     string
		}{
			// 5 µs before the first handler is due: the first delivery's
			// charge holds the CPU, the second is queued.
			{"first charge", clean[1][0] - 5*sim.Microsecond, 0,
				"queued=1 events=21 frames=4 busy=720000/4685200/840000"},
			// 5 µs before the second: one handler has run, its successor's
			// charge holds the CPU, the third is queued.
			{"successor's charge", clean[1][1] - 5*sim.Microsecond, 1,
				"queued=1 events=22 frames=4 busy=720000/4685200/840000"},
		} {
			handled, fig := crashRun(t, nonblocking, c.crashAt)
			if len(handled[1]) != c.handled {
				t.Errorf("nonblocking=%t, %s: crashed machine ran %d handlers, want %d", nonblocking, c.name, len(handled[1]), c.handled)
			}
			if fmt.Sprint(handled[2]) != fmt.Sprint(clean[2]) {
				t.Errorf("nonblocking=%t, %s: bystander handled at %v, want %v", nonblocking, c.name, handled[2], clean[2])
			}
			if fig != c.fig {
				t.Errorf("nonblocking=%t, %s: %s, want %s", nonblocking, c.name, fig, c.fig)
			}
		}
	}
}

// A port's predicate decides, packet by packet and at the instant the
// handler is due, where the handler runs; the handler sees the same
// interrupt thread and the same instant either way, and a handler that
// charges CPU after being vouched for is reported, not hung.
func TestBindNonblocking(t *testing.T) {
	env, _, ms := cluster(t, 2, nil)
	var log []string
	var caught any
	ms[1].Bind("svc", func(p *sim.Proc, from int, pkt Packet) {
		defer func() {
			if r := recover(); r != nil {
				caught = r
			}
		}()
		if pkt.Body.(int)%2 == 1 {
			ms[1].Compute(p, 10*sim.Microsecond) // legal on the thread only
		}
		log = append(log, fmt.Sprintf("%d@%v by %s", pkt.Body, p.Now(), p.Name()))
	})
	ms[1].BindNonblocking("svc", func(from int, pkt Packet) bool {
		k := pkt.Body.(int)
		return k%2 == 0 || k == 3 // 3 is vouched for wrongly
	})
	ms[0].SpawnThread("sender", func(p *sim.Proc) {
		for k := 0; k < 4; k++ {
			ms[0].Send(p, 1, Packet{Port: "svc", Body: k, Size: 64})
		}
	})
	env.Run()
	env.Shutdown()
	want := "[0@524.800µs by node1/netisr 1@744.800µs by node1/netisr 2@954.800µs by node1/netisr]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("handled %s, want %s", got, want)
	}
	if caught == nil {
		t.Error("a handler that blocked on the dispatch lane was not reported")
	}
}
