package repro

// Engine benchmark suite: microbenchmarks of the simulation kernel's
// hot paths, reporting events/sec alongside the usual wall-clock and
// allocation measurements. These isolate the scheduler itself — the
// ready queue, the event pool, the coroutine switch of a park/resume,
// and the synchronization primitives — from the protocol stack above
// it, so a kernel regression is visible before it smears across every
// experiment. These are for measuring while you work (go test -bench
// Engine .); the numbers that gate a change are bench/'s sim.* rungs.

import (
	"testing"

	"repro/internal/sim"
)

// reportEvents attaches the events/sec metric from an environment's
// dispatch counter.
func reportEvents(b *testing.B, e *sim.Env) {
	b.ReportMetric(float64(e.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineYield measures the same-instant wakeup path: a Yield
// is one ready-queue append plus one resume, the cheapest possible
// reschedule. With a single process every resume is a self-handoff:
// the parking process dispatches its own wake-up and never switches.
func BenchmarkEngineYield(b *testing.B) {
	e := sim.New(1)
	e.Spawn("yielder", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineYieldPingPong measures the process switch: two
// processes alternating at the same instant, so every dispatch yields
// one coroutine to the driver loop, which resumes the other.
func BenchmarkEngineYieldPingPong(b *testing.B) {
	e := sim.New(1)
	for i := 0; i < 2; i++ {
		e.Spawn("ponger", func(p *sim.Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineSleep measures the timed path through the binary
// heap: staggered sleepers keep a populated heap, the worst case the
// ready queue cannot absorb.
func BenchmarkEngineSleep(b *testing.B) {
	e := sim.New(1)
	const procs = 16
	for i := 0; i < procs; i++ {
		d := sim.Time(i + 1)
		e.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < b.N/procs; i++ {
				p.Sleep(d)
			}
		})
	}
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineCondBroadcast measures condition-variable fan-out:
// one broadcaster repeatedly waking a pack of waiters, the pattern of
// guard re-evaluation after every applied write.
func BenchmarkEngineCondBroadcast(b *testing.B) {
	e := sim.New(1)
	c := sim.NewCond(e)
	const waiters = 8
	stop := false
	for i := 0; i < waiters; i++ {
		e.Spawn("waiter", func(p *sim.Proc) {
			for !stop {
				c.Wait(p)
			}
		})
	}
	e.Spawn("broadcaster", func(p *sim.Proc) {
		for i := 0; i < b.N/waiters; i++ {
			c.Broadcast()
			p.Yield()
		}
		stop = true
		c.Broadcast()
	})
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineQueue measures the mailbox handoff: a producer and a
// consumer alternating through a sim.Queue, the kernel's interrupt-
// and delivery-stream pattern.
func BenchmarkEngineQueue(b *testing.B) {
	e := sim.New(1)
	q := sim.NewQueue[int](e)
	e.Spawn("consumer", func(p *sim.Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Yield()
		}
		q.Close()
	})
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineResource measures contended CPU scheduling: several
// threads taking turns on one resource, each turn a sleep on the heap
// plus a wakeup on the ready queue.
func BenchmarkEngineResource(b *testing.B) {
	e := sim.New(1)
	r := sim.NewResource(e)
	const procs = 4
	for i := 0; i < procs; i++ {
		e.Spawn("user", func(p *sim.Proc) {
			for i := 0; i < b.N/procs; i++ {
				r.Use(p, sim.Microsecond)
			}
		})
	}
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineTimerCancel measures the cancellation path: arming
// and cancelling retransmission-style timers that never fire.
func BenchmarkEngineTimerCancel(b *testing.B) {
	e := sim.New(1)
	e.Spawn("armer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ev := p.Env().After(sim.Second, func() {})
			ev.Cancel()
			p.Yield()
		}
	})
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineFanOut measures a broadcast's interrupts: one callback
// — a frame's arrival — claims the CPUs of 32 machines, whose holds all
// end at one instant, and the last hold to end schedules the next
// arrival. The 32 expiries are pushed back to back for one instant, so
// they share one heap slot as a run; the heap also holds a spread of
// far-off timers, as a protocol's retransmission timers keep it
// populated. ns/event is the wall time per dispatched event.
func BenchmarkEngineFanOut(b *testing.B) {
	e := sim.New(1)
	const fanout, timers = 32, 64
	cpus := make([]*sim.Resource, fanout)
	owners := make([]*sim.Proc, fanout)
	for i := range cpus {
		cpus[i] = sim.NewResource(e)
		owners[i] = e.Spawn("cpu", func(p *sim.Proc) { p.Park() })
	}
	for i := 0; i < timers; i++ {
		e.At(sim.Time(i+1)*sim.Second*1000, func() {})
	}
	rounds, served := b.N/(fanout+1), 0
	var arrive func()
	next := func() {
		if served++; served%fanout == 0 && served/fanout < rounds {
			e.Schedule(e.Now()+sim.Microsecond, arrive)
		}
	}
	arrive = func() {
		for i, r := range cpus {
			r.UseFrontOn(owners[i], 10*sim.Microsecond, sim.Func(next))
		}
	}
	e.Schedule(0, arrive)
	b.ResetTimer()
	e.RunUntil(sim.Second * 1000)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Events()), "ns/event")
	reportEvents(b, e)
	e.Shutdown()
}
