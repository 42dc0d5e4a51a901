package sim

import "runtime"

// Proc is a cooperatively scheduled simulated process. A Proc runs on
// its own goroutine, but the scheduler guarantees that at most one Proc
// (or event handler) executes at a time, handing control back and forth
// through channel handshakes. Blocking primitives (Sleep, Cond.Wait,
// Resource.Use, ...) park the process and return control to the
// scheduler.
type Proc struct {
	env        *Env
	name       string
	resume     chan struct{}
	resumeFn   func() // see Resume; bound once
	terminated bool
	killed     bool
	parked     bool // suspended (or committed to suspending); see park
	reaped     bool // unwound via Goexit; must not touch scheduler state
}

// Spawn creates a process named name running fn and schedules it to
// start at the current virtual time. It may be called before Run (to
// seed the simulation) or from simulation context (to fork).
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is Spawn with an explicit start time.
func (e *Env) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, resume: make(chan struct{})}
	p.resumeFn = func() { e.handoff(p) }
	e.live[p] = struct{}{}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		<-p.resume // wait for the start event
		if p.killed {
			return
		}
		defer func() {
			if p.reaped {
				// This goroutine is being reaped via Goexit (Shutdown,
				// or a mid-run Kill caught at a park); the reaper owns
				// the scheduler state, and several reaped goroutines
				// run concurrently, so no shared state may be touched
				// here.
				return
			}
			// A process that was killed while executing but ran to
			// completion still holds the scheduling baton and must
			// pass it on like a normal termination.
			p.terminated = true
			delete(e.live, p)
			// Pass the scheduling baton onward one last time: the
			// dying goroutine dispatches until control lands on
			// another process (or the run's caller) and then exits.
			e.advance(p)
		}()
		fn(p)
	}()
	e.Schedule(t, p.resumeFn)
	return p
}

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// park suspends the process until another chain of control resumes
// it. All blocking primitives funnel through here. The parking
// goroutine first advances the dispatch loop itself (see Env.advance);
// if its own resume event comes up it returns without ever blocking,
// otherwise control was handed off and it waits on its resume channel.
//
// Code that runs on the dispatch lane on behalf of a parked process
// (an inline queue consumer, a Resource continuation) is handed that
// process for identity and for Now; if it reaches a blocking primitive
// with it, the process would be parked twice. That is a broken
// "declines before it can block" contract and panics here.
func (p *Proc) park() {
	if p.parked {
		panic("sim: " + p.name + " blocks while already parked (an inline handler reached a blocking call)")
	}
	p.parked = true
	p.wait()
}

// Park suspends p until the continuation Resume returns has run. A
// blocking primitive is its continuation form followed by a park:
//
//	r.UseFn(p, d, p.Resume())
//	p.Park()
//
// is Resource.Use, and the layers above build their blocking calls the
// same way, so that a thread and the code standing in for it while it is
// parked elsewhere (see Queue.Serve) run one implementation.
func (p *Proc) Park() { p.park() }

// Resume returns the continuation that ends p's Park: it gives p the
// rest of the event it runs in (see Env.handoff), so p continues in the
// slot a wake-up of its own would have had. If it runs before p parks,
// within p's own step, the park returns at once.
func (p *Proc) Resume() func() { return p.resumeFn }

// wait is the second half of park, for a caller that marked the
// process parked itself.
func (p *Proc) wait() {
	if !p.env.advance(p) {
		<-p.resume
	}
	p.parked = false
	if p.killed {
		// Killed (machine crash mid-run, or Shutdown reaping): unwind
		// this goroutine. Deferred handlers must not touch the
		// scheduler on this path — the baton was already handed off
		// before the park blocked.
		p.reaped = true
		runtime.Goexit()
	}
}

// Killed reports whether the process has been killed (its machine
// crashed, or Shutdown reaped it). Cleanup code that may run while the
// process unwinds uses it to avoid touching shared state.
func (p *Proc) Killed() bool { return p.killed }

// Terminated reports whether the process body has returned. The
// kernel layer uses it to prune dead threads from its bookkeeping.
func (p *Proc) Terminated() bool { return p.terminated }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.env.Schedule(p.env.now+d, p.resumeFn)
	p.park()
}

// Yield reschedules the process at the current time, letting any other
// event already queued for this instant run first.
func (p *Proc) Yield() { p.Sleep(0) }
