package sim

import (
	"fmt"
	"iter"
	"os"
	"runtime/debug"
	"sync"
)

// Proc is a cooperatively scheduled simulated process. Its body runs as
// a coroutine (iter.Pull) that the driver loop of Run/RunUntil resumes:
// at most one Proc (or event handler) executes at a time, and control
// passes between them without a trip through the Go scheduler. Blocking
// primitives (Sleep, Cond.Wait, Resource.Use, ...) park the process and
// return control to the driver.
type Proc struct {
	env        *Env
	name       string
	fn         func(p *Proc)
	co         *coro  // the coroutine the body runs on, from its start to its end or reaping
	resumeFn   func() // see Resume; bound once
	terminated bool
	killed     bool
	parked     bool // suspended (or committed to suspending); see park
}

// Claimant returns a process record that is never spawned: the name
// in which a consumer with no process behind it (see Queue.Serve)
// claims resources and waits on conditions, through continuations. It
// has no body and no coroutine, so a blocking call with it panics, and
// LiveProcs and Blocked do not count it. Kill kills it: whatever is then
// due on its behalf — an offer, a grant, the end of a hold, a wake-up —
// is discarded, as a killed process's wake-ups are.
func (e *Env) Claimant(name string) *Proc { return &Proc{env: e, name: name, parked: true} }

// Spawn creates a process named name running fn and schedules it to
// start at the current virtual time. It may be called before Run (to
// seed the simulation) or from simulation context (to fork).
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is Spawn with an explicit start time.
func (e *Env) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, fn: fn}
	p.resumeFn = func() { e.handoff(p) }
	e.live[p] = struct{}{}
	e.Schedule(t, p.resumeFn)
	return p
}

// coro is a coroutine that runs one process body after another: a body
// that ends (or is reaped) leaves it idle in pool, for the next process
// of any environment to start on. An iter.Pull costs 12 allocations, a
// whole spawn on a goroutine with a channel cost 6, and most processes
// of a large run are still parked when Shutdown reaps them: with a
// coroutine per process a P = 64 TSP allocated 18 % more per operation
// than with goroutines, pooled it allocates 4 % less.
type coro struct {
	next  func() (ended bool, ok bool)
	stop  func()
	yield func(ended bool) bool
	p     *Proc
}

// poolCap bounds the idle coroutines kept for reuse; a coroutine freed
// beyond it is stopped, and its goroutine exits. It is far above what
// one run needs at once: a repetition of the P = 64 TSP benchmark (two
// runs) has at most 65 processes, and so coroutines, alive at a time
// (1 153 while the runtime's servers were threads), and several
// environments on several goroutines share the pool.
const poolCap = 4096

// pool is the free list of idle coroutines, shared by every Env. It is
// not a sync.Pool: a coroutine that one dropped at a GC would leave its
// goroutine parked for ever.
var pool struct {
	sync.Mutex
	idle []*coro
}

func getCoro(p *Proc) *coro {
	pool.Lock()
	var c *coro
	if n := len(pool.idle); n > 0 {
		c = pool.idle[n-1]
		pool.idle[n-1] = nil
		pool.idle = pool.idle[:n-1]
	}
	pool.Unlock()
	if c == nil {
		c = new(coro)
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p = p
	return c
}

// putCoro makes c, whose body has ended, available to the next process.
func putCoro(c *coro) {
	c.p = nil
	pool.Lock()
	keep := len(pool.idle) < poolCap
	if keep {
		pool.idle = append(pool.idle, c)
	}
	pool.Unlock()
	if !keep {
		c.stop()
	}
}

// loop is the sequence a coroutine's iter.Pull runs: a body, then a
// yield reporting it ended, then the next body.
func (c *coro) loop(yield func(bool) bool) {
	c.yield = yield
	for {
		c.p.run()
		if !yield(true) {
			return // stopped while idle
		}
	}
}

// errReaped is what a reaped body unwinds with (see Env.Shutdown).
type errReaped struct{}

// run is the top frame of p's body. It ends the unwinding of a reaped
// body and nothing else: any other panic ends the coroutine, which
// iter.Pull re-raises, with the same value, in whoever resumed it — the
// driver, and so the caller of Run — and a coroutine that ended that way
// is never pooled. Only the value crosses, so the stack the panic was
// raised on is written to stderr first.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil && r != any(errReaped{}) {
			fmt.Fprintf(os.Stderr, "sim: process %s panicked: %v\n%s", p.name, r, debug.Stack())
			panic(r)
		}
	}()
	p.fn(p)
}

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// park suspends the process until another chain of control resumes
// it. All blocking primitives funnel through here. The parking
// process first dispatches onward itself (see Env.advance): if its own
// resume comes up it returns without a switch; otherwise it names the
// process that got the baton as the driver's next target and yields.
//
// Code that runs on the dispatch lane in the name of a claimant (see
// Env.Claimant) or of a parked process has nothing it may park: a
// claimant counts as parked for good, and reaching a blocking
// primitive with either panics here.
func (p *Proc) park() {
	if p.parked {
		panic("sim: " + p.name + " blocks while already parked (code on the dispatch lane reached a blocking call)")
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
// same way, so that a thread and a consumer with no process behind it
// (see Queue.Serve) run one implementation.
func (p *Proc) Park() { p.park() }

// Resume returns the continuation that ends p's Park: it gives p the
// rest of the event it runs in (see Env.handoff), so p continues in the
// slot a wake-up of its own would have had. If it runs before p parks,
// within p's own step, the park returns at once.
func (p *Proc) Resume() func() { return p.resumeFn }

// wait is the second half of park, for a caller that marked the
// process parked itself. A process is resumed after its yield by the
// driver, which never resumes a killed one, or by Shutdown reaping it;
// a reaped body that recovers and parks again is unwound again here.
func (p *Proc) wait() {
	e := p.env
	if !e.reaping {
		if next := e.advance(p); next != p {
			e.target = next
			p.co.yield(false)
		}
	}
	p.parked = false
	if e.reaping {
		panic(errReaped{})
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
