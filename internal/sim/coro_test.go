package sim

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
)

// The tests below hold the driver and its pooled coroutines to their
// contract: a panic reaches Run, Shutdown reaps exactly what is parked,
// a dead coroutine is never reused, and a spawn or a switch costs what
// its budget says.

// skipUnderRace skips an allocation budget when the race detector, which
// allocates on its own account, is on.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts mean nothing under the race detector")
			}
		}
	}
}

// pooled reports whether c is idle in the coroutine pool.
func pooled(c *coro) bool {
	pool.Lock()
	defer pool.Unlock()
	return slices.Contains(pool.idle, c)
}

// spawnHeavy runs waves of processes that fork, sleep, kill one another
// and end, and returns what it observed; two calls must agree.
func spawnHeavy(seed int64) string {
	e := New(seed)
	c := NewCond(e)
	ended, deferred := 0, 0
	var victims []*Proc
	for i := 0; i < 40; i++ {
		e.SpawnAt(Time(i%7), fmt.Sprint("w", i), func(p *Proc) {
			defer func() { deferred++ }()
			p.Sleep(Time(e.Rand().Intn(20)))
			child := e.Spawn("child", func(q *Proc) {
				q.Sleep(Time(e.Rand().Intn(20)))
				ended++
			})
			if i%3 == 0 {
				victims = append(victims, child)
			}
			if i%5 == 0 {
				c.Wait(p) // parked at the end: reaped by Shutdown
			}
			p.Yield()
			ended++
		})
	}
	e.At(8, func() {
		for _, v := range victims {
			e.Kill(v)
		}
	})
	end := e.Run()
	blocked := len(e.Blocked())
	before := deferred
	e.Shutdown()
	return fmt.Sprintf("end=%v events=%d ended=%d blocked=%d deferred=%d/%d live=%d", end, e.Events(), ended, blocked, before, deferred, e.LiveProcs())
}

// A panic in a process body, or in an event handler that a parking
// process dispatches, ends the run and is re-raised by Run on the
// caller's goroutine with the same value. The coroutine it killed is not
// pooled: a fresh environment then runs correctly.
func TestProcessPanicReachesRun(t *testing.T) {
	type boom struct{ where string }
	want := spawnHeavy(3)
	for _, c := range []struct {
		where string
		setUp func(e *Env) *Proc // returns the process whose coroutine dies
	}{
		{"body", func(e *Env) *Proc {
			return e.Spawn("panicker", func(p *Proc) {
				p.Sleep(10)
				panic(boom{"body"})
			})
		}},
		{"handler", func(e *Env) *Proc {
			e.At(10, func() { panic(boom{"handler"}) })
			return e.Spawn("dispatcher", func(p *Proc) { p.Sleep(10) }) // parks; dispatches the handler itself
		}},
	} {
		e := New(1)
		bystander := NewCond(e)
		unwound := false
		e.Spawn("bystander", func(p *Proc) {
			defer func() { unwound = true }()
			bystander.Wait(p)
		})
		dies := c.setUp(e)
		got := func() (r any) {
			defer func() { r = recover() }()
			e.Run()
			return nil
		}()
		if got != any(boom{c.where}) {
			t.Fatalf("panic in a %s: Run re-panicked with %#v", c.where, got)
		}
		dead := dies.co
		e.Shutdown()
		if !unwound {
			t.Errorf("panic in a %s: the parked bystander was not reaped", c.where)
		}
		if dead == nil || pooled(dead) {
			t.Fatalf("panic in a %s: the coroutine it ended went back to the pool", c.where)
		}
		if got := spawnHeavy(3); got != want {
			t.Fatalf("panic in a %s: a fresh run then observed\n  %s\nwant\n  %s", c.where, got, want)
		}
	}
}

// Shutdown reaps what is parked, once; a process killed mid-run is never
// resumed by the driver; a body that swallows the reap is unwound again
// at its next park. Every reaped coroutine goes back to the pool.
func TestShutdownReapsParkedProcesses(t *testing.T) {
	t.Run("deferred calls run once, at Shutdown", func(t *testing.T) {
		e := New(1)
		c := NewCond(e)
		deferred, killed := 0, 0
		var procs []*Proc
		for i := 0; i < 3; i++ {
			procs = append(procs, e.Spawn("parked", func(p *Proc) {
				defer func() {
					deferred++
					if p.Killed() {
						killed++
					}
				}()
				c.Wait(p)
				t.Error("a parked process woke")
			}))
		}
		e.Run()
		if deferred != 0 {
			t.Fatalf("%d deferred calls ran before Shutdown", deferred)
		}
		var cos []*coro
		for _, p := range procs {
			cos = append(cos, p.co)
		}
		e.Shutdown()
		e.Shutdown()
		if deferred != 3 || killed != 3 || e.LiveProcs() != 0 {
			t.Errorf("%d deferred calls ran (%d seeing Killed), %d processes live; want 3, 3, 0", deferred, killed, e.LiveProcs())
		}
		for i, co := range cos {
			if !pooled(co) {
				t.Errorf("process %d's coroutine was not reclaimed", i)
			}
		}
	})
	t.Run("a killed process is never resumed", func(t *testing.T) {
		e := New(1)
		var log []string
		note := func(p *Proc, what string) { log = append(log, fmt.Sprintf("%s %s@%d", p.name, what, p.Now())) }
		parked := e.Spawn("parked", func(p *Proc) {
			defer note(p, "unwound")
			for i := 0; i < 10; i++ {
				p.Sleep(10)
				note(p, "step")
			}
		})
		e.At(25, func() { e.Kill(parked) })
		e.Spawn("self", func(p *Proc) {
			defer note(p, "unwound")
			p.Sleep(5)
			e.Kill(p)
			note(p, "finishes its step")
			p.Yield() // its own wake-up is due next, and discarded
			t.Error("a killed process was resumed")
		})
		e.Run()
		switches := e.Switches()
		e.Shutdown()
		want := []string{"self finishes its step@5", "parked step@10", "parked step@20"}
		if !slices.Equal(log[:len(want)], want) || len(log) != 5 {
			t.Errorf("observed %q, want %q and then the two unwinds", log, want)
		}
		// The driver started both and resumed parked at 10; every other
		// wake-up came next in its own process's park and cost no switch.
		if switches != 3 {
			t.Errorf("%d switches, want 3", switches)
		}
	})
	t.Run("a swallowed reap is re-raised at the next park", func(t *testing.T) {
		e := New(1)
		c := NewCond(e)
		swallowed, unwound := 0, 0
		p := e.Spawn("stubborn", func(p *Proc) {
			defer func() { unwound++ }()
			func() {
				defer func() {
					if recover() != nil {
						swallowed++
					}
				}()
				c.Wait(p)
			}()
			c.Wait(p)
			t.Error("the reaped body ran on past its second park")
		})
		e.Run()
		co := p.co
		e.Shutdown()
		if swallowed != 1 || unwound != 1 || !pooled(co) {
			t.Errorf("swallowed %d, unwound %d, coroutine reclaimed %t; want 1, 1, true", swallowed, unwound, pooled(co))
		}
	})
}

// A warm spawn, run and exit costs the process record, nothing else:
// the process is its own resume continuation, and the coroutine comes
// from the pool. (A goroutine with its resume channel cost 6, and a
// resume closure bound at the spawn 1 more.)
func TestSpawnAllocations(t *testing.T) {
	skipUnderRace(t)
	e := New(1)
	body := func(p *Proc) { p.Yield() }
	cycle := func() {
		e.Spawn("p", body)
		e.Run()
	}
	cycle()
	if a := testing.AllocsPerRun(200, cycle); a > 1 {
		t.Errorf("a spawn, run and exit allocates %v times, want at most 1", a)
	}
}

// Two processes that take turns switch at every event, allocating
// nothing.
func TestProcessSwitchAllocations(t *testing.T) {
	skipUnderRace(t)
	e := New(1)
	for i := 0; i < 2; i++ {
		e.Spawn("pinger", func(p *Proc) {
			for {
				p.Sleep(1)
			}
		})
	}
	now := Time(0)
	tick := func() {
		now += 100
		e.RunUntil(now)
	}
	tick()
	switches, events := e.Switches(), e.Events()
	if a := testing.AllocsPerRun(100, tick); a != 0 {
		t.Errorf("100 process switches allocate %v times, want 0", a)
	}
	if s, ev := e.Switches()-switches, e.Events()-events; s != ev || s < 100*100 {
		t.Errorf("%d switches in %d events, want one per event", s, ev)
	}
	e.Shutdown()
}

// Environments on several goroutines share the pool: each gets the
// answer a lone environment gets, whatever coroutines the others
// returned.
func TestConcurrentEnvsSharePool(t *testing.T) {
	want := []string{spawnHeavy(1), spawnHeavy(2)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				seed := int64(1 + (g+round)%2)
				if got := spawnHeavy(seed); got != want[seed-1] {
					t.Errorf("goroutine %d, round %d: observed\n  %s\nwant\n  %s", g, round, got, want[seed-1])
					return
				}
			}
		}()
	}
	wg.Wait()
}
