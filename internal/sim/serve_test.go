package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The tests below hold a served queue (Queue.Serve, Resource.UseOn,
// Cond.WaitOn) to its one promise: a program's schedule is the same
// whether a queue's items are served by a process looping on Get or by
// a consumer with no process behind it, on the dispatch lane.

// step is one observable moment of a served program: when it happened,
// how many sequence numbers and dispatched events the engine had
// consumed by then, and who did what.
type step struct {
	t          Time
	seq, nth   int64
	actor, act string
}

// Item kinds of the test servers. A server handles each as its thread
// would, or in continuation form, as the run's mode says.
const (
	kFront = iota // front-lane charge, then done
	kFIFO         // FIFO charge, then done
	kNone         // no charge: served synchronously
	kChain        // front-lane charge, then pass an item on to the next server
	kBlock        // charge, sleep, front-lane charge
	kLate         // front-lane charge, then a FIFO charge
	nKinds
)

type testItem struct {
	id, kind int
	cost     Time
}

type testServer struct {
	id    int
	env   *Env
	cpu   *Resource
	q     *Queue[testItem]
	next  *testServer
	c     *Proc // the claimant, when the server has no thread
	log   *[]step
	cur   testItem
	after func()
}

func (s *testServer) note(act string, it testItem) {
	*s.log = append(*s.log, step{s.env.now, s.env.seqGen, s.env.dispatched,
		fmt.Sprintf("srv%d", s.id), fmt.Sprintf("%s#%d", act, it.id)})
}

// finish is what every kind does once its charges are over.
func (s *testServer) finish(it testItem) {
	s.note("done", it)
	if it.kind == kChain {
		s.next.q.Put(testItem{id: it.id + 10000, kind: kFIFO, cost: it.cost})
	}
}

// onThread serves an item on the server's own thread.
func (s *testServer) onThread(p *Proc, it testItem) {
	s.note("start", it)
	switch it.kind {
	case kNone:
	case kFIFO:
		s.cpu.Use(p, it.cost)
	case kBlock:
		s.cpu.Use(p, it.cost)
		p.Sleep(it.cost / 2)
		useFront(s.cpu, p, it.cost)
	default:
		useFront(s.cpu, p, it.cost)
	}
	if it.kind == kLate {
		s.note("late", it)
		s.cpu.Use(p, it.cost/3)
	}
	s.finish(it)
}

// consumerFunc is a func as a Consumer.
type consumerFunc[T any] func(item T)

func (fn consumerFunc[T]) Consume(item T) { fn(item) }

// Consume is the same service in continuation form: the server is its
// queue's consumer.
func (s *testServer) Consume(it testItem) {
	s.note("start", it)
	s.cur = it
	switch it.kind {
	case kNone:
		s.finish(it)
		s.q.Done()
	case kFIFO:
		s.cpu.UseOn(s.c, it.cost, Func(s.after))
	case kBlock:
		s.cpu.UseOn(s.c, it.cost, Func(func() {
			s.env.Schedule(s.env.now+it.cost/2, func() { s.cpu.UseFrontOn(s.c, it.cost, Func(s.after)) })
		}))
	case kLate:
		s.cpu.UseFrontOn(s.c, it.cost, Func(func() {
			s.note("late", it)
			s.cpu.UseOn(s.c, it.cost/3, Func(s.after))
		}))
	default:
		s.cpu.UseFrontOn(s.c, it.cost, Func(s.after))
	}
}

func (s *testServer) charged() {
	s.finish(s.cur)
	s.q.Done()
}

func (s *testServer) run(p *Proc) {
	for {
		it, _ := s.q.Get(p)
		s.onThread(p, it)
	}
}

// servedProgram runs one randomized program — three servers on one
// CPU fed by timers and producer processes, with contender processes
// claiming the CPU on both lanes — and returns what it observed.
func servedProgram(seed int64, inline bool) (log []step, events int64, end Time) {
	env := New(seed)
	rng := rand.New(rand.NewSource(seed))
	cpu := NewResource(env)
	srv := make([]*testServer, 3)
	for i := range srv {
		srv[i] = &testServer{id: i, env: env, cpu: cpu, q: NewQueue[testItem](env), log: &log}
		srv[i].after = srv[i].charged
	}
	for i, s := range srv {
		s.next = srv[(i+1)%len(srv)]
		if inline {
			s.c = env.Claimant(fmt.Sprintf("srv%d", i))
			s.q.Serve(s.c, s) // the server is its own consumer
		} else {
			env.Spawn(fmt.Sprintf("srv%d", i), s.run)
		}
	}
	id := 0
	item := func() testItem {
		id++
		return testItem{id: id, kind: rng.Intn(nKinds), cost: Time(1+rng.Intn(40)) * Microsecond}
	}
	// Timer-driven arrivals, in bursts so that items queue behind a
	// busy server and behind each other.
	for i := 0; i < 60; i++ {
		at := Time(rng.Intn(3000)) * Microsecond
		s := srv[rng.Intn(len(srv))]
		burst := 1 + rng.Intn(3)
		items := make([]testItem, burst)
		for k := range items {
			items[k] = item()
		}
		env.At(at, func() {
			for _, it := range items {
				s.q.Put(it)
			}
		})
	}
	// Process-driven arrivals, paying for their puts on the same CPU.
	for i := 0; i < 3; i++ {
		plan := make([]testItem, 20)
		gaps := make([]Time, len(plan))
		dst := make([]int, len(plan))
		for k := range plan {
			plan[k], gaps[k], dst[k] = item(), Time(rng.Intn(120))*Microsecond, rng.Intn(len(srv))
		}
		env.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
			for k := range plan {
				p.Sleep(gaps[k])
				if k%2 == 0 {
					cpu.Use(p, 5*Microsecond)
				} else {
					useFront(cpu, p, 3*Microsecond)
				}
				log = append(log, step{env.now, env.seqGen, env.dispatched, fmt.Sprintf("prod%d", i), fmt.Sprintf("put#%d", plan[k].id)})
				srv[dst[k]].q.Put(plan[k])
			}
		})
	}
	end = env.Run()
	events = env.Events()
	env.Shutdown()
	return log, events, end
}

// A consumer with no process behind it starts where its thread would,
// takes each item in the slot the thread's Get would return it in, and
// claims the CPU, sleeps and chains in the slots the thread's blocking
// calls take: every step of the run, with its sequence number and event
// count, is the thread's.
func TestServeMatchesThread(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		want, wantEvents, wantEnd := servedProgram(seed, false)
		got, gotEvents, gotEnd := servedProgram(seed, true)
		if len(want) < 200 {
			t.Fatalf("seed %d: only %d steps observed; the program is not exercising much", seed, len(want))
		}
		if gotEvents != wantEvents || gotEnd != wantEnd {
			t.Errorf("seed %d: the served run dispatched %d events and ended at %v; the thread run, %d and %v",
				seed, gotEvents, gotEnd, wantEvents, wantEnd)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					var g any = "nothing"
					if i < len(got) {
						g = got[i]
					}
					t.Fatalf("seed %d: step %d differs: served %+v, thread %+v", seed, i, g, want[i])
				}
			}
			t.Fatalf("seed %d: the served run observed %d steps, the thread run %d", seed, len(got), len(want))
		}
	}
}

// A killed claimant's continuations die with it: an offer pending for it
// is dropped with its item, a grant or an end of hold due to a
// continuation of its is discarded and the resource stays with the dead
// holder, exactly as when a thread serving the queue was killed there.
func TestServeKilledConsumer(t *testing.T) {
	type outcome struct {
		served int
		busy   Time
		events int64
	}
	const us = Microsecond
	// Items 1, 2 and 4 arrive at 1µs and take 10µs of CPU each; 8
	// arrives at 40µs. hog, when set, holds the CPU over [0, 5µs).
	run := func(claimant, hog bool, killAt Time) outcome {
		env := New(1)
		cpu := NewResource(env)
		q := NewQueue[int](env)
		served := 0
		var srv *Proc
		if claimant {
			srv = env.Claimant("srv")
			var cur int
			after := func() { served += cur; q.Done() }
			q.Serve(srv, consumerFunc[int](func(x int) {
				cur = x
				cpu.UseOn(srv, 10*us, Func(after))
			}))
		} else {
			srv = env.Spawn("srv", func(p *Proc) {
				for {
					x, _ := q.Get(p)
					cpu.Use(p, 10*us)
					served += x
				}
			})
		}
		if hog {
			env.Spawn("hog", func(p *Proc) { cpu.Use(p, 5*us) })
		}
		env.At(1*us, func() {
			q.Put(1)
			q.Put(2)
			q.Put(4)
			if killAt == 1*us {
				env.Kill(srv)
			}
		})
		if killAt != 1*us {
			env.At(killAt, func() { env.Kill(srv) })
		}
		env.At(40*us, func() { q.Put(8) })
		env.Run()
		o := outcome{served, cpu.BusyTime(), env.Events()}
		env.Shutdown()
		return o
	}
	for _, c := range []struct {
		name   string
		hog    bool
		killAt Time
		want   outcome
	}{
		// the start, three timers, the wake-up or offer, two ends of hold
		// (the second, a continuation holding the CPU, discarded); the CPU
		// held since 1µs
		{"holding", false, 15 * us, outcome{1, 39 * us, 7}},
		// the wake-up or offer is discarded: nothing served, CPU never held
		{"offer pending", false, 1 * us, outcome{0, 0, 4}},
		// the hog's release grants the dead claimant the CPU for good
		{"grant pending", true, 3 * us, outcome{0, 40 * us, 8}},
	} {
		for _, claimant := range []bool{false, true} {
			if got := run(claimant, c.hog, c.killAt); got != c.want {
				t.Errorf("%s, claimant=%t: got %+v, want %+v", c.name, claimant, got, c.want)
			}
		}
	}
}

// A continuation waiting on a condition in a claimant's name is woken in
// the waiter's FIFO place and dies with the claimant, as a waiting
// thread does: killed before the wake-up, it never runs.
func TestCondWaitFnDiesWithClaimant(t *testing.T) {
	run := func(claimant, kill bool) (order []string, events int64) {
		env := New(1)
		c := NewCond(env)
		env.Spawn("first", func(p *Proc) {
			c.Wait(p)
			order = append(order, "first")
		})
		var w *Proc
		if claimant {
			w = env.Claimant("w")
			env.At(0, func() { c.WaitOn(w, Func(func() { order = append(order, "w") })) })
		} else {
			w = env.Spawn("w", func(p *Proc) {
				c.Wait(p)
				order = append(order, "w")
			})
		}
		env.Spawn("last", func(p *Proc) {
			c.Wait(p)
			order = append(order, "last")
		})
		if kill {
			env.At(Microsecond, func() { env.Kill(w) })
		}
		env.At(2*Microsecond, c.Broadcast)
		env.Run()
		events = env.Events()
		env.Shutdown()
		return order, events
	}
	for _, kill := range []bool{false, true} {
		thread, te := run(false, kill)
		served, se := run(true, kill)
		if fmt.Sprint(served) != fmt.Sprint(thread) || se != te {
			t.Errorf("kill=%t: the continuation ran %v in %d events, the thread %v in %d", kill, served, se, thread, te)
		}
	}
}

// Wait lists keep FIFO order while their live window slides over the
// backing array (the head-index form of Cond and of Queue's receivers).
func TestWaitListsSlide(t *testing.T) {
	env := New(1)
	c := NewCond(env)
	q := NewQueue[int](env)
	var condOrder, queueOrder []int
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn(fmt.Sprintf("cw%d", i), func(p *Proc) {
			p.Sleep(Time(i) * Microsecond)
			for {
				c.Wait(p)
				condOrder = append(condOrder, i)
			}
		})
		env.Spawn(fmt.Sprintf("qw%d", i), func(p *Proc) {
			p.Sleep(Time(i) * Microsecond)
			for {
				q.Get(p)
				queueOrder = append(queueOrder, i)
			}
		})
	}
	env.Spawn("driver", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		for k := 0; k < 9; k++ {
			c.Signal()
			q.Put(k)
			p.Sleep(Microsecond)
		}
	})
	env.Run()
	env.Shutdown()
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(condOrder, want) || !reflect.DeepEqual(queueOrder, want) {
		t.Errorf("wake order: cond %v, queue %v, want %v", condOrder, queueOrder, want)
	}
}

// A consumer that reaches a blocking call with its claimant is a bug the
// engine reports, naming the claimant, not a hang.
func TestServeBlockingPanics(t *testing.T) {
	env := New(1)
	q := NewQueue[int](env)
	c := env.Claimant("srv")
	q.Serve(c, consumerFunc[int](func(int) { c.Sleep(Microsecond) }))
	env.At(Microsecond, func() { q.Put(1) })
	defer env.Shutdown()
	defer func() {
		if s := fmt.Sprint(recover()); !strings.Contains(s, "srv blocks") {
			t.Errorf("blocking with a claimant reported %q", s)
		}
	}()
	env.Run()
}

// A process is the continuation of its own blocking calls, but a
// claimant has no body to resume and a terminated process none left:
// firing either panics, naming it.
func TestFireNeedsABody(t *testing.T) {
	env := New(1)
	ended := env.Spawn("ended", func(*Proc) {})
	env.Run()
	for _, p := range []*Proc{env.Claimant("node3/objmgr"), ended} {
		func() {
			defer func() {
				if s := fmt.Sprint(recover()); !strings.Contains(s, p.Name()+" fired") {
					t.Errorf("firing %s reported %q", p.Name(), s)
				}
			}()
			p.Fire()
		}()
	}
}

// Steady-state mailbox and condition traffic must not allocate: a
// parked receiver used to cost a reallocated waiter list per Get.
func TestQueueAndCondSteadyStateAllocs(t *testing.T) {
	env := New(1)
	q := NewQueue[int](env)
	c := NewCond(env)
	env.Spawn("producer", func(p *Proc) {
		for i := 0; ; i++ {
			q.Put(i)
			c.Signal()
			p.Sleep(Microsecond)
		}
	})
	env.Spawn("consumer", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	env.Spawn("waiter", func(p *Proc) {
		for {
			c.Wait(p)
		}
	})
	served := NewQueue[int](env)
	served.Serve(env.Claimant("served"), consumerFunc[int](func(int) { served.Done() }))
	env.Spawn("producer2", func(p *Proc) {
		for i := 0; ; i++ {
			served.Put(i)
			p.Sleep(Microsecond)
		}
	})
	now := Time(0)
	tick := func() {
		now += 10 * Microsecond
		env.RunUntil(now)
	}
	tick()
	if a := testing.AllocsPerRun(100, tick); a != 0 {
		t.Errorf("steady-state Queue Put/Get and Cond Signal/Wait allocate %v per 10 exchanges, want 0", a)
	}
	env.Shutdown()
}

// The queue must pop in (time, seq) order whatever the insertion order,
// track each head's slot and keep its runs linked, whether the events
// due at one instant are pushed back to back (one run) or interleaved
// with others (several runs at that instant), and whether they leave by
// a pop or by a removal from anywhere in a run.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	var live []*Event // the reference: every queued event
	var seq int64
	joins := 0
	for round := 0; round < 200; round++ {
		for i := rng.Intn(40); i >= 0; i-- {
			seq++
			ev := &Event{t: Time(rng.Intn(25)), seq: seq}
			if q.tail != nil && rng.Intn(2) == 0 {
				ev.t = q.tail.t // back to back
			}
			if q.tail != nil && q.tail.t == ev.t {
				joins++
			}
			q.push(ev)
			live = append(live, ev)
		}
		checkQueue(t, &q)
		for n := rng.Intn(len(live)/4 + 1); n > 0; n-- {
			i := rng.Intn(len(live))
			q.remove(live[i])
			if live[i].index != idle || live[i].prev != nil || live[i].next != nil {
				t.Fatalf("removed event keeps index %d and links", live[i].index)
			}
			live = append(live[:i], live[i+1:]...)
			checkQueue(t, &q)
		}
		for n := rng.Intn(len(live) + 1); n > 0; n-- {
			first := 0
			for i, ev := range live {
				if ev.before(live[first]) {
					first = i
				}
			}
			ev := q.pop()
			if ev != live[first] {
				t.Fatalf("popped (%v,%d), want (%v,%d)", ev.t, ev.seq, live[first].t, live[first].seq)
			}
			if ev.index != idle || ev.next != nil {
				t.Fatalf("popped event keeps index %d and links", ev.index)
			}
			live = append(live[:first], live[first+1:]...)
			checkQueue(t, &q)
		}
		if n := queued(&q); n != len(live) {
			t.Fatalf("%d events queued, want %d", n, len(live))
		}
	}
	if joins < 1000 || q.joined != int64(joins) {
		t.Fatalf("%d pushes joined a run (the queue counted %d), want at least 1000 and the same", joins, q.joined)
	}
}
