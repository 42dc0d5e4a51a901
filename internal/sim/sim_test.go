package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestEventTieBreakBySequence(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	e.At(5, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestProcSleep(t *testing.T) {
	e := New(1)
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 42*Microsecond {
		t.Fatalf("woke at %v, want 42µs", wake)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%d procs still live", n)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New(1)
	var trace []string
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < 2; step++ {
				p.Sleep(Time(10 * (i + 1)))
				trace = append(trace, fmt.Sprintf("p%d@%d", i, p.Now()))
			}
		})
	}
	e.Run()
	// At t=20 both p1 (event scheduled at t=0) and p0 (scheduled at
	// t=10) are runnable; the earlier-scheduled event wins the tie.
	want := []string{"p0@10", "p1@20", "p0@20", "p2@30", "p1@40", "p2@60"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestCondFIFO(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	e.At(100, func() { c.Broadcast() })
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("wake order %v, want [a b c]", order)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	e.At(50, func() { c.Signal() })
	e.Run()
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
	if len(e.Blocked()) != 2 {
		t.Fatalf("blocked = %v, want 2 procs", e.Blocked())
	}
	e.Shutdown()
}

func TestResourceSerializes(t *testing.T) {
	e := New(1)
	r := NewResource(e)
	var done []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 10*Microsecond)
			done = append(done, p.Now())
		})
	}
	e.Run()
	want := []Time{10 * Microsecond, 20 * Microsecond, 30 * Microsecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion times %v, want %v", done, want)
		}
	}
	if r.BusyTime() != 30*Microsecond {
		t.Fatalf("busy = %v, want 30µs", r.BusyTime())
	}
}

// useFront is the blocking form of a front-lane claim: its continuation
// plus a park, as Use is of UseOn. Only tests claim the front lane from
// a process of their own.
func useFront(r *Resource, p *Proc, d Time) {
	r.UseFrontOn(p, d, p)
	p.park()
}

// The front lane jumps the wait queue but not the holder.
func TestResourceFrontLane(t *testing.T) {
	e := New(1)
	r := NewResource(e)
	var order []string
	var at []Time
	done := func(p *Proc, who string) { order, at = append(order, who), append(at, p.Now()) }
	e.Spawn("holder", func(p *Proc) {
		r.Use(p, 10)
		done(p, "holder")
	})
	e.SpawnAt(1, "slow", func(p *Proc) {
		r.Use(p, 10)
		done(p, "slow")
	})
	e.SpawnAt(2, "intr", func(p *Proc) {
		useFront(r, p, 10)
		done(p, "intr")
	})
	e.Run()
	if !reflect.DeepEqual(order, []string{"holder", "intr", "slow"}) || !reflect.DeepEqual(at, []Time{10, 20, 30}) {
		t.Fatalf("order = %v at %v, want [holder intr slow] at [10 20 30]", order, at)
	}
}

// A negative hold is refused where it is claimed, free resource or not,
// and not later inside whoever releases to it.
func TestNegativeHoldPanicsAtTheClaim(t *testing.T) {
	for _, busy := range []bool{false, true} {
		e := New(1)
		r := NewResource(e)
		if busy {
			e.Spawn("holder", func(p *Proc) { r.Use(p, 100) })
		}
		panicked := false
		e.SpawnAt(1, "claimant", func(p *Proc) {
			defer func() { panicked = recover() != nil }()
			r.UseOn(p, -1, Func(func() {}))
		})
		e.Run()
		if !panicked {
			t.Errorf("busy=%t: a negative hold was accepted", busy)
		}
	}
}

func TestQueueHandoff(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			p.Sleep(10)
			q.Put(i)
		}
		p.Sleep(10)
		q.Close()
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("got %v, want 5 items", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got %v, want [1 2 3 4 5]", got)
		}
	}
}

func TestQueueFIFOAcrossConsumers(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	var got []string
	for _, name := range []string{"c1", "c2"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			v, _ := q.Get(p)
			got = append(got, fmt.Sprintf("%s=%d", name, v))
		})
	}
	e.At(10, func() { q.Put(100) })
	e.At(20, func() { q.Put(200) })
	e.Run()
	if len(got) != 2 || got[0] != "c1=100" || got[1] != "c2=200" {
		t.Fatalf("got %v, want [c1=100 c2=200]", got)
	}
}

func TestQueueBufferThenDrain(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	q.Put(1)
	q.Put(2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	v, ok := q.TryGet()
	if !ok || v != 1 {
		t.Fatalf("TryGet = %d,%v want 1,true", v, ok)
	}
	var rest []int
	e.Spawn("drain", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			rest = append(rest, v)
		}
	})
	e.At(5, func() { q.Close() })
	e.Run()
	if len(rest) != 1 || rest[0] != 2 {
		t.Fatalf("rest = %v, want [2]", rest)
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	count := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10)
			count++
		}
	})
	e.RunUntil(55)
	if count != 5 {
		t.Fatalf("count = %d at t=55, want 5", count)
	}
	if e.Now() != 55 {
		t.Fatalf("Now = %v, want 55", e.Now())
	}
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d after Run, want 100", count)
	}

	// The clock ends at the bound only if something is still pending
	// beyond it, and a cancelled event is not: arming a timer and
	// cancelling it must not change the answer.
	for _, c := range []struct {
		name         string
		arm, disarm  bool
		wantNow      Time
		wantLeftover int
	}{
		{"nothing pending", false, false, 10, 0},
		{"live timer pending", true, false, 50, 1},
		{"cancelled timer pending", true, true, 10, 0},
	} {
		e := New(1)
		var timer *Event
		if c.arm {
			timer = e.At(100, func() {})
		}
		e.At(10, func() {
			if c.disarm {
				timer.Cancel()
			}
		})
		if now := e.RunUntil(50); now != c.wantNow || queued(&e.queue) != c.wantLeftover {
			t.Errorf("%s: RunUntil(50) = %v with %d events queued, want %v with %d",
				c.name, now, queued(&e.queue), c.wantNow, c.wantLeftover)
		}
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	n := 0
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(10)
			n++
			if n == 3 {
				e.Stop()
			}
		}
	})
	e.Run()
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	e.Shutdown()
}

func TestShutdownReapsBlockedProcs(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
			c.Wait(p)
			t.Error("stuck proc should never wake")
		})
	}
	e.Run()
	if len(e.Blocked()) != 4 {
		t.Fatalf("blocked = %v, want 4", e.Blocked())
	}
	e.Shutdown()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after Shutdown, want 0", n)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := New(1)
	var childTime Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childTime = c.Now()
		})
		p.Sleep(100)
	})
	e.Run()
	if childTime != 15 {
		t.Fatalf("child finished at %v, want 15", childTime)
	}
}

// TestDeterminism drives a small random workload twice with the same
// seed and once with a different seed, and checks the traces are
// identical and (almost surely) different respectively.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) string {
		e := New(seed)
		r := NewResource(e)
		q := NewQueue[int](e)
		trace := ""
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					d := Time(e.Rand().Intn(50) + 1)
					p.Sleep(d)
					r.Use(p, Time(e.Rand().Intn(20)+1))
					q.Put(i)
					trace += fmt.Sprintf("%d@%d;", i, p.Now())
				}
			})
		}
		e.Run()
		return trace
	}
	a, b, c := run(7), run(7), run(8)
	if a != b {
		t.Fatal("same seed produced different traces")
	}
	if a == c {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

// Property: for any set of sleep durations, processes complete in the
// order implied by their total virtual sleep time, with determinism.
func TestSleepCompletionOrderProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 20 {
			return true
		}
		e := New(1)
		type fin struct {
			idx int
			at  Time
		}
		var fins []fin
		for i, d := range durs {
			i, d := i, Time(d)+1
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				fins = append(fins, fin{i, p.Now()})
			})
		}
		e.Run()
		if len(fins) != len(durs) {
			return false
		}
		for k := 1; k < len(fins); k++ {
			if fins[k].at < fins[k-1].at {
				return false
			}
			if fins[k].at == fins[k-1].at && fins[k].idx < fins[k-1].idx {
				return false // ties must resolve in spawn order
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceBusyTimeWithHolder(t *testing.T) {
	e := New(1)
	r := NewResource(e)
	e.Spawn("holder", func(p *Proc) { r.Use(p, 150) })
	e.At(100, func() {
		if r.BusyTime() != 100 {
			t.Errorf("busy mid-hold = %v, want 100", r.BusyTime())
		}
	})
	e.Run()
	if r.BusyTime() != 150 {
		t.Errorf("busy = %v, want 150", r.BusyTime())
	}
}

// TestReadyListReusesConsumedSlots: the same-instant ready list never
// drains while two processes ping-pong, so it must reuse the slots it
// has consumed rather than grow with every yield; and bursts of
// same-instant events, appended while the list is partly consumed,
// still fire in the order they were scheduled.
func TestReadyListReusesConsumedSlots(t *testing.T) {
	e := New(1)
	const yields = 10_000
	last, turns, maxCap := -1, 0, 0
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("ponger%d", i), func(p *Proc) {
			for j := 0; j < yields/2; j++ {
				if last == i {
					t.Fatalf("ponger%d ran twice in a row at turn %d", i, turns)
				}
				last, turns = i, turns+1
				maxCap = max(maxCap, cap(e.ready))
				p.Yield()
			}
		})
	}
	e.Run()
	if turns != yields || maxCap > 8 {
		t.Fatalf("%d turns, ready list capacity up to %d; want %d turns within 8 slots", turns, maxCap, yields)
	}

	// A burster among pongers: the list never drains, so every burst is
	// appended behind a partly consumed backlog.
	e = New(1)
	var fired []int
	next, biggest := 0, 0
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("ponger%d", i), func(p *Proc) {
			for j := 0; j < 10_000; j++ {
				p.Yield()
			}
		})
	}
	e.Spawn("burster", func(p *Proc) {
		for round := 0; round < 2_000; round++ {
			burst := (round * 37) % 300
			biggest = max(biggest, burst)
			for k := 0; k < burst; k++ {
				n := next
				next++
				e.Schedule(e.Now(), func() { fired = append(fired, n) })
			}
			maxCap = max(maxCap, cap(e.ready))
			for k := round % 7; k >= 0; k-- {
				p.Yield()
			}
		}
	})
	maxCap = 0
	e.Run()
	for i, n := range fired {
		if n != i {
			t.Fatalf("event %d fired in place %d", n, i)
		}
	}
	if len(fired) != next || maxCap > 4*(biggest+3) {
		t.Fatalf("%d of %d events fired, ready list capacity up to %d for bursts of up to %d", len(fired), next, maxCap, biggest)
	}
}
