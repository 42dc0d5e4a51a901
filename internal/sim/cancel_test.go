package sim

import (
	"math/rand"
	"testing"
)

// timerEnv is what the random timer program below needs of an
// environment: the engine itself, or the reference model.
type timerEnv interface {
	After(d Time, fn func()) canceller
	Timer(fn func()) rearmer // a timer armed again and again in place
	Schedule(d Time, fn func())
	Now() Time
	Events() int64
	lastSeq() int64 // the sequence number of the event scheduled last
	check(t *testing.T)
	run()
}

type canceller interface{ Cancel() }

type rearmer interface {
	Arm(d Time)
	Cancel()
}

// engineEnv drives the real Env, alternating At and After, and counts
// the cancellations that hit the heap's special slots and the runs'
// special places.
type engineEnv struct {
	e      *Env
	alt    bool
	cov    engineCoverage
	refill Time // the instant of a run's tail just cancelled, or -1
}

// engineCoverage counts cancellations by where the event was queued.
type engineCoverage struct {
	fromTheHeap, root, last int
	// A run's head that has followers, a follower with a follower, a
	// run's tail whose instant the next push joins again, and a follower
	// re-armed.
	runHead, middle, tailRefilled, armFollower int
}

func (c *engineCoverage) add(o engineCoverage) {
	c.fromTheHeap += o.fromTheHeap
	c.root += o.root
	c.last += o.last
	c.runHead += o.runHead
	c.middle += o.middle
	c.tailRefilled += o.tailRefilled
	c.armFollower += o.armFollower
}

type engineTimer struct {
	env *engineEnv
	ev  *Event
}

// taking counts where ev is as it is about to leave the queue.
func (r *engineEnv) taking(ev *Event) {
	c := &r.cov
	switch i := int(ev.index); {
	case i >= 0:
		c.fromTheHeap++
		if i == 0 {
			c.root++
		}
		if i == len(r.e.queue.h)-1 {
			c.last++
		}
		if ev.next != nil {
			c.runHead++
		}
	case i == behind:
		if ev.next != nil {
			c.middle++
		}
		if ev == r.e.queue.tail {
			r.refill = ev.t
		}
	}
}

// scheduled counts a push that lands on the instant of a tail the
// scheduling call before it cancelled.
func (r *engineEnv) scheduled() {
	if r.refill >= 0 && r.e.queue.tail != nil && r.e.queue.tail.t == r.refill {
		r.cov.tailRefilled++
	}
	r.refill = -1
}

func (h engineTimer) Cancel() {
	h.env.taking(h.ev)
	h.ev.Cancel()
}

func (h engineTimer) Arm(d Time) {
	if h.ev.index == behind {
		h.env.cov.armFollower++
	}
	h.env.taking(h.ev)
	h.ev.Arm(d)
	h.env.scheduled()
}

func (r *engineEnv) After(d Time, fn func()) canceller {
	defer r.scheduled()
	if r.alt = !r.alt; r.alt {
		return engineTimer{r, r.e.At(r.e.now+d, fn)}
	}
	return engineTimer{r, r.e.After(d, fn)}
}
func (r *engineEnv) Timer(fn func()) rearmer {
	ev := new(Event)
	ev.InitOn(r.e, Func(fn))
	return engineTimer{r, ev}
}
func (r *engineEnv) Schedule(d Time, fn func()) {
	r.e.Schedule(r.e.now+d, fn)
	r.scheduled()
}
func (r *engineEnv) Now() Time      { return r.e.Now() }
func (r *engineEnv) Events() int64  { return r.e.Events() }
func (r *engineEnv) lastSeq() int64 { return r.e.seqGen }
func (r *engineEnv) run()           { r.e.Run() }

func (r *engineEnv) check(t *testing.T) {
	checkQueue(t, &r.e.queue)
	for _, ev := range r.e.ready[r.e.readyHead:] {
		if ev.index != onReady {
			t.Fatalf("ready event (%v,%d) has heap index %d", ev.t, ev.seq, ev.index)
		}
	}
}

// checkQueue holds the queue to its invariants: every head knows its
// slot and no parent fires after its child; a follower has its head's
// instant, a larger seq than the event before it, and links that agree
// both ways; tail, if any, is queued and ends its run; and nothing
// cancelled is queued.
func checkQueue(t testing.TB, q *eventQueue) {
	t.Helper()
	tailSeen := q.tail == nil
	for i, head := range q.h {
		if int(head.index) != i || head.prev != nil {
			t.Fatalf("head (%v,%d) in slot %d believes it is in %d, after %p", head.t, head.seq, i, head.index, head.prev)
		}
		if i > 0 && head.before(q.h[(i-1)/2]) {
			t.Fatalf("event (%v,%d) in slot %d fires before its parent", head.t, head.seq, i)
		}
		for ev := head; ev != nil; ev = ev.next {
			if ev.cancelled {
				t.Fatalf("cancelled event (%v,%d) still queued in slot %d", ev.t, ev.seq, i)
			}
			if ev != head && (ev.index != behind || ev.t != head.t || ev.seq <= ev.prev.seq) {
				t.Fatalf("follower (%v,%d) with index %d behind (%v,%d) in the run of (%v,%d)",
					ev.t, ev.seq, ev.index, ev.prev.t, ev.prev.seq, head.t, head.seq)
			}
			if ev.next != nil && ev.next.prev != ev {
				t.Fatalf("(%v,%d) links forward to an event that links back elsewhere", ev.t, ev.seq)
			}
			if ev == q.tail {
				tailSeen = true
				if ev.next != nil {
					t.Fatalf("tail (%v,%d) has a follower", ev.t, ev.seq)
				}
			}
		}
	}
	if !tailSeen {
		t.Fatalf("tail (%v,%d) is not queued", q.tail.t, q.tail.seq)
	}
}

// queued counts the events on the queue, heads and followers.
func queued(q *eventQueue) int {
	n := 0
	for _, ev := range q.h {
		for ; ev != nil; ev = ev.next {
			n++
		}
	}
	return n
}

// flagEnv is the reference model: one unordered list of events, the
// earliest (time, seq) found by scanning, and cancellation that only
// flags — a cancelled event stays queued until its turn comes and is
// then skipped, uncounted.
type flagEnv struct {
	now        Time
	seqGen     int64
	dispatched int64
	q          []*flagEvent
}

type flagEvent struct {
	t         Time
	seq       int64
	fn        func()
	cancelled bool
}

func (ev *flagEvent) Cancel() { ev.cancelled = true }

func (f *flagEnv) After(d Time, fn func()) canceller {
	f.seqGen++
	ev := &flagEvent{t: f.now + d, seq: f.seqGen, fn: fn}
	f.q = append(f.q, ev)
	return ev
}

// flagTimer is the reference's re-armable timer: every Arm is a Cancel
// of the firing before and a fresh After.
type flagTimer struct {
	f   *flagEnv
	fn  func()
	cur *flagEvent
}

func (t *flagTimer) Arm(d Time) {
	t.Cancel()
	t.cur = t.f.After(d, t.fn).(*flagEvent)
}

func (t *flagTimer) Cancel() {
	if t.cur != nil {
		t.cur.cancelled = true
	}
}

func (f *flagEnv) Timer(fn func()) rearmer    { return &flagTimer{f: f, fn: fn} }
func (f *flagEnv) Schedule(d Time, fn func()) { f.After(d, fn) }
func (f *flagEnv) Now() Time                  { return f.now }
func (f *flagEnv) Events() int64              { return f.dispatched }
func (f *flagEnv) lastSeq() int64             { return f.seqGen }
func (f *flagEnv) check(*testing.T)           {}

func (f *flagEnv) run() {
	for len(f.q) > 0 {
		best := 0
		for i, ev := range f.q {
			if b := f.q[best]; ev.t < b.t || ev.t == b.t && ev.seq < b.seq {
				best = i
			}
		}
		ev := f.q[best]
		f.q = append(f.q[:best], f.q[best+1:]...)
		if ev.cancelled {
			continue
		}
		f.now = ev.t
		f.dispatched++
		ev.fn()
	}
}

// fired is one dispatched callback as an observer sees it.
type fired struct {
	at     Time
	seq    int64
	events int64
}

// cancelCoverage counts the cancellations the program made of each kind
// the engine treats differently.
type cancelCoverage struct {
	double, afterFiring, own, ready int

	// Of the re-armable timers: armed again while pending in the future,
	// while due this instant, and after a stop; stopped while pending.
	rearmFuture, rearmReady, rearmStopped, stopPending int
}

// timerProgram runs one random program of arming, scheduling and
// cancelling against env and returns every callback fired. All its
// decisions come from the seed and from what has fired so far, so two
// environments that dispatch alike are driven alike.
func timerProgram(t *testing.T, env timerEnv, seed int64, cov *cancelCoverage) []fired {
	rng := rand.New(rand.NewSource(seed))
	type timer struct {
		h                canceller
		at               Time
		fired, cancelled bool
	}
	type rearmable struct {
		h       rearmer
		at      Time
		seq     int64
		pending bool
	}
	var (
		timers []*timer
		rearms [6]*rearmable
		log    []fired
		budget = 400
		step   func(self *timer)
	)
	delay := func() Time { return Time(rng.Intn(4)) * Time(rng.Intn(15)) } // zero about a third of the time
	// again is the delay to the newest timer's instant while it is ahead
	// — pending or cancelled, the instant of a run or of a run's tail.
	again := func() Time {
		if at := timers[len(timers)-1].at; at > env.Now() {
			return at - env.Now()
		}
		return delay()
	}
	record := func(seq int64) { log = append(log, fired{env.Now(), seq, env.Events()}) }
	arm := func(d Time) {
		if budget == 0 {
			return
		}
		budget--
		tm := &timer{at: env.Now() + d}
		var seq int64
		tm.h = env.After(d, func() {
			if tm.cancelled {
				t.Fatalf("seed %d: timer %d cancelled at an earlier step fired", seed, seq)
			}
			tm.fired = true
			record(seq)
			step(tm)
		})
		seq = env.lastSeq()
		timers = append(timers, tm)
	}
	cancel := func(tm *timer) {
		switch {
		case tm.cancelled:
			cov.double++
		case tm.fired:
			cov.afterFiring++
		case tm.at == env.Now():
			cov.ready++
		}
		tm.h.Cancel()
		if !tm.fired {
			tm.cancelled = true
		}
	}
	rearm := func(rt *rearmable, d Time) {
		if budget == 0 {
			return
		}
		budget--
		switch {
		case !rt.pending:
			cov.rearmStopped++
		case rt.at == env.Now():
			cov.rearmReady++
		default:
			cov.rearmFuture++
		}
		rt.h.Arm(d)
		rt.at, rt.seq, rt.pending = env.Now()+d, env.lastSeq(), true
	}
	for i := range rearms {
		rt := &rearmable{}
		rt.h = env.Timer(func() {
			if !rt.pending {
				t.Fatalf("seed %d: re-armable timer fired while stopped", seed)
			}
			rt.pending = false
			record(rt.seq)
			step(nil)
		})
		rearms[i] = rt
	}
	step = func(self *timer) {
		arm(delay()) // a successor, so that cancellations cannot end the program early
		for n := rng.Intn(4); n > 0; n-- {
			switch rng.Intn(12) {
			case 8:
				rearm(rearms[rng.Intn(len(rearms))], delay())
			case 9:
				rearm(rearms[rng.Intn(len(rearms))], again())
			case 11: // a fan-out: timers due at one instant, armed back to back
				d := again()
				for k := 2 + rng.Intn(3); k > 0; k-- {
					arm(d)
				}
			case 10:
				rt := rearms[rng.Intn(len(rearms))]
				if rt.pending {
					cov.stopPending++
				}
				rt.h.Cancel()
				rt.pending = false
			default:
				arm(delay())
			case 3:
				if budget > 0 {
					budget--
					var seq int64
					env.Schedule(delay(), func() { record(seq); step(nil) })
					seq = env.lastSeq()
				}
			case 4: // any timer ever armed: pending, fired or cancelled
				cancel(timers[rng.Intn(len(timers))])
			case 5: // the pending timer due first: the heap's root, unless a pooled event is
				var first *timer
				for _, tm := range timers {
					if !tm.fired && !tm.cancelled && tm.at > env.Now() && (first == nil || tm.at < first.at) {
						first = tm
					}
				}
				if first != nil {
					cancel(first)
				}
			case 6: // the newest: mostly still where push left it, in the last slot or a run's tail
				cancel(timers[len(timers)-1])
				if rng.Intn(2) == 0 {
					arm(again()) // and its replacement, due when it was
				}
			case 7:
				if self != nil {
					cov.own++
					cancel(self)
				}
			}
			env.check(t)
		}
	}
	for i := 0; i < 12; i++ {
		arm(delay())
	}
	for _, rt := range rearms[:3] {
		rearm(rt, delay())
	}
	env.check(t)
	env.run()
	return log
}

// Taking a cancelled event off the queue at once must be invisible: the
// same program fires the same callbacks at the same (time, seq) with
// the same Events() count as under a reference that only flags the
// event and skips it when its turn comes. The program cancels pending
// timers (the heap's root and last slot, a run's head, middle and tail
// among them), timers on the same-instant ready list, fired timers,
// cancelled timers, and a timer's own event from inside its callback;
// and it arms six events again and again in place (Event.Init,
// Event.Arm), pending — at the head of a run or behind it — or due this
// instant or stopped, where the reference cancels and allocates anew.
func TestCancelMatchesFlagging(t *testing.T) {
	var cov cancelCoverage
	var eng engineCoverage
	for seed := int64(1); seed <= 40; seed++ {
		eng.add(cancelMatchesFlagging(t, seed, &cov))
	}
	for name, n := range map[string]int{
		"from the heap": eng.fromTheHeap, "of the heap's root": eng.root, "of the heap's last slot": eng.last,
		"of a run's head with followers": eng.runHead, "of a run's middle follower": eng.middle,
		"of a run's tail whose instant the next push joins": eng.tailRefilled, "by re-arming a follower": eng.armFollower,
		"of a cancelled timer": cov.double, "of a fired timer": cov.afterFiring,
		"of the running callback's own event": cov.own, "of a same-instant ready event": cov.ready,
		"by re-arming a pending timer": cov.rearmFuture, "by re-arming a timer due this instant": cov.rearmReady,
		"of a pending re-armable timer": cov.stopPending, "(none: re-arming a stopped timer)": cov.rearmStopped,
	} {
		if n < 40 {
			t.Errorf("only %d cancellations %s over 40 seeds", n, name)
		}
	}
}

// FuzzCancelMatchesFlagging runs TestCancelMatchesFlagging's comparison
// on any seed; the test's 40 seeds are the corpus.
//
//	go test -run '^$' -fuzz FuzzCancelMatchesFlagging -fuzztime 20s ./internal/sim
func FuzzCancelMatchesFlagging(f *testing.F) {
	for seed := int64(1); seed <= 40; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		cancelMatchesFlagging(t, seed, &cancelCoverage{})
	})
}

// cancelMatchesFlagging runs the program of seed on the engine and on
// the reference, requires the two to fire alike and the engine's queue
// to end empty, and returns where the engine's cancellations hit.
func cancelMatchesFlagging(t *testing.T, seed int64, cov *cancelCoverage) engineCoverage {
	eng := &engineEnv{e: New(seed), refill: -1}
	got := timerProgram(t, eng, seed, cov)
	ref := &flagEnv{}
	want := timerProgram(t, ref, seed, &cancelCoverage{})
	if len(got) != len(want) || eng.Events() != ref.Events() {
		t.Fatalf("seed %d: %d callbacks in %d events, the reference has %d in %d",
			seed, len(got), eng.Events(), len(want), ref.Events())
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d: callback %d fired as %+v, the reference has %+v", seed, i, got[i], want[i])
		}
	}
	if len(got) < 100 {
		t.Fatalf("seed %d: only %d callbacks fired; the program is too short to mean anything", seed, len(got))
	}
	if n := queued(&eng.e.queue); n != 0 || eng.e.queue.tail != nil {
		t.Fatalf("seed %d: %d events left queued after Run, tail %p", seed, n, eng.e.queue.tail)
	}
	return eng.cov
}

// A retransmission timer armed for two seconds and cancelled a
// microsecond later, a hundred thousand times over, must leave nothing
// behind: the queue never holds more than the live timers and the event
// that carries the loop. Two timers armed together share a run.
func TestCancelledTimersLeaveTheHeap(t *testing.T) {
	for _, timers := range []int{1, 2} {
		e := New(1)
		var (
			live   []*Event
			cycle  func()
			cycles int
			peak   int
		)
		cycle = func() {
			for _, ev := range live {
				ev.Cancel()
			}
			live = live[:0]
			if cycles == 100_000 {
				return
			}
			cycles++
			for range timers {
				live = append(live, e.After(2*Second, func() { t.Error("a cancelled timer fired") }))
			}
			e.Schedule(e.Now()+Microsecond, cycle)
			if n := queued(&e.queue); n > peak {
				peak = n
			}
		}
		e.Schedule(0, cycle)
		end := e.Run()
		if n := queued(&e.queue); peak > timers+1 || n != 0 {
			t.Errorf("%d timers: the queue peaked at %d events and ends with %d, want at most %d and 0", timers, peak, n, timers+1)
		}
		if want := 100_000 * Microsecond; end != want || e.Events() != 100_001 {
			t.Errorf("%d timers: run ended at %v after %d events, want %v after 100001", timers, end, e.Events(), want)
		}
	}
}

// Timers embedded in their owner are armed and cancelled without
// allocating and without leaving anything queued, and fire when left
// alone. Two timers armed for one instant share a run, the second
// behind the first; cancelling them in either order, or re-arming the
// follower, leaves the queue as it found it.
func TestTimerRearmAllocations(t *testing.T) {
	e := New(1)
	var timers [2]Event
	fires := 0
	for i := range timers {
		timers[i].InitOn(e, Func(func() { fires++ }))
	}
	a, b := &timers[0], &timers[1]
	e.Spawn("owner", func(p *Proc) {
		for _, c := range []struct {
			name   string
			rearm  func()
			cancel [2]*Event
		}{
			{"one timer", func() { a.Arm(2 * Second); a.Arm(3 * Second) }, [2]*Event{a}},
			{"a run, head cancelled first", func() { a.Arm(2 * Second); b.Arm(2 * Second); b.Arm(2 * Second) }, [2]*Event{a, b}},
			{"a run, follower cancelled first", func() { a.Arm(3 * Second); b.Arm(3 * Second); a.Arm(3 * Second) }, [2]*Event{a, b}},
		} {
			want := 1
			if c.cancel[1] != nil {
				want = 2
			}
			allocs := testing.AllocsPerRun(100_000, func() {
				c.rearm()
				if n := queued(&e.queue); n != want {
					t.Fatalf("%s: %d events queued, want %d", c.name, n, want)
				}
				for _, ev := range c.cancel {
					if ev != nil {
						ev.Cancel()
					}
				}
			})
			if n := queued(&e.queue); allocs != 0 || n != 0 || e.queue.tail != nil {
				t.Errorf("%s: arming and cancelling allocates %v times and leaves %d events, want 0 and 0", c.name, allocs, n)
			}
		}
		a.Arm(Second)
		b.Arm(Second)
		p.Sleep(2 * Second)
		if fires != 2 || p.Now() != 2*Second {
			t.Errorf("%d firings by %v, want 2 by 2s", fires, p.Now())
		}
	})
	e.Run()
	e.Shutdown()
}
