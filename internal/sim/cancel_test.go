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
// the cancellations that hit the heap's two special slots.
type engineEnv struct {
	e           *Env
	alt         bool
	root, tail  int
	fromTheHeap int
}

type engineTimer struct {
	env *engineEnv
	ev  *Event
}

func (h engineTimer) Cancel() {
	if i := h.ev.index; i >= 0 {
		h.env.fromTheHeap++
		if i == 0 {
			h.env.root++
		}
		if i == len(h.env.e.queue)-1 {
			h.env.tail++
		}
	}
	h.ev.Cancel()
}

func (r *engineEnv) After(d Time, fn func()) canceller {
	if r.alt = !r.alt; r.alt {
		return engineTimer{r, r.e.At(r.e.now+d, fn)}
	}
	return engineTimer{r, r.e.After(d, fn)}
}
func (r *engineEnv) Timer(fn func()) rearmer {
	ev := new(Event)
	ev.Init(r.e, fn)
	return ev
}
func (r *engineEnv) Schedule(d Time, fn func()) { r.e.Schedule(r.e.now+d, fn) }
func (r *engineEnv) Now() Time                  { return r.e.Now() }
func (r *engineEnv) Events() int64              { return r.e.Events() }
func (r *engineEnv) lastSeq() int64             { return r.e.seqGen }
func (r *engineEnv) run()                       { r.e.Run() }

// check holds the heap to its invariants: every event knows its slot,
// no parent fires after its child, and nothing cancelled is queued.
func (r *engineEnv) check(t *testing.T) {
	for i, ev := range r.e.queue {
		if ev.index != i {
			t.Fatalf("event (%v,%d) in slot %d believes it is in %d", ev.t, ev.seq, i, ev.index)
		}
		if ev.cancelled {
			t.Fatalf("cancelled event (%v,%d) still in heap slot %d", ev.t, ev.seq, i)
		}
		if i > 0 && ev.before(r.e.queue[(i-1)/2]) {
			t.Fatalf("event (%v,%d) in slot %d fires before its parent", ev.t, ev.seq, i)
		}
	}
	for _, ev := range r.e.ready[r.e.readyHead:] {
		if ev.index != onReady {
			t.Fatalf("ready event (%v,%d) has heap index %d", ev.t, ev.seq, ev.index)
		}
	}
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
	record := func(seq int64) { log = append(log, fired{env.Now(), seq, env.Events()}) }
	arm := func() {
		if budget == 0 {
			return
		}
		budget--
		d := delay()
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
	rearm := func(rt *rearmable) {
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
		d := delay()
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
		arm() // a successor, so that cancellations cannot end the program early
		for n := rng.Intn(4); n > 0; n-- {
			switch rng.Intn(11) {
			case 8, 9:
				rearm(rearms[rng.Intn(len(rearms))])
			case 10:
				rt := rearms[rng.Intn(len(rearms))]
				if rt.pending {
					cov.stopPending++
				}
				rt.h.Cancel()
				rt.pending = false
			default:
				arm()
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
			case 6: // the newest: mostly still where push left it, in the last slot
				cancel(timers[len(timers)-1])
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
		arm()
	}
	for _, rt := range rearms[:3] {
		rearm(rt)
	}
	env.check(t)
	env.run()
	return log
}

// Taking a cancelled event off the heap at once must be invisible: the
// same program fires the same callbacks at the same (time, seq) with
// the same Events() count as under a reference that only flags the
// event and skips it when its turn comes. The program cancels pending
// timers (the heap's root and last slot among them), timers on the
// same-instant ready list, fired timers, cancelled timers, and a
// timer's own event from inside its callback; and it arms six events
// again and again in place (Event.Init, Event.Arm), pending or due this
// instant or stopped, where the reference cancels and allocates anew.
func TestCancelMatchesFlagging(t *testing.T) {
	var cov cancelCoverage
	var root, tail, fromTheHeap int
	for seed := int64(1); seed <= 40; seed++ {
		eng := &engineEnv{e: New(seed)}
		got := timerProgram(t, eng, seed, &cov)
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
		if n := len(eng.e.queue); n != 0 {
			t.Fatalf("seed %d: %d events left on the heap after Run", seed, n)
		}
		root, tail, fromTheHeap = root+eng.root, tail+eng.tail, fromTheHeap+eng.fromTheHeap
	}
	for name, n := range map[string]int{
		"from the heap": fromTheHeap, "of the heap's root": root, "of the heap's last slot": tail,
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

// A retransmission timer armed for two seconds and cancelled a
// microsecond later, a hundred thousand times over, must leave nothing
// behind: the heap never holds more than the live timer and the event
// that carries the loop.
func TestCancelledTimersLeaveTheHeap(t *testing.T) {
	e := New(1)
	var (
		timer  *Event
		cycle  func()
		cycles int
		peak   int
	)
	cycle = func() {
		if timer != nil {
			timer.Cancel()
		}
		if cycles == 100_000 {
			return
		}
		cycles++
		timer = e.After(2*Second, func() { t.Error("a cancelled timer fired") })
		e.Schedule(e.Now()+Microsecond, cycle)
		if n := len(e.queue); n > peak {
			peak = n
		}
	}
	e.Schedule(0, cycle)
	end := e.Run()
	if peak > 2 || len(e.queue) != 0 {
		t.Errorf("heap peaked at %d events and ends with %d, want at most 2 and 0", peak, len(e.queue))
	}
	if want := 100_000 * Microsecond; end != want || e.Events() != 100_001 {
		t.Errorf("run ended at %v after %d events, want %v after 100001", end, e.Events(), want)
	}
}

// A timer embedded in its owner is armed and cancelled without
// allocating and without leaving anything on the heap, and fires when
// left alone.
func TestTimerRearmAllocations(t *testing.T) {
	e := New(1)
	var timer Event
	fires := 0
	timer.Init(e, func() { fires++ })
	e.Spawn("owner", func(p *Proc) {
		allocs := testing.AllocsPerRun(1000, func() {
			timer.Arm(2 * Second)
			timer.Arm(3 * Second) // moves it
			if len(e.queue) != 1 {
				t.Fatalf("%d events on the heap with one timer armed", len(e.queue))
			}
			timer.Cancel()
		})
		if allocs != 0 || len(e.queue) != 0 {
			t.Errorf("arming and cancelling allocates %v times and leaves %d events, want 0 and 0", allocs, len(e.queue))
		}
		timer.Arm(Second)
		p.Sleep(2 * Second)
		if fires != 1 || p.Now() != 2*Second {
			t.Errorf("%d firings by %v, want 1 by 2s", fires, p.Now())
		}
	})
	e.Run()
	e.Shutdown()
}
