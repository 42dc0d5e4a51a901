package amoeba

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// crashRun broadcasts four packets from machine 0 to a counting port on
// machines 1 and 2, crashes machine 1 at crashAt (never, if zero), and
// reports every figure an observer could take. Deliveries arrive faster
// than they are served (a send costs 180 µs, a receipt 210 µs), so
// machine 1 always has successors queued behind the delivery in
// service.
func crashRun(t *testing.T, crashAt sim.Time) (handled [3][]sim.Time, fig string) {
	t.Helper()
	env, nw, ms := cluster(t, 3, nil)
	for i := 1; i <= 2; i++ {
		i := i
		ms[i].Bind("sink", func(p *sim.Proc, from int, pkt Packet) {
			handled[i] = append(handled[i], p.Now())
		})
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
	clean, fig := crashRun(t, 0)
	if want := "queued=-1 events=23 frames=4 busy=720000/840000/840000"; fig != want {
		t.Errorf("no crash: %s, want %s", fig, want)
	}
	if len(clean[1]) != 4 || len(clean[2]) != 4 {
		t.Fatalf("handled %d and %d packets, want 4 and 4", len(clean[1]), len(clean[2]))
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
		handled, fig := crashRun(t, c.crashAt)
		if len(handled[1]) != c.handled {
			t.Errorf("%s: crashed machine ran %d handlers, want %d", c.name, len(handled[1]), c.handled)
		}
		if fmt.Sprint(handled[2]) != fmt.Sprint(clean[2]) {
			t.Errorf("%s: bystander handled at %v, want %v", c.name, handled[2], clean[2])
		}
		if fig != c.fig {
			t.Errorf("%s: %s, want %s", c.name, fig, c.fig)
		}
	}
}

// chainRun has machine 0 send three triggers to machine 1, each 3 ms
// after the last, which relays each as two frames to machine 2, a then
// b, while a user thread on machine 1 keeps its CPU busy in 100 µs
// claims: the user's next claim is queued while the relay's first send
// is charged, so it comes between the two sends. The relay's handler
// sends through the continuation forms, the second send from the
// first's continuation; on thread, the reference, the handler hands the
// trigger to a thread of the test's that sends both with Send. Machine
// 1 crashes at crashAt (never, if zero). It returns the (time, frame)
// trace of machine 2 and the figures an observer could take.
func chainRun(t *testing.T, thread bool, crashAt sim.Time) (trace, fig string) {
	env, _, ms := cluster(t, 3, nil)
	var got []string
	ms[2].Bind("sink", func(p *sim.Proc, from int, pkt Packet) {
		got = append(got, fmt.Sprintf("%v %v", p.Now(), pkt.Body))
	})
	frame := func(name string, k int) Packet { return Packet{Port: "sink", Body: fmt.Sprint(name, k), Size: 64} }
	if thread {
		triggers := sim.NewQueue[int](env)
		ms[1].Bind("relay", func(p *sim.Proc, from int, pkt Packet) { triggers.Put(pkt.Body.(int)) })
		ms[1].SpawnThread("relay", func(p *sim.Proc) {
			for {
				k, _ := triggers.Get(p)
				ms[1].Send(p, 2, frame("a", k))
				ms[1].Send(p, 2, frame("b", k))
			}
		})
	} else {
		ms[1].Bind("relay", func(p *sim.Proc, from int, pkt Packet) {
			k := pkt.Body.(int)
			ms[1].SendFn(p, 2, frame("a", k), func() {
				ms[1].SendFn(p, 2, frame("b", k), func() {})
			})
		})
	}
	ms[1].SpawnThread("user", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			ms[1].Compute(p, 100*sim.Microsecond)
		}
	})
	ms[0].SpawnThread("sender", func(p *sim.Proc) {
		for k := 0; k < 3; k++ {
			ms[0].Send(p, 1, Packet{Port: "relay", Body: k, Size: 64})
			p.Sleep(3 * sim.Millisecond)
		}
	})
	if crashAt > 0 {
		env.At(crashAt, func() { ms[1].Crash() })
	}
	env.Run()
	env.Shutdown()
	return strings.Join(got, ", "), fmt.Sprintf("busy=%d events=%d", ms[1].CPU().BusyTime(), env.Events())
}

// A handler's second send, made from its first send's continuation,
// takes the place a thread's second Send takes: behind the claim a user
// thread queued while the first was charged. So machine 2 hears the same
// frames at the same instants as from the reference thread, and a crash
// between the two sends cuts the chain where it cuts the thread. The
// pinned figures were taken from the kernel that ran such a handler on
// its interrupt thread with blocking sends.
func TestChainedSendsMatchThread(t *testing.T) {
	for _, c := range []struct {
		name    string
		crashAt sim.Time
		trace   string
		fig     string
	}{
		{"no crash", 0, "1.235ms a0, 1.515ms b0, 4.405ms a1, 4.685ms b1, 7.575ms a2, 7.855ms b2", "busy=11710000 events=162"},
		// a1 has gone out, b1 is being charged behind the user's claim.
		{"crash mid-chain", 4200 * sim.Microsecond, "1.235ms a0, 1.515ms b0, 4.405ms a1", "busy=9540000 events=74"},
	} {
		trace, fig := chainRun(t, false, c.crashAt)
		if ref, _ := chainRun(t, true, c.crashAt); trace != ref {
			t.Errorf("%s: machine 2 heard %s, from the reference thread %s", c.name, trace, ref)
		}
		if trace != c.trace || fig != c.fig {
			t.Errorf("%s: %s | %s, want %s | %s", c.name, trace, fig, c.trace, c.fig)
		}
	}
}

// A handler runs on the dispatch lane in the name of the interrupt
// claimant, which has no process to park, so a handler that reaches a
// blocking call with it is a bug, and sim says so, naming the claimant,
// instead of hanging.
func TestBlockingHandlerPanics(t *testing.T) {
	env, _, ms := cluster(t, 2, nil)
	ms[1].Bind("svc", func(p *sim.Proc, from int, pkt Packet) {
		ms[1].Send(p, 0, Packet{Port: "svc", Size: 64})
	})
	ms[0].SpawnThread("sender", func(p *sim.Proc) {
		ms[0].Send(p, 1, Packet{Port: "svc", Size: 64})
	})
	defer env.Shutdown()
	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, "node1/netisr blocks while already parked") {
			t.Errorf("a handler that blocked reported %q", r)
		}
	}()
	env.Run()
}

// A transaction's record goes back to the client's pool when Trans
// returns and serves the next transaction, while a duplicate of the
// first one's reply can still be on its way: the reply is 60 KB and
// holds the wire for 48 ms, the client retransmits at 30 ms, and the
// server answers the retransmission from its reply cache once the wire
// is free — by which time the client is in its second transaction, on
// the same record. Replies are matched by transaction id, so the
// duplicate must be dropped as late, not handed to the wrong caller.
func TestRPCLateDuplicateMeetsReusedRecord(t *testing.T) {
	env, nw, ms := cluster(t, 2, nil)
	srv := NewServer(ms[1], "svc")
	ms[1].SpawnThread("server", func(p *sim.Proc) {
		size := 60_000
		for {
			r, ok := srv.GetRequest(p)
			if !ok {
				return
			}
			if size == 8 {
				ms[1].Compute(p, 5*sim.Millisecond) // keep the second transaction open while the duplicate arrives
			}
			srv.PutReply(p, r, r.Body, size)
			size = 8
		}
	})
	c := NewClient(ms[0], RPCDefaults{Timeout: 30 * sim.Millisecond, Retries: 10})
	var got [2]any
	var first *rpcWait
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		got[0], _ = c.Trans(p, 1, "svc", "echo", "one", 8)
		first = c.free[len(c.free)-1]
		got[1], _ = c.Trans(p, 1, "svc", "echo", "two", 8)
	})
	// Watch the reply port from in front of the client's handler.
	var replies []string
	env.At(0, func() {
		h := ms[0].ports["svc-rep"]
		ms[0].ports["svc-rep"] = func(p *sim.Proc, from int, pkt Packet) {
			w := pkt
			state := "late"
			if c.waits[w.TxID] != nil {
				state = "awaited"
			}
			for _, open := range c.waits {
				if open == first && state == "late" {
					state = "late, its record reused"
				}
			}
			replies = append(replies, fmt.Sprintf("%v: %s", w.Body, state))
			h(p, from, pkt)
		}
	})
	env.Run()
	if got[0] != "one" || got[1] != "two" {
		t.Errorf("transactions returned %v, want [one two]", got)
	}
	want := "[one: awaited one: late, its record reused two: awaited]"
	if fmt.Sprint(replies) != want {
		t.Errorf("replies at the client: %v, want %s", replies, want)
	}
	if len(c.free) != 1 || c.free[0] != first || len(c.waits) != 0 {
		t.Errorf("client ends with %d pooled records and %d open transactions, want the one record and none", len(c.free), len(c.waits))
	}
	if n := nw.Stats().CountsByKind["rpc-rep"]; n != 3 {
		t.Errorf("%d replies on the wire, want 3", n)
	}
	env.Shutdown()
}

// A client thread killed in the middle of a transaction (its machine
// crashed) stays parked while the run goes on and unwinds at Shutdown,
// so its record must neither return to the pool nor leave the table of
// open transactions, and the timer still armed for it must find the
// record its own.
func TestRPCKilledClientKeepsItsRecord(t *testing.T) {
	env, _, ms := cluster(t, 3, nil)
	NewServer(ms[2], "mute") // requests queue up; nobody serves them
	doomed := NewClient(ms[0], RPCDefaults{Timeout: 40 * sim.Millisecond, Retries: 3})
	bystander := NewClient(ms[1], RPCDefaults{Timeout: 40 * sim.Millisecond, Retries: 3})
	var err error
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		doomed.Trans(p, 2, "mute", "nop", nil, 0)
		t.Error("Trans returned on a crashed machine")
	})
	ms[1].SpawnThread("client", func(p *sim.Proc) {
		_, err = bystander.Trans(p, 2, "mute", "nop", nil, 0)
	})
	var open *rpcWait
	env.At(10*sim.Millisecond, func() {
		for _, w := range doomed.waits {
			open = w
		}
		ms[0].Crash()
	})
	env.Run()
	env.Shutdown() // the killed thread unwinds here, through Trans's deferred cleanup
	if open == nil || len(doomed.waits) != 1 || len(doomed.free) != 0 {
		t.Fatalf("killed client: %d open transactions and %d pooled records, want its one transaction still open and no record pooled",
			len(doomed.waits), len(doomed.free))
	}
	if !open.timedOut || open.replied {
		t.Errorf("the dead transaction's timer left timedOut=%t replied=%t, want it fired on its own record", open.timedOut, open.replied)
	}
	if !errors.Is(err, ErrRPCTimeout) || len(bystander.waits) != 0 || len(bystander.free) != 1 {
		t.Errorf("bystander: err %v, %d open transactions, %d pooled records; want a timeout, none, one",
			err, len(bystander.waits), len(bystander.free))
	}
}

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

// One warm round trip allocates nothing to speak of: the packets travel
// by value in pooled boxes, the retransmission timer is part of the
// pooled transaction record, and the request record, the frames in
// flight and every wake-up are recycled. (The reply cache's map is what
// is left.)
func TestRPCRoundTripAllocations(t *testing.T) {
	skipUnderRace(t)
	env, _, ms := cluster(t, 2, nil)
	srv := NewServer(ms[1], "null")
	ms[1].SpawnThread("server", func(p *sim.Proc) {
		for {
			r, ok := srv.GetRequest(p)
			if !ok {
				return
			}
			srv.PutReply(p, r, nil, 0)
		}
	})
	c := NewClient(ms[0], DefaultRPCPolicy())
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		for {
			if _, err := c.Trans(p, 1, "null", "nop", nil, 0); err != nil {
				t.Error(err)
				return
			}
		}
	})
	now := sim.Time(0)
	tick := func() {
		now += 100 * sim.Millisecond
		env.RunUntil(now)
	}
	tick()
	before := env.Events()
	perTick := testing.AllocsPerRun(10, tick)
	trips := float64(env.Events()-before) / 11 / 11 // AllocsPerRun ticks once to warm up; a round trip is 11 events
	if perTrip := perTick / trips; perTrip > 1 || trips < 50 {
		t.Errorf("%.1f allocations per round trip over %.0f round trips per tick, want at most 1 over at least 50", perTrip, trips)
	}
	env.Shutdown()
}

// A request is copied into a fresh box at every transmission, so a
// retransmission carries the bytes it was first sent with whatever has
// happened to the record it came from. The construction is that of
// TestRPCLateDuplicateMeetsReusedRecord, with the header's parameters
// watched: the first transaction's reply is 60 KB and holds the wire
// while the client retransmits; the server then sees, in order, request
// one, its retransmission, and request two — sent from the same client
// record.
func TestRPCRetransmissionCarriesItsOwnBytes(t *testing.T) {
	env, nw, ms := cluster(t, 2, nil)
	srv := NewServer(ms[1], "svc")
	ms[1].SpawnThread("server", func(p *sim.Proc) {
		size := 60_000
		for {
			r, ok := srv.GetRequest(p)
			if !ok {
				return
			}
			srv.PutResult(p, r, r.Args, size)
			size = 8
		}
	})
	var seen []string
	env.At(0, func() {
		h := ms[1].ports["svc"]
		ms[1].ports["svc"] = func(p *sim.Proc, from int, pkt Packet) {
			seen = append(seen, fmt.Sprintf("%s/%d %v", pkt.Op, pkt.Obj, pkt.Args.Values()))
			h(p, from, pkt)
		}
	})
	c := NewClient(ms[0], RPCDefaults{Timeout: 30 * sim.Millisecond, Retries: 10})
	var got [2]Packet
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		got[0], _ = c.Call(p, 1, Packet{Port: "svc", Op: "echo", Obj: 1, Args: one(int64(1) << 40), Size: 8})
		got[1], _ = c.Call(p, 1, Packet{Port: "svc", Op: "echo", Obj: 2, Args: one("two"), Size: 8})
	})
	env.Run()
	env.Shutdown()
	want := "[echo/1 [1099511627776] echo/1 [1099511627776] echo/2 [two]]"
	if fmt.Sprint(seen) != want {
		t.Errorf("requests at the server: %v, want %s", seen, want)
	}
	if a, b := got[0].Args.Values(), got[1].Args.Values(); fmt.Sprint(a, b) != "[1099511627776] [two]" {
		t.Errorf("replies: %v and %v", a, b)
	}
	if n := nw.Stats().CountsByKind["rpc-req"]; n != 3 {
		t.Errorf("%d requests on the wire, want 3", n)
	}
}

// A frame the network drops takes its box with it: nobody returns it,
// nobody returns another's twice, and the transactions retry through
// the fault. Every box the pool hands out afterwards must be blank, as
// open leaves them.
func TestRPCDroppedFramesKeepTheirBoxes(t *testing.T) {
	env, nw, ms := cluster(t, 2, nil)
	nw.InstallFaults(&netsim.FaultPlan{Losses: []netsim.LossWindow{
		{Src: netsim.AnyNode, Dst: netsim.AnyNode, Until: 2 * sim.Second, Prob: 0.4}}}, nil)
	srv := NewServer(ms[1], "svc")
	ms[1].SpawnThread("server", func(p *sim.Proc) {
		for {
			r, ok := srv.GetRequest(p)
			if !ok {
				return
			}
			srv.PutResult(p, r, r.Args, 8)
		}
	})
	c := NewClient(ms[0], RPCDefaults{Timeout: 20 * sim.Millisecond, Retries: 50})
	done := 0
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			rep, err := c.Call(p, 1, Packet{Port: "svc", Op: "echo", Args: one(i), Size: 8})
			if err != nil || Get[int](&rep.Args, 0) != i {
				t.Errorf("call %d: %v, %v", i, rep.Args.Values(), err)
				return
			}
			done++
		}
	})
	env.Run()
	env.Shutdown()
	if st := nw.Stats(); done != 40 || st.Drops == 0 {
		t.Fatalf("%d of 40 calls through %d dropped frames; want all 40 and some drops", done, st.Drops)
	}
	for i := 0; i < 8; i++ {
		if b := boxes.Get().(*Packet); *b != (Packet{}) {
			t.Fatalf("the pool hands out a box still holding %+v", *b)
		}
	}
}

// A broadcast heard by fifteen machines is one recycled payload record,
// one recycled flight and five-word tasks in queues that have stopped
// growing: nothing is allocated for it, at the sender or at any
// receiver. (2 when the payload was boxed per broadcast and the fan-out
// was a closure.)
func TestBroadcastReceiveAllocations(t *testing.T) {
	skipUnderRace(t)
	env, _, ms := cluster(t, 16, nil)
	heard, sent := 0, 0
	all := sim.NewCond(env)
	for _, m := range ms {
		m.Bind("sink", func(*sim.Proc, int, Packet) {
			if heard++; heard == 15*sent {
				all.Signal()
			}
		})
	}
	ms[1].SpawnThread("sender", func(p *sim.Proc) {
		for {
			sent++
			ms[1].Broadcast(p, Packet{Port: "sink", Kind: "test", Body: &sent, Size: 64})
			all.Wait(p)
		}
	})
	now := sim.Time(0)
	tick := func() {
		now += 100 * sim.Millisecond
		env.RunUntil(now)
	}
	tick()
	before := sent
	perTick := testing.AllocsPerRun(10, tick)
	if per := perTick * 11 / float64(sent-before); per > 1 || sent-before < 1000 {
		t.Errorf("%.2f allocations per broadcast over %d broadcasts, want at most 1 over at least 1000", per, sent-before)
	}
	env.Shutdown()
}

// A broadcast's payload record returns to its sender when the last
// receiver that queued the frame has opened it, and not before: here
// receivers are charged nothing for a delivery and lose every other
// frame, so each frame travels as one flight per receiver, and a
// receiver opens its copy in the instant the next receiver hears its
// own. Every machine must read, for every frame it hears, the body the
// frame was sent with, while the sender goes through a handful of
// records; with poisoning on (see TestMain) a record released early
// would name a port nobody has bound.
func TestCastReturnsAfterItsLastReceiver(t *testing.T) {
	env := sim.New(7)
	nw := netsim.New(env, 6, netsim.DefaultParams())
	nw.InstallFaults(lossy(0.5), nil)
	ms := make([]*Machine, 6)
	heard := 0
	for i := range ms {
		ms[i] = NewMachine(env, nw, i, Costs{Send: 200 * sim.Microsecond})
		ms[i].Bind("sink", func(p *sim.Proc, from int, pkt Packet) {
			if k := pkt.Body.(int); pkt.Size != 64+k%7 || pkt.Kind != "test" {
				t.Errorf("frame %d arrived as %+v", k, pkt)
			}
			heard++
		})
	}
	env.Trace = func(_ sim.Time, format string, args ...any) {
		if s := fmt.Sprintf(format, args...); strings.Contains(s, "unbound port") {
			t.Error(s)
		}
	}
	ms[1].SpawnThread("sender", func(p *sim.Proc) {
		for k := 0; k < 500; k++ {
			ms[1].Broadcast(p, Packet{Port: "sink", Kind: "test", Body: k, Size: 64 + k%7})
		}
	})
	ms[4].Crash() // whatever it has queued is never opened: those records go to the collector
	env.Run()
	env.Shutdown()
	records := 0
	for c := ms[1].casts; c != nil; c = c.next {
		records++
		if c.refs != 0 || c.body != nil || c.port != "amoeba: released cast" {
			t.Errorf("a record on the free list reads %+v", *c)
		}
	}
	if heard < 500 || records == 0 || records > 8 {
		t.Errorf("%d frames heard through %d payload records; want at least 500 through at most 8", heard, records)
	}
}

// A server that keeps a Request past its PutReply holds, with poisoning
// on (see TestMain), a record that names no transaction and no client.
func TestReleasedRequestIsPoisoned(t *testing.T) {
	env, _, ms := cluster(t, 2, nil)
	srv := NewServer(ms[1], "svc")
	var kept *Request
	ms[1].SpawnThread("server", func(p *sim.Proc) {
		r, _ := srv.GetRequest(p)
		kept = r
		srv.PutResult(p, r, r.Args, 8)
	})
	c := NewClient(ms[0], DefaultRPCPolicy())
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		if _, err := c.Call(p, 1, Packet{Port: "svc", Op: "echo", Args: one(7), Size: 8}); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	env.Shutdown()
	if kept == nil || kept.TxID != -1 || kept.From != -2 || len(kept.Args.Values()) != 0 || kept.Port != "amoeba: released Request" {
		t.Errorf("the released request still reads %+v", kept)
	}
}

// A charge of several quanta is the same slices in the same event slots
// whether a thread makes it (Compute) or a served queue's consumer makes
// it in its claimant's name (ComputeFn): a second claimant that arrives
// mid-way gets the CPU after the slice in progress either way, and every
// moment an observer can see has the same clock and event count.
func TestComputeFnSlicesLikeCompute(t *testing.T) {
	type moment struct {
		who    string
		at     sim.Time
		events int64
	}
	run := func(inline bool) (trace []moment) {
		env, _, ms := cluster(t, 1, nil)
		m := ms[0]
		q := m.cpu.Slice
		note := func(who string) { trace = append(trace, moment{who, env.Now(), env.Events()}) }
		work := sim.NewQueue[sim.Time](env)
		if inline {
			c := m.Claimant("long")
			done := func() { note("long"); work.Done() }
			work.Serve(c, func(d sim.Time) { m.ComputeFn(c, d, done) })
		} else {
			m.SpawnThread("long", func(p *sim.Proc) {
				for {
					d, _ := work.Get(p)
					m.Compute(p, d)
					note("long")
				}
			})
		}
		m.SpawnThread("short", func(p *sim.Proc) {
			p.Sleep(q + q/5) // into the long charge's second slice
			m.Compute(p, q/2)
			note("short")
			m.Compute(p, 2*q) // and two slices of its own, interleaved with the rest
			note("short")
		})
		env.At(10*sim.Microsecond, func() { work.Put(3*q + q/2) })
		env.Run()
		note("end")
		if got, want := m.AppBusy(), 6*q; got != want {
			t.Errorf("inline=%t: AppBusy = %v, want %v", inline, got, want)
		}
		env.Shutdown()
		return trace
	}
	thread, inline := run(false), run(true)
	if fmt.Sprint(thread) != fmt.Sprint(inline) {
		t.Errorf("traces differ:\n  Compute:   %v\n  ComputeFn: %v", thread, inline)
	}
	q := sim.Millisecond
	// long: [10µs, q+10µs) [q+10µs, 2q+10µs); short's half slice; then they alternate.
	if want := 2*q + 10*sim.Microsecond + q/2; len(thread) != 4 || thread[0] != (moment{"short", want, thread[0].events}) {
		t.Errorf("trace %v: the second claimant did not get the CPU at the slice boundary, %v", thread, want)
	}
}
