package amoeba

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// cluster boots n machines on a default network under a fault plan
// (nil for none).
func cluster(t *testing.T, n int, plan *netsim.FaultPlan) (*sim.Env, *netsim.Network, []*Machine) {
	t.Helper()
	env := sim.New(7)
	nw := netsim.New(env, n, netsim.DefaultParams())
	nw.InstallFaults(plan, nil)
	ms := make([]*Machine, n)
	for i := 0; i < n; i++ {
		ms[i] = NewMachine(env, nw, i, DefaultCosts())
	}
	return env, nw, ms
}

// lossy is a fault plan that loses each fragment with probability p on
// every link for the whole run.
func lossy(p float64) *netsim.FaultPlan {
	return &netsim.FaultPlan{Losses: []netsim.LossWindow{{Src: netsim.AnyNode, Dst: netsim.AnyNode, Until: math.MaxInt64, Prob: p}}}
}

func TestPortDispatch(t *testing.T) {
	env, _, ms := cluster(t, 2, nil)
	var got []string
	ms[1].Bind("echo", func(p *sim.Proc, from int, pkt Packet) {
		got = append(got, fmt.Sprintf("%s from %d", pkt.Body.(string), from))
	})
	ms[0].SpawnThread("sender", func(p *sim.Proc) {
		ms[0].Send(p, 1, Packet{Port: "echo", Kind: "test", Body: "hi", Size: 16})
	})
	env.Run()
	if len(got) != 1 || got[0] != "hi from 0" {
		t.Fatalf("got %v", got)
	}
	env.Shutdown()
}

func TestDoubleBindPanics(t *testing.T) {
	_, _, ms := cluster(t, 1, nil)
	ms[0].Bind("p", func(*sim.Proc, int, Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double bind")
		}
	}()
	ms[0].Bind("p", func(*sim.Proc, int, Packet) {})
}

func TestInterruptChargesCPU(t *testing.T) {
	env, _, ms := cluster(t, 2, nil)
	ms[1].Bind("sink", func(p *sim.Proc, from int, pkt Packet) {})
	ms[0].SpawnThread("sender", func(p *sim.Proc) {
		// 3000 bytes -> 2 fragments
		ms[0].Send(p, 1, Packet{Port: "sink", Kind: "big", Body: nil, Size: 3000})
	})
	env.Run()
	costs := DefaultCosts()
	want := 2*costs.Interrupt + costs.Protocol
	if got := ms[1].CPU().BusyTime(); got != want {
		t.Fatalf("receiver CPU busy = %v, want %v", got, want)
	}
	env.Shutdown()
}

func TestComputeSerializesOnCPU(t *testing.T) {
	env, _, ms := cluster(t, 1, nil)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		ms[0].SpawnThread(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			ms[0].Compute(p, sim.Millisecond)
			done = append(done, p.Now())
		})
	}
	env.Run()
	if done[0] != sim.Millisecond || done[1] != 2*sim.Millisecond {
		t.Fatalf("completions %v, want [1ms 2ms]", done)
	}
	if ms[0].AppBusy() != 2*sim.Millisecond {
		t.Fatalf("AppBusy = %v", ms[0].AppBusy())
	}
	env.Shutdown()
}

func TestRPCBasic(t *testing.T) {
	env, _, ms := cluster(t, 2, nil)
	srv := NewServer(ms[1], "adder")
	ms[1].SpawnThread("server", func(p *sim.Proc) {
		for {
			r, ok := srv.GetRequest(p)
			if !ok {
				return
			}
			srv.PutReply(p, r, r.Body.(int)+1, 8)
		}
	})
	c := NewClient(ms[0], DefaultRPCPolicy())
	var got any
	var err error
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		got, err = c.Trans(p, 1, "adder", "inc", 41, 8)
	})
	env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.(int) != 42 {
		t.Fatalf("got %v, want 42", got)
	}
	env.Shutdown()
}

// TestRPCReplyTwicePanics pins the record discipline: a Request goes
// back to the server at its PutReply, so a second reply — in either
// form — is a use after release and must panic, not send an rpc-rep
// for transaction 0 to node 0.
func TestRPCReplyTwicePanics(t *testing.T) {
	env, _, ms := cluster(t, 2, nil)
	srv := NewServer(ms[1], "adder")
	var caught []any
	again := func(reply func()) {
		defer func() { caught = append(caught, recover()) }()
		reply()
	}
	ms[1].SpawnThread("server", func(p *sim.Proc) {
		r, _ := srv.GetRequest(p)
		srv.PutReply(p, r, 1, 8)
		again(func() { srv.PutReply(p, r, 2, 8) })
		again(func() { srv.PutReplyOn(p, r, Args{}, nil, 8, sim.Func(func() {})) })
	})
	c := NewClient(ms[0], DefaultRPCPolicy())
	var got any
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		got, _ = c.Trans(p, 1, "adder", "inc", 41, 8)
	})
	env.Run()
	env.Shutdown()
	if got != 1 {
		t.Fatalf("client got %v, want the first reply", got)
	}
	for i, v := range caught {
		if msg, _ := v.(string); !strings.Contains(msg, "already been replied to") {
			t.Fatalf("second reply %d: recovered %v, want the reply-twice panic", i, v)
		}
	}
	if len(caught) != 2 {
		t.Fatalf("caught %d panics, want 2", len(caught))
	}
}

func TestRPCLatencyInAmoebaRange(t *testing.T) {
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
	var rtt sim.Time
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		start := p.Now()
		if _, err := c.Trans(p, 1, "null", "nop", nil, 0); err != nil {
			t.Error(err)
		}
		rtt = p.Now() - start
	})
	env.Run()
	// Amoeba reported null RPC around 1.2-1.4 ms on this hardware
	// class; the model should land in the same regime.
	if rtt < 800*sim.Microsecond || rtt > 3*sim.Millisecond {
		t.Fatalf("null RPC rtt = %v, want ~1ms regime", rtt)
	}
	env.Shutdown()
}

func TestRPCRetransmissionOnLossyNet(t *testing.T) {
	env, _, ms := cluster(t, 2, lossy(0.3))
	srv := NewServer(ms[1], "svc")
	served := 0
	ms[1].SpawnThread("server", func(p *sim.Proc) {
		for {
			r, ok := srv.GetRequest(p)
			if !ok {
				return
			}
			served++
			srv.PutReply(p, r, r.Body, 8)
		}
	})
	c := NewClient(ms[0], RPCDefaults{Timeout: 50 * sim.Millisecond, Retries: 20})
	okCount := 0
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			got, err := c.Trans(p, 1, "svc", "echo", i, 8)
			if err != nil {
				t.Errorf("rpc %d failed: %v", i, err)
				return
			}
			if got.(int) != i {
				t.Errorf("rpc %d: got %v", i, got)
				return
			}
			okCount++
		}
	})
	env.Run()
	if okCount != 50 {
		t.Fatalf("completed %d of 50 RPCs on lossy net", okCount)
	}
	env.Shutdown()
}

// one is the record holding v.
func one[T any](v T) (a Args) {
	Put(&a, nil, v)
	return a
}

// atMostOnceRun sends 30 RPCs over a net that loses 40% of all frames,
// so that requests are retransmitted and replies lost, to a server that
// counts executions, and reports every figure an observer could take.
// The server is one thread looping on GetRequest and PutResult or, if
// served, a consumer with no process behind it (Server.Serve).
func atMostOnceRun(t *testing.T, served bool) string {
	t.Helper()
	env, nw, ms := cluster(t, 2, lossy(0.4))
	srv := NewServer(ms[1], "ctr")
	execs := 0
	if served {
		var c *sim.Proc
		c = srv.Serve(func(r *Request) {
			execs++
			srv.PutReplyOn(c, r, one(execs), nil, 8, sim.Func(srv.Done))
		})
	} else {
		ms[1].SpawnThread("server", func(p *sim.Proc) {
			for {
				r, ok := srv.GetRequest(p)
				if !ok {
					return
				}
				execs++
				srv.PutResult(p, r, one(execs), 8)
			}
		})
	}
	c := NewClient(ms[0], RPCDefaults{Timeout: 30 * sim.Millisecond, Retries: 30})
	done, sum := 0, 0
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			rep, err := c.Call(p, 1, Packet{Port: "ctr", Op: "bump", Size: 4})
			if err != nil {
				t.Errorf("rpc failed: %v", err)
				return
			}
			sum += Get[int](&rep.Args, 0)
			done++
		}
	})
	end := env.Run()
	st := nw.Stats()
	fig := fmt.Sprintf("done=%d execs=%d sum=%d end=%v events=%d frames=%d drops=%d busy=%d/%d",
		done, execs, sum, end, env.Events(), st.Frames, st.Drops, ms[0].CPU().BusyTime(), ms[1].CPU().BusyTime())
	env.Shutdown()
	return fig
}

// Duplicate requests (the net loses 40% of all frames) must not execute
// twice, and it must make no difference to any figure whether a thread
// serves the requests or a consumer with no process behind it does. The
// pinned figures are those of the server that had only threads.
func TestRPCAtMostOnce(t *testing.T) {
	for _, served := range []bool{false, true} {
		const want = "done=30 execs=30 sum=465 end=1.600s events=586 frames=136 drops=52 busy=21060000/22860000"
		if fig := atMostOnceRun(t, served); fig != want {
			t.Errorf("served=%t: %s, want %s", served, fig, want)
		}
	}
}

func TestRPCFailsFastOnCrashedServer(t *testing.T) {
	// A destination known to be down fails the transaction with
	// ErrCrashed instead of burning the retry budget.
	env, _, ms := cluster(t, 2, nil)
	NewServer(ms[1], "dead")
	ms[1].Crash()
	c := NewClient(ms[0], RPCDefaults{Timeout: 10 * sim.Millisecond, Retries: 1 << 20})
	var err error
	var took sim.Time
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		start := p.Now()
		_, err = c.Trans(p, 1, "dead", "nop", nil, 0)
		took = p.Now() - start
	})
	env.Run()
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if took > 20*sim.Millisecond {
		t.Fatalf("fail-fast took %v", took)
	}
	env.Shutdown()
}

func TestRPCCrashMidTransaction(t *testing.T) {
	// The server dies while the request is in flight: the client's next
	// timeout notices the down destination and fails with ErrCrashed.
	env, _, ms := cluster(t, 2, nil)
	NewServer(ms[1], "slow") // bound, but nobody serves requests
	c := NewClient(ms[0], RPCDefaults{Timeout: 10 * sim.Millisecond, Retries: 1 << 20})
	var err error
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		_, err = c.Trans(p, 1, "slow", "nop", nil, 0)
	})
	env.At(15*sim.Millisecond, func() { ms[1].Crash() })
	env.Run()
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	env.Shutdown()
}

func TestRPCTimeoutWithoutCrash(t *testing.T) {
	// An unresponsive-but-alive server still yields ErrRPCTimeout once
	// retries are exhausted.
	env, _, ms := cluster(t, 2, nil)
	NewServer(ms[1], "mute") // bound, but nobody serves requests
	c := NewClient(ms[0], RPCDefaults{Timeout: 10 * sim.Millisecond, Retries: 2})
	var err error
	ms[0].SpawnThread("client", func(p *sim.Proc) {
		_, err = c.Trans(p, 1, "mute", "nop", nil, 0)
	})
	env.Run()
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	env.Shutdown()
}

// A deferred function runs in interrupt context, with the interrupt
// thread for identity, and may send; the next task of interrupt service,
// another round due at the same instant, waits until the send's
// continuation has run.
func TestDeferRunsOnInterruptThread(t *testing.T) {
	env, _, ms := cluster(t, 2, nil)
	ms[1].Bind("sink", func(*sim.Proc, int, Packet) {})
	var log []string
	note := func(p *sim.Proc, what string) {
		log = append(log, fmt.Sprintf("%s by %s at %v", what, p.Name(), p.Now()))
	}
	ms[0].Deadline(5*sim.Millisecond, func(p *sim.Proc) {
		note(p, "round")
		ms[0].SendOn(p, 1, Packet{Port: "sink", Size: 8}, sim.Func(func() { note(p, "sent") }))
	})
	ms[0].Deadline(5*sim.Millisecond, func(p *sim.Proc) { note(p, "next round") })
	env.Run()
	want := "[round by node0/netisr at 5.000ms sent by node0/netisr at 5.180ms next round by node0/netisr at 5.180ms]"
	if fmt.Sprint(log) != want {
		t.Errorf("%v, want %s", log, want)
	}
	env.Shutdown()
}

func TestCrashStopsService(t *testing.T) {
	env, _, ms := cluster(t, 2, nil)
	got := 0
	ms[1].Bind("sink", func(p *sim.Proc, from int, pkt Packet) { got++ })
	ms[0].SpawnThread("sender", func(p *sim.Proc) {
		ms[0].Send(p, 1, Packet{Port: "sink", Size: 8})
		p.Sleep(10 * sim.Millisecond)
		ms[1].Crash()
		ms[0].Send(p, 1, Packet{Port: "sink", Size: 8})
	})
	env.Run()
	if got != 1 {
		t.Fatalf("crashed machine serviced %d packets, want 1", got)
	}
	env.Shutdown()
}

func TestServiceIDUnique(t *testing.T) {
	_, _, ms := cluster(t, 2, nil)
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		for _, m := range ms {
			id := m.ServiceID()
			if seen[id] {
				t.Fatalf("duplicate service id %d", id)
			}
			seen[id] = true
		}
	}
}

// cachedArgs is the reply the server's at-most-once cache holds for
// transaction txid, if it holds one.
func cachedArgs(s *Server, txid int64) (Args, bool) {
	if rep := s.seen.get(txid); rep != nil {
		return rep.args, true
	}
	return Args{}, false
}

// The at-most-once cache holds exactly the last replyWindow replies, and
// over a server's whole life — from its first reply to 32×replyWindow —
// it allocates nothing once full and under 100 KB in all. The allocations
// are counted with runtime.MemStats over the whole run, not averaged per
// reply by testing.AllocsPerRun, whose integer average reads a rare
// rehash as 0: a Go map beside a ring of ids spent about 620 KB to hold
// 64 KB of replies, because the map's FIFO deletes leave tombstones and
// its rehash always grows the table. The counts are the process's, and
// another goroutine (a test that is finishing) may allocate during one
// life, so a life that reads over budget is lived again by a new server,
// up to three times; what the cache allocates, it allocates every time.
func TestRPCReplyCacheAllocations(t *testing.T) {
	skipUnderRace(t)
	env, _, ms := cluster(t, 1, nil)
	defer env.Shutdown()
	env.Run()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may allocate for the runtime
	for life := 1; ; life++ {
		srv := NewServer(ms[0], fmt.Sprint("svc", life))
		if srv.inwrk != nil || srv.seen.ring != nil {
			t.Fatalf("a server that has served nothing holds an in-work set (%t) or a reply ring of %d", srv.inwrk != nil, len(srv.seen.ring))
		}
		r := &Request{srv: srv}
		replies := func(n int) {
			for i := 0; i < n; i++ {
				r.TxID++
				srv.reply(r, one(r.TxID), nil, 8)
			}
		}
		var born, full, end runtime.MemStats
		runtime.ReadMemStats(&born)
		replies(replyWindow)
		runtime.ReadMemStats(&full)
		replies(31 * replyWindow)
		runtime.ReadMemStats(&end)
		oldest := r.TxID - int64(replyWindow) + 1
		for id := oldest - int64(replyWindow); id <= r.TxID; id++ {
			args, ok := cachedArgs(srv, id)
			if want := id >= oldest; ok != want || ok && Get[int64](&args, 0) != id {
				t.Fatalf("transaction %d: cached %t with %v, want cached %t (the last %d of %d only)", id, ok, args.Values(), want, replyWindow, r.TxID)
			}
		}
		n, b := end.Mallocs-full.Mallocs, end.TotalAlloc-born.TotalAlloc
		if n == 0 && b <= 100<<10 {
			return
		}
		if life == 3 {
			t.Fatalf("%d replies into the full cache allocate %d times (%d B), want 0; the cache's whole life of %d replies allocates %d B in %d allocations, want at most %d",
				31*replyWindow, n, end.TotalAlloc-full.TotalAlloc, 32*replyWindow, b, end.Mallocs-born.Mallocs, 100<<10)
		}
	}
}
