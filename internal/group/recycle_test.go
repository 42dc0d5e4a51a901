package group

// What a receiver does per sequenced frame, pinned by equivalence: the
// dedup window against the 4096-slot ring it replaced, the in-order
// delivery path against the out-of-order buffer it skips, a capped ring
// against a map, a recycled send record against frames that arrive
// late, and the allocation budget of a PB send.

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/amoeba"
	"repro/internal/netsim"
	"repro/internal/sim"
)

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

// A ring with a cap never holds more slots than its cap, whatever the
// cap (the doubling it grew by overshot any cap that is not a power of
// two), and reads back what a map would.
func TestRingCapIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 300; round++ {
		max := 1 + rng.Intn(300)
		r := seqRing[int64]{max: max}
		lo := int64(1 + rng.Intn(5))
		r.reset(lo)
		ref := map[int64]int64{}
		refLo, refHi := lo, lo
		for step := 0; step < 400; step++ {
			switch i := refLo - 2 + int64(rng.Intn(max+max/2+4)); rng.Intn(8) {
			case 0:
				r.advanceTo(i)
				if i > refLo {
					refLo = i
				}
			case 1:
				r.del(i)
				delete(ref, i)
			default:
				v := 1 + rng.Int63()
				r.set(i, v)
				if i >= refLo {
					ref[i] = v
					if i-int64(max)+1 > refLo {
						refLo = i - int64(max) + 1
					}
				}
			}
			if refHi < refLo {
				refHi = refLo
			}
			for i := range ref {
				if i < refLo {
					delete(ref, i)
				} else if i >= refHi {
					refHi = i + 1
				}
			}
			if len(r.vals) > max {
				t.Fatalf("max %d: the ring holds %d slots", max, len(r.vals))
			}
			if r.lo != refLo || r.hi != refHi {
				t.Fatalf("max %d, step %d: window [%d, %d), want [%d, %d)", max, step, r.lo, r.hi, refLo, refHi)
			}
			for i := refLo - 3; i < refHi+3; i++ {
				if got := r.get(i); got != ref[i] {
					t.Fatalf("max %d, step %d: ring[%d] = %d, want %d", max, step, i, got, ref[i])
				}
			}
		}
	}
}

// The dedup window answers, for every submission of every program of
// deliveries — in order, reordered, duplicated, with a hole that is
// never filled, with a jump past the window — what the 4096-slot ring
// of sequence numbers it replaced answered, and a source that delivers
// in order costs it no slots at all.
func TestDedupPrefixMatchesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 40; round++ {
		var w dedupWindow
		ref := seqRing[int64]{max: srcWindow}
		ref.reset(1)
		refDup := func(i int64) bool { return i < ref.lo || ref.get(i) != 0 }
		deliver := func(i int64) {
			if got, want := w.delivered(i), refDup(i); got != want {
				t.Fatalf("round %d: submission %d a duplicate: %t, the ring says %t (window done %d, ring lo %d)", round, i, got, want, w.done, ref.lo)
			}
			if !refDup(i) {
				w.note(i)
				ref.set(i, 1+rng.Int63())
			}
		}
		next := int64(1)
		for step := 0; step < 3000; step++ {
			switch rng.Intn(40) {
			case 0: // a hole that is never filled
				next++
			case 1: // a duplicate of something recent, or ancient
				deliver(next - 1 - int64(rng.Intn(10)))
				deliver(1 + rng.Int63n(next))
			case 2: // a burst reordered within 8
				perm := rng.Perm(8)
				for _, k := range perm {
					deliver(next + int64(k))
				}
				next += 8
			case 3:
				if rng.Intn(10) == 0 { // a jump past the window
					next += srcWindow + int64(rng.Intn(100))
				}
			default:
				deliver(next)
				next++
			}
			if probe := next - int64(rng.Intn(2*srcWindow)); w.delivered(probe) != refDup(probe) {
				t.Fatalf("round %d: submission %d: window says %t, the ring %t", round, probe, w.delivered(probe), refDup(probe))
			}
		}
	}
	var w dedupWindow
	for i := int64(1); i <= 10_000; i++ {
		if w.delivered(i) {
			t.Fatalf("submission %d reads as delivered before it was", i)
		}
		w.note(i)
	}
	if w.ex != nil || !w.delivered(10_000) || w.delivered(10_001) {
		t.Errorf("after 10 000 in-order deliveries the window holds a ring (%v, done %d)", w.ex, w.done)
	}
}

// A record that arrives next in sequence with nothing buffered is
// delivered without passing through the out-of-order buffer. The same
// lossy run with every record forced through the buffer delivers the
// same streams, counts the same and dispatches the same events.
func TestInOrderFastPathMatchesBuffered(t *testing.T) {
	run := func(method Method, buffered bool) string {
		alwaysBuffer = buffered
		defer func() { alwaysBuffer = false }()
		h := newHarness(31, 5, lossy(0.05), func(c *Config) {
			c.Method = method
			c.SenderTimeout = 50 * sim.Millisecond
			c.GapTimeout = 25 * sim.Millisecond
			c.StatusEvery = 8
		})
		for i := range h.ms {
			h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
				for k := 0; k < 40; k++ {
					h.gs[i].Broadcast(p, "m", k, 100)
					p.Sleep(sim.Time(3+i) * sim.Millisecond)
				}
			})
		}
		h.env.RunUntil(60 * sim.Second)
		h.checkAgreement(t, 200, nil)
		out := fmt.Sprintf("events %d\n", h.env.Events())
		for i, g := range h.gs {
			out += fmt.Sprintf("node %d: %+v\n", i, g.Stats())
			for _, d := range h.logs[i] {
				out += fmt.Sprintf("%d %d %d %t\n", d.Seq, d.UID, d.Src, d.More)
			}
		}
		h.env.Stop()
		h.env.Shutdown()
		return out
	}
	for _, method := range []Method{ForcePB, ForceBB} {
		if fast, slow := run(method, false), run(method, true); fast != slow {
			t.Errorf("%v: the in-order path and the buffer disagree:\n%s\nthrough the buffer:\n%s", method, fast, slow)
		}
	}
}

// holdFirst rebinds member g's port so that the first packet from node
// src whose body passes is is set aside instead of handled, and returns
// a function that handles it, late, on the interrupt thread.
func holdFirst(m *amoeba.Machine, g *Member, src int, is func(body any) bool) (late func()) {
	var held *amoeba.Packet
	m.Unbind(g.port)
	m.Bind(g.port, func(p *sim.Proc, from int, pkt amoeba.Packet) {
		if held == nil && from == src && is(pkt.Body) {
			held = &pkt
			return
		}
		g.handle(p, from, pkt)
	})
	return func() {
		m.Defer(func(p *sim.Proc) { g.handle(p, src, *held) })
	}
}

// A send record returns to the free list only when no frame that shares
// it can still arrive. Here a frame does arrive late — after its op was
// acknowledged through a retransmission and its sender has issued a
// hundred more writes out of recycled, poisoned records: a request at
// the sequencer, which must recognise it as the duplicate it is, and BB
// data at a member, which stashes a pointer into the sender's array.
// Either must still read the op it was sent with.
func TestRecycledSendNeverReachesALateFrame(t *testing.T) {
	for _, method := range []Method{ForcePB, ForceBB} {
		h := newHarness(37, 4, nil, func(c *Config) {
			c.Method = method
			c.SenderTimeout = 40 * sim.Millisecond
			c.GapTimeout = 20 * sim.Millisecond
		})
		// Under PB the sequencer misses the request; under BB member 2
		// misses the data and fetches the op from the sequencer's history.
		at, isLate := 0, func(body any) bool { _, ok := body.(*reqMsg); return ok }
		if method == ForceBB {
			at, isLate = 2, func(body any) bool { _, ok := body.(*bbDataMsg); return ok }
		}
		late := holdFirst(h.ms[at], h.gs[at], 3, isLate)
		var first int64
		h.ms[3].SpawnThread("writer", func(p *sim.Proc) {
			wait := func(uid int64) {
				for n := len(h.uidLogs[3]); n == 0 || h.uidLogs[3][n-1] != uid; n = len(h.uidLogs[3]) {
					p.Sleep(sim.Millisecond)
				}
			}
			first = h.gs[3].Broadcast(p, "m", "the late one", 80)
			wait(first)
			for k := 0; k < 100; k++ {
				wait(h.gs[3].Broadcast(p, "m", k, 80))
			}
			late()
		})
		h.env.RunUntil(30 * sim.Second)
		h.checkAgreement(t, 101, nil)
		h.checkNoDuplicates(t, nil)
		if retx, gaps := h.gs[3].Stats().Retransmits, h.gs[2].Stats().GapRequests; (method == ForcePB) != (retx == 1) || (method == ForceBB) != (gaps > 0) {
			t.Errorf("%v: %d retransmissions, %d gap requests at member 2; the held frame must be made up for by one retransmission (PB) or from the sequencer's history (BB)", method, retx, gaps)
		}
		records := 0
		for st := h.gs[3].sendFree; st != nil; st = st.next {
			records++
			if st.items[0].UID != -1 || st.req.Items[0].UID != -1 {
				t.Errorf("%v: a released record reads %+v", method, st.items)
			}
		}
		if want := map[Method]int{ForcePB: 1, ForceBB: 0}[method]; records != want {
			t.Errorf("%v: 100 acknowledged sends went through %d recycled records, want %d", method, records, want)
		}
		if method == ForceBB {
			if it := h.gs[2].pendingBB[first]; it == nil || it.UID != first || it.Body != "the late one" {
				t.Errorf("BB: the late data frame stashed %+v at member 2, want the op it was sent with", it)
			}
		}
		h.env.Stop()
		h.env.Shutdown()
	}
}

// chunkTraffic runs watched traffic of every protocol at frame
// capacities 1 and 4 — PB, BB and consensus, four members, one lost
// fragment in twenty — and returns the runs' fingerprints. Every third
// submission is a batch of five, so that at capacity 4 packers flush on
// their op count as well as on their Linger deadlines, and arm them
// again while a fired round may still wait.
func chunkTraffic(seed int64) string {
	out := ""
	for _, pv := range protocolVariants {
		for _, cv := range capacityVariants {
			h := newHarness(seed, 4, lossy(0.05), func(c *Config) {
				c.SenderTimeout = 50 * sim.Millisecond
				c.GapTimeout = 25 * sim.Millisecond
				cv.mut(c)
				pv.mut(c)
			})
			for i := range h.ms {
				h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
					var batch [5]Msg
					for k := 0; k < 12; k++ {
						if k%3 == 2 {
							for j := range batch {
								batch[j] = Msg{Kind: "m", Body: 100*k + j, Args: carvedArgs(h.env, 1000*i+100*k+j), Size: 100}
							}
							h.gs[i].BroadcastBatch(p, batch[:], nil)
						} else {
							h.gs[i].BroadcastMsg(p, Msg{Kind: "m", Body: k, Args: carvedArgs(h.env, 1000*i+100*k), Size: 100})
						}
						p.Sleep(sim.Time(5+i) * sim.Millisecond)
					}
				})
			}
			h.env.RunUntil(60 * sim.Second)
			out += fmt.Sprintf("%s/%s %s\n", pv.name, cv.name, h.fingerprint(nil))
			for i := range h.logs {
				for _, d := range h.logs[i] {
					out += carvedValues(d) + "\n"
				}
			}
			h.env.Stop()
			h.env.Shutdown()
		}
	}
	return out
}

// Members of different environments share no chunk, no record and no
// kernel deadline, and environments no carve table: four goroutines run
// watched traffic of every protocol at alternating seeds, every message
// carrying values carved from its environment's tables (sim.Carve), and
// each must come out with the fingerprints and the delivered values a
// serial run of its seed has. A chunk, record store, carve table or
// deadline pool shared between environments fails it, under the race
// detector (CI runs go test -race ./...) and without it.
func TestConcurrentEnvsShareNoChunk(t *testing.T) {
	WatchDeliveries(t)
	serial := map[int64]string{1: chunkTraffic(1), 2: chunkTraffic(2)}
	got := make([]string, 4)
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = chunkTraffic(int64(1 + k%2))
		}()
	}
	wg.Wait()
	for k, fp := range got {
		if seed := int64(1 + k%2); fp != serial[seed] {
			t.Errorf("goroutine %d, seed %d:\n%s\nserially:\n%s", k, seed, fp, serial[seed])
		}
	}
}

// sendAllocations measures the allocations of one send from member 1 of
// a sixteen-member group, through to its delivery at every member: a
// writer broadcasts a 64-byte message, waits until member 1 is delivered
// it, and goes on. It returns the allocations per send and the number of
// sends measured. The measurement starts after the first four heartbeat
// intervals: a member binds a timer when it first arms it, and under
// consensus the followers first arm their gap timers at a heartbeat
// that finds a slot still unchosen (the third, at 750 ms, at seed 1).
// A one-time binding is not a send's cost.
func sendAllocations(t *testing.T, tune func(*Config)) (float64, int) {
	t.Helper()
	const n = 16
	env := sim.New(1)
	nw := netsim.New(env, n, netsim.DefaultParams())
	cfg := DefaultConfig(nil)
	for i := 0; i < n; i++ {
		cfg.Members = append(cfg.Members, i)
	}
	tune(&cfg)
	gs := make([]*Member, n)
	var last int64
	got := sim.NewCond(env)
	sent := 0
	for i := 0; i < n; i++ {
		m := amoeba.NewMachine(env, nw, i, amoeba.DefaultCosts())
		gs[i] = Join(m, cfg)
		m.SpawnThread("consumer", func(p *sim.Proc) {
			for {
				d, _ := gs[i].Deliveries().Get(p)
				if i == 1 {
					last = d.UID
					got.Signal()
				}
			}
		})
		if i == 1 {
			m.SpawnThread("writer", func(p *sim.Proc) {
				for {
					uid := gs[1].Broadcast(p, "m", nil, 64)
					for last != uid {
						got.Wait(p)
					}
					sent++
				}
			})
		}
	}
	now := sim.Time(0)
	tick := func() {
		now += 200 * sim.Millisecond
		env.RunUntil(now)
	}
	for now < 4*cfg.Heartbeat {
		tick()
	}
	before := sent
	perTick := testing.AllocsPerRun(10, tick)
	env.Shutdown()
	return perTick * 11 / float64(sent-before), sent - before
}

// A PB send from a member that is not the sequencer, through to its
// delivery at all sixteen members, allocates nothing of its own: the
// send record, its timer and its request body are recycled, the
// sequenced frame and its record are carved from the sequencer's chunks,
// the broadcast's payload record and flight are pooled by the layers
// below, a status report is all header, and in-order sources cost the
// dedup windows nothing. (6.3 with a record, a method value and a
// request body per send, a closure per fan-out and windows that grew to
// 4096 slots; 1.01 while every sequenced frame was an allocation.)
func TestPBSendAllocations(t *testing.T) {
	skipUnderRace(t)
	per, sends := sendAllocations(t, func(c *Config) { c.Method = ForcePB })
	if per > 0.05 || sends < 1000 {
		t.Errorf("%.3f allocations per PB send over %d sends, want at most 0.05 over at least 1000", per, sends)
	}
}

// A BB send at sixteen members: the sender's data broadcast, the
// sequencer's accept, and every member's match of the two. The data
// frame is the send record's own body, the accept and every member's
// sequenced record are carved from chunks, and the walks over a frame's
// ops and an accept's uids are typed effects. What is left is the send
// record and its timer's two bindings, which a BB send does not recycle
// (see sendState). (51.0 with a closure per member for each walk, a
// record per member, and a data frame, an accept and a sequenced frame
// allocated per send.)
func TestBBSendAllocations(t *testing.T) {
	skipUnderRace(t)
	per, sends := sendAllocations(t, func(c *Config) { c.Method = ForceBB })
	if per > 3.25 || sends < 500 {
		t.Errorf("%.3f allocations per BB send over %d sends, want at most 3.25 over at least 500", per, sends)
	}
}

// A send under the consensus protocol at sixteen members: the leader's
// proposal, fifteen acknowledgments, the commit and its announcement.
// The proposal, its slot list, the acks and the announcement are carved
// from chunks, an acceptor's steps are typed effects, and the ack and
// commit throttles are timers bound once. What is left is the send
// record and its timer's two bindings, which a consensus send does not
// recycle (see sendState). (179.5 with closures for each acceptor step,
// a timer and two closures per throttle window, and every wire body an
// allocation; 3.21 while the measured window held the heartbeat at which
// the followers first arm their gap timers.)
func TestConsensusSendAllocations(t *testing.T) {
	skipUnderRace(t)
	per, sends := sendAllocations(t, func(c *Config) { c.Protocol = Consensus })
	if per > 3.3 || sends < 300 {
		t.Errorf("%.3f allocations per consensus send over %d sends, want at most 3.3 over at least 300", per, sends)
	}
}

// Sends at frame capacity 4 from the lone writer of sendAllocations, so
// that every frame carries one op and waits out its packers: the
// sender's same-instant flush and, at the sequencer, the Linger
// deadline of the data packer (PB and consensus) or the accept packer
// (BB). Both are kernel deadlines on recycled records, so a batched send
// costs what an unbatched one does. (4.04, 7.19 and 7.17 while each
// deadline cost an event and a closure per arm.)
func TestBatchedSendAllocations(t *testing.T) {
	skipUnderRace(t)
	for _, c := range []struct {
		name  string
		mut   func(*Config)
		max   float64
		sends int
	}{
		{"PB", func(c *Config) { c.Method = ForcePB }, 0.05, 1000},
		{"BB", func(c *Config) { c.Method = ForceBB }, 3.25, 1000},
		{"consensus", func(c *Config) { c.Protocol = Consensus }, 3.3, 300},
	} {
		per, sends := sendAllocations(t, func(cfg *Config) {
			batchCfg(4, 1<<20, sim.Millisecond)(cfg)
			c.mut(cfg)
		})
		if per > c.max || sends < c.sends {
			t.Errorf("%s: %.3f allocations per send over %d sends, want at most %.2f over at least %d", c.name, per, sends, c.max, c.sends)
		}
	}
}

// An idle group's heartbeat rounds allocate nothing: the sequencer's
// announcement is carved from its chunks, and the timer is bound once.
// (0.98 a round while each announcement was boxed into its packet.)
func TestHeartbeatAllocations(t *testing.T) {
	skipUnderRace(t)
	const n = 16
	env := sim.New(1)
	defer env.Shutdown()
	nw := netsim.New(env, n, netsim.DefaultParams())
	cfg := DefaultConfig(nil)
	for i := 0; i < n; i++ {
		cfg.Members = append(cfg.Members, i)
	}
	cfg.Heartbeat = 10 * sim.Millisecond
	var gs []*Member
	for i := 0; i < n; i++ {
		gs = append(gs, Join(amoeba.NewMachine(env, nw, i, amoeba.DefaultCosts()), cfg))
	}
	gs[1].m.SpawnThread("writer", func(p *sim.Proc) { gs[1].Broadcast(p, "m", nil, 64) })
	now := sim.Time(0)
	env.RunUntil(now)
	tick := func() {
		now += 100 * cfg.Heartbeat
		env.RunUntil(now)
	}
	tick()
	per := testing.AllocsPerRun(10, tick) / 100
	if per > 0.02 {
		t.Errorf("%.3f allocations per heartbeat round of an idle sixteen-member group, want at most 0.02", per)
	}
}
