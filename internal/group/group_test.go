package group

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/amoeba"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// harness wires n machines into one group and collects per-node
// delivery logs.
type harness struct {
	env     *sim.Env
	net     *netsim.Network
	ms      []*amoeba.Machine
	gs      []*Member
	logs    [][]Delivery
	uidLogs [][]int64
	lastAt  sim.Time // instant of the latest delivery at any node
}

// newHarness builds the group under a fault plan (nil for none) whose
// crashes crash the machine.
func newHarness(seed int64, n int, plan *netsim.FaultPlan, cfgMut func(*Config)) *harness {
	env := sim.New(seed)
	nw := netsim.New(env, n, netsim.DefaultParams())
	h := &harness{env: env, net: nw}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	cfg := DefaultConfig(members)
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	h.ms = make([]*amoeba.Machine, n)
	h.gs = make([]*Member, n)
	h.logs = make([][]Delivery, n)
	h.uidLogs = make([][]int64, n)
	for i := 0; i < n; i++ {
		h.ms[i] = amoeba.NewMachine(env, nw, i, amoeba.DefaultCosts())
		h.gs[i] = Join(h.ms[i], cfg)
		i := i
		h.ms[i].SpawnThread("consumer", func(p *sim.Proc) {
			for {
				d, ok := h.gs[i].Deliveries().Get(p)
				if !ok {
					return
				}
				if d.UID < 0 {
					panic(fmt.Sprintf("node %d was delivered %+v, read from a released record", i, d))
				}
				h.logs[i] = append(h.logs[i], d)
				h.lastAt = p.Now()
				if !d.Dup {
					// Dup records are suppressed re-deliveries that only
					// carry a frame boundary; agreement is over the
					// applied stream.
					h.uidLogs[i] = append(h.uidLogs[i], d.UID)
				}
			}
		})
	}
	nw.InstallFaults(plan, func(node int) { h.ms[node].Crash() })
	return h
}

// lossy is a fault plan that loses each fragment with probability p on
// every link for the whole run.
func lossy(p float64) *netsim.FaultPlan {
	return &netsim.FaultPlan{Losses: []netsim.LossWindow{{Src: netsim.AnyNode, Dst: netsim.AnyNode, Until: math.MaxInt64, Prob: p}}}
}

// checkAgreement verifies all live nodes delivered identical uid
// sequences of the expected length.
func (h *harness) checkAgreement(t *testing.T, want int, skip map[int]bool) {
	t.Helper()
	var ref []int64
	refNode := -1
	for i := range h.gs {
		if skip[i] {
			continue
		}
		if ref == nil {
			ref, refNode = h.uidLogs[i], i
			continue
		}
		if len(h.uidLogs[i]) != len(ref) {
			t.Fatalf("node %d delivered %d msgs, node %d delivered %d",
				i, len(h.uidLogs[i]), refNode, len(ref))
		}
		for k := range ref {
			if h.uidLogs[i][k] != ref[k] {
				t.Fatalf("node %d and %d disagree at position %d", i, refNode, k)
			}
		}
	}
	if want >= 0 && len(ref) != want {
		t.Fatalf("delivered %d messages, want %d", len(ref), want)
	}
}

func TestBroadcastTotalOrderLossless(t *testing.T) {
	for _, method := range []Method{Auto, ForcePB, ForceBB} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			h := newHarness(11, 4, nil, func(c *Config) { c.Method = method })
			const perNode = 25
			for i := range h.ms {
				i := i
				h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
					for k := 0; k < perNode; k++ {
						h.gs[i].Broadcast(p, "msg", fmt.Sprintf("n%d-%d", i, k), 100)
						p.Sleep(sim.Time(1+i) * sim.Millisecond)
					}
				})
			}
			h.env.RunUntil(20 * sim.Second)
			h.checkAgreement(t, 4*perNode, nil)
			h.env.Stop()
			h.env.Shutdown()
		})
	}
}

func TestSenderSeesOwnMessage(t *testing.T) {
	h := newHarness(3, 3, nil, nil)
	h.ms[1].SpawnThread("producer", func(p *sim.Proc) {
		h.gs[1].Broadcast(p, "m", "hello", 50)
	})
	h.env.RunUntil(sim.Second)
	for i := 0; i < 3; i++ {
		if len(h.logs[i]) != 1 || h.logs[i][0].Body.(string) != "hello" {
			t.Fatalf("node %d log = %v", i, h.logs[i])
		}
		if h.logs[i][0].Src != 1 {
			t.Fatalf("src = %d, want 1", h.logs[i][0].Src)
		}
	}
	h.env.Stop()
	h.env.Shutdown()
}

func TestAutoMethodSelection(t *testing.T) {
	h := newHarness(5, 3, nil, nil)
	h.ms[1].SpawnThread("producer", func(p *sim.Proc) {
		h.gs[1].Broadcast(p, "small", "x", 100)  // fits one packet -> PB
		h.gs[1].Broadcast(p, "large", "y", 5000) // fragments -> BB
	})
	h.env.RunUntil(sim.Second)
	st := h.gs[1].Stats()
	if st.PBSends != 1 || st.BBSends != 1 {
		t.Fatalf("PB=%d BB=%d, want 1 and 1", st.PBSends, st.BBSends)
	}
	h.checkAgreement(t, 2, nil)
	h.env.Stop()
	h.env.Shutdown()
}

// TestPBInterruptsAndBandwidth checks the paper's §3.1 analysis: with
// PB a message of length m consumes ~2m bandwidth but interrupts each
// user machine once; with BB it consumes ~m plus a short Accept but
// interrupts every machine twice.
func TestPBInterruptsAndBandwidth(t *testing.T) {
	const payload = 1000
	run := func(method Method) (wire int64, interruptsPerUserMachine int64) {
		h := newHarness(9, 4, nil, func(c *Config) {
			c.Method = method
			c.Heartbeat = 0 // keep the wire clean for exact accounting
			c.StatusEvery = 0
		})
		// Node 3 sends; node 0 is sequencer; nodes 1,2 are "user
		// machines" in the paper's sense.
		h.ms[3].SpawnThread("producer", func(p *sim.Proc) {
			h.gs[3].Broadcast(p, "m", "payload", payload)
		})
		h.env.RunUntil(2 * sim.Second)
		s := h.net.Stats()
		h.env.Stop()
		h.env.Shutdown()
		return s.WireBytes, s.Interrupts[1]
	}
	pbWire, pbIntr := run(ForcePB)
	bbWire, bbIntr := run(ForceBB)
	if pbIntr != 1 {
		t.Errorf("PB interrupts per user machine = %d, want 1", pbIntr)
	}
	if bbIntr != 2 {
		t.Errorf("BB interrupts per user machine = %d, want 2 (data + accept)", bbIntr)
	}
	// PB: message appears twice on the wire. BB: once plus an accept.
	if pbWire < 2*payload || pbWire > 2*payload+300 {
		t.Errorf("PB wire bytes = %d, want ~%d", pbWire, 2*payload)
	}
	if bbWire < payload || bbWire > payload+300 {
		t.Errorf("BB wire bytes = %d, want ~%d", bbWire, payload)
	}
	if bbWire >= pbWire {
		t.Errorf("BB (%d) should use less bandwidth than PB (%d)", bbWire, pbWire)
	}
}

func TestTotalOrderUnderLoss(t *testing.T) {
	for _, method := range []Method{ForcePB, ForceBB} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			h := newHarness(23, 4, lossy(0.15),
				func(c *Config) {
					c.Method = method
					c.SenderTimeout = 60 * sim.Millisecond
					c.GapTimeout = 30 * sim.Millisecond
					c.Heartbeat = 100 * sim.Millisecond
				})
			const perNode = 15
			for i := range h.ms {
				i := i
				h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
					for k := 0; k < perNode; k++ {
						h.gs[i].Broadcast(p, "msg", k, 200)
						p.Sleep(sim.Time(3+i) * sim.Millisecond)
					}
				})
			}
			h.env.RunUntil(60 * sim.Second)
			h.checkAgreement(t, 4*perNode, nil)
			h.env.Stop()
			h.env.Shutdown()
		})
	}
}

// Property: for random seeds and loss rates, every member delivers the
// same uid sequence with no duplicates and nothing missing.
func TestTotalOrderProperty(t *testing.T) {
	f := func(seed int64, lossTenths uint8) bool {
		loss := float64(lossTenths%3) / 10 // 0, 0.1, 0.2
		h := newHarness(seed, 3, lossy(loss),
			func(c *Config) {
				c.SenderTimeout = 60 * sim.Millisecond
				c.GapTimeout = 30 * sim.Millisecond
				c.Heartbeat = 100 * sim.Millisecond
			})
		const perNode = 8
		for i := range h.ms {
			i := i
			h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
				for k := 0; k < perNode; k++ {
					h.gs[i].Broadcast(p, "msg", k, 120)
					p.Sleep(sim.Time(2+i) * sim.Millisecond)
				}
			})
		}
		h.env.RunUntil(120 * sim.Second)
		defer func() { h.env.Stop(); h.env.Shutdown() }()
		// Agreement + no dups + completeness.
		seen := map[int64]int{}
		for _, uid := range h.uidLogs[0] {
			seen[uid]++
		}
		if len(h.uidLogs[0]) != 3*perNode || len(seen) != 3*perNode {
			return false
		}
		for i := 1; i < 3; i++ {
			if len(h.uidLogs[i]) != len(h.uidLogs[0]) {
				return false
			}
			for k := range h.uidLogs[0] {
				if h.uidLogs[i][k] != h.uidLogs[0][k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestSequencerCrashElection(t *testing.T) {
	h := newHarness(31, 4, nil, func(c *Config) {
		c.SenderTimeout = 50 * sim.Millisecond
		c.SenderRetries = 2
		c.ElectionWait = 80 * sim.Millisecond
		c.Heartbeat = 100 * sim.Millisecond
	})
	// Sequencer is node 0. Send some traffic, crash it, keep sending.
	for i := 1; i < 4; i++ {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < 10; k++ {
				h.gs[i].Broadcast(p, "pre", k, 100)
				p.Sleep(2 * sim.Millisecond)
			}
			p.Sleep(100 * sim.Millisecond) // let phase 1 settle
			if i == 1 {
				h.ms[0].Crash()
			}
			for k := 0; k < 10; k++ {
				h.gs[i].Broadcast(p, "post", k, 100)
				p.Sleep(2 * sim.Millisecond)
			}
		})
	}
	h.env.RunUntil(30 * sim.Second)
	skip := map[int]bool{0: true}
	h.checkAgreement(t, 60, skip)
	// A new sequencer must have emerged among survivors.
	newSeq := h.gs[1].Sequencer()
	if newSeq == 0 {
		t.Fatal("sequencer still node 0 after crash")
	}
	for i := 1; i < 4; i++ {
		if h.gs[i].Sequencer() != newSeq {
			t.Fatalf("node %d disagrees on sequencer: %d vs %d", i, h.gs[i].Sequencer(), newSeq)
		}
	}
	h.env.Stop()
	h.env.Shutdown()
}

func TestSequencerCrashWithLoss(t *testing.T) {
	h := newHarness(37, 4, lossy(0.1),
		func(c *Config) {
			c.SenderTimeout = 40 * sim.Millisecond
			c.SenderRetries = 2
			c.GapTimeout = 20 * sim.Millisecond
			c.ElectionWait = 60 * sim.Millisecond
			c.Heartbeat = 80 * sim.Millisecond
		})
	for i := 1; i < 4; i++ {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < 8; k++ {
				h.gs[i].Broadcast(p, "pre", k, 100)
				p.Sleep(3 * sim.Millisecond)
			}
			p.Sleep(200 * sim.Millisecond)
			if i == 1 {
				h.ms[0].Crash()
			}
			for k := 0; k < 8; k++ {
				h.gs[i].Broadcast(p, "post", k, 100)
				p.Sleep(3 * sim.Millisecond)
			}
		})
	}
	h.env.RunUntil(120 * sim.Second)
	h.checkAgreement(t, 48, map[int]bool{0: true})
	h.env.Stop()
	h.env.Shutdown()
}

func TestHistoryTrimming(t *testing.T) {
	h := newHarness(41, 3, nil, func(c *Config) {
		c.StatusEvery = 8
	})
	h.ms[1].SpawnThread("producer", func(p *sim.Proc) {
		for k := 0; k < 200; k++ {
			h.gs[1].Broadcast(p, "m", k, 64)
			p.Sleep(sim.Millisecond)
		}
	})
	h.env.RunUntil(10 * sim.Second)
	seq := h.gs[0] // node 0 is sequencer
	if !seq.IsSequencer() {
		t.Fatal("node 0 should be sequencer")
	}
	if n := seq.history.span(); n > 64 {
		t.Fatalf("history holds %d entries after trimming, want <= 64", n)
	}
	h.checkAgreement(t, 200, nil)
	h.env.Stop()
	h.env.Shutdown()
}

func TestThroughputManySenders(t *testing.T) {
	h := newHarness(43, 8, nil, nil)
	const perNode = 50
	for i := range h.ms {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < perNode; k++ {
				h.gs[i].Broadcast(p, "m", k, 128)
				p.Sleep(500 * sim.Microsecond)
			}
		})
	}
	h.env.RunUntil(60 * sim.Second)
	h.checkAgreement(t, 8*perNode, nil)
	h.env.Stop()
	h.env.Shutdown()
}

func TestDeterministicDeliveryOrder(t *testing.T) {
	run := func() []int64 {
		h := newHarness(99, 4, nil, nil)
		for i := range h.ms {
			i := i
			h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
				for k := 0; k < 10; k++ {
					h.gs[i].Broadcast(p, "m", k, 64)
					p.Sleep(sim.Millisecond)
				}
			})
		}
		h.env.RunUntil(10 * sim.Second)
		out := append([]int64(nil), h.uidLogs[0]...)
		h.env.Stop()
		h.env.Shutdown()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic delivery count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic delivery order")
		}
	}
}
