package group

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Additional failure-injection scenarios beyond the basic crash test.

func TestNonSequencerMemberCrash(t *testing.T) {
	// A crashed ordinary member must not stall the rest of the group
	// (history trimming skips it; delivery continues).
	h := newHarness(51, 4, nil, func(c *Config) {
		c.StatusEvery = 8
	})
	for i := 0; i < 4; i++ {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < 30; k++ {
				if h.ms[i].Crashed() {
					return
				}
				h.gs[i].Broadcast(p, "m", k, 64)
				p.Sleep(3 * sim.Millisecond)
			}
		})
	}
	h.env.At(40*sim.Millisecond, func() { h.ms[2].Crash() })
	h.env.RunUntil(30 * sim.Second)
	// Survivors must agree; node 2's deliveries stop at the crash.
	h.checkAgreement(t, -1, map[int]bool{2: true})
	if len(h.uidLogs[0]) < 90 {
		t.Fatalf("survivors delivered only %d messages", len(h.uidLogs[0]))
	}
	// Sequencer history must still be bounded (crashed member cannot
	// block trimming).
	if n := h.gs[0].history.span(); n > 2048 {
		t.Fatalf("history grew to %d entries with a crashed member", n)
	}
	h.env.Stop()
	h.env.Shutdown()
}

func TestSequencerCrashUnderContinuousLoad(t *testing.T) {
	// Crash the sequencer while every member keeps broadcasting;
	// survivors must converge with no duplicates or losses of their
	// own messages.
	h := newHarness(53, 5, nil, func(c *Config) {
		c.SenderTimeout = 40 * sim.Millisecond
		c.SenderRetries = 2
		c.ElectionWait = 60 * sim.Millisecond
		c.Heartbeat = 80 * sim.Millisecond
	})
	sent := make([]int, 5)
	for i := 1; i < 5; i++ {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < 40; k++ {
				h.gs[i].Broadcast(p, "m", fmt.Sprintf("%d-%d", i, k), 80)
				sent[i]++
				p.Sleep(5 * sim.Millisecond)
			}
		})
	}
	h.env.At(70*sim.Millisecond, func() { h.ms[0].Crash() })
	h.env.RunUntil(120 * sim.Second)
	h.checkAgreement(t, -1, map[int]bool{0: true})
	want := sent[1] + sent[2] + sent[3] + sent[4]
	if got := len(h.uidLogs[1]); got != want {
		t.Fatalf("delivered %d messages, want %d (all survivor sends)", got, want)
	}
	h.env.Stop()
	h.env.Shutdown()
}

func TestTwoSuccessiveSequencerCrashes(t *testing.T) {
	h := newHarness(57, 5, nil, func(c *Config) {
		c.SenderTimeout = 30 * sim.Millisecond
		c.SenderRetries = 2
		c.ElectionWait = 50 * sim.Millisecond
		c.Heartbeat = 60 * sim.Millisecond
	})
	for i := 2; i < 5; i++ {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			// Two waves of traffic, so both crashes hit an active
			// group and both trigger elections.
			for k := 0; k < 15; k++ {
				h.gs[i].Broadcast(p, "m", k, 64)
				p.Sleep(8 * sim.Millisecond)
			}
			p.Sleep(600 * sim.Millisecond)
			for k := 15; k < 30; k++ {
				h.gs[i].Broadcast(p, "m", k, 64)
				p.Sleep(8 * sim.Millisecond)
			}
		})
	}
	h.env.At(50*sim.Millisecond, func() { h.ms[0].Crash() })
	// The likely new sequencer is node 1; kill it too.
	h.env.At(400*sim.Millisecond, func() { h.ms[1].Crash() })
	h.env.RunUntil(120 * sim.Second)
	h.checkAgreement(t, 90, map[int]bool{0: true, 1: true})
	seqr := h.gs[2].Sequencer()
	if seqr == 0 || seqr == 1 {
		t.Fatalf("sequencer is a crashed node: %d", seqr)
	}
	for i := 2; i < 5; i++ {
		if h.gs[i].Sequencer() != seqr {
			t.Fatalf("node %d disagrees on sequencer", i)
		}
	}
	h.env.Stop()
	h.env.Shutdown()
}

func TestCrashWithLossAndBBMethod(t *testing.T) {
	// The BB method under loss and a sequencer crash: data broadcasts
	// and accepts interleave with the election.
	h := newHarness(59, 4, lossy(0.08),
		func(c *Config) {
			c.Method = ForceBB
			c.SenderTimeout = 40 * sim.Millisecond
			c.SenderRetries = 2
			c.GapTimeout = 20 * sim.Millisecond
			c.ElectionWait = 60 * sim.Millisecond
			c.Heartbeat = 70 * sim.Millisecond
		})
	for i := 1; i < 4; i++ {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < 20; k++ {
				h.gs[i].Broadcast(p, "m", k, 64)
				p.Sleep(6 * sim.Millisecond)
			}
		})
	}
	h.env.At(60*sim.Millisecond, func() { h.ms[0].Crash() })
	h.env.RunUntil(240 * sim.Second)
	h.checkAgreement(t, 60, map[int]bool{0: true})
	h.env.Stop()
	h.env.Shutdown()
}

func TestTransientPartitionHeals(t *testing.T) {
	// A fault-plan partition splits the group in two for a while:
	// messages from the minority side stall (their requests cannot
	// reach the sequencer), gap recovery kicks in on the far side, and
	// once the partition heals every member converges on one identical
	// delivery sequence with no losses of the senders' messages. The
	// window is shorter than the retry budget, so no election fires —
	// the reliability machinery alone must absorb the fault.
	h := newHarness(63, 4, nil, func(c *Config) {
		c.SenderTimeout = 80 * sim.Millisecond
		c.SenderRetries = 30
		c.GapTimeout = 40 * sim.Millisecond
	})
	h.net.InstallFaults(&netsim.FaultPlan{Partitions: []netsim.Partition{
		{A: []int{0, 1}, B: []int{2, 3}, From: 50 * sim.Millisecond, Until: 450 * sim.Millisecond},
	}}, nil)
	sent := 0
	for i := 0; i < 4; i++ {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < 25; k++ {
				h.gs[i].Broadcast(p, "m", k, 64)
				sent++
				p.Sleep(10 * sim.Millisecond)
			}
		})
	}
	h.env.RunUntil(60 * sim.Second)
	h.checkAgreement(t, -1, nil)
	if got := len(h.uidLogs[0]); got != sent {
		t.Fatalf("delivered %d messages, want all %d sends", got, sent)
	}
	if el := h.gs[2].Stats().Elections; el != 0 {
		t.Fatalf("partition (not crash) triggered %d elections; retry budget should have absorbed it", el)
	}
	h.env.Stop()
	h.env.Shutdown()
}

func TestStatsAccounting(t *testing.T) {
	h := newHarness(61, 3, nil, nil)
	h.ms[1].SpawnThread("producer", func(p *sim.Proc) {
		for k := 0; k < 10; k++ {
			h.gs[1].Broadcast(p, "m", k, 64)
			p.Sleep(sim.Millisecond)
		}
	})
	h.env.RunUntil(5 * sim.Second)
	st := h.gs[1].Stats()
	if st.Sent != 10 {
		t.Fatalf("sent = %d", st.Sent)
	}
	if st.Delivered != 10 {
		t.Fatalf("delivered = %d", st.Delivered)
	}
	if st.Retransmits != 0 || st.Elections != 0 {
		t.Fatalf("unexpected recovery activity on a clean run: %+v", st)
	}
	h.env.Stop()
	h.env.Shutdown()

	// PBSends/BBSends count a member's own submissions by method,
	// whatever the frame capacity: a sequencer relaying 12 remote
	// requests while submitting 3 ops of its own reports 3, the remote
	// sender 12, under every protocol.
	for _, pv := range protocolVariants {
		for _, cv := range capacityVariants {
			h := newHarness(61, 3, nil, func(c *Config) {
				cv.mut(c)
				pv.mut(c)
			})
			for i, n := range []int{3, 12} {
				i, n := i, n
				h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
					for k := 0; k < n; k++ {
						h.gs[i].Broadcast(p, "m", k, 64)
						p.Sleep(sim.Millisecond / 4)
					}
				})
			}
			h.env.RunUntil(5 * sim.Second)
			h.checkAgreement(t, 15, nil)
			for i, want := range []int64{3, 12, 0} {
				st := h.gs[i].Stats()
				if got := st.PBSends + st.BBSends; got != want || st.Sent != want {
					t.Errorf("%s/%s node %d: PB+BB sends = %d, sent = %d, want %d", pv.name, cv.name, i, got, st.Sent, want)
				}
				if bb := pv.name == "sequencer-bb" && i == 1; bb != (st.BBSends > 0) {
					t.Errorf("%s/%s node %d: BBSends = %d", pv.name, cv.name, i, st.BBSends)
				}
			}
			h.env.Stop()
			h.env.Shutdown()
		}
	}
}

// TestReplacedSendStandsDown: once an op is re-registered under a newer
// sendState (a deposed consensus leader re-submits its unchosen slots
// while the old send's timer may already have fired and be queued
// behind the interrupt thread's work), the old send is dead and must
// not keep retransmitting beside the new one.
func TestReplacedSendStandsDown(t *testing.T) {
	h := newHarness(7, 2, nil, nil)
	g := h.gs[1]
	old := g.newSend([]item{{UID: 42, Src: 1, SrcSeq: 1, Msg: Msg{Size: 10}}}, ForcePB)
	repl := g.newSend(old.items, ForcePB)
	if old.live(g) || !repl.live(g) {
		t.Fatalf("after replacement: old live = %t, replacement live = %t", old.live(g), repl.live(g))
	}
	h.env.Stop()
	h.env.Shutdown()
}

// TestSplitSendSurvivesLostRekick: a view change splits every multi-op
// send into one-op sends and transmits each once to the new sequencer.
// If that one grp-req is lost the split send must still be
// retransmitted like any other — without a sender timer the op is never
// resubmitted and its invoker blocks forever.
//
// Every send here is a 3-op frame (capacity 4, bursts of three inside
// the linger), so every send outstanding at the view change is split.
// The test drops exactly one frame: the first one node 3 sends to the
// new sequencer after all three survivors have acknowledged its view.
func TestSplitSendSurvivesLostRekick(t *testing.T) {
	h := newHarness(53, 5, nil, func(c *Config) {
		c.SenderTimeout = 40 * sim.Millisecond
		c.SenderRetries = 2
		c.ElectionWait = 60 * sim.Millisecond
		c.Heartbeat = 80 * sim.Millisecond
		c.Batch = BatchConfig{MaxOps: 4, MaxBytes: 1 << 20, Linger: sim.Millisecond}
	})
	var dropped []string
	h.env.Trace = func(_ sim.Time, format string, args ...any) {
		if s := fmt.Sprintf(format, args...); strings.HasPrefix(s, "net: fault loss") {
			dropped = append(dropped, s)
		}
	}
	// The plan is consulted on every delivery, so the watcher below can
	// open and close a loss window while the run is under way.
	const crashAt = 30 * sim.Millisecond
	plan := &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 0, At: crashAt}}}
	h.net.InstallFaults(plan, func(node int) { h.ms[node].Crash() })
	var watch func()
	watch = func() {
		st := h.net.Stats()
		switch {
		case st.Drops > 0:
			plan.Losses = nil
			return
		case plan.Losses == nil && st.CountsByKind["grp-coord-ack"] == 3:
			// Node 1 won (equal histories, lowest id). The acks are on
			// the wire; what node 3 sends it next is a re-kicked op.
			plan.Losses = []netsim.LossWindow{{Src: 3, Dst: 1, From: h.env.Now(), Until: 120 * sim.Second, Prob: 1}}
		}
		h.env.At(h.env.Now()+10*sim.Microsecond, watch)
	}
	h.env.At(crashAt, watch)

	sent := 0
	for i := 1; i < 5; i++ {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < 39; k++ {
				h.gs[i].Broadcast(p, "m", fmt.Sprintf("%d-%d", i, k), 80)
				sent++
				if k%3 == 2 {
					p.Sleep(5 * sim.Millisecond)
				}
			}
		})
	}
	h.env.RunUntil(120 * sim.Second)
	if len(dropped) != 1 || dropped[0] != "net: fault loss grp-req 3->1" {
		t.Fatalf("the test must drop exactly one re-kicked grp-req from node 3, dropped %q", dropped)
	}
	h.checkAgreement(t, -1, map[int]bool{0: true})
	if got := len(h.uidLogs[1]); got != sent {
		t.Fatalf("delivered %d messages, want all %d survivor sends", got, sent)
	}
	h.env.Stop()
	h.env.Shutdown()
}
