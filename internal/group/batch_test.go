package group

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// batchCfg turns batching on with the given parameters.
func batchCfg(maxOps, maxBytes int, linger sim.Time) func(*Config) {
	return func(c *Config) {
		c.Batch = BatchConfig{MaxOps: maxOps, MaxBytes: maxBytes, Linger: linger}
	}
}

// burst submits n same-instant ops of the given size from node i.
func burst(h *harness, i, n, size int) {
	h.ms[i].SpawnThread("burst", func(p *sim.Proc) {
		ops := make([]Msg, n)
		for k := range ops {
			ops[k] = Msg{Kind: "msg", Body: fmt.Sprintf("n%d-%d", i, k), Size: size}
		}
		h.gs[i].BroadcastBatch(p, ops, nil)
	})
}

// TestBatchFlushMaxOps: a same-instant burst splits into MaxOps-sized
// frames — both on the sender (request frames) and at the sequencer
// (sequenced data frames) — and delivers exactly once, in order,
// everywhere.
func TestBatchFlushMaxOps(t *testing.T) {
	h := newHarness(7, 3, nil, batchCfg(4, 1<<20, sim.Millisecond))
	burst(h, 1, 8, 100)
	h.env.RunUntil(2 * sim.Second)
	h.checkAgreement(t, 8, nil)
	st := h.net.Stats()
	if got := st.CountsByKind["grp-req"]; got != 2 {
		t.Errorf("request frames = %d, want 2 (8 ops / MaxOps 4)", got)
	}
	if got := st.CountsByKind["grp-data"]; got != 2 {
		t.Errorf("sequenced data frames = %d, want 2 (8 ops / MaxOps 4)", got)
	}
	// Delivery order inside the batch is submission order.
	for k := 0; k < 8; k++ {
		if want := fmt.Sprintf("n1-%d", k); h.logs[0][k].Body.(string) != want {
			t.Fatalf("delivery %d = %v, want %s", k, h.logs[0][k].Body, want)
		}
	}
	h.env.Stop()
	h.env.Shutdown()
}

// TestBatchFlushMaxBytes: the byte cap flushes before the op cap.
func TestBatchFlushMaxBytes(t *testing.T) {
	h := newHarness(7, 3, nil, batchCfg(64, 300, sim.Millisecond))
	// 100-byte payloads (+12 framing) cross the 300-byte cap every
	// third op: 9 ops -> 3 request frames.
	burst(h, 1, 9, 100)
	h.env.RunUntil(2 * sim.Second)
	h.checkAgreement(t, 9, nil)
	st := h.net.Stats()
	if got := st.CountsByKind["grp-req"]; got != 3 {
		t.Errorf("request frames = %d, want 3 (byte cap)", got)
	}
	h.env.Stop()
	h.env.Shutdown()
}

// TestBatchLinger: ops submitted in different instants (so sender-side
// same-instant packing cannot merge them) still share one sequenced
// frame when they reach the sequencer within the linger window, and a
// lone op is not delayed beyond the linger.
func TestBatchLinger(t *testing.T) {
	h := newHarness(7, 3, nil, batchCfg(16, 1<<20, 2*sim.Millisecond))
	var deliveredAt sim.Time
	h.ms[0].SpawnThread("watch", func(p *sim.Proc) {
		for len(h.logs[0]) < 2 {
			p.Sleep(100 * sim.Microsecond)
		}
		deliveredAt = p.Now()
	})
	h.ms[1].SpawnThread("trickle", func(p *sim.Proc) {
		h.gs[1].Broadcast(p, "msg", "a", 50)
		p.Sleep(300 * sim.Microsecond)
		h.gs[1].Broadcast(p, "msg", "b", 50)
	})
	h.env.RunUntil(time500())
	h.checkAgreement(t, 2, nil)
	st := h.net.Stats()
	if got := st.CountsByKind["grp-req"]; got != 2 {
		t.Errorf("request frames = %d, want 2 (submitted in different instants)", got)
	}
	if got := st.CountsByKind["grp-data"]; got != 1 {
		t.Errorf("sequenced data frames = %d, want 1 (both ops inside one linger window)", got)
	}
	if deliveredAt == 0 || deliveredAt > 10*sim.Millisecond {
		t.Errorf("delivery at %v, want within a few linger windows", deliveredAt)
	}
	h.env.Stop()
	h.env.Shutdown()
}

func time500() sim.Time { return 500 * sim.Millisecond }

// TestBatchTotalOrderUnderLoss: batched streams under 15% fragment
// loss still deliver exactly once, in one agreed order, under both
// methods. This exercises retransmission of lost batch frames: the
// gap machinery recovers mid-batch ops individually from the history
// ring, and senders re-send only still-unacknowledged items.
func TestBatchTotalOrderUnderLoss(t *testing.T) {
	for _, method := range []Method{ForcePB, ForceBB} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			h := newHarness(23, 4, lossy(0.15),
				func(c *Config) {
					c.Method = method
					c.SenderTimeout = 60 * sim.Millisecond
					c.GapTimeout = 30 * sim.Millisecond
					c.Heartbeat = 100 * sim.Millisecond
					batchCfg(4, 1<<20, sim.Millisecond)(c)
				})
			const bursts, per = 5, 4
			for i := range h.ms {
				i := i
				h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
					for k := 0; k < bursts; k++ {
						ops := make([]Msg, per)
						for j := range ops {
							ops[j] = Msg{Kind: "msg", Body: fmt.Sprintf("n%d-%d-%d", i, k, j), Size: 150}
						}
						h.gs[i].BroadcastBatch(p, ops, nil)
						p.Sleep(sim.Time(3+i) * sim.Millisecond)
					}
				})
			}
			h.env.RunUntil(120 * sim.Second)
			h.checkAgreement(t, 4*bursts*per, nil)
			h.checkFrameAgreement(t, nil)
			seen := map[int64]bool{}
			for _, uid := range h.uidLogs[0] {
				if seen[uid] {
					t.Fatalf("uid %d delivered twice", uid)
				}
				seen[uid] = true
			}
			h.env.Stop()
			h.env.Shutdown()
		})
	}
}

// TestBatchSequencerCrash: the sequencer dies with batches in its
// packer and in flight; the survivors elect a new sequencer, senders
// re-submit their unacknowledged items, and every survivor delivers
// the same duplicate-free stream.
func TestBatchSequencerCrash(t *testing.T) {
	h := newHarness(31, 4, nil, func(c *Config) {
		c.SenderTimeout = 50 * sim.Millisecond
		c.SenderRetries = 2
		c.ElectionWait = 80 * sim.Millisecond
		c.Heartbeat = 100 * sim.Millisecond
		batchCfg(4, 1<<20, sim.Millisecond)(c)
	})
	for i := 1; i < 4; i++ {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			send := func(tag string, k int) {
				ops := make([]Msg, 3)
				for j := range ops {
					ops[j] = Msg{Kind: "msg", Body: fmt.Sprintf("n%d-%s%d-%d", i, tag, k, j), Size: 100}
				}
				h.gs[i].BroadcastBatch(p, ops, nil)
			}
			for k := 0; k < 4; k++ {
				send("pre", k)
				p.Sleep(2 * sim.Millisecond)
			}
			if i == 1 {
				// Crash the sequencer right after a burst: some items
				// sit in its packer, some are sequenced but not yet
				// everywhere.
				h.ms[0].Crash()
			}
			for k := 0; k < 4; k++ {
				send("post", k)
				p.Sleep(2 * sim.Millisecond)
			}
		})
	}
	h.env.RunUntil(30 * sim.Second)
	skip := map[int]bool{0: true}
	h.checkAgreement(t, 3*8*3, skip)
	h.checkFrameAgreement(t, skip)
	seen := map[int64]bool{}
	for _, uid := range h.uidLogs[1] {
		if seen[uid] {
			t.Fatalf("uid %d delivered twice after re-sequencing", uid)
		}
		seen[uid] = true
	}
	if h.gs[1].Sequencer() == 0 {
		t.Fatal("sequencer still node 0 after crash")
	}
	h.env.Stop()
	h.env.Shutdown()
}

// TestBatchOfOneIsUnbatched: there is one data path, and an unbatched
// group is the MaxOps 1 case of it. Batch{MaxOps: 1} and the zero
// BatchConfig give identical delivery logs and identical network
// totals under every protocol, and a MaxOps 4 packer that flushes a
// lone op on Linger expiry puts the same bytes on the wire as an
// unbatched send (a one-op frame carries no item table).
func TestBatchOfOneIsUnbatched(t *testing.T) {
	run := func(pv, batch func(*Config)) string {
		h := newHarness(11, 3, nil, func(c *Config) {
			pv(c)
			batch(c)
		})
		for i := range h.ms {
			i := i
			h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
				for k := 0; k < 6; k++ {
					h.gs[i].BroadcastBatch(p, []Msg{{Kind: "m", Body: k, Size: 100}, {Kind: "m", Body: -k, Size: 2000}}, nil)
					p.Sleep(sim.Time(3+i) * sim.Millisecond)
				}
			})
		}
		h.env.RunUntil(200 * sim.Millisecond) // before the first heartbeat
		h.checkAgreement(t, 3*2*6, nil)
		fp := h.fingerprint(nil)
		h.env.Stop()
		h.env.Shutdown()
		return fp
	}
	for _, pv := range protocolVariants {
		pv := pv
		t.Run(pv.name, func(t *testing.T) {
			zero := run(pv.mut, func(*Config) {})
			one := run(pv.mut, func(c *Config) { c.Batch = BatchConfig{MaxOps: 1} })
			if zero != one {
				t.Errorf("MaxOps 1 differs from the zero BatchConfig:\n\t%s\n\t%s", one, zero)
			}
		})
	}
	// One lone op per instant from node 1 only: the MaxOps 4 packer has
	// nothing to pack, so only the Linger wait differs.
	lone := func(batch func(*Config)) netsim.Stats {
		h := newHarness(11, 3, nil, batch)
		h.ms[1].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < 5; k++ {
				h.gs[1].Broadcast(p, "m", k, 100)
				p.Sleep(10 * sim.Millisecond)
			}
		})
		h.env.RunUntil(200 * sim.Millisecond)
		h.checkAgreement(t, 5, nil)
		st := h.net.Stats()
		h.env.Stop()
		h.env.Shutdown()
		return st
	}
	a, b := lone(func(*Config) {}), lone(batchCfg(4, 1<<20, sim.Millisecond))
	if a.Frames != b.Frames || a.Messages != b.Messages || a.WireBytes != b.WireBytes {
		t.Errorf("lone ops through a MaxOps 4 packer: frames/messages/wire = %d/%d/%d, unbatched %d/%d/%d",
			b.Frames, b.Messages, b.WireBytes, a.Frames, a.Messages, a.WireBytes)
	}
}
