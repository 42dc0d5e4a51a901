package group

// Shared agreement checkers and the protocol × fault matrix: every
// sequencing protocol (elected sequencer over PB, over BB, and the
// consensus-replicated log) must deliver one agreed duplicate-free
// stream under fragment loss, sequencer crash, and a transient
// partition. The matrix runs each cell at two frame capacities — the
// zero BatchConfig (one op per frame) and MaxOps 4 — so the
// frame-boundary invariant is exercised too, and pins a fingerprint of
// every cell: a protocol change that moves any delivery, frame, wire
// byte or recovery step in any cell has to say why.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// checkFrameAgreement asserts that every non-skipped node observed
// identical frame boundaries — the invariant the per-frame RTS sweep
// relies on: same (seq, uid, More) triples in the same order, and no
// stream left dangling mid-frame. Dup records count: they close the
// frames their suppressed payloads occupied.
func (h *harness) checkFrameAgreement(t *testing.T, skip map[int]bool) {
	t.Helper()
	type fr struct {
		seq  int64
		uid  int64
		more bool
	}
	var ref []fr
	refNode := -1
	for i := range h.gs {
		if skip[i] {
			continue
		}
		var cur []fr
		for _, d := range h.logs[i] {
			cur = append(cur, fr{d.Seq, d.UID, d.More})
		}
		if n := len(cur); n > 0 && cur[n-1].more {
			t.Fatalf("node %d's stream ends mid-frame (seq %d has More set)", i, cur[n-1].seq)
		}
		if ref == nil {
			ref, refNode = cur, i
			continue
		}
		if len(cur) != len(ref) {
			t.Fatalf("node %d saw %d records, node %d saw %d", i, len(cur), refNode, len(ref))
		}
		for k := range ref {
			if cur[k] != ref[k] {
				t.Fatalf("frame streams diverge at %d: node %d has %+v, node %d has %+v",
					k, i, cur[k], refNode, ref[k])
			}
		}
	}
}

// checkNoDuplicates asserts no uid was applied twice at any
// non-skipped node.
func (h *harness) checkNoDuplicates(t *testing.T, skip map[int]bool) {
	t.Helper()
	for i := range h.gs {
		if skip[i] {
			continue
		}
		seen := map[int64]bool{}
		for _, uid := range h.uidLogs[i] {
			if seen[uid] {
				t.Fatalf("node %d applied uid %d twice", i, uid)
			}
			seen[uid] = true
		}
	}
}

// protocolVariants is the matrix's protocol axis.
var protocolVariants = []struct {
	name string
	mut  func(*Config)
}{
	{"sequencer-pb", func(c *Config) { c.Method = ForcePB }},
	{"sequencer-bb", func(c *Config) { c.Method = ForceBB }},
	{"consensus", func(c *Config) { c.Protocol = Consensus }},
}

// capacityVariants is the matrix's frame-capacity axis.
var capacityVariants = []struct {
	name string
	mut  func(*Config)
}{
	{"cap1", func(*Config) {}},
	{"cap4", batchCfg(4, 1<<20, sim.Millisecond)},
}

// fingerprint condenses one run: a hash over every non-skipped
// member's delivered (Seq, UID, More, Dup) log, the network's frame,
// message and wire-byte totals, the instant of the last delivery, the
// dispatched event count, and the recovery counters summed over the
// non-skipped members.
func (h *harness) fingerprint(skip map[int]bool) string {
	hash := fnv.New64a()
	var retx, elections, takeovers int64
	for i, g := range h.gs {
		if skip[i] {
			continue
		}
		fmt.Fprintf(hash, "node %d\n", i)
		for _, d := range h.logs[i] {
			fmt.Fprintf(hash, "%d %d %t %t\n", d.Seq, d.UID, d.More, d.Dup)
		}
		st := g.Stats()
		retx += st.Retransmits
		elections += st.Elections
		takeovers += st.Takeovers
	}
	ns := h.net.Stats()
	return fmt.Sprintf("log=%016x frames=%d msgs=%d wire=%d last=%d events=%d retx=%d elect=%d takeover=%d",
		hash.Sum64(), ns.Frames, ns.Messages, ns.WireBytes, int64(h.lastAt), h.env.Events(), retx, elections, takeovers)
}

// matrixGolden pins TestProtocolFaultMatrix's fingerprints, taken
// before the group layer's single-op and packed data paths were merged.
var matrixGolden = map[string]string{
	"sequencer-pb/cap1/loss":      "log=be5f9d1ed0f9b951 frames=1404 msgs=1404 wire=107432 last=213551200 events=20913 retx=13 elect=0 takeover=0",
	"sequencer-pb/cap1/crash":     "log=0f33e84d940ae826 frames=1520 msgs=1520 wire=128040 last=842495600 events=15594 retx=253 elect=3 takeover=0",
	"sequencer-pb/cap1/partition": "log=942c58e55ff30249 frames=1406 msgs=1406 wire=108700 last=397025600 events=18305 retx=83 elect=0 takeover=0",
	"sequencer-pb/cap4/loss":      "log=bf3a9b9bd0990525 frames=1390 msgs=1390 wire=106508 last=224748000 events=20877 retx=3 elect=0 takeover=0",
	"sequencer-pb/cap4/crash":     "log=e7f63620af64ae14 frames=1506 msgs=1506 wire=127368 last=840632000 events=15546 retx=253 elect=3 takeover=0",
	"sequencer-pb/cap4/partition": "log=6bdc8f94416180ad frames=1395 msgs=1395 wire=108202 last=396045600 events=18322 retx=83 elect=0 takeover=0",
	"sequencer-bb/cap1/loss":      "log=7b2927d8877ff4b1 frames=1442 msgs=1442 wire=109268 last=252024800 events=21258 retx=9 elect=0 takeover=0",
	"sequencer-bb/cap1/crash":     "log=0f33e84d940ae826 frames=1520 msgs=1520 wire=124816 last=842294400 events=17188 retx=253 elect=3 takeover=0",
	"sequencer-bb/cap1/partition": "log=942c58e55ff30249 frames=1406 msgs=1406 wire=104956 last=396942400 events=18662 retx=83 elect=0 takeover=0",
	"sequencer-bb/cap4/loss":      "log=be3bf353b17e847d frames=1442 msgs=1442 wire=110636 last=251168000 events=21268 retx=9 elect=0 takeover=0",
	"sequencer-bb/cap4/crash":     "log=e7f63620af64ae14 frames=1506 msgs=1506 wire=124116 last=840662000 events=16604 retx=253 elect=3 takeover=0",
	"sequencer-bb/cap4/partition": "log=14b269b3956778f5 frames=1398 msgs=1398 wire=104572 last=395962400 events=18720 retx=83 elect=0 takeover=0",
	"consensus/cap1/loss":         "log=5ad51c792149735d frames=1521 msgs=1516 wire=126522 last=261640000 events=21545 retx=60 elect=0 takeover=0",
	"consensus/cap1/crash":        "log=19e4126e43faee1a frames=1511 msgs=1511 wire=119186 last=609224400 events=15764 retx=149 elect=0 takeover=2",
	"consensus/cap1/partition":    "log=942c58e55ff30249 frames=1487 msgs=1486 wire=118626 last=398434400 events=18808 retx=119 elect=0 takeover=0",
	"consensus/cap4/loss":         "log=7cfebd6fe4e0435d frames=1410 msgs=1409 wire=104780 last=204522400 events=21215 retx=13 elect=0 takeover=0",
	"consensus/cap4/crash":        "log=122e1a9d30b0d304 frames=1498 msgs=1498 wire=118240 last=608784400 events=15769 retx=148 elect=0 takeover=2",
	"consensus/cap4/partition":    "log=6087f7bb5b7d3b35 frames=1490 msgs=1489 wire=120788 last=397814400 events=18915 retx=132 elect=0 takeover=0",
}

func TestProtocolFaultMatrix(t *testing.T) {
	type scenario struct {
		name     string
		plan     *netsim.FaultPlan
		crashed  map[int]bool // nodes the plan kills
		allSends bool         // every send must come out the far end
	}
	scenarios := []scenario{
		{
			name:     "loss",
			plan:     lossy(0.15),
			allSends: true,
		},
		{
			name: "crash",
			plan: &netsim.FaultPlan{Crashes: []netsim.Crash{
				{Node: 0, At: 60 * sim.Millisecond},
			}},
			crashed: map[int]bool{0: true},
		},
		{
			name: "partition",
			plan: &netsim.FaultPlan{Partitions: []netsim.Partition{
				{A: []int{0, 1}, B: []int{2, 3}, From: 50 * sim.Millisecond, Until: 350 * sim.Millisecond},
			}},
			allSends: true,
		},
	}
	for _, pv := range protocolVariants {
		for _, cv := range capacityVariants {
			for _, sc := range scenarios {
				pv, cv, sc := pv, cv, sc
				t.Run(pv.name+"/"+cv.name+"/"+sc.name, func(t *testing.T) {
					WatchDeliveries(t) // and no record changes once delivered
					h := newHarness(53, 4, sc.plan, func(c *Config) {
						c.SenderTimeout = 50 * sim.Millisecond
						c.SenderRetries = 8
						c.GapTimeout = 25 * sim.Millisecond
						c.Heartbeat = 100 * sim.Millisecond
						cv.mut(c)
						pv.mut(c)
					})
					sent := 0
					for i := range h.ms {
						if sc.crashed[i] {
							continue // keep the expected count exact
						}
						i := i
						h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
							for k := 0; k < 12; k++ {
								h.gs[i].Broadcast(p, "m", fmt.Sprintf("n%d-%d", i, k), 100)
								sent++
								p.Sleep(sim.Time(7+2*i) * sim.Millisecond)
							}
						})
					}
					h.env.RunUntil(120 * sim.Second)
					h.checkAgreement(t, -1, sc.crashed)
					h.checkFrameAgreement(t, sc.crashed)
					h.checkNoDuplicates(t, sc.crashed)
					live := 1
					if sc.crashed[live] {
						live = 2
					}
					if sc.allSends && len(h.uidLogs[live]) != sent {
						t.Fatalf("delivered %d messages, want all %d sends", len(h.uidLogs[live]), sent)
					}
					if pv.name == "consensus" {
						if el := h.gs[live].Stats().Elections; el != 0 {
							t.Fatalf("consensus ran %d elections; epochs must stay frozen", el)
						}
						if sc.name == "crash" && h.gs[live].Stats().Takeovers == 0 {
							// Some survivor must have taken the log over.
							tot := int64(0)
							for i := 1; i < 4; i++ {
								tot += h.gs[i].Stats().Takeovers
							}
							if tot == 0 {
								t.Fatal("sequencer crashed but no survivor took over")
							}
						}
					}
					name := pv.name + "/" + cv.name + "/" + sc.name
					if got := h.fingerprint(sc.crashed); got != matrixGolden[name] {
						t.Errorf("fingerprint moved:\n\t%q: %q,\nwas\t%q", name, got, matrixGolden[name])
					}
					h.env.Stop()
					h.env.Shutdown()
				})
			}
		}
	}
}
