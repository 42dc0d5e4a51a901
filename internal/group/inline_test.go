package group

import (
	"fmt"
	"testing"

	"repro/internal/amoeba"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// statusBoundaryCases are scenarios in which one handler issues several
// sends in a row while producers on every machine, the sequencer's
// among them, keep broadcasting: an application thread's broadcast then
// runs between two of a step's chained sends, and each fingerprint pins
// that interleaving. chain recognizes, around the handler it runs, a
// packet of the kind the case is about — a frame across a status
// boundary, an accept of several ops, an ack that commits several slots,
// a view announcement with sends outstanding — and the scenario must
// produce at least least of them.
var statusBoundaryCases = []struct {
	name    string
	mut     func(*Config)
	plan    *netsim.FaultPlan
	crashed map[int]bool // machines the plan kills, whose producers stay idle
	rounds  int
	run     sim.Time
	chain   func(g *Member, pkt amoeba.Packet, handle func()) bool
	least   int
	want    string
}{
	{
		// Frames keep straddling a StatusEvery boundary: a member reports
		// status in the middle of a frame's delivery walk, and delivers the
		// rest of the frame once the report has gone out. The fingerprint is
		// the one this scenario had when every such frame was handled on an
		// interrupt thread.
		name: "status-report",
		mut: func(c *Config) {
			c.Method = ForcePB
			c.StatusEvery = 5
			c.Batch = BatchConfig{MaxOps: 4, MaxBytes: 1 << 20, Linger: sim.Millisecond}
		},
		rounds: 10,
		run:    5 * sim.Second,
		chain: func(g *Member, pkt amoeba.Packet, handle func()) bool {
			crossing := false
			if f, ok := pkt.Body.(*dataFrame); ok && !g.isSeq {
				for k := 1; k <= len(f.Recs); k++ {
					crossing = crossing || (g.stats.Delivered+int64(k))%5 == 0
				}
			}
			handle()
			return crossing
		},
		least: 20,
		want:  "log=baf2587266778765 frames=123 msgs=123 wire=17678 last=56081600 events=1082 retx=0 elect=0 takeover=0",
	},
	{
		// BB with packed accepts: a member walks an accept's uids, and the
		// sequencer casts one accept after another while its own producer
		// sequences ops in between.
		name: "bb-accept",
		mut: func(c *Config) {
			c.Method = ForceBB
			c.StatusEvery = 5
			c.Batch = BatchConfig{MaxOps: 4, MaxBytes: 1 << 20, Linger: sim.Millisecond}
		},
		rounds: 10,
		run:    5 * sim.Second,
		chain: func(g *Member, pkt amoeba.Packet, handle func()) bool {
			a, ok := pkt.Body.(*acceptMsg)
			handle()
			return ok && len(a.UIDs) > 1 && !g.isSeq
		},
		least: 10,
		want:  "log=3d91e9ee2d687c55 frames=128 msgs=128 wire=14056 last=56030400 events=1243 retx=0 elect=0 takeover=0",
	},
	{
		// Consensus: an acceptor's ack moves the leader's commit watermark
		// over several slots, and the leader announces it and delivers them
		// while its own producer proposes.
		name: "consensus-commit",
		mut: func(c *Config) {
			c.Protocol = Consensus
			c.StatusEvery = 5
			c.Batch = BatchConfig{MaxOps: 4, MaxBytes: 1 << 20, Linger: sim.Millisecond}
		},
		rounds: 10,
		run:    5 * sim.Second,
		chain: func(g *Member, pkt amoeba.Packet, handle func()) bool {
			_, ok := pkt.Body.(*paccMsg)
			before := g.committed
			handle()
			return ok && g.isSeq && g.committed > before+1
		},
		least: 10,
		want:  "log=3787c5d3c5ba1901 frames=172 msgs=172 wire=20792 last=60695200 events=1295 retx=0 elect=0 takeover=0",
	},
	{
		// The sequencer crashes under load: the survivors elect a new one,
		// and every member retransmits its outstanding ops to it once the
		// view is installed, while the producer on the new sequencer's
		// machine keeps sequencing its own.
		name: "kick-after-crash",
		mut: func(c *Config) {
			c.StatusEvery = 5
			c.Batch = BatchConfig{MaxOps: 4, MaxBytes: 1 << 20, Linger: sim.Millisecond}
		},
		plan:    &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 0, At: 40 * sim.Millisecond}}},
		crashed: map[int]bool{0: true},
		rounds:  100,
		run:     20 * sim.Second,
		chain: func(g *Member, pkt amoeba.Packet, handle func()) bool {
			_, ok := pkt.Body.(coordMsg)
			handle()
			return ok && len(g.outstanding) > 0
		},
		least: 1,
		want:  "log=655ed220ae77292a frames=3057 msgs=3057 wire=549726 last=1944684800 events=11895 retx=2114 elect=3 takeover=0",
	},
}

// TestStatusBoundaryFrameSendsFromContinuation runs every
// statusBoundaryCases scenario with packed traffic from a producer on
// each live machine, checks agreement, counts the case's packets, and
// compares the run's fingerprint.
func TestStatusBoundaryFrameSendsFromContinuation(t *testing.T) {
	for _, tc := range statusBoundaryCases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(11, 4, tc.plan, tc.mut)
			chains := 0
			for i := range h.gs {
				g := h.gs[i]
				h.ms[i].Unbind(g.port)
				h.ms[i].Bind(g.port, func(p *sim.Proc, from int, pkt amoeba.Packet) {
					if tc.chain(g, pkt, func() { g.handle(p, from, pkt) }) {
						chains++
					}
				})
			}
			sent := 0
			for i := range h.ms {
				if tc.crashed[i] {
					continue
				}
				h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
					for k := 0; k < tc.rounds; k++ {
						ops := make([]Msg, 1+(i+k)%3)
						sent += len(ops)
						for j := range ops {
							ops[j] = Msg{Kind: "m", Body: fmt.Sprintf("n%d-%d-%d", i, k, j), Size: 60}
						}
						h.gs[i].BroadcastBatch(p, ops, nil)
						p.Sleep(sim.Time(3+i) * sim.Millisecond)
					}
				})
			}
			h.env.RunUntil(tc.run)
			h.checkAgreement(t, sent, tc.crashed)
			h.checkFrameAgreement(t, tc.crashed)
			if chains < tc.least {
				t.Errorf("saw %d of the case's packets; the scenario should produce at least %d", chains, tc.least)
			}
			if got := h.fingerprint(tc.crashed); got != tc.want {
				t.Errorf("fingerprint moved:\n\t%q\nwas\t%q", got, tc.want)
			}
			h.env.Stop()
			h.env.Shutdown()
		})
	}
}
