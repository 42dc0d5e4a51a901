package group

import (
	"fmt"
	"testing"

	"repro/internal/amoeba"
	"repro/internal/sim"
)

// TestStatusBoundaryFrameTakesThread runs packed traffic with a short
// status period, so that frames keep straddling a StatusEvery boundary,
// and watches the port's Nonblocking predicate. A data frame whose
// delivery makes a member report status must be refused — the report
// is a send, and a send on the dispatch lane would panic in sim — and
// the frames in between must be vouched for, or the run-to-completion
// path is not being taken at all. The fingerprint is the one this
// scenario had when every frame was handled on the interrupt thread.
func TestStatusBoundaryFrameTakesThread(t *testing.T) {
	const every = 5
	h := newHarness(11, 4, nil, func(c *Config) {
		c.Method = ForcePB
		c.StatusEvery = every
		c.Batch = BatchConfig{MaxOps: 4, MaxBytes: 1 << 20, Linger: sim.Millisecond}
	})
	var refused, vouched int
	for i := range h.gs {
		g := h.gs[i]
		h.ms[i].BindNonblocking(g.port, func(from int, pkt *amoeba.Packet) bool {
			ok := g.nonblocking(from, pkt)
			f, isData := pkt.Body.(*dataFrame)
			if !isData {
				return ok
			}
			// Told apart here without the predicate's arithmetic: walk the
			// delivery counts this frame can produce.
			crosses := false
			for k := 1; k <= len(f.Recs); k++ {
				if (g.stats.Delivered+int64(k))%every == 0 {
					crosses = true
				}
			}
			switch {
			case g.isSeq:
				if ok {
					t.Errorf("node %d: the sequencer vouched for a data frame", i)
				}
			case crosses:
				refused++
				if ok {
					t.Errorf("node %d: vouched for a %d-op frame at %d deliveries, across a status boundary", i, len(f.Recs), g.stats.Delivered)
				}
			case g.nextSeq > g.maxSeen:
				vouched++
				if !ok {
					t.Errorf("node %d: refused an in-order %d-op frame at %d deliveries, clear of any boundary", i, len(f.Recs), g.stats.Delivered)
				}
			}
			return ok
		})
	}
	sent := 0
	for i := range h.ms {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < 10; k++ {
				ops := make([]BatchOp, 1+(i+k)%3)
				sent += len(ops)
				for j := range ops {
					ops[j] = BatchOp{Kind: "m", Body: fmt.Sprintf("n%d-%d-%d", i, k, j), Size: 60}
				}
				h.gs[i].BroadcastBatch(p, ops, nil)
				p.Sleep(sim.Time(3+i) * sim.Millisecond)
			}
		})
	}
	h.env.RunUntil(5 * sim.Second)
	h.checkAgreement(t, sent, nil)
	h.checkFrameAgreement(t, nil)
	if refused < 20 || vouched < 20 {
		t.Errorf("saw %d boundary frames refused and %d others vouched for; the scenario should produce plenty of both", refused, vouched)
	}
	const want = "log=baf2587266778765 frames=123 msgs=123 wire=17678 last=56081600 events=1082 retx=0 elect=0 takeover=0"
	if got := h.fingerprint(nil); got != want {
		t.Errorf("fingerprint moved:\n\t%q\nwas\t%q", got, want)
	}
	h.env.Stop()
	h.env.Shutdown()
}
