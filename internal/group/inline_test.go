package group

import (
	"fmt"
	"testing"

	"repro/internal/amoeba"
	"repro/internal/sim"
)

// TestStatusBoundaryFrameSendsFromContinuation runs packed traffic with
// a short status period, so that frames keep straddling a StatusEvery
// boundary: a member then reports status in the middle of a frame's
// delivery loop, and the loop goes on from that send's continuation. It
// counts those frames, of which the scenario must produce plenty. The
// fingerprint is the one this scenario had when every such frame was
// handled on an interrupt thread.
func TestStatusBoundaryFrameSendsFromContinuation(t *testing.T) {
	const every = 5
	h := newHarness(11, 4, nil, func(c *Config) {
		c.Method = ForcePB
		c.StatusEvery = every
		c.Batch = BatchConfig{MaxOps: 4, MaxBytes: 1 << 20, Linger: sim.Millisecond}
	})
	crossing := 0
	for i := range h.gs {
		g := h.gs[i]
		h.ms[i].Unbind(g.port)
		h.ms[i].Bind(g.port, func(p *sim.Proc, from int, pkt amoeba.Packet) {
			if f, ok := pkt.Body.(*dataFrame); ok && !g.isSeq {
				for k := 1; k <= len(f.Recs); k++ {
					if (g.stats.Delivered+int64(k))%every == 0 {
						crossing++
						break
					}
				}
			}
			g.handle(p, from, pkt)
		})
	}
	sent := 0
	for i := range h.ms {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < 10; k++ {
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
	h.env.RunUntil(5 * sim.Second)
	h.checkAgreement(t, sent, nil)
	h.checkFrameAgreement(t, nil)
	if crossing < 20 {
		t.Errorf("saw %d frames across a status boundary; the scenario should produce plenty", crossing)
	}
	const want = "log=baf2587266778765 frames=123 msgs=123 wire=17678 last=56081600 events=1082 retx=0 elect=0 takeover=0"
	if got := h.fingerprint(nil); got != want {
		t.Errorf("fingerprint moved:\n\t%q\nwas\t%q", got, want)
	}
	h.env.Stop()
	h.env.Shutdown()
}
