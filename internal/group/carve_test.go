package group

import (
	"fmt"
	"testing"

	"repro/internal/amoeba"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// carvedRec is a struct an operation carries by reference.
type carvedRec struct {
	N int
	S string
}

// carvedArgs is the record of message i: a []byte and a struct, both
// carved from env's tables.
func carvedArgs(env *sim.Env, i int) (a amoeba.Args) {
	amoeba.Put(&a, env, []byte(fmt.Sprintf("payload-%05d", i)))
	amoeba.Put(&a, env, carvedRec{N: i, S: fmt.Sprint(i * i)})
	return a
}

// carvedValues renders what a delivery's record carries through its
// carved pointers, or "" for a record without them.
func carvedValues(d Delivery) string {
	if d.Args.Values() == nil {
		return ""
	}
	return fmt.Sprintf("%s %+v", amoeba.Get[[]byte](&d.Args, 0), amoeba.Get[carvedRec](&d.Args, 1))
}

// A sequenced record refers to the values its operation carved (see
// amoeba.Args), so every copy of it — the sequencer's history, a
// member's delivered cache, a retransmission — must read what was put,
// however many values are carved after it: no carve slot is handed out
// twice. Node 4 hears nothing while node 1 broadcasts records carrying a
// []byte and a struct and then carves thousands more of each, as a
// running program would; node 4 catches up by retransmission, from the
// sequencer's history or, under consensus, from a member's cache, and
// every member must deliver exactly the values that were sent.
func TestCatchUpDeliversCarvedValues(t *testing.T) {
	const n = 300
	for _, pv := range protocolVariants {
		t.Run(pv.name, func(t *testing.T) {
			plan := &netsim.FaultPlan{Losses: []netsim.LossWindow{
				{Src: netsim.AnyNode, Dst: 4, From: 100 * sim.Millisecond, Until: 3 * sim.Second, Prob: 1}}}
			h := newHarness(1, 5, plan, pv.mut)
			h.ms[1].SpawnThread("writer", func(p *sim.Proc) {
				p.Sleep(200 * sim.Millisecond)
				for i := range n {
					h.gs[1].BroadcastMsg(p, Msg{Kind: "carved", Args: carvedArgs(h.env, i), Size: 64})
				}
				for range 5000 {
					sim.Carve(h.env, []byte("carved later"))
					sim.Carve(h.env, carvedRec{N: -1, S: "carved later"})
				}
			})
			h.env.RunUntil(30 * sim.Second)
			defer h.env.Shutdown()
			for i := range h.gs {
				got := 0
				for _, d := range h.logs[i] {
					if d.Kind != "carved" || d.Dup {
						continue
					}
					if want := fmt.Sprintf("payload-%05d %+v", got, carvedRec{N: got, S: fmt.Sprint(got * got)}); carvedValues(d) != want {
						t.Fatalf("node %d, record %d: delivered %q, sent %q", i, got, carvedValues(d), want)
					}
					got++
				}
				if got != n {
					t.Errorf("node %d delivered %d of %d carved records", i, got, n)
				}
			}
			if h.gs[4].Stats().GapRequests == 0 {
				t.Error("node 4 asked for no retransmission: it never had to catch up")
			}
		})
	}
}
