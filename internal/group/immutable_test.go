package group_test

import (
	"testing"

	"repro/internal/apps/kv"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The store's sequencer machine crashes under load, which takes the whole
// runtime through suspicion, an election and the new view's
// retransmissions — copies of delivered records, restamped with its
// epoch — while every member's object manager applies the writes it is
// delivered by reference. No delivered record changes meanwhile. (The
// group-level protocol × capacity × fault cells watch their deliveries
// too: see TestProtocolFaultMatrix.)
func TestKVCrashDeliveriesStayPut(t *testing.T) {
	group.WatchDeliveries(t)
	const seq, dur = 7, 300 * sim.Millisecond
	cfg := orca.Config{Processors: 8, RTS: orca.Broadcast, Seed: 1, GroupMethod: group.ForcePB, Sequencer: seq,
		Faults: &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: seq, At: dur / 2}}}}
	r := kv.Run(cfg, kv.Params{Policy: kv.PolicyReplicated, Clients: 7, Workload: workload.Config{
		Keys: 8192, Dist: workload.Zipf, Theta: 0.99, ReadFrac: 0.5, UpdateFrac: 0.25, Seed: 1, Rate: 3000, Duration: dur,
	}})
	switch {
	case r.Report.TimedOut:
		t.Fatalf("timed out (blocked: %v)", r.Report.Blocked)
	case len(r.Report.Crashes) != 1:
		t.Fatalf("crashes executed = %d, want 1", len(r.Report.Crashes))
	case r.Report.RTS.Elections == 0:
		t.Fatal("the sequencer crashed but no election ran")
	case r.LostAcked != 0:
		t.Fatalf("lost %d acknowledged writes", r.LostAcked)
	}
}
