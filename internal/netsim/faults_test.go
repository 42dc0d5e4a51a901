package netsim

import (
	"testing"

	"repro/internal/sim"
)

func TestFaultPlanCrashSchedule(t *testing.T) {
	env, nw := testNet(3, nil)
	var crashed []int
	nw.InstallFaults(&FaultPlan{Crashes: []Crash{
		{Node: 2, At: 10 * sim.Millisecond},
		{Node: 1, At: 20 * sim.Millisecond},
	}}, func(node int) {
		crashed = append(crashed, node)
		nw.SetDown(node, true)
	})
	got := 0
	nw.Handle(1, func(d Delivery) { got++ })
	env.At(15*sim.Millisecond, func() {
		nw.SendFrame(Frame{Src: 0, Dst: 1, Kind: "t", Size: 10})
	})
	env.At(25*sim.Millisecond, func() {
		nw.SendFrame(Frame{Src: 0, Dst: 1, Kind: "t", Size: 10})
	})
	env.Run()
	if len(crashed) != 2 || crashed[0] != 2 || crashed[1] != 1 {
		t.Fatalf("crash order = %v, want [2 1]", crashed)
	}
	if got != 1 {
		t.Fatalf("node 1 received %d frames, want 1 (alive at 15ms, down at 25ms)", got)
	}
}

func TestFaultPlanCrashDefaultsToSetDown(t *testing.T) {
	env, nw := testNet(2, nil)
	nw.InstallFaults(&FaultPlan{Crashes: []Crash{{Node: 1, At: sim.Millisecond}}}, nil)
	env.Run()
	if !nw.Down(1) {
		t.Fatal("node 1 not marked down by the default crash action")
	}
}

func TestPartitionWindowCutsAndHeals(t *testing.T) {
	env, nw := testNet(4, nil)
	recv := make([]int, 4)
	for i := range recv {
		i := i
		nw.Handle(i, func(d Delivery) { recv[i]++ })
	}
	nw.InstallFaults(&FaultPlan{Partitions: []Partition{
		{A: []int{0, 1}, B: []int{2, 3}, From: 10 * sim.Millisecond, Until: 30 * sim.Millisecond},
	}}, nil)
	send := func() {
		nw.SendFrame(Frame{Src: 0, Dst: 2, Kind: "cross", Size: 10}) // crosses the cut
		nw.SendFrame(Frame{Src: 0, Dst: 1, Kind: "within", Size: 10})
		nw.BroadcastFrame(Frame{Src: 3, Kind: "bcast", Size: 10})
	}
	env.At(5*sim.Millisecond, send)  // before the window
	env.At(15*sim.Millisecond, send) // inside it
	env.At(35*sim.Millisecond, send) // healed
	env.Run()
	// Node 2 hears 0's unicast except during the window: 2 of 3. The
	// broadcast from 3 reaches 2 always (same side): 3 more.
	if recv[2] != 2+3 {
		t.Fatalf("node 2 received %d, want 5", recv[2])
	}
	// Node 1 hears 0's unicast always (same side), and 3's broadcast
	// except during the window.
	if recv[1] != 3+2 {
		t.Fatalf("node 1 received %d, want 5", recv[1])
	}
	st := nw.Stats()
	if st.FaultDrops != 3 { // 0->2 unicast, 3->0 and 3->1 broadcast legs
		t.Fatalf("FaultDrops = %d, want 3", st.FaultDrops)
	}
}

func TestLossWindowDropsProbabilistically(t *testing.T) {
	env, nw := testNet(2, nil)
	got := 0
	nw.Handle(1, func(d Delivery) { got++ })
	nw.InstallFaults(&FaultPlan{Losses: []LossWindow{
		{Src: AnyNode, Dst: 1, From: 0, Until: sim.Second, Prob: 0.5},
	}}, nil)
	const sends = 200
	for i := 0; i < sends; i++ {
		at := sim.Time(i) * sim.Millisecond
		env.At(at, func() { nw.SendFrame(Frame{Src: 0, Dst: 1, Kind: "t", Size: 10}) })
	}
	env.Run()
	st := nw.Stats()
	if got+int(st.Drops) != sends || st.FaultDrops != 0 {
		t.Fatalf("received %d + dropped %d != %d sent (partition cuts %d)", got, st.Drops, sends, st.FaultDrops)
	}
	if got < sends/4 || got > 3*sends/4 {
		t.Fatalf("received %d of %d at p=0.5; loss window not applying", got, sends)
	}
	// After the window, delivery is certain again.
	got = 0
	env2, nw2 := testNet(2, nil)
	nw2.Handle(1, func(d Delivery) { got++ })
	nw2.InstallFaults(&FaultPlan{Losses: []LossWindow{
		{Src: AnyNode, Dst: 1, From: 0, Until: sim.Millisecond, Prob: 1},
	}}, nil)
	env2.At(5*sim.Millisecond, func() { nw2.SendFrame(Frame{Src: 0, Dst: 1, Kind: "t", Size: 10}) })
	env2.Run()
	if got != 1 {
		t.Fatalf("frame after the loss window dropped (got %d)", got)
	}
}

func TestLossWindowsAreSeedDeterministic(t *testing.T) {
	run := func() (int, int64) {
		env, nw := testNet(2, nil)
		got := 0
		nw.Handle(1, func(d Delivery) { got++ })
		nw.InstallFaults(&FaultPlan{Losses: []LossWindow{
			{Src: 0, Dst: 1, From: 0, Until: sim.Second, Prob: 0.3},
		}}, nil)
		for i := 0; i < 100; i++ {
			at := sim.Time(i) * sim.Millisecond
			env.At(at, func() { nw.SendFrame(Frame{Src: 0, Dst: 1, Kind: "t", Size: 10}) })
		}
		env.Run()
		return got, nw.Stats().Drops
	}
	g1, d1 := run()
	g2, d2 := run()
	if g1 != g2 || d1 != d2 {
		t.Fatalf("same seed, different loss outcomes: (%d,%d) vs (%d,%d)", g1, d1, g2, d2)
	}
}

func TestHealthyRunsIgnoreNilPlan(t *testing.T) {
	env, nw := testNet(2, nil)
	nw.InstallFaults(nil, nil) // no-op
	got := 0
	nw.Handle(1, func(d Delivery) { got++ })
	nw.SendFrame(Frame{Src: 0, Dst: 1, Kind: "t", Size: 10})
	env.Run()
	if st := nw.Stats(); got != 1 || st.Drops+st.FaultDrops != 0 {
		t.Fatalf("nil plan changed behavior: got=%d drops=%d+%d", got, st.Drops, st.FaultDrops)
	}
}
