package netsim

import (
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testNet(n int, mutate func(*Params)) (*sim.Env, *Network) {
	env := sim.New(42)
	p := DefaultParams()
	if mutate != nil {
		mutate(&p)
	}
	return env, New(env, n, p)
}

func TestUnicastDelivery(t *testing.T) {
	env, nw := testNet(3, nil)
	var got []Delivery
	nw.Handle(1, func(d Delivery) { got = append(got, d) })
	nw.SendFrame(Frame{Src: 0, Dst: 1, Kind: "test", Size: 100, Payload: "hello"})
	env.Run()
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(got))
	}
	if got[0].Frame.Payload.(string) != "hello" {
		t.Fatalf("payload = %v", got[0].Frame.Payload)
	}
	wantAt := nw.TxTime(100) + nw.Params().PropDelay
	if got[0].At != wantAt {
		t.Fatalf("delivered at %v, want %v", got[0].At, wantAt)
	}
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	env, nw := testNet(4, nil)
	recv := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		nw.Handle(i, func(d Delivery) { recv[i]++ })
	}
	nw.BroadcastFrame(Frame{Src: 2, Kind: "bcast", Size: 64})
	env.Run()
	for i := 0; i < 4; i++ {
		want := 1
		if i == 2 {
			want = 0
		}
		if recv[i] != want {
			t.Fatalf("node %d received %d, want %d", i, recv[i], want)
		}
	}
}

func TestBandwidthSerialization(t *testing.T) {
	env, nw := testNet(2, nil)
	var times []sim.Time
	nw.Handle(1, func(d Delivery) { times = append(times, d.At) })
	// Two back-to-back frames: second waits for the bus.
	nw.SendFrame(Frame{Src: 0, Dst: 1, Size: 1000})
	nw.SendFrame(Frame{Src: 0, Dst: 1, Size: 1000})
	env.Run()
	if len(times) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(times))
	}
	tx := nw.TxTime(1000)
	if times[0] != tx+nw.Params().PropDelay {
		t.Fatalf("first delivery at %v, want %v", times[0], tx+nw.Params().PropDelay)
	}
	if times[1] != 2*tx+nw.Params().PropDelay {
		t.Fatalf("second delivery at %v, want %v (bus serialization)", times[1], 2*tx+nw.Params().PropDelay)
	}
}

func TestFragmentation(t *testing.T) {
	env, nw := testNet(2, nil)
	var frags int
	nw.Handle(1, func(d Delivery) { frags = d.Fragments })
	nw.SendFrame(Frame{Src: 0, Dst: 1, Size: 4000}) // 1500-byte MTU -> 3 frames
	env.Run()
	if frags != 3 {
		t.Fatalf("fragments = %d, want 3", frags)
	}
	s := nw.Stats()
	if s.Frames != 3 {
		t.Fatalf("stats frames = %d, want 3", s.Frames)
	}
	wantWire := int64(4000 + 3*nw.Params().FrameOverhead)
	if s.WireBytes != wantWire {
		t.Fatalf("wire bytes = %d, want %d", s.WireBytes, wantWire)
	}
}

func TestInterruptAccounting(t *testing.T) {
	env, nw := testNet(3, nil)
	for i := 0; i < 3; i++ {
		nw.Handle(i, func(d Delivery) {})
	}
	nw.BroadcastFrame(Frame{Src: 0, Size: 3000}) // 2 fragments
	env.Run()
	s := nw.Stats()
	if s.Interrupts[0] != 0 {
		t.Fatalf("sender interrupts = %d, want 0", s.Interrupts[0])
	}
	for i := 1; i < 3; i++ {
		if s.Interrupts[i] != 2 {
			t.Fatalf("node %d interrupts = %d, want 2 (one per fragment)", i, s.Interrupts[i])
		}
	}
}

// lossy is a fault plan that loses each fragment with probability p on
// every link for the whole run.
func lossy(p float64) *FaultPlan {
	return &FaultPlan{Losses: []LossWindow{{Src: AnyNode, Dst: AnyNode, Until: math.MaxInt64, Prob: p}}}
}

func TestDropInjection(t *testing.T) {
	env, nw := testNet(2, nil)
	nw.InstallFaults(lossy(0.5), nil)
	delivered := 0
	nw.Handle(1, func(d Delivery) { delivered++ })
	const total = 1000
	for i := 0; i < total; i++ {
		nw.SendFrame(Frame{Src: 0, Dst: 1, Size: 100})
	}
	env.Run()
	if delivered == 0 || delivered == total {
		t.Fatalf("delivered = %d of %d; drop injection not working", delivered, total)
	}
	s := nw.Stats()
	if s.Drops != int64(total-delivered) {
		t.Fatalf("drops = %d, want %d", s.Drops, total-delivered)
	}
	// With p=0.5 the delivered count should be within 5 sigma of 500.
	if delivered < 400 || delivered > 600 {
		t.Fatalf("delivered = %d, improbable for p=0.5", delivered)
	}
}

func TestDownNodeReceivesNothing(t *testing.T) {
	env, nw := testNet(3, nil)
	recv := 0
	nw.Handle(1, func(d Delivery) { recv++ })
	nw.Handle(2, func(d Delivery) { recv++ })
	nw.SetDown(1, true)
	nw.BroadcastFrame(Frame{Src: 0, Size: 10})
	env.Run()
	if recv != 1 {
		t.Fatalf("deliveries = %d, want 1 (node 1 is down)", recv)
	}
}

func TestDownNodeCannotSend(t *testing.T) {
	env, nw := testNet(2, nil)
	recv := 0
	nw.Handle(1, func(d Delivery) { recv++ })
	nw.SetDown(0, true)
	nw.SendFrame(Frame{Src: 0, Dst: 1, Size: 10})
	env.Run()
	if recv != 0 {
		t.Fatalf("down node managed to send")
	}
}

func TestBroadcastOnP2PNetworkPanics(t *testing.T) {
	_, nw := testNet(2, func(p *Params) { p.BroadcastCapable = false })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic broadcasting on point-to-point network")
		}
	}()
	nw.BroadcastFrame(Frame{Src: 0, Size: 10})
}

func TestStatsByKind(t *testing.T) {
	env, nw := testNet(2, nil)
	nw.Handle(1, func(d Delivery) {})
	nw.SendFrame(Frame{Src: 0, Dst: 1, Kind: "rpc-req", Size: 128})
	nw.SendFrame(Frame{Src: 0, Dst: 1, Kind: "rpc-req", Size: 128})
	nw.SendFrame(Frame{Src: 0, Dst: 1, Kind: "rpc-rep", Size: 64})
	env.Run()
	s := nw.Stats()
	if s.CountsByKind["rpc-req"] != 2 || s.CountsByKind["rpc-rep"] != 1 {
		t.Fatalf("counts by kind = %v", s.CountsByKind)
	}
}

// Property: fragmentation covers the payload with the minimum number of
// MTU-sized frames and TxTime is monotone in size.
func TestFragmentationProperty(t *testing.T) {
	_, nw := testNet(2, nil)
	mtu := nw.Params().MTU
	f := func(size uint16) bool {
		n := nw.FragmentsFor(int(size))
		if size == 0 {
			return n == 1
		}
		if n*mtu < int(size) {
			return false // does not cover payload
		}
		if (n-1)*mtu >= int(size) {
			return false // not minimal
		}
		return nw.TxTime(int(size)) >= nw.TxTime(int(size)-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestResetStats(t *testing.T) {
	env, nw := testNet(2, nil)
	nw.Handle(1, func(d Delivery) {})
	nw.SendFrame(Frame{Src: 0, Dst: 1, Size: 100})
	env.Run()
	nw.ResetStats()
	s := nw.Stats()
	if s.Frames != 0 || s.WireBytes != 0 || s.Interrupts[1] != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
}

// TestLossDrawOrder pins which receivers lost which frames under a
// whole-run loss window — unicast, broadcast, and frames of three and
// two fragments — over two seeds. The record was taken when frame loss
// was a network parameter of its own, so it holds deliver to one roll
// per fragment, receiver by receiver in node order, stopping at the
// first failed roll.
func TestLossDrawOrder(t *testing.T) {
	want := map[int64]string{
		1: "2>0 3>1 3>2 5>0 6>0 7>1 7>2 7>3 9>3 10>0 11>1 11>3 12>1 13>3 14>0 15>2 16>1 17>3 18>0 19>2 19>3 21>0 21>1 22>0 23>3",
		2: "0>1 1>0 1>1 1>3 3>1 3>2 3>3 7>1 7>3 11>1 11>3 15>1 15>3 16>1 18>0 19>1 19>2 19>3 21>0 21>3 23>2 23>3",
	}
	for _, seed := range []int64{1, 2} {
		env := sim.New(seed)
		nw := New(env, 4, DefaultParams())
		nw.InstallFaults(lossy(0.3), nil)
		heard := map[string]bool{}
		for i := 0; i < 4; i++ {
			nw.Handle(i, func(d Delivery) { heard[fmt.Sprintf("%d>%d", d.Frame.Payload, i)] = true })
		}
		receivers := [][]int{{1}, {0, 1, 3}, {0}, {1, 2, 3}} // of each round's four frames
		var sent []string                                    // every (frame, receiver) pair, in send order
		for r := 0; r < 6; r++ {
			f := 4 * r
			env.At(sim.Time(r)*10*sim.Millisecond, func() {
				nw.SendFrame(Frame{Src: 0, Dst: 1, Size: 100, Payload: f})
				nw.BroadcastFrame(Frame{Src: 2, Size: 100, Payload: f + 1})
				nw.SendFrame(Frame{Src: 3, Dst: 0, Size: 4000, Payload: f + 2})
				nw.BroadcastFrame(Frame{Src: 0, Size: 3000, Payload: f + 3})
			})
			for k, dsts := range receivers {
				for _, d := range dsts {
					sent = append(sent, fmt.Sprintf("%d>%d", f+k, d))
				}
			}
		}
		env.Run()
		var lost []string
		for _, k := range sent {
			if !heard[k] {
				lost = append(lost, k)
			}
		}
		if got := strings.Join(lost, " "); got != want[seed] || nw.Stats().Drops != int64(len(lost)) {
			t.Errorf("seed %d: lost %s (Drops %d), want %s", seed, got, nw.Stats().Drops, want[seed])
		}
	}
}

// skipUnderRace skips an allocation budget when the race detector, which
// allocates on its own account, is on.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts mean nothing under the race detector")
			}
		}
	}
}

// A broadcast on a healthy fault-free network is one pooled flight and
// one pooled event for all fifteen receivers: nothing is allocated for
// it. (The fan-out was a closure per frame.)
func TestBroadcastFanoutAllocations(t *testing.T) {
	skipUnderRace(t)
	env, nw := testNet(16, nil)
	heard := 0
	for i := 0; i < 16; i++ {
		nw.Handle(i, func(Delivery) { heard++ })
	}
	members := []int{1, 3, 5, 7}
	cast := func() {
		nw.BroadcastFrame(Frame{Src: 1, Kind: "bench", Size: 64})
		nw.MulticastFrame(Frame{Src: 1, Kind: "bench", Size: 64}, members)
		env.Run()
	}
	cast()
	if a := testing.AllocsPerRun(100, cast); a != 0 || heard != 102*(15+3) {
		t.Errorf("%v allocations per broadcast and multicast, %d deliveries; want 0 and %d", a, heard, 102*(15+3))
	}
}

// A flight record is the network's from launch to arrive and nobody's
// afterwards: with poisoning on (see TestMain) a released record names
// no node, and firing it again panics instead of delivering some later
// frame's payload a second time.
func TestReleasedFlightIsPoisoned(t *testing.T) {
	env, nw := testNet(3, nil)
	got := 0
	nw.Handle(1, func(Delivery) { got++ })
	nw.Handle(2, func(Delivery) { got++ })
	nw.SendFrame(Frame{Src: 0, Dst: 1, Kind: "test", Size: 10, Payload: "unicast"})
	nw.BroadcastFrame(Frame{Src: 0, Kind: "test", Size: 10, Payload: "broadcast"})
	env.Run()
	if got != 3 {
		t.Fatalf("%d deliveries, want 3", got)
	}
	n := 0
	for fl := nw.free; fl != nil; fl = fl.next {
		n++
		if fl.dst != -2 || fl.frags != -1 || fl.f.Payload != nil || fl.members != nil {
			t.Errorf("released flight still reads dst %d, frags %d, payload %v, members %v", fl.dst, fl.frags, fl.f.Payload, fl.members)
		}
	}
	if n != 2 {
		t.Errorf("%d records on the free list, want the 2 that flew", n)
	}
	defer func() {
		if recover() == nil || got != 3 {
			t.Errorf("firing a released flight did not panic (deliveries: %d)", got)
		}
	}()
	nw.free.arrive()
}
