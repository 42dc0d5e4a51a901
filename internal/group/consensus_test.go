package group

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/amoeba"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// consensusCfg selects the replicated-log protocol with tight
// recovery timers.
func consensusCfg(c *Config) {
	c.Protocol = Consensus
	c.SenderTimeout = 50 * sim.Millisecond
	c.SenderRetries = 3
	c.GapTimeout = 25 * sim.Millisecond
	c.Heartbeat = 100 * sim.Millisecond
	c.ProposeTimeout = 20 * sim.Millisecond
}

func TestConsensusTotalOrderLossless(t *testing.T) {
	h := newHarness(11, 4, nil, consensusCfg)
	const perNode = 25
	for i := range h.ms {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < perNode; k++ {
				h.gs[i].Broadcast(p, "msg", fmt.Sprintf("n%d-%d", i, k), 100)
				p.Sleep(sim.Time(1+i) * sim.Millisecond)
			}
		})
	}
	h.env.RunUntil(20 * sim.Second)
	h.checkAgreement(t, 4*perNode, nil)
	h.checkNoDuplicates(t, nil)
	st := h.gs[1].Stats()
	if st.Takeovers != 0 || st.Elections != 0 {
		t.Fatalf("healthy run recovered: takeovers=%d elections=%d", st.Takeovers, st.Elections)
	}
	h.env.Stop()
	h.env.Shutdown()
}

// TestConsensusQuorumGatesDelivery: a slot must be replicated on a
// majority before anyone applies it. With every member but the leader
// unreachable, nothing may be delivered — the elected-sequencer
// protocol would happily deliver locally.
func TestConsensusQuorumGatesDelivery(t *testing.T) {
	h := newHarness(17, 4, nil, consensusCfg)
	h.net.InstallFaults(&netsim.FaultPlan{Partitions: []netsim.Partition{
		{A: []int{0}, B: []int{1, 2, 3}, From: 0, Until: 400 * sim.Millisecond},
	}}, nil)
	h.ms[0].SpawnThread("producer", func(p *sim.Proc) {
		h.gs[0].Broadcast(p, "msg", "isolated", 100)
		p.Sleep(300 * sim.Millisecond)
		if len(h.logs[0]) != 0 {
			t.Errorf("leader delivered %d messages without a quorum", len(h.logs[0]))
		}
	})
	h.env.RunUntil(10 * sim.Second)
	// After the partition heals the op commits everywhere.
	h.checkAgreement(t, 1, nil)
	h.env.Stop()
	h.env.Shutdown()
}

func TestConsensusLeaderCrashTakeover(t *testing.T) {
	h := newHarness(31, 4, nil, consensusCfg)
	for i := 1; i < 4; i++ {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < 10; k++ {
				h.gs[i].Broadcast(p, "pre", k, 100)
				p.Sleep(2 * sim.Millisecond)
			}
			p.Sleep(100 * sim.Millisecond)
			if i == 1 {
				h.ms[0].Crash()
			}
			for k := 0; k < 10; k++ {
				h.gs[i].Broadcast(p, "post", k, 100)
				p.Sleep(2 * sim.Millisecond)
			}
		})
	}
	h.env.RunUntil(30 * sim.Second)
	skip := map[int]bool{0: true}
	h.checkAgreement(t, 60, skip)
	h.checkNoDuplicates(t, skip)
	var takeovers, elections, reproposals int64
	var recovery sim.Time
	newLeader := -1
	for i := 1; i < 4; i++ {
		st := h.gs[i].Stats()
		takeovers += st.Takeovers
		elections += st.Elections
		reproposals += st.Reproposals
		if st.RecoveryTime > recovery {
			recovery = st.RecoveryTime
		}
		if h.gs[i].IsSequencer() {
			newLeader = i
		}
	}
	if takeovers == 0 {
		t.Fatal("no survivor took the log over")
	}
	if elections != 0 {
		t.Fatalf("consensus crash recovery ran %d elections", elections)
	}
	if reproposals == 0 {
		t.Fatal("takeover re-proposed nothing; in-flight slots should have been re-proposed")
	}
	if recovery == 0 {
		t.Fatal("no recovery time accounted")
	}
	if newLeader == -1 {
		t.Fatal("no live member leads after the crash")
	}
	for i := 1; i < 4; i++ {
		if got := h.gs[i].Sequencer(); got != newLeader {
			t.Fatalf("node %d thinks the leader is %d, want %d", i, got, newLeader)
		}
	}
	h.env.Stop()
	h.env.Shutdown()
}

// TestConsensusBatchCrashFrames: the leader crashes with packed
// frames partially replicated; the takeover re-proposes the surviving
// partial frame and every survivor observes identical More boundaries.
func TestConsensusBatchCrashFrames(t *testing.T) {
	h := newHarness(31, 4, nil, func(c *Config) {
		consensusCfg(c)
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
	h.checkNoDuplicates(t, skip)
	h.env.Stop()
	h.env.Shutdown()
}

// consensusRunFingerprint replays one seed through a partition window
// that overlaps a sequencer crash — the fault-matrix cell no other
// test covered — and fingerprints the full outcome.
func consensusRunFingerprint(t *testing.T, seed int64, protocol Protocol) string {
	t.Helper()
	h := newHarness(seed, 4, nil, func(c *Config) {
		c.SenderTimeout = 50 * sim.Millisecond
		c.SenderRetries = 3
		c.GapTimeout = 25 * sim.Millisecond
		c.Heartbeat = 100 * sim.Millisecond
		c.ElectionWait = 60 * sim.Millisecond
		c.Protocol = protocol
	})
	// The partition separates {1} from {2,3} while the sequencer (0)
	// crashes mid-window: recovery must wait for a quorum to be
	// mutually reachable again and still lose nothing.
	h.net.InstallFaults(&netsim.FaultPlan{
		Crashes: []netsim.Crash{{Node: 0, At: 80 * sim.Millisecond}},
		Partitions: []netsim.Partition{
			{A: []int{1}, B: []int{2, 3}, From: 60 * sim.Millisecond, Until: 400 * sim.Millisecond},
		},
	}, func(node int) { h.ms[node].Crash() })
	for i := 1; i < 4; i++ {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			for k := 0; k < 12; k++ {
				h.gs[i].Broadcast(p, "m", fmt.Sprintf("n%d-%d", i, k), 100)
				p.Sleep(sim.Time(5+3*i) * sim.Millisecond)
			}
		})
	}
	h.env.RunUntil(120 * sim.Second)
	skip := map[int]bool{0: true}
	h.checkAgreement(t, 36, skip)
	h.checkNoDuplicates(t, skip)
	var fp strings.Builder
	fmt.Fprintf(&fp, "uids=%v", h.uidLogs[1])
	for i := 1; i < 4; i++ {
		st := h.gs[i].Stats()
		fmt.Fprintf(&fp, " n%d=(d%d,e%d,t%d)", i, st.Delivered, st.Elections, st.Takeovers)
	}
	h.env.Stop()
	h.env.Shutdown()
	return fp.String()
}

// TestPartitionOverlappingCrash: both recovery paths (election and
// consensus takeover) survive a partition window overlapping the
// sequencer crash, and both are bit-deterministic across re-runs.
func TestPartitionOverlappingCrash(t *testing.T) {
	for _, pr := range []Protocol{ElectedSequencer, Consensus} {
		pr := pr
		t.Run(pr.String(), func(t *testing.T) {
			a := consensusRunFingerprint(t, 77, pr)
			b := consensusRunFingerprint(t, 77, pr)
			if a != b {
				t.Fatalf("non-deterministic recovery:\n run1 %s\n run2 %s", a, b)
			}
		})
	}
}

// TestConfigValidate: invalid configurations fail fast, before any
// machine state exists.
func TestConfigValidate(t *testing.T) {
	base := func() Config { return DefaultConfig([]int{0, 1, 2}) }
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the error; "" = valid
	}{
		{"default", func(c *Config) {}, ""},
		{"consensus", func(c *Config) { c.Protocol = Consensus }, ""},
		{"empty-membership", func(c *Config) { c.Members = nil }, "empty membership"},
		{"negative-member", func(c *Config) { c.Members = []int{0, -2, 1} }, "negative member"},
		{"duplicate-member", func(c *Config) { c.Members = []int{0, 1, 1} }, "duplicate member"},
		{"bad-method", func(c *Config) { c.Method = Method(9) }, "unknown method"},
		{"bad-protocol", func(c *Config) { c.Protocol = Protocol(9) }, "unknown protocol"},
		{"consensus-bb", func(c *Config) { c.Protocol = Consensus; c.Method = ForceBB },
			"ForceBB is incompatible"},
		{"consensus-no-timeout", func(c *Config) { c.Protocol = Consensus; c.ProposeTimeout = 0 },
			"positive ProposeTimeout"},
		{"negative-batch", func(c *Config) { c.Batch = BatchConfig{MaxOps: -1} }, "batch"},
		{"batch-no-linger", func(c *Config) { c.Batch = BatchConfig{MaxOps: 4, MaxBytes: 1 << 20} },
			"positive Linger"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestJoinValidatePanics: Join refuses an invalid config outright.
func TestJoinValidatePanics(t *testing.T) {
	env := sim.New(1)
	nw := netsim.New(env, 2, netsim.DefaultParams())
	m := amoeba.NewMachine(env, nw, 0, amoeba.DefaultCosts())
	defer func() {
		if recover() == nil {
			t.Fatal("Join accepted an invalid config")
		}
		env.Stop()
		env.Shutdown()
	}()
	cfg := DefaultConfig([]int{0, 1})
	cfg.Protocol = Consensus
	cfg.Method = ForceBB
	Join(m, cfg)
}
