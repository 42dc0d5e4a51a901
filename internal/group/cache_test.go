package group

// What a member holds for what it has delivered: the delivered cache
// against the capped ring it replaced, the cache's allocations, and the
// sequencer tables only a member that sequences makes.

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/amoeba"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// FuzzCacheLogMatchesRing drives the delivered cache and the ring it
// replaced, a seqRing capped at cacheSize and advanced to the trim
// point, with one stream of appends, trims and reads, two bytes an
// operation, and requires the same record for every read. An append run
// stores up to 4 096 records in sequence, a trim drops all but up to
// the last 16 383 (all of them, or none), a skip stores one up to
// 16 384 numbers past the top, leaving the numbers between unstored,
// and a read reaches from two past the top to 16 381 below it, so below
// the window. Records come from a pool whose length is prime to
// cacheSize, so a stale record read through a wrapped position is never
// the one the ring holds.
func FuzzCacheLogMatchesRing(f *testing.F) {
	f.Add([]byte{0, 9, 3, 0, 3, 1, 3, 16, 3, 17, 3, 200})
	f.Add([]byte{0x7c, 0xff, 3, 0, 3, 2, 0x83, 0xff, 0x83, 0xfe, 0x83, 0x01, 0xff, 0xff})
	f.Add([]byte{4, 0, 2, 3, 3, 5, 3, 4, 2, 0x80, 3, 0, 0x83, 0x20, 0x7e, 0xff, 3, 0x81, 0x83, 0x02})
	seed := make([]byte, 0, 512)
	for i := 0; i < 64; i++ { // appends and skips across the wrap, probing both edges
		seed = append(seed, byte(i%8)<<3, byte(37*i), 2|byte(i%4)<<2, byte(11*i))
		seed = append(seed, 3|byte(i%32)<<2, byte(0xff-i), 3, byte(i))
	}
	f.Add(seed)
	trims := make([]byte, 0, 1024)
	for i := 0; i < 160; i++ { // appends that keep a trimmed window, which stalls now and then
		keep := byte(40 + 13*(i%9))
		if i%23 == 22 {
			keep = 0xff // a trim that keeps what the log holds
		}
		trims = append(trims, byte(i%3)<<2, byte(53*i), 1, keep, 3, byte(i), 3, keep)
		if i%31 == 30 { // a stall: appends past what the log has room for
			trims = append(trims, 0x0c, 0x80, 3, 0x7f, 1, 0x20)
		}
	}
	f.Add(trims)
	// Sixteen records, three kept, so the log goes round its first
	// segment; then twenty with no trim, which outgrow it in mid-lap; and
	// the same again at the second segment.
	f.Add([]byte{0, 60, 1, 3, 0, 76, 3, 0, 3, 5, 3, 17, 3, 20, 1, 10, 0x0c, 28, 1, 40, 0x08, 0x40, 0x0c, 0xff, 3, 0x40, 3, 0x90})
	pool := make([]dataMsg, 3*cacheSize+1)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var c cacheLog
		ref := seqRing[*dataMsg]{max: cacheSize}
		ref.reset(1)
		store := func(seq int64) {
			d := &pool[seq%int64(len(pool))]
			c.set(seq, d)
			ref.set(seq, d)
		}
		check := func(op int, seq int64) {
			if got, want := c.get(seq), ref.get(seq); got != want {
				t.Fatalf("op %d: record %d is %p, the ring holds %p (top %d, ring window [%d, %d))", op, seq, got, want, c.top, ref.lo, ref.hi)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := ops[i], ops[i+1]
			n := int64(a>>2)<<8 | int64(b)
			switch a & 3 {
			case 0: // 1 to 4 096 appends
				for range n/4 + 1 {
					store(c.top + 1)
				}
			case 1: // keep the last n mod (the window + 1) records
				cut := c.top + 1 - n%(c.top+2-ref.lo)
				c.trim(cut)
				ref.advanceTo(cut)
			case 2: // one store past a run of unstored numbers
				store(c.top + 2 + n)
			case 3:
				check(i/2, c.top+2-n)
			}
			if c.lo() != ref.lo || c.top+1 != ref.hi {
				t.Fatalf("op %d: the log holds [%d, %d], the ring [%d, %d)", i/2, c.lo(), c.top, ref.lo, ref.hi)
			}
			check(i/2, ref.lo-1)
			check(i/2, ref.lo)
			check(i/2, c.top)
		}
		for seq := ref.lo - 2; seq < ref.hi+2; seq++ {
			check(len(ops)/2, seq)
		}
	})
}

// A member's delivered cache holds slots for what it must keep, rounded
// up to a segment, and never reallocates one. Untrimmed, that is what it
// has delivered: 128 records, what a TSP member of a cold group
// delivers, fit the first two segments (their position is seq−1: at seq
// they would open the third); 1 467, what a member of tsp_p64_s8's hot
// group delivers, take four segments and 2 048 slots (the ring grew
// 16 → 128 → 1 024 → 8 192 for them, 9 360 slots); and 20 000 hold
// exactly the last cacheSize in all six. Trimmed 96 behind the top, as a
// kv_write member is, 20 000 take three segments, 1 024 slots, and the
// log goes round them.
func TestCacheLogAllocations(t *testing.T) {
	skipUnderRace(t)
	d := &dataMsg{}
	for _, c := range []struct {
		n             int64
		behind        int64 // the trim point's distance from the top (0: no trim)
		slots, allocs int
	}{{128, 0, 128, 2}, {1467, 0, 2048, 4}, {20_000, 0, cacheSize, 6}, {20_000, 96, 1024, 3}} {
		var log cacheLog
		allocs := testing.AllocsPerRun(5, func() {
			log = cacheLog{}
			for s := int64(1); s <= c.n; s++ {
				log.set(s, d)
				if c.behind > 0 {
					log.trim(s - c.behind)
				}
			}
		})
		slots := 0
		for _, seg := range log.segs {
			slots += len(seg)
		}
		if allocs > float64(c.allocs) || slots != c.slots || log.slots() != int64(slots) {
			t.Errorf("%d appends %d behind: %.0f allocations, %d slots; want at most %d and %d", c.n, c.behind, allocs, slots, c.allocs, c.slots)
		}
		held := 0
		for s := int64(0); s <= c.n+1; s++ {
			if log.get(s) != nil {
				held++
			}
		}
		want := int(min(c.n, cacheSize))
		if c.behind > 0 {
			want = int(c.behind + 1)
		}
		if held != want || log.get(c.n-int64(want)+1) != d {
			t.Errorf("%d appends %d behind: the log holds %d records, want the last %d", c.n, c.behind, held, want)
		}
		stale := 0
		for _, seg := range log.segs {
			for _, r := range seg {
				if r != nil {
					stale++
				}
			}
		}
		if stale != held {
			t.Errorf("%d appends %d behind: %d slots point at a record, want the %d held", c.n, c.behind, stale, held)
		}
	}
}

// A member that never sequences holds no sequencer tables. One that
// starts to — elected after the sequencer crashed, or taking the
// consensus log over — makes them then, with every member's status at
// −1, and trims its history from its members' reports as the boot
// sequencer does; sequencing again, as after a later election, starts
// from no status again.
func TestSequencerTablesAllocatedOnlyBySequencers(t *testing.T) {
	elected := func(c *Config) {
		c.SenderTimeout = 50 * sim.Millisecond
		c.SenderRetries = 2
		c.ElectionWait = 80 * sim.Millisecond
		c.Heartbeat = 100 * sim.Millisecond
	}
	for _, pv := range []struct {
		name string
		mut  func(*Config)
	}{{"elected", elected}, {"consensus", consensusCfg}} {
		const n = 5
		h := newHarness(31, n, nil, func(c *Config) {
			pv.mut(c)
			c.StatusEvery = 8
		})
		began := map[int]bool{0: true}
		h.env.Trace = func(_ sim.Time, format string, args ...any) {
			if !strings.Contains(format, "became sequencer") && !strings.Contains(format, "consensus leader") {
				return
			}
			node := args[0].(int)
			began[node] = true
			g := h.gs[node]
			for i, s := range g.statuses {
				if s != -1 {
					t.Errorf("%s: node %d starts sequencing with member %d's status at %d", pv.name, node, i, s)
				}
			}
			if len(g.statuses) != n || len(g.seenBySrc) != n || (pv.name == "consensus") != (len(g.acked) == n) {
				t.Errorf("%s: node %d starts sequencing with %d statuses, %d dedup rings and %d acks", pv.name, node, len(g.statuses), len(g.seenBySrc), len(g.acked))
			}
		}
		for i := 1; i < n; i++ {
			h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
				for k := 0; k < 40; k++ {
					h.gs[i].Broadcast(p, "pre", k, 100)
					p.Sleep(2 * sim.Millisecond)
				}
				p.Sleep(100 * sim.Millisecond)
				if i == 1 {
					h.ms[0].Crash()
				}
				for k := 0; k < 40; k++ {
					h.gs[i].Broadcast(p, "post", k, 100)
					p.Sleep(2 * sim.Millisecond)
				}
			})
		}
		h.env.RunUntil(30 * sim.Second)
		skip := map[int]bool{0: true}
		h.checkAgreement(t, 320, skip)
		if len(began) < 2 {
			t.Errorf("%s: no survivor started sequencing", pv.name)
		}
		for i := 1; i < n; i++ {
			g := h.gs[i]
			if !began[i] {
				if g.statuses != nil || g.seenBySrc != nil || g.acked != nil {
					t.Errorf("%s: node %d never sequenced but holds %d statuses, %d dedup rings and %d acks", pv.name, i, len(g.statuses), len(g.seenBySrc), len(g.acked))
				}
			} else if g.IsSequencer() {
				if g.history.span() > 64 {
					t.Errorf("%s: node %d sequences with %d history entries after trimming, want at most 64", pv.name, i, g.history.span())
				}
				g.rebuildHistory()
				if slices.ContainsFunc(g.statuses, func(s int64) bool { return s != -1 }) {
					t.Errorf("%s: node %d rebuilds its history keeping statuses %v", pv.name, i, g.statuses)
				}
			}
		}
		h.env.Stop()
		h.env.Shutdown()
	}
}

// trimCheck is a sequencer's port handler that checks, after every
// status report it serves, the trim point against the reference the
// gated scan must match, a scan of every member's status after every
// report, and counts the reports.
type trimCheck struct {
	t       *testing.T
	g       *Member
	ref     int64
	reports int
}

func (c *trimCheck) Handle(p *sim.Proc, from int, pkt amoeba.Packet) {
	(*portHandler)(c.g).Handle(p, from, pkt)
	switch pkt.Body.(type) {
	case nil, retxReq:
	default:
		return
	}
	c.reports++
	g, low := c.g, int64(1<<62-1)
	for i, id := range g.cfg.Members {
		if id == g.m.ID() || g.m.Net().Down(id) {
			continue
		}
		if g.statuses[i] < 0 {
			low = -1
			break
		}
		low = min(low, g.statuses[i])
	}
	if low >= 0 {
		c.ref = max(c.ref, min(low, g.nextSeq-1)+1)
	}
	if g.trimmed != c.ref || g.history.lo < c.ref {
		c.t.Fatalf("report %d from node %d: trim point %d, history from %d; a scan of every report finds %d", c.reports, from, g.trimmed, g.history.lo, c.ref)
	}
}

// At P = 32 under PB with a report every 64 deliveries, as kv_write
// runs, every member holds the trim window, not the last cacheSize
// deliveries: after 20 000 deliveries its cache holds at most 1 024
// slots (8 192 untrimmed) and nothing below the sequencer's trim point.
// The sequencer scans its members' statuses about once per reporting
// round, on the round's last report, and its trim points are those a
// scan of every report finds, also once a member has crashed while at
// the minimum.
func TestTrimmedCacheHoldsTheTrimWindow(t *testing.T) {
	skipUnderRace(t)
	const n, producers, each = 32, 4, 5000
	for _, crash := range []bool{false, true} {
		h := newHarness(61, n, nil, func(c *Config) {
			c.Method = ForcePB
			c.StatusEvery = 64
		})
		seq := h.gs[0]
		check := &trimCheck{t: t, g: seq}
		h.ms[0].Unbind(Port)
		h.ms[0].BindHandler(Port, check)
		for i := 1; i <= producers; i++ {
			h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
				for k := range each {
					h.gs[i].Broadcast(p, "m", k, 16)
					p.Sleep(2 * sim.Millisecond)
				}
			})
		}
		skip := map[int]bool{}
		if crash {
			skip[n-1] = true
			h.env.At(5*sim.Second, func() { h.ms[n-1].Crash() })
		}
		h.env.RunUntil(60 * sim.Second)
		h.checkAgreement(t, producers*each, skip)
		for i, g := range h.gs {
			if skip[i] {
				continue
			}
			if s := g.cache.slots(); s > 1024 {
				t.Errorf("crash %v: node %d holds %d cache slots, want at most 1 024", crash, i, s)
			}
			if g.cache.lo() < seq.trimmed-1 || g.cache.lo() <= 1 {
				t.Errorf("crash %v: node %d's cache holds from %d, the sequencer trims below %d", crash, i, g.cache.lo(), seq.trimmed)
			}
		}
		rounds := producers * each / 64 // and a scan on each member's first report
		if check.reports < (n-2)*rounds || seq.trimScans > rounds+n {
			t.Errorf("crash %v: %d trim scans for %d reports, want at most about one per reporting round (%d)", crash, seq.trimScans, check.reports, rounds)
		}
		h.env.Stop()
		h.env.Shutdown()
	}
}

// A sequencer that crashes after its members trimmed their caches
// leaves a successor whose history starts at the trim point: no member
// it counted asks for less, so under PB and BB every survivor still
// delivers one stream, with nothing lost and nothing twice. Node 4 loses
// half of what reaches it for the last 60 ms before the crash, so it
// is some thirty records behind the others then and catches up from the
// successor's history, which a trim point past node 4's progress would
// have emptied.
func TestSequencerCrashAfterTrimming(t *testing.T) {
	plan := &netsim.FaultPlan{Losses: []netsim.LossWindow{{Src: netsim.AnyNode, Dst: 4, From: 240 * sim.Millisecond, Until: 300 * sim.Millisecond, Prob: 0.5}}}
	for _, method := range []Method{ForcePB, ForceBB} {
		t.Run(method.String(), func(t *testing.T) {
			const n = 5
			h := newHarness(67, n, plan, func(c *Config) {
				c.Method = method
				c.StatusEvery = 8
				c.SenderTimeout = 40 * sim.Millisecond
				c.SenderRetries = 2
				c.ElectionWait = 60 * sim.Millisecond
				c.Heartbeat = 80 * sim.Millisecond
			})
			sent := make([]int, n)
			for i := 1; i < n; i++ {
				h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
					for k := range 300 {
						h.gs[i].Broadcast(p, "m", k, 64)
						sent[i]++
						p.Sleep(6 * sim.Millisecond)
					}
				})
			}
			h.env.At(300*sim.Millisecond, func() {
				for i := 1; i < n; i++ {
					if lo := h.gs[i].cache.lo(); lo <= 64 || lo > h.gs[4].nextSeq {
						t.Errorf("node %d's cache holds from %d at the crash, node 4 delivers %d next; want it trimmed, and no further", i, lo, h.gs[4].nextSeq)
					}
				}
				if lag := h.gs[1].nextSeq - h.gs[4].nextSeq; lag < 16 {
					t.Errorf("node 4 is %d behind node 1 at the crash, want at least 16", lag)
				}
				h.ms[0].Crash()
			})
			h.env.RunUntil(120 * sim.Second)
			skip := map[int]bool{0: true}
			h.checkFrameAgreement(t, skip)
			h.checkNoDuplicates(t, skip)
			h.checkAgreement(t, -1, skip)
			if got, want := len(h.uidLogs[1]), sent[1]+sent[2]+sent[3]+sent[4]; got != want {
				t.Errorf("delivered %d messages, want %d (all survivor sends)", got, want)
			}
			if s := h.gs[1].Sequencer(); s == 0 || h.gs[s].stats.Elections == 0 && h.gs[1].stats.Elections == 0 {
				t.Errorf("no election: the sequencer is node %d", s)
			}
			h.env.Stop()
			h.env.Shutdown()
		})
	}
}
