package group

// What a member holds for what it has delivered: the delivered cache
// against the capped ring it replaced, the cache's allocations, and the
// sequencer tables only a member that sequences makes.

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// FuzzCacheLogMatchesRing drives the delivered cache and the ring it
// replaced, a seqRing capped at cacheSize, with one stream of appends
// and reads, two bytes an operation, and requires the same record for
// every read. An append run stores up to 4 096 records in sequence, a
// skip stores one up to 16 384 numbers past the top, leaving the
// numbers between unstored, and a read reaches from two past the top
// to 16 381 below it, so below the window. Records come from a pool
// whose length is prime to cacheSize, so a stale record read through a
// wrapped position is never the one the ring holds.
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
			case 0, 1: // 1 to 4 096 appends
				for range n/4 + 1 {
					store(c.top + 1)
				}
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

// A member's delivered cache holds slots for what it has delivered,
// rounded up to a segment, and never copies one: 128 records, what a TSP
// member of a cold group delivers, fit the first two segments (their
// position is seq−1: at seq they would open the third); 1 467, what a
// member of tsp_p64_s8's hot group delivers, take four segments and
// 2 048 slots (the ring grew 16 → 128 → 1 024 → 8 192 for them, 9 360
// slots); and 20 000 hold exactly the last cacheSize in all six.
func TestCacheLogAllocations(t *testing.T) {
	skipUnderRace(t)
	d := &dataMsg{}
	for _, c := range []struct {
		n             int64
		slots, allocs int
	}{{128, 128, 2}, {1467, 2048, 4}, {20_000, cacheSize, 6}} {
		var log cacheLog
		allocs := testing.AllocsPerRun(5, func() {
			log = cacheLog{}
			for s := int64(1); s <= c.n; s++ {
				log.set(s, d)
			}
		})
		slots := 0
		for _, seg := range log.segs {
			slots += len(seg)
		}
		if allocs > float64(c.allocs) || slots != c.slots {
			t.Errorf("%d appends: %.0f allocations, %d slots; want at most %d and %d", c.n, allocs, slots, c.allocs, c.slots)
		}
		held := 0
		for s := int64(0); s <= c.n+1; s++ {
			if log.get(s) != nil {
				held++
			}
		}
		if want := int(min(c.n, cacheSize)); held != want || log.get(c.n-int64(want)+1) != d {
			t.Errorf("%d appends: the log holds %d records, want the last %d", c.n, held, want)
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
