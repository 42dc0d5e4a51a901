package kv

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/orca"
	"repro/internal/rts"
)

var shardType = shardB.Type()

// clone copies a replica the way the runtime does.
func clone(s *shardState) *shardState { return shardType.Clone(s).(*shardState) }

// TestDirectory: the directory sends every key to the shard the key
// function maps it to, numbers each shard's keys 0, 1, … in ascending
// key order (a bijection onto [0, slots)), and every reference carries
// its shard's slot count beside the slot.
func TestDirectory(t *testing.T) {
	for _, c := range []struct {
		keys   int64
		shards int
	}{{1000, 7}, {512, 4}, {8192, 64}, {3, 8}, {1, 1}} {
		for _, affine := range []bool{false, true} {
			shardFor := func(k int64) int { return shardOf(k, c.shards) }
			if affine {
				shardFor = func(k int64) int { return shardOfAffine(k, c.keys, c.shards) }
			}
			shard, ref := directory(c.keys, c.shards, affine)
			slots := make([]int64, c.shards)
			for k := int64(0); k < c.keys; k++ {
				slots[shardFor(k)]++
			}
			next := make([]int64, c.shards)
			for k, s := range shard {
				slot, n := ref[k]&(1<<32-1), ref[k]>>32
				if s != shardFor(int64(k)) || slot != next[s] || n != slots[s] || slot|n<<32 != ref[k] {
					t.Fatalf("keys=%d shards=%d affine=%v: key %d -> shard %d slot %d of %d, want shard %d slot %d of %d",
						c.keys, c.shards, affine, k, s, slot, n, shardFor(int64(k)), next[s], slots[s])
				}
				next[s]++
			}
			// A shard no key maps to is never written, and nothing a
			// replica of it serves allocates.
			for s, n := range slots {
				if n != 0 {
					continue
				}
				st := shardType.New(nil).(*shardState)
				if a := testing.AllocsPerRun(10, func() { st.get(0); st.WireSize() }); a != 0 || clone(st).e != nil {
					t.Errorf("keys=%d shards=%d: empty shard %d allocates %v per read or clones an array", c.keys, c.shards, s, a)
				}
			}
		}
	}
}

// shardMatchesMap drives one random sequence of get/put/bump/size/
// WireSize/clone over every shard of a directory and holds each result
// to a map per shard, the representation the array replaced.
func shardMatchesMap(t *testing.T, seed, keys int64, shards, steps int, affine bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shard, ref := directory(keys, shards, affine)
	states := make([]*shardState, shards)
	models := make([]map[int64]entry, shards)
	for s := range states {
		states[s], models[s] = &shardState{}, map[int64]entry{}
	}
	for i := 0; i < steps; i++ {
		k := rng.Int63n(keys)
		s := shard[k]
		st, m := states[s], models[s]
		e, had := m[k]
		switch op := rng.Intn(4); op {
		case 0:
			if val, ver := st.get(ref[k]); val != e.val || ver != e.ver {
				t.Fatalf("step %d: get(%d) = (%d, %d), map holds %+v", i, k, val, ver, e)
			}
		case 1:
			e.val, e.ver = rng.Int63(), e.ver+1
			if ver, was := st.put(ref[k], e.val); ver != e.ver || was != had {
				t.Fatalf("step %d: put(%d) = (%d, %v), map says (%d, %v)", i, k, ver, was, e.ver, had)
			}
			m[k] = e
		case 2:
			delta := rng.Int63n(9) - 4
			e.val, e.ver = e.val+delta, e.ver+1
			if val, ver := st.bump(ref[k], delta); val != e.val || ver != e.ver {
				t.Fatalf("step %d: bump(%d, %d) = (%d, %d), map says (%d, %d)", i, k, delta, val, ver, e.val, e.ver)
			}
			m[k] = e
		case 3:
			// The clone carries on; a write to the original afterwards
			// must not reach it.
			c := clone(st)
			if (c.e == nil) != (st.e == nil) {
				t.Fatalf("step %d: clone of a replica with array %v has array %v", i, st.e != nil, c.e != nil)
			}
			states[s] = c
			st.put(ref[k], -1)
		}
		if st := states[s]; st.n != len(m) || st.WireSize() != 16+24*len(m) {
			t.Fatalf("step %d: shard %d size %d wire %d, map holds %d keys", i, s, st.n, st.WireSize(), len(m))
		}
	}
	for k, s := range shard {
		e := models[s][int64(k)]
		if val, ver := states[s].get(ref[k]); val != e.val || ver != e.ver {
			t.Fatalf("end: key %d reads (%d, %d), map holds %+v", k, val, ver, e)
		}
	}
}

func TestShardMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, affine := range []bool{false, true} {
			shardMatchesMap(t, seed, 40*seed, int(seed%5)+1, 4000, affine)
		}
	}
	shardMatchesMap(t, 9, 3, 8, 200, false) // more shards than keys
}

func FuzzShardMatchesMap(f *testing.F) {
	f.Add(int64(1), uint16(64), byte(4), false)
	f.Add(int64(2), uint16(1), byte(1), false)
	f.Add(int64(3), uint16(5), byte(16), true)
	f.Add(int64(4), uint16(999), byte(7), true)
	f.Fuzz(func(t *testing.T, seed int64, keys uint16, shards byte, affine bool) {
		shardMatchesMap(t, seed, int64(keys)%1024+1, int(shards)%32+1, 2000, affine)
	})
}

// TestShardWriteAllocations: through the registered operations, a
// replica's walk over every key of its shard allocates exactly its
// array, once, at the first write and sized to the shard's slot count;
// every later get, put or bump allocates nothing. (A map allocated as
// it grew.)
func TestShardWriteAllocations(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts mean nothing under the race detector")
			}
		}
	}
	const keys, shards = 4096, 8
	shard, ref := directory(keys, shards, false)
	get, put, bump := shardType.Op("get"), shardType.Op("put"), shardType.Op("bump")
	var mine []rts.Args
	for k, s := range shard {
		if s == shard[0] {
			mine = append(mine, rts.ArgsOf(ref[k], int64(k)))
		}
	}
	walk := func(st rts.State, ops ...*rts.OpDef) {
		for _, op := range ops {
			for _, args := range mine {
				op.Apply(nil, st, args)
			}
		}
	}
	for _, write := range []*rts.OpDef{put, bump} {
		const runs = 4
		fresh := make([]rts.State, runs+1) // AllocsPerRun warms up once
		for i := range fresh {
			fresh[i] = shardType.New(nil)
		}
		i := 0
		if a := testing.AllocsPerRun(runs, func() { walk(fresh[i], get, write, get); i++ }); a != 1 {
			t.Errorf("%s: a replica's first walk over its shard's %d keys allocates %v times, want 1 (the array)", write.Name, len(mine), a)
		}
		st := fresh[0].(*shardState)
		if len(st.e) != len(mine) || cap(st.e) != len(mine) || st.n != len(mine) {
			t.Errorf("%s: the array holds %d/%d records and %d keys, want the shard's %d", write.Name, len(st.e), cap(st.e), st.n, len(mine))
		}
		if a := testing.AllocsPerRun(runs, func() { walk(st, put, bump, get) }); a != 0 {
			t.Errorf("%s: later walks allocate %v times, want 0", write.Name, a)
		}
	}
}

// TestRunRejectsHugeKeySpace: a key space whose references cannot pack
// into one int64 fails with one message before anything runs.
func TestRunRejectsHugeKeySpace(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Keys must be below 1<<31") {
			t.Fatalf("Run with 1<<31 keys panicked with %q", msg)
		}
	}()
	wl := testWorkload(1)
	wl.Keys = 1 << 31
	Run(orca.Config{Processors: 2, RTS: orca.Broadcast, Seed: 1}, Params{Workload: wl})
}
