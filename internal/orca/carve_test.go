package orca

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/rts"
)

// blobState is an object whose operations carry a []byte, a value that
// travels by reference (see amoeba.Args).
type blobState struct{ b []byte }

var (
	blobB = NewType("test.blob", func([]any) *blobState { return &blobState{} }).
		CloneWith(func(s *blobState) *blobState { return &blobState{b: s.b} }).
		SizedBy(func(s *blobState) int { return 4 + len(s.b) })
	blobSet = DefUpdate(blobB, "set", func(s *blobState, v []byte) { s.b = v })
	blobGet = DefRead0(blobB, "get", func(s *blobState) []byte { return s.b })
)

func blobSetup(reg *rts.Registry) { blobB.Register(reg) }

// allocsPer runs op n times after as many to warm up and reports the
// allocations per run.
func allocsPer(n int, op func()) float64 {
	for range n {
		op()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range n {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// A typed write of a []byte to an object replicated on sixteen machines,
// and a typed read of one from a primary copy on another machine, box
// nothing: the descriptor carves the argument, and the primary the
// result, from the run's tables, and the record carries the pointer.
// What is left is the chunks' runs: the write reads 0.015 and the read
// 0.000 (1.015 and 1.000 while a []byte was boxed into the record).
func TestTypedBytesAllocations(t *testing.T) {
	skipUnderRace(t)
	payload := bytes.Repeat([]byte{7}, 64)
	t.Run("write", func(t *testing.T) {
		rt := New(Config{Processors: 16, RTS: Broadcast, Seed: 38}, blobSetup)
		rt.Run(func(p *Proc) {
			h := blobB.New(p)
			p.Fork(1, "writer", func(wp *Proc) {
				if a := allocsPer(4000, func() { blobSet.Call(wp, h, payload) }); a > 0.05 {
					t.Errorf("a typed []byte write allocates %.3f times, want at most 0.05", a)
				}
				if got := blobGet.Call(wp, h); !bytes.Equal(got, payload) {
					t.Errorf("read back %v", got)
				}
			})
		})
	})
	t.Run("remote read", func(t *testing.T) {
		rt := New(Config{Processors: 2, RTS: P2PUpdate, Seed: 38}, blobSetup)
		rt.Run(func(p *Proc) {
			h := blobB.NewWith(p, Opts(With(PrimaryCopy{Protocol: Update, Placement: SingleCopy})))
			blobSet.Call(p, h, payload)
			p.Fork(1, "reader", func(wp *Proc) {
				if a := allocsPer(4000, func() { blobGet.Call(wp, h) }); a > 0.05 {
					t.Errorf("a typed remote []byte read allocates %.3f times, want at most 0.05", a)
				}
				if got := blobGet.Call(wp, h); !bytes.Equal(got, payload) {
					t.Errorf("read back %v", got)
				}
				if st := rt.Stats(); st.RemoteReads < 8000 {
					t.Errorf("%d remote reads, want the 8000 measured", st.RemoteReads)
				}
			})
		})
	})
}
