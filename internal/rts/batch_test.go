package rts

import (
	"fmt"
	"testing"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// newBatchedTB builds a broadcast-RTS cluster with the batching
// pipeline enabled in both layers (group frame packing + RTS write
// combining).
func newBatchedTB(t *testing.T, seed int64, n int, bc group.BatchConfig) (*tb, *BroadcastRTS) {
	t.Helper()
	env := sim.New(seed)
	nw := netsim.New(env, n, netsim.DefaultParams())
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	gcfg := group.DefaultConfig(members)
	gcfg.Batch = bc
	ms := make([]*amoeba.Machine, n)
	gs := make([]*group.Member, n)
	for i := 0; i < n; i++ {
		ms[i] = amoeba.NewMachine(env, nw, i, amoeba.DefaultCosts())
		gs[i] = group.Join(ms[i], gcfg)
	}
	r := NewBroadcastRTS(testRegistry(), DefaultCosts(), ms, gs)
	r.EnableBatching(bc)
	return &tb{env: env, net: nw, ms: ms}, r
}

func testBatch() group.BatchConfig {
	return group.BatchConfig{MaxOps: 8, MaxBytes: 1024, Linger: 100 * sim.Microsecond}
}

// TestReadOwnWriteAfterBufferedWrite: a worker that buffers no-result
// writes and immediately reads the object must observe its own
// writes — the read syncs the combining buffer first. A read of an
// UNRELATED object syncs too: served with the writes still buffered, it
// would overtake them in the total order (the store-buffering outcome).
func TestReadOwnWriteAfterBufferedWrite(t *testing.T) {
	b, r := newBatchedTB(t, 3, 3, testBatch())
	b.spawn(1, "writer", func(w *Worker) {
		cell := r.Create(w, "intcell", 0)
		other := r.Create(w, "intcell", 7)
		for i := 1; i <= 3; i++ {
			if res := r.Invoke(w, cell, "set", i*10); res != nil {
				t.Errorf("buffered set returned %v, want nil", res)
			}
		}
		if r.stats.BatchedOps < 3 {
			t.Errorf("batchedOps = %d, want >= 3 (sets should combine)", r.stats.BatchedOps)
		}
		// Unrelated read: drains the buffer first.
		if got := r.Invoke(w, other, "get")[0].(int); got != 7 {
			t.Errorf("other get = %d, want 7", got)
		}
		if w.batch == nil || len(w.batch.ops) != 0 || w.batch.flight != nil {
			t.Error("unrelated read was served with the writes still buffered")
		}
		if s, _ := r.PeekState(1, cell); s.(*intCellState).v != 30 {
			t.Errorf("after the unrelated read the writer's replica = %v, want 30", s)
		}
		// Read-own-write: a fresh buffered set, then a read that must
		// observe it.
		r.Invoke(w, cell, "set", 40)
		if got := r.Invoke(w, cell, "get")[0].(int); got != 40 {
			t.Errorf("read-own-write get = %d, want 40", got)
		}
		if len(w.batch.ops) != 0 || w.batch.flight != nil {
			t.Error("read of a written object left the buffer unsynced")
		}
	})
	b.run(5 * sim.Second)
	// Every replica converged on the last write.
	for node := 0; node < 3; node++ {
		if s, ok := r.PeekState(node, 1); !ok || s.(*intCellState).v != 40 {
			t.Errorf("node %d replica = %v, want 40", node, s)
		}
	}
	b.done()
}

// TestBatchedPutsDeliverExactlyOnce: a producer streams buffered
// queue puts; a consumer on another machine takes them through the
// guarded get. Every item arrives exactly once and in order — the
// regression test for duplicate submission during a blocking flush.
func TestBatchedPutsDeliverExactlyOnce(t *testing.T) {
	b, r := newBatchedTB(t, 5, 3, testBatch())
	const n = 100
	var got []int
	b.spawn(0, "producer", func(w *Worker) {
		q := r.Create(w, "queue")
		for i := 0; i < n; i++ {
			r.Invoke(w, q, "put", i)
		}
	})
	b.spawn(2, "consumer", func(w *Worker) {
		// The create broadcast also reaches this machine; object 1 is
		// the queue.
		for i := 0; i < n; i++ {
			got = append(got, r.Invoke(w, ObjID(1), "get")[0].(int))
		}
	})
	b.run(30 * sim.Second)
	if len(got) != n {
		t.Fatalf("consumer took %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, want %d (order or duplication broke)", i, v, i)
		}
	}
	if r.stats.BatchedOps < int64(n) {
		t.Errorf("batchedOps = %d, want >= %d", r.stats.BatchedOps, n)
	}
	if r.stats.Frames == 0 || r.stats.Frames >= r.stats.BatchedOps {
		t.Errorf("batchFrames = %d for %d ops: no amortization", r.stats.Frames, r.stats.BatchedOps)
	}
	b.done()
}

// TestBufferedWriteWakesGuard: a buffered flag set must still wake a
// guard-blocked reader on another machine (the frame-boundary drain
// covers replicas written mid-frame).
func TestBufferedWriteWakesGuard(t *testing.T) {
	b, r := newBatchedTB(t, 9, 3, testBatch())
	awoke := false
	b.spawn(0, "setter", func(w *Worker) {
		f := r.Create(w, "flag")
		r.Invoke(w, f, "set", true) // buffered; linger flushes it
	})
	b.spawn(1, "waiter", func(w *Worker) {
		if got := r.Invoke(w, ObjID(1), "await")[0].(bool); got {
			awoke = true
		}
	})
	b.run(5 * sim.Second)
	if !awoke {
		t.Fatal("guarded reader never woke after a buffered write")
	}
	b.done()
}

// TestBufferedThenSyncWriteOrder: a synchronous (result-bearing)
// write issued after buffered writes must observe them in the total
// order — the sync path drains the buffer first.
func TestBufferedThenSyncWriteOrder(t *testing.T) {
	b, r := newBatchedTB(t, 11, 3, testBatch())
	b.spawn(1, "writer", func(w *Worker) {
		cell := r.Create(w, "intcell", 100)
		r.Invoke(w, cell, "set", 50)                            // buffered
		if got := r.Invoke(w, cell, "min", 60)[0].(bool); got { // sync write
			t.Error("min(60) lowered the cell: the buffered set(50) was not applied first")
		}
	})
	b.run(5 * sim.Second)
	for node := 0; node < 3; node++ {
		if s, ok := r.PeekState(node, 1); !ok || s.(*intCellState).v != 50 {
			t.Errorf("node %d replica = %v, want 50", node, s)
		}
	}
	b.done()
}

// TestBatchedManyWriters drives concurrent buffered writers on every
// machine and checks replica convergence plus the amortization
// counters under contention.
func TestBatchedManyWriters(t *testing.T) {
	const n, per = 4, 50
	b, r := newBatchedTB(t, 13, n, testBatch())
	var q ObjID
	b.spawn(0, "creator", func(w *Worker) {
		q = r.Create(w, "queue")
		for i := 0; i < per; i++ {
			r.Invoke(w, q, "put", fmt.Sprintf("n0-%d", i))
		}
	})
	for node := 1; node < n; node++ {
		node := node
		b.spawn(node, "writer", func(w *Worker) {
			for i := 0; i < per; i++ {
				r.Invoke(w, ObjID(1), "put", fmt.Sprintf("n%d-%d", node, i))
			}
		})
	}
	b.run(30 * sim.Second)
	want := -1
	for node := 0; node < n; node++ {
		s, ok := r.PeekState(node, 1)
		if !ok {
			t.Fatalf("node %d holds no replica", node)
		}
		items := s.(*queueState).items
		if want == -1 {
			want = len(items)
		} else if len(items) != want {
			t.Fatalf("replicas diverged: node %d has %d items, node 0 has %d", node, len(items), want)
		}
	}
	if want != n*per {
		t.Fatalf("replicas hold %d items, want %d", want, n*per)
	}
	if r.stats.Frames*2 >= r.stats.BatchedOps {
		t.Errorf("weak amortization: %d frames for %d ops", r.stats.Frames, r.stats.BatchedOps)
	}
	b.done()
}
