package std

import (
	"runtime"

	"fmt"
	"repro/internal/orca"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/rts"
)

// sliceQueue is the job queue the ring replaced, kept as the reference
// the segments that replaced the ring are checked against: a slice
// appended at the back and sliced from the front.
type sliceQueue struct {
	jobs   []any
	closed bool
	bytes  int
}

func (q *sliceQueue) add(job any) {
	q.jobs = append(q.jobs, job)
	q.bytes += rts.SizeOfValue(job)
}

func (q *sliceQueue) get() (any, bool) {
	if len(q.jobs) == 0 {
		return nil, false
	}
	j := q.jobs[0]
	q.jobs[0] = nil
	q.jobs = q.jobs[1:]
	q.bytes -= rts.SizeOfValue(j)
	return j, true
}

func (q *sliceQueue) guard() bool { return len(q.jobs) > 0 || q.closed }

func (q *sliceQueue) clone() *sliceQueue {
	return &sliceQueue{jobs: append([]any(nil), q.jobs...), closed: q.closed, bytes: q.bytes}
}

// queuePair is a job queue, driven through its registered operations,
// beside the reference; every step checks that they agree.
type queuePair struct {
	t     *testing.T
	typ   *rts.ObjectType
	state rts.State
	ref   *sliceQueue
	at    string // the step, for messages
}

// fuzzJob is the job an add at step i puts: values of several types and
// wire sizes, all distinct, so that a job out of order shows.
func fuzzJob(i int, b byte) any {
	switch b % 3 {
	case 0:
		return i
	case 1:
		return fmt.Sprintf("job%d%s", i, strings.Repeat("-", int(b%17)))
	}
	return slices.Repeat([]int{i}, 1+int(b%9))
}

func (qp *queuePair) add(job any) {
	qp.typ.Op("add").Apply(nil, qp.state, rts.ArgsOf(job))
	qp.ref.add(job)
}

func (qp *queuePair) get() {
	qp.t.Helper()
	op := qp.typ.Op("get")
	if g, w := op.Guard(qp.state, rts.Args{}), qp.ref.guard(); g != w {
		qp.t.Fatalf("%s: get's guard %v, reference %v", qp.at, g, w)
	}
	res := op.Apply(nil, qp.state, rts.Args{})
	job, ok := qp.ref.get()
	if res.Value(1) != ok || fmt.Sprint(res.Value(0)) != fmt.Sprint(job) {
		qp.t.Fatalf("%s: get = (%v, %v), reference (%v, %v)", qp.at, res.Value(0), res.Value(1), job, ok)
	}
}

func (qp *queuePair) check() {
	qp.t.Helper()
	res := qp.typ.Op("len").Apply(nil, qp.state, rts.Args{})
	if n := res.Value(0); n != len(qp.ref.jobs) {
		qp.t.Fatalf("%s: len %v, reference %d", qp.at, n, len(qp.ref.jobs))
	}
	if g, w := qp.typ.SizeOf(qp.state), 16+qp.ref.bytes; g != w {
		qp.t.Fatalf("%s: WireSize %d, reference %d", qp.at, g, w)
	}
	qp.layout()
}

// held is the number of slots q's segments hold.
func held(q *jobQueueState) int {
	n := 0
	for _, seg := range q.segs {
		n += len(seg)
	}
	return n
}

// layout checks the segments' shape: the jobs run from the first
// segment's head to the last one's tail, every segment between is full,
// and so a replica holds slots for its backlog and what the first
// segment has given out and the last has yet to fill, no more.
func (qp *queuePair) layout() {
	qp.t.Helper()
	q := qp.state.(*jobQueueState)
	if len(q.segs) == 0 {
		if q.n != 0 {
			qp.t.Fatalf("%s: %d jobs in no segment", qp.at, q.n)
		}
		return
	}
	last := len(q.segs[len(q.segs)-1])
	if free := held(q) - q.n - q.head - (last - q.tail); free != 0 || q.head > len(q.segs[0]) || q.tail > last {
		qp.t.Fatalf("%s: %d jobs from %d to %d over segments of %d slots", qp.at, q.n, q.head, q.tail, held(q))
	}
}

// clone clones the queue, checking that the clone holds its jobs and no
// more, whatever the original's segments once were.
func (qp *queuePair) clone() rts.State {
	qp.t.Helper()
	c := qp.typ.Clone(qp.state).(*jobQueueState)
	if held(c) != c.n {
		qp.t.Fatalf("%s: a clone of %d jobs holds %d slots", qp.at, c.n, held(c))
	}
	return c
}

// drain empties both queues, checking every job and the sizes on the way.
func (qp *queuePair) drain() {
	qp.t.Helper()
	for len(qp.ref.jobs) > 0 {
		qp.get()
		qp.check()
	}
	qp.get() // empty: (nil, false) on both
}

// queueMatchesSlice runs the ops script against both queues. A byte's
// low four bits pick the step: add (six of sixteen), get (three), close,
// a clone drained on its own while the original goes on, a clone that
// replaces the original, a burst of adds and one of gets, each long
// enough to cross from one segment into the next, and a drain after
// which the script goes on, so the queue starts again at the front of
// its segment; len, WireSize and the segments' shape are checked after
// every step, and whatever is left is drained at the end.
func queueMatchesSlice(t *testing.T, ops []byte) {
	typ := typeByName(t, JobQueueObj)
	qp := &queuePair{t: t, typ: typ, state: typ.New(nil), ref: &sliceQueue{}}
	for i, b := range ops {
		qp.at = fmt.Sprintf("step %d (%#x)", i, b)
		switch b & 15 {
		case 0, 1, 2, 3, 4, 5:
			qp.add(fuzzJob(i, b>>4))
		case 6, 7, 8:
			qp.get()
		case 9:
			qp.typ.Op("close").Apply(nil, qp.state, rts.Args{})
			qp.ref.closed = true
		case 10:
			side := &queuePair{t: t, typ: typ, state: qp.clone(), ref: qp.ref.clone(), at: qp.at + ", clone"}
			side.check()
			side.drain()
		case 11:
			qp.state, qp.ref = qp.clone(), qp.ref.clone()
		case 12, 13:
			for k := range segMin + 1 + int(b>>4) {
				qp.add(fuzzJob(i<<8|k, b>>4+byte(k)))
				qp.check()
			}
		case 14:
			for range segMin + 1 + int(b>>4) {
				qp.get()
				qp.check()
			}
		case 15:
			qp.drain()
		}
		qp.check()
	}
	qp.at = "final drain"
	qp.drain()
}

// TestQueueMatchesSlice runs scripts that fill the queue across several
// segments while it takes from the front, and drain it and go on.
func TestQueueMatchesSlice(t *testing.T) {
	for _, pattern := range [][]byte{
		{0, 0, 6},           // two in, one out: the backlog grows across segments
		{0, 6, 0, 6, 0, 11}, // steady, with clones
		{0, 0, 0, 0, 6, 6, 6, 10},
		{12, 6, 14, 0, 15}, // bursts across a segment's end, and a drain
	} {
		queueMatchesSlice(t, slices.Repeat(pattern, 200))
	}
}

// FuzzQueueMatchesSlice checks the queue against the slice queue on
// random op scripts. CI runs the seed corpus;
//
//	go test -run '^$' -fuzz FuzzQueueMatchesSlice -fuzztime 20s ./internal/orca/std
//
// runs more.
func FuzzQueueMatchesSlice(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 9, 6})
	f.Add([]byte{0, 16, 32, 6, 6, 6, 9, 0, 6, 6})
	f.Add(slices.Repeat([]byte{0, 1, 2, 6}, 40))
	f.Add(slices.Repeat([]byte{0, 17, 34, 51, 7, 10, 11}, 30))
	f.Add(slices.Repeat([]byte{2, 18, 6, 0, 0, 0, 0, 0, 7, 8, 11}, 25))
	f.Add(slices.Repeat([]byte{12, 0x3d, 6, 14, 0x2e, 15, 0, 11}, 12))     // bursts across segments, drains
	f.Add(slices.Repeat([]byte{0xfc, 0x7d, 0xfc, 0x1e, 10, 15, 0x4c}, 10)) // a backlog of several segments
	f.Fuzz(func(t *testing.T, ops []byte) {
		queueMatchesSlice(t, ops)
	})
}

// TestQueueAllocations: a replica makes a segment only when its backlog
// outgrows the segments it holds, each as long as the backlog, from
// segMin up to segMax, and drops each segment whose jobs have all been
// taken, so it holds slots for its backlog and at most a segment's
// worth more, and nothing is copied; a steady backlog makes a segment
// per segment's worth of jobs.
func TestQueueAllocations(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts mean nothing under the race detector")
			}
		}
	}
	typ := typeByName(t, JobQueueObj)
	add, get := typ.Op("add"), typ.Op("get")
	job := rts.ArgsOf(sizedJob{})
	var s *jobQueueState
	a := testing.AllocsPerRun(1, func() {
		s = typ.New(nil).(*jobQueueState)
		for i := range 4096 {
			add.Apply(nil, s, job)
			if i%2 == 1 {
				get.Apply(nil, s, rts.Args{})
			}
		}
	})
	// The backlog peaks at 2049, with the last add: the state, its
	// segment index and 11 segments, holding 2 777 slots. The doubling
	// ring this replaced made the state and 11 rings of 4, 8, ..., 4096
	// slots on the way, each a copy of the last, and held 4 096.
	if a != 13 || held(s) != 2777 {
		t.Errorf("a backlog of %d took %v allocations and holds %d slots, want 13 and 2777", s.n, a, held(s))
	}
	if a := testing.AllocsPerRun(4096, func() { add.Apply(nil, s, job); get.Apply(nil, s, rts.Args{}) }); a > 1.0/segMin {
		t.Errorf("an add and a get on a steady backlog allocate %v times, want at most one segment per %d", a, segMin)
	}
	// A clone copies the backlog the replica has, not the one it had: a
	// drained queue clones to an empty one, which allocates no slots, and
	// three jobs clone to one segment of three slots.
	for s.n > 0 {
		get.Apply(nil, s, rts.Args{})
	}
	for _, want := range []int{0, 3} {
		for s.n < want {
			add.Apply(nil, s, job)
		}
		var c *jobQueueState
		a := testing.AllocsPerRun(100, func() { c = typ.Clone(s).(*jobQueueState) })
		if held(c) != c.n || c.n != want {
			t.Errorf("a clone of %d jobs has %d jobs in %d slots, want %d in %d", s.n, c.n, held(c), want, want)
		}
		if want == 0 && a != 1 {
			t.Errorf("a clone of a drained queue allocates %v times, want 1 (the state, no slots)", a)
		}
	}
}

// sizedJob is a job as TSP's chunks are: a value with a wire size of
// its own.
type sizedJob struct{ routes []int }

func (j sizedJob) WireSize() int { return 8 + 8*len(j.routes) }

// Adding a job through a runtime boxes nothing: Queue.Add carves the job
// from the run's tables, every replica queues the pointer, and the
// replicas' segments grow without copying. An add is a broadcast write
// to four replicas from a machine that is not the sequencer's, so the
// group layer's sends are in the figure too: it reads 0.016 (1.012
// while the job was boxed into the record).
func TestQueueAddAllocations(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts mean nothing under the race detector")
			}
		}
	}
	rt := orca.New(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1}, Register)
	rt.Run(func(p *orca.Proc) {
		q := NewQueue[sizedJob](p)
		p.Fork(1, "producer", func(p *orca.Proc) {
			job := sizedJob{routes: []int{1, 2, 3}}
			const n = 4096
			for range n {
				q.Add(p, job)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for range n {
				q.Add(p, job)
			}
			runtime.ReadMemStats(&m1)
			if a := float64(m1.Mallocs-m0.Mallocs) / n; a > 0.05 {
				t.Errorf("an add allocates %.4f times, want at most 0.05", a)
			}
			if got := q.Len(p); got != 2*n {
				t.Errorf("%d jobs queued, want %d", got, 2*n)
			}
		})
	})
}
