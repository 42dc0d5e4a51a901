package group

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/amoeba"
)

// stepDelivery feeds member 2 of a four-member group a sequenced stream
// through its packet handler alone, with the simulation never run: every
// record in one frame or another, in a seeded random order, some frames
// twice, some held back and sent again once the rest is in, and one
// record re-sequenced — sequenced again under a later number, as a new
// sequencer does with an op it did not know was delivered. With no
// status reports (StatusEvery 0) a member's handler sends nothing, so
// each step runs to its end at once. The member must deliver every
// sequence number once, in order, and mark the re-sequenced copy Dup and
// nothing else.
func stepDelivery(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	h := newHarness(seed, 4, nil, func(c *Config) { c.StatusEvery = 0 })
	defer h.env.Shutdown()
	g, p := h.gs[2], new(amoeba.Claimant).Init(h.ms[2], "feeder", -1)

	// The stream: n records from the other members, each numbered densely
	// per source, and one more that re-sequences record dup under the
	// last number.
	n := 20 + rng.Intn(60)
	recs := make([]dataMsg, n+1)
	srcSeq := map[int]int64{}
	for i := range n {
		src := []int{0, 1, 3}[rng.Intn(3)]
		srcSeq[src]++
		recs[i] = dataMsg{item: item{UID: int64(i + 1), Src: src, SrcSeq: srcSeq[src], Msg: Msg{Kind: "m"}}, Seq: int64(i + 1)}
	}
	dup := rng.Intn(n)
	recs[n] = recs[dup]
	recs[n].Seq = int64(n + 1)

	// Frames of one to three consecutive records, More set on all but a
	// frame's last.
	var frames []*dataFrame
	for i := 0; i < len(recs); {
		k := min(1+rng.Intn(3), len(recs)-i)
		for j := range k {
			recs[i+j].More = j < k-1
		}
		f := h.gs[0].newFrame(k)
		copy(f.Recs, recs[i:i+k])
		frames = append(frames, f)
		i += k
	}
	var first, again []*dataFrame
	for _, fi := range rng.Perm(len(frames)) {
		f := frames[fi]
		switch r := rng.Intn(10); {
		case r < 2: // dropped, retransmitted later
			again = append(again, f)
		case r < 4: // duplicated
			first = append(first, f, f)
		default:
			first = append(first, f)
		}
	}
	rng.Shuffle(len(again), func(i, j int) { again[i], again[j] = again[j], again[i] })
	for _, f := range append(first, again...) {
		g.handle(p, 0, amoeba.Packet{Port: g.port, Kind: "grp-data", Body: f})
		if len(g.out.fx) != 0 {
			return fmt.Errorf("a step left %d effects pending with nothing to send", len(g.out.fx))
		}
	}

	var got []Delivery
	for d, ok := g.Deliveries().TryGet(); ok; d, ok = g.Deliveries().TryGet() {
		got = append(got, d)
	}
	if len(got) != len(recs) {
		return fmt.Errorf("%d deliveries of %d sequence numbers", len(got), len(recs))
	}
	for i, d := range got {
		if d.Seq != int64(i+1) {
			return fmt.Errorf("delivery %d is seq %d, want %d", i, d.Seq, i+1)
		}
		if d.UID != recs[i].UID || d.More != recs[i].More {
			return fmt.Errorf("delivery %d is uid %d (More %t), want %d (More %t)", i, d.UID, d.More, recs[i].UID, recs[i].More)
		}
		if want := i == n; d.Dup != want {
			return fmt.Errorf("seq %d (uid %d, source %d #%d) delivered with Dup %t, want %t", d.Seq, d.UID, d.Src, d.SrcSeq, d.Dup, want)
		}
	}
	if g.nextSeq != int64(len(recs)+1) || g.buffered.span() != 0 {
		return fmt.Errorf("next seq %d with %d buffered, want %d with none", g.nextSeq, g.buffered.span(), len(recs)+1)
	}
	return nil
}

// TestStepDelivery runs stepDelivery on a thousand seeds.
func TestStepDelivery(t *testing.T) {
	for seed := int64(1); seed <= 1000; seed++ {
		if err := stepDelivery(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzStepDelivery runs stepDelivery on fuzzed seeds; its seed corpus is
// in testdata/fuzz.
func FuzzStepDelivery(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := stepDelivery(seed); err != nil {
			t.Fatal(err)
		}
	})
}
