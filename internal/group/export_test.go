package group

import (
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"testing"
)

// Every test of the package runs with released send records poisoned:
// a frame that reads one asks for an op with uid -1, which the harness
// refuses to deliver.
func TestMain(m *testing.M) {
	poison = true
	os.Exit(m.Run())
}

// WatchDeliveries fingerprints every delivery of every member as deliver
// hands it out, until t ends, and then fingerprints them all again: a
// record some layer changed after it was delivered — an in-place
// restamp of a shared record, say — fails t, naming the first one.
// Deliveries share the sequenced records they point to with the frames,
// the history rings and every other consumer, so nobody may write one.
// Tests that watch must not run in parallel with other tests of the
// package; a test that watches may run environments on several
// goroutines.
func WatchDeliveries(t *testing.T) {
	type watched struct {
		d  Delivery
		fp uint64
	}
	var all []watched
	var mu sync.Mutex
	handedOut = func(d Delivery) {
		w := watched{d, recordPrint(d)}
		mu.Lock()
		all = append(all, w)
		mu.Unlock()
	}
	t.Cleanup(func() {
		handedOut = nil
		for i, w := range all {
			if fp := recordPrint(w.d); fp != w.fp {
				t.Errorf("delivery %d of %d (seq %d, uid %d) changed after it was handed out: now %+v", i, len(all), w.d.Seq, w.d.UID, *w.d.dataMsg)
				return
			}
		}
		if len(all) == 0 {
			t.Error("no delivery was watched")
		}
	})
}

// recordPrint hashes every field of a delivery and of the record it
// points to.
func recordPrint(d Delivery) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v %t", *d.dataMsg, d.Dup)
	return h.Sum64()
}
