// Quickstart: the shared data-object programming model in a dozen
// lines. Four processes on four simulated processors share a counter
// and a job queue; operations are sequentially consistent and guarded
// operations block, exactly as in Orca. The objects are typed: the
// queue is a Queue[int], the counter's methods take and return ints,
// and using them wrongly is a compile error — the role Orca's
// compiler played. Placement is per object: the read-mostly counter
// stays fully replicated while the write-mostly queue lives as a
// single primary copy on the point-to-point runtime.
package main

import (
	"fmt"

	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/sim"
)

func main() {
	cfg := orca.Config{
		Processors: 4,              // a 4-machine Amoeba pool
		RTS:        orca.Broadcast, // default: replicated objects over total-order broadcast
		Mixed:      true,           // let individual objects opt onto the point-to-point runtime
		Seed:       1,
	}
	rt := orca.New(cfg, std.Register)

	var total int
	report := rt.Run(func(p *orca.Proc) {
		counter := std.NewCounter(p, 0) // no policy: Config.RTS, replicated on every machine
		queue := std.NewQueue[int](p, orca.With(orca.PrimaryCopy{
			Protocol: orca.Update, Placement: orca.SingleCopy,
		})) // write-mostly: one copy on this machine, no broadcasts
		done := std.NewBarrier(p, 3)

		// Fork one worker per remaining processor, sharing the
		// objects (Orca: fork worker(counter, queue) on cpu).
		for cpu := 1; cpu <= 3; cpu++ {
			p.Fork(cpu, fmt.Sprintf("worker%d", cpu), func(wp *orca.Proc) {
				for {
					n, ok := queue.Get(wp) // guarded: blocks until a job or close
					if !ok {
						break
					}
					wp.Work(sim.Time(n) * sim.Millisecond) // simulate n ms of computing
					counter.Add(wp, n)                     // indivisible update
				}
				done.Arrive(wp)
			})
		}

		for j := 1; j <= 10; j++ {
			queue.Add(p, j)
		}
		queue.Close(p)
		done.Wait(p)
		total = counter.Value(p)
	})

	fmt.Printf("sum computed by 3 workers: %d (want 55)\n", total)
	fmt.Printf("virtual time: %v, wire messages: %d\n", report.Elapsed, report.Net.Messages)
	fmt.Printf("program totals: %d local reads, %d broadcast writes, %d primary-copy writes\n",
		report.RTS.LocalReads, report.RTS.BcastWrites, report.RTS.P2PWrites)
	fmt.Println("every queue operation stayed off the broadcast; every counter read stayed local")
}
