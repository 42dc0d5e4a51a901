package rts

// RTSStats is the unified runtime-counter snapshot. A sequencer group
// fills the broadcast fields, the Router the primary-copy, fence and
// migration fields, and Router.Counters merges them — one schema for
// reports, experiment tables, and pinned goldens regardless of
// configuration.
type RTSStats struct {
	// Broadcast-runtime counters.
	LocalReads  int64 `json:"local_reads,omitempty"`  // reads served from a local replica (both runtimes)
	BcastWrites int64 `json:"bcast_writes,omitempty"` // writes shipped through the total order
	GuardWaits  int64 `json:"guard_waits,omitempty"`  // guard suspensions (both runtimes)
	Forwarded   int64 `json:"forwarded,omitempty"`    // ops forwarded to a partial-replication holder

	// Batching counters (see Router.EnableBatching): ops
	// submitted through per-worker combining buffers, and the batch
	// frames that carried them — Frames << BatchedOps is the
	// amortization experiments report.
	BatchedOps int64 `json:"batched_ops,omitempty"`  // ops submitted through a combining buffer
	Frames     int64 `json:"batch_frames,omitempty"` // combining-buffer flushes (batched frames sent)

	// Point-to-point-runtime counters.
	RemoteReads   int64 `json:"remote_reads,omitempty"`  // reads RPC'd to the primary
	P2PWrites     int64 `json:"p2p_writes,omitempty"`    // writes routed to a primary copy
	Fetches       int64 `json:"fetches,omitempty"`       // secondary copies installed
	Discards      int64 `json:"discards,omitempty"`      // secondary copies dropped by the ratio heuristic
	Invalidations int64 `json:"invalidations,omitempty"` // invalidation messages sent
	Updates       int64 `json:"updates,omitempty"`       // update messages sent

	// Cross-group counters (see fence.go): write operations applied
	// through a pausing fence.
	FencedOps int64 `json:"fenced_ops,omitempty"`

	// Adaptive-placement counters (see adapt.go): completed online
	// migrations (including primary re-homes) and the total virtual
	// time objects spent mid-migration.
	Migrations         int64   `json:"migrations,omitempty"`
	MigrationVirtualUS float64 `json:"migration_virtual_us,omitempty"`

	// Fault-tolerance counters (see Router.NodeCrashed).
	Crashes    int64 `json:"crashes,omitempty"`     // machine crashes observed by the runtime
	OpsRetried int64 `json:"ops_retried,omitempty"` // operations retried after a crash broke their first attempt
	Rehomed    int64 `json:"rehomed,omitempty"`     // objects re-homed or restarted on a new primary

	// Sequencer-recovery counters from the group layer: election
	// rounds (elected-sequencer protocol), consensus takeovers, slots
	// re-proposed after a leader change, and the worst member's
	// virtual time spent with recovery in progress (suspicion to first
	// post-recovery delivery). Elections, Takeovers, and the recovery
	// time merge by max — concurrent members observe the same logical
	// recovery — while Reproposals sums.
	Elections         int64   `json:"elections,omitempty"`
	Takeovers         int64   `json:"takeovers,omitempty"`
	Reproposals       int64   `json:"reproposals,omitempty"`
	RecoveryVirtualUS float64 `json:"recovery_virtual_us,omitempty"`
}

// Merge combines counter snapshots of independent parts of one
// runtime on the same machines (a Router's sequencer groups and its own
// counters) into one. Work counters sum — each part performed its share
// of the reads, writes, frames, and retries. Whole-machine observations
// merge by max: every part observes the same crash, and concurrent
// groups on the same machines observe the same logical sequencer
// recovery, so Crashes, Elections, Takeovers, and the recovery outage
// would double-count under a sum.
func Merge(snaps ...RTSStats) RTSStats {
	var s RTSStats
	for _, o := range snaps {
		s.LocalReads += o.LocalReads
		s.BcastWrites += o.BcastWrites
		s.GuardWaits += o.GuardWaits
		s.Forwarded += o.Forwarded
		s.BatchedOps += o.BatchedOps
		s.Frames += o.Frames
		s.RemoteReads += o.RemoteReads
		s.P2PWrites += o.P2PWrites
		s.Fetches += o.Fetches
		s.Discards += o.Discards
		s.Invalidations += o.Invalidations
		s.Updates += o.Updates
		s.FencedOps += o.FencedOps
		s.Migrations += o.Migrations
		s.MigrationVirtualUS += o.MigrationVirtualUS
		if o.Crashes > s.Crashes {
			s.Crashes = o.Crashes
		}
		s.OpsRetried += o.OpsRetried
		s.Rehomed += o.Rehomed
		if o.Elections > s.Elections {
			s.Elections = o.Elections
		}
		if o.Takeovers > s.Takeovers {
			s.Takeovers = o.Takeovers
		}
		s.Reproposals += o.Reproposals
		if o.RecoveryVirtualUS > s.RecoveryVirtualUS {
			s.RecoveryVirtualUS = o.RecoveryVirtualUS
		}
	}
	return s
}
