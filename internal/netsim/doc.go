// Package netsim models the shared-medium network of the paper's
// testbed: a 10 Mb/s Ethernet connecting the processor-pool machines.
//
// The model captures the two costs that drive the paper's protocol
// analysis: bandwidth (all frames serialize over one bus) and
// per-frame receiver interrupts (charged by the kernel layer for every
// fragment delivered). Frames above the MTU are fragmented; messages
// occupy the bus for all fragments back to back, as Amoeba's blast
// protocols did. The wire itself loses nothing: a FaultPlan schedules
// deterministic machine crashes, transient partitions, and per-link
// loss windows, whose per-receiver fragment losses exercise the
// reliability machinery of the upper layers.
//
// Downward: the wire runs on package sim's virtual clock. Upward:
// package amoeba attaches one kernel per node and charges interrupt
// costs for every delivery this package schedules.
package netsim
