// Package std provides the standard shared-object types the paper's
// applications are built from: the global minimum bound and job queue
// of TSP's replicated-worker paradigm, boolean arrays and flags for
// ACP's termination protocol, transposition and killer tables for the
// chess program, and bit sets for ATPG's fault sharing.
//
// Each type is an Orca abstract data type: encapsulated state, read
// and write operations, guards where the paper's programs block. The
// types are declared with the typed builder of package orca, so every
// operation is a typed descriptor; the concrete wrapper types
// (Counter, Queue, Barrier, Flag, BoolArray, Table, Killer, BitSet,
// Accum) are the programming surface — their methods take a
// *orca.Proc and real Go values, and the argument record that travels
// underneath is an implementation detail. All types register with an
// rts.Registry via Register.
//
// Downward: descriptors compile to rts.OpDefs. Upward: the
// applications in internal/apps compose these types (and add their
// own app-specific ones in the same style).
package std
