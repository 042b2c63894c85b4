// Package cluster is a small distributed task system in the style of the
// Dask scheduler/worker deployment the paper used on Summit (§2.2.5).
// The campaign process owns the scheduler, as the paper's Dask client
// shared the batch node with its scheduler: it submits fitness-evaluation
// tasks in process (Scheduler.Submit), and the scheduler leases them to
// workers (one per compute node in the paper), whose results flow back
// to the waiting submitter over one connection per worker: TCP, or
// in-memory for a worker in the scheduler's process, with the same frames.
// Matching the paper's operational choices, there are no "nannies" — a
// worker that dies stays dead, and the scheduler reassigns its in-flight
// tasks to surviving workers.
package cluster

import "repro/internal/cluster/wire"

// message is one protocol message as the cluster holds it in memory.
// Type and Flags are the wire frame's own; the byte fields are strings
// (and a payload slice of their own) because they outlive the decoder
// buffer the frame arrived in — fromWire is the one place they are
// copied out of it.  Which fields a type carries is the wire package's
// frame layout: Register a Name, Assign a Payload, Result an
// Err and a Payload.
type message struct {
	Type    wire.Type
	Flags   byte // none defined: the scheduler refuses a register carrying any
	TaskID  string
	Name    string // worker name on register
	Payload []byte
	Err     string
}
