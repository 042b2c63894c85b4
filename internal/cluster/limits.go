package cluster

import (
	"time"

	"repro/internal/ea"
)

// The fleet's liveness limits, the paper's answer to a node that hangs
// without dropping its connection (§2.2.4–2.2.5): a worker running a
// task heartbeats every HeartbeatInterval, and a lease that goes
// LeaseHeartbeats intervals without one runs out: the worker is dropped
// and its task goes to another.  The execution cap is ea.PaperEvalTimeout.
const (
	HeartbeatInterval = 15 * time.Second
	LeaseHeartbeats   = 4
	LeaseTimeout      = LeaseHeartbeats * HeartbeatInterval
)

// limits are the three time limits a fleet is built with: each worker's
// execution cap and heartbeat interval, and the scheduler's lease.
type limits struct{ evalCap, heartbeat, lease time.Duration }

// served is the table ListenLocalCluster, and so cmd/serve, arms.
var served = limits{evalCap: ea.PaperEvalTimeout, heartbeat: HeartbeatInterval, lease: LeaseTimeout}
