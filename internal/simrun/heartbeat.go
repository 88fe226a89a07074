package simrun

import "swift/internal/sim"

// Failure-detection latencies (Section IV-A). Swift layers three
// mechanisms: executor self-reporting on process restart (fast), proxied
// heartbeats whose interval scales with cluster size, and machine health
// monitoring. The controller is clock-free, so the delays live here, with
// the fault injectors that wait them out.

// heartbeatInterval returns the heartbeat period for a cluster of the
// given machine count: "5s, 10s, 15s for small, medium, large cluster
// respectively". It is also how long a machine crash goes unnoticed: the
// heartbeat proxy stops answering and Swift Admin declares the machine
// dead after one missed interval.
func heartbeatInterval(machines int) sim.Duration {
	switch {
	case machines <= 200:
		return 5 * sim.Second
	case machines <= 1000:
		return 10 * sim.Second
	default:
		return 15 * sim.Second
	}
}

// selfReportDelay is how quickly a restarted executor process re-registers
// with Swift Admin and the failure handling starts — the lazy, passive
// channel that detects process death without waiting for a heartbeat.
const selfReportDelay = 500 * sim.Millisecond

// taskErrorReportDelay is the latency for an executor to report a task
// that exited with an error (the executor itself is alive).
const taskErrorReportDelay = 200 * sim.Millisecond
