package core

import "time"

// Failure-detection latencies (Section IV-A). Swift layers three
// mechanisms: executor self-reporting on process restart (fast), proxied
// heartbeats whose interval scales with cluster size, and machine health
// monitoring. The helpers below give drivers the corresponding detection
// delays; the controller itself is clock-free.

// HeartbeatInterval returns the heartbeat period for a cluster of the
// given machine count: "5s, 10s, 15s for small, medium, large cluster
// respectively". It is also how long a machine crash goes unnoticed: the
// heartbeat proxy stops answering and Swift Admin declares the machine
// dead after one missed interval.
func HeartbeatInterval(machines int) time.Duration {
	switch {
	case machines <= 200:
		return 5 * time.Second
	case machines <= 1000:
		return 10 * time.Second
	default:
		return 15 * time.Second
	}
}

// SelfReportDelay is how quickly a restarted executor process re-registers
// with Swift Admin and the failure handling starts — the lazy, passive
// channel that detects process death without waiting for a heartbeat.
const SelfReportDelay = 500 * time.Millisecond

// TaskErrorReportDelay is the latency for an executor to report a task
// that exited with an error (the executor itself is alive).
const TaskErrorReportDelay = 200 * time.Millisecond
