//go:build !race

// Package raceflag tells tests whether the race detector is on. Its
// instrumentation allocates, so testing.AllocsPerRun guards skip under
// -race instead of pinning the detector's overhead.
package raceflag

// Enabled reports whether the race detector instruments this build.
const Enabled = false
