//go:build race

package raceflag

// Enabled reports whether the race detector instruments this build.
const Enabled = true
