package sched

// FIFO is the default policy: serve the queue in arrival order, uncapped,
// never preempt, no tenant differentiation. All three methods return nil;
// the controller's one scheduling round reads a nil plan as every queued
// item in queue order, uncapped.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// JobOrder implements Policy: nil means queue order, uncapped.
func (FIFO) JobOrder([]Item, View) []Grant { return nil }

// Proportion implements Policy: FIFO does not differentiate tenants.
func (FIFO) Proportion(View) []Share { return nil }

// Preempt implements Policy: FIFO never reclaims running work.
func (FIFO) Preempt([]Item, []Gang, View) []Victim { return nil }
