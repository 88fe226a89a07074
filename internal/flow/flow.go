// Package flow implements swiftd's global flow controller: the admission
// valve between arriving job submissions and core.Controller.SubmitJob.
// Instead of admitting whatever arrives — the thundering-herd failure mode
// of a dumb worker pool — the controller enforces a bounded in-flight task
// budget derived from cluster capacity, a bounded FIFO wait queue, a
// token-bucket arrival governor whose refill is throttled by a congestion
// signal (scheduler queue depth + free-executor ratio), and explicit load
// shedding with a retry-after hint once the queue is full. Admission
// degrades gracefully: accept → queue → slow → shed. Each decision is
// counted once, in its tenant's TenantStat; Stats sums them.
//
// Like core.Controller, the flow controller is a deterministic state
// machine: it owns no clock, no goroutines and no randomness. Callers pass
// virtual time in (swiftd injects monotonic wall micros; the simulator and
// experiments inject engine time), which is what lets the chaos soak replay
// admission decisions byte-identically per seed.
package flow

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"swift/internal/core"
	"swift/internal/sim"
)

// Level is the congestion level of the admission state machine.
type Level int8

const (
	// LevelAccept admits arrivals directly: queue empty, budget headroom,
	// tokens available.
	LevelAccept Level = iota
	// LevelQueue parks arrivals in the bounded FIFO wait queue.
	LevelQueue
	// LevelSlow is queueing with the token bucket dry — arrivals outpace
	// the governed admission rate, the queue is draining slower than it
	// fills.
	LevelSlow
	// LevelShed rejects arrivals outright: the wait queue is full (or the
	// controller is draining).
	LevelShed
)

// String renders the level.
func (l Level) String() string {
	switch l {
	case LevelAccept:
		return "accept"
	case LevelQueue:
		return "queue"
	case LevelSlow:
		return "slow"
	case LevelShed:
		return "shed"
	}
	return "invalid"
}

// Decision classifies the outcome of one submission offer.
type Decision int8

const (
	// Admitted submissions go straight to the scheduler.
	Admitted Decision = iota
	// Queued submissions wait in the FIFO queue for capacity.
	Queued
	// Shed submissions are rejected with a retry-after hint.
	Shed
)

// String renders the decision.
func (d Decision) String() string {
	switch d {
	case Admitted:
		return "admitted"
	case Queued:
		return "queued"
	case Shed:
		return "shed"
	}
	return "invalid"
}

// ErrOverloaded is the errors.Is target for load-shed rejections.
var ErrOverloaded = errors.New("flow: overloaded")

// ErrDraining rejects submissions arriving after Drain.
var ErrDraining = errors.New("flow: draining")

// OverloadError is the typed rejection returned when a submission is shed:
// the wait queue is full, and the caller should retry no sooner than
// RetryAfter. It matches ErrOverloaded under errors.Is.
type OverloadError struct {
	QueueLen   int
	RetryAfter sim.Duration
}

// Error renders the rejection.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("flow: overloaded: wait queue full (%d deep), retry after %.3fs", e.QueueLen, e.RetryAfter.Seconds())
}

// Is matches ErrOverloaded.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// Config tunes the flow controller. The zero value derives sane bounds
// from cluster capacity.
type Config struct {
	// MaxInFlightTasks bounds admitted-but-unfinished work (pending +
	// running tasks across live jobs). Default: 4× total executors.
	MaxInFlightTasks int
	// MaxQueue bounds the FIFO wait queue. Default 64.
	MaxQueue int
	// Rate is the token-bucket refill in jobs per second; 0 disables the
	// arrival governor (admission is then budget-bounded only).
	Rate float64
	// Burst is the token-bucket capacity. Default max(1, round(Rate)).
	Burst int
	// TenantBudgets bounds each listed tenant's in-flight tasks on top of
	// the global budget (tenants not listed are unbounded). Enforcement
	// needs SetTenantLookup; a tenant with nothing in flight admits one
	// oversized job alone, mirroring the global liveness rule. When any
	// budget is set the wait queue releases the first admissible item
	// rather than strictly the head, so one saturated tenant cannot block
	// the others' queued work.
	TenantBudgets map[string]int
}

func (c Config) withDefaults(totalExecutors int) Config {
	if c.MaxInFlightTasks <= 0 {
		c.MaxInFlightTasks = 4 * totalExecutors
		if c.MaxInFlightTasks <= 0 {
			c.MaxInFlightTasks = 1
		}
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.Burst <= 0 {
		c.Burst = int(c.Rate + 0.5)
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// Item is one submission moving through admission.
type Item struct {
	ID       string
	Tenant   string // empty counts as core.DefaultTenant
	Tasks    int
	Payload  interface{}
	Enqueued sim.Time
}

// Outcome reports what happened to one offered submission.
type Outcome struct {
	Decision Decision
	Level    Level
	// QueuePos is the 1-based wait-queue position for Queued outcomes.
	QueuePos int
	// RetryAfter is the back-off hint for Shed outcomes.
	RetryAfter sim.Duration
}

// Stats are cumulative admission statistics. Admitted, Queued and Shed
// are the sums of the per-tenant counters TenantStats reports.
type Stats struct {
	Admitted  int64 // directly or from the queue
	Queued    int64 // ever parked in the wait queue
	Shed      int64
	Decisions int64 // offers processed
	QueueLen  int   // current wait-queue depth
	MaxQueue  int   // high-water mark of the wait queue
	Tokens    float64
	Draining  bool
}

// Controller is the global flow controller.
type Controller struct {
	cfg      Config
	tokens   float64
	last     sim.Time
	queue    []Item // every slot an item leaves is zeroed, so no released payload stays pinned
	head     int    // queue[head:] is live; amortised O(1) pops
	draining bool
	stats    Stats                   // Decisions and MaxQueue; Stats sums the rest from tstats
	inflight func(tenant string) int // nil disables tenant budgets
	tstats   map[string]*TenantStat
}

// TenantStat is one tenant's cumulative admission statistics plus its
// current budget occupancy.
type TenantStat struct {
	Tenant   string
	Admitted int64
	Queued   int64 // ever parked in the wait queue
	Shed     int64
	QueueLen int // current wait-queue entries
	InFlight int // current in-flight tasks (0 without a lookup)
	Budget   int // configured budget (0 = unbounded)
}

// NewController builds a flow controller; capacity defaults derive from
// the cluster's total executor count.
func NewController(cfg Config, totalExecutors int) *Controller {
	cfg = cfg.withDefaults(totalExecutors)
	return &Controller{cfg: cfg, tokens: float64(cfg.Burst)}
}

// Congestion maps a controller snapshot to a score in [0,1]: 0 is an idle
// cluster, 1 is saturated with a deep scheduler backlog. With no backlog
// the busy-executor ratio is squared so a half-busy cluster still reads as
// lightly loaded; once graphlet requests wait in the scheduler queue the
// remaining headroom shrinks with backlog depth.
func Congestion(snap core.StateSnapshot) float64 {
	total := snap.TotalExecutors
	if total <= 0 {
		return 1
	}
	busy := 1 - float64(snap.FreeExecutors)/float64(total)
	if snap.SchedQueueLen == 0 {
		return busy * busy
	}
	backlog := float64(snap.SchedQueueLen) / float64(snap.SchedQueueLen+total)
	return busy + (1-busy)*backlog
}

// refill advances the token bucket to `now`. Congestion throttles the
// refill: at full congestion admission stops entirely and arrivals queue
// (then shed) until the cluster breathes again — this is the backpressure
// half of the design.
func (f *Controller) refill(now sim.Time, snap core.StateSnapshot) {
	if f.cfg.Rate <= 0 {
		return
	}
	if now < f.last {
		now = f.last
	}
	dt := (now - f.last).Seconds()
	f.last = now
	if dt <= 0 {
		return
	}
	f.tokens += f.cfg.Rate * (1 - Congestion(snap)) * dt
	if max := float64(f.cfg.Burst); f.tokens > max {
		f.tokens = max
	}
}

func (f *Controller) hasToken() bool { return f.cfg.Rate <= 0 || f.tokens >= 1 }

func (f *Controller) takeToken() {
	if f.cfg.Rate > 0 {
		f.tokens--
	}
}

// fits reports whether admitting `tasks` more stays within the in-flight
// budget. A submission larger than the whole budget can never fit beside
// anything, so it is admitted alone (when nothing is in flight) rather
// than parked forever — a liveness guarantee the drain path relies on.
func (f *Controller) fits(snap core.StateSnapshot, tasks int) bool {
	inflight := snap.InFlightTasks()
	return inflight+tasks <= f.cfg.MaxInFlightTasks || inflight == 0
}

// SetTenantLookup wires the per-tenant in-flight reader (normally
// core.Controller.TenantInFlight) that TenantBudgets enforcement and
// TenantStats occupancy read from. Without it tenant budgets are inert.
func (f *Controller) SetTenantLookup(fn func(tenant string) int) { f.inflight = fn }

// tenantOf normalizes an item's tenant label the same way the scheduler
// does, so budgets and stats key consistently.
func tenantOf(it Item) string {
	if it.Tenant == "" {
		return core.DefaultTenant
	}
	return it.Tenant
}

// tstat returns (creating on first use) a tenant's stat record.
func (f *Controller) tstat(name string) *TenantStat {
	if f.tstats == nil {
		f.tstats = make(map[string]*TenantStat)
	}
	ts := f.tstats[name]
	if ts == nil {
		ts = &TenantStat{Tenant: name}
		f.tstats[name] = ts
	}
	return ts
}

// tenantFits reports whether admitting the item stays within its tenant's
// budget. Unlisted tenants (or a missing lookup) always fit; a tenant with
// nothing in flight admits one oversized job alone — the same liveness
// rule fits applies globally.
func (f *Controller) tenantFits(it Item) bool {
	if len(f.cfg.TenantBudgets) == 0 || f.inflight == nil {
		return true
	}
	budget := f.cfg.TenantBudgets[tenantOf(it)]
	if budget <= 0 {
		return true
	}
	in := f.inflight(tenantOf(it))
	return in+it.Tasks <= budget || in == 0
}

// QueueLen returns the current wait-queue depth.
func (f *Controller) QueueLen() int { return len(f.queue) - f.head }

// MaxQueue returns the configured wait-queue bound.
func (f *Controller) MaxQueue() int { return f.cfg.MaxQueue }

// Budget returns the resolved in-flight task budget. In-flight work only
// exceeds it via the oversized-job liveness rule (a job larger than the
// whole budget admits alone on an idle cluster), so observed in-flight is
// bounded by max(Budget, largest admitted job).
func (f *Controller) Budget() int { return f.cfg.MaxInFlightTasks }

// Offer runs the admission state machine for one arriving submission.
// Admitted means the caller must now hand the payload to the scheduler;
// Queued parks it until PopAdmissible releases it; Shed rejects it with a
// typed *OverloadError (errors.Is ErrOverloaded) carrying a retry-after
// hint. Offers after Drain are rejected with ErrDraining.
func (f *Controller) Offer(now sim.Time, snap core.StateSnapshot, item Item) (Outcome, error) {
	f.refill(now, snap)
	f.stats.Decisions++
	if f.draining {
		f.tstat(tenantOf(item)).Shed++
		return Outcome{Decision: Shed, Level: LevelShed, RetryAfter: f.retryAfter()}, ErrDraining
	}
	if f.QueueLen() == 0 && f.fits(snap, item.Tasks) && f.tenantFits(item) && f.hasToken() {
		f.takeToken()
		f.tstat(tenantOf(item)).Admitted++
		return Outcome{Decision: Admitted, Level: LevelAccept}, nil
	}
	if f.QueueLen() >= f.cfg.MaxQueue {
		ra := f.retryAfter()
		f.tstat(tenantOf(item)).Shed++
		return Outcome{Decision: Shed, Level: LevelShed, RetryAfter: ra},
			&OverloadError{QueueLen: f.QueueLen(), RetryAfter: ra}
	}
	item.Enqueued = now
	f.queue = append(f.queue, item)
	f.tstat(tenantOf(item)).Queued++
	if q := f.QueueLen(); q > f.stats.MaxQueue {
		f.stats.MaxQueue = q
	}
	lvl := LevelQueue
	if !f.hasToken() {
		lvl = LevelSlow
	}
	return Outcome{Decision: Queued, Level: lvl, QueuePos: f.QueueLen()}, nil
}

// PopAdmissible releases the queue head if it can be admitted now: the
// in-flight budget has room and (unless draining) a token is available.
// Callers loop with a fresh snapshot after each admission. Draining
// bypasses the token governor so queued-but-unadmitted work re-admits
// promptly before shutdown. With tenant budgets active the scan releases
// the first admissible entry instead of strictly the head, so a tenant
// parked at its budget cannot head-of-line-block the rest of the queue.
func (f *Controller) PopAdmissible(now sim.Time, snap core.StateSnapshot) (Item, bool) {
	f.refill(now, snap)
	if f.QueueLen() == 0 {
		return Item{}, false
	}
	idx := f.head
	if len(f.cfg.TenantBudgets) > 0 && f.inflight != nil {
		idx = -1
		for i := f.head; i < len(f.queue); i++ {
			if f.fits(snap, f.queue[i].Tasks) && f.tenantFits(f.queue[i]) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return Item{}, false
		}
	} else if !f.fits(snap, f.queue[idx].Tasks) {
		return Item{}, false
	}
	if !f.draining {
		if !f.hasToken() {
			return Item{}, false
		}
		f.takeToken()
	}
	it := f.queue[idx]
	if idx == f.head {
		f.queue[f.head] = Item{}
		f.head++
		if f.head == len(f.queue) {
			f.queue = f.queue[:0]
			f.head = 0
		} else if f.head > 64 && 2*f.head >= len(f.queue) {
			n := copy(f.queue, f.queue[f.head:])
			clear(f.queue[n:])
			f.queue = f.queue[:n]
			f.head = 0
		}
	} else {
		f.queue = slices.Delete(f.queue, idx, idx+1)
	}
	f.tstat(tenantOf(it)).Admitted++
	return it, true
}

// CancelQueued removes a queued submission by ID before it is admitted.
func (f *Controller) CancelQueued(id string) bool {
	for i := f.head; i < len(f.queue); i++ {
		if f.queue[i].ID == id {
			f.queue = slices.Delete(f.queue, i, i+1)
			return true
		}
	}
	return false
}

// Drain stops new admissions: subsequent offers shed with ErrDraining,
// while already-queued submissions keep draining through PopAdmissible
// with the token governor bypassed.
func (f *Controller) Drain() { f.draining = true }

// Draining reports whether Drain was called.
func (f *Controller) Draining() bool { return f.draining }

// TenantStats returns per-tenant admission statistics sorted by tenant
// name: cumulative decision counters plus current wait-queue occupancy,
// in-flight tasks (when a lookup is wired) and the configured budget.
func (f *Controller) TenantStats() []TenantStat {
	names := make(map[string]bool, len(f.tstats)+len(f.cfg.TenantBudgets))
	for n := range f.tstats {
		names[n] = true
	}
	for n := range f.cfg.TenantBudgets {
		names[n] = true
	}
	if len(names) == 0 {
		return nil
	}
	depth := make(map[string]int)
	for i := f.head; i < len(f.queue); i++ {
		depth[tenantOf(f.queue[i])]++
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	out := make([]TenantStat, 0, len(sorted))
	for _, n := range sorted {
		ts := TenantStat{Tenant: n}
		if have := f.tstats[n]; have != nil {
			ts = *have
		}
		ts.QueueLen = depth[n]
		ts.Budget = f.cfg.TenantBudgets[n]
		if f.inflight != nil {
			ts.InFlight = f.inflight(n)
		}
		out = append(out, ts)
	}
	return out
}

// Stats returns cumulative admission statistics.
func (f *Controller) Stats() Stats {
	s := f.stats
	for _, ts := range f.tstats {
		s.Admitted += ts.Admitted
		s.Queued += ts.Queued
		s.Shed += ts.Shed
	}
	s.QueueLen = f.QueueLen()
	s.Tokens = f.tokens
	s.Draining = f.draining
	return s
}

// LevelFor reports the admission level a hypothetical arrival of the given
// size would see right now (diagnostic only; Offer is authoritative).
func (f *Controller) LevelFor(snap core.StateSnapshot, tasks int) Level {
	switch {
	case f.draining || f.QueueLen() >= f.cfg.MaxQueue:
		return LevelShed
	case f.QueueLen() == 0 && f.fits(snap, tasks) && f.hasToken():
		return LevelAccept
	case f.hasToken():
		return LevelQueue
	}
	return LevelSlow
}

// retryAfter estimates when a shed client should try again: the time for
// the current queue (plus the rejected arrival) to drain at the governed
// rate, floored at 100ms and capped at 30s.
func (f *Controller) retryAfter() sim.Duration {
	rate := f.cfg.Rate
	if rate <= 0 {
		rate = 10
	}
	d := sim.FromSeconds(float64(f.QueueLen()+1) / rate)
	return min(max(d, 100*sim.Millisecond), 30*sim.Second)
}
