// Package cluster models the simulated compute platform: machines hosting
// pre-launched executors, the network/disk cost model (model.go), machine
// health states for the failure experiments, and executor allocation with
// the data-locality + machine-load policy of Section III-A2.
//
// Allocation is performance-critical (the scalability experiment allocates
// hundreds of thousands of executors), so the cluster keeps a per-machine
// free-executor stack and a lazy min-heap of machines keyed by load.
package cluster

import (
	"fmt"
)

// ExecutorID identifies one executor slot cluster-wide.
type ExecutorID int

// MachineID identifies one machine.
type MachineID int

// Health is a machine's health state (Section IV-A).
type Health int

const (
	// Healthy machines accept new tasks.
	Healthy Health = iota
	// ReadOnly machines finish their running tasks but receive no new
	// ones ("mark it as read-only and stop scheduling new tasks to it").
	ReadOnly
	// Failed machines have crashed; their executors are revoked.
	Failed
)

// String renders the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case ReadOnly:
		return "read-only"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// Machine is one simulated worker machine. Its executors are the
// contiguous ID range [ID·per, (ID+1)·per), per being the configuration's
// ExecutorsPerMachine: executors are numbered machine by machine, so an
// executor's machine is one division away (Cluster.MachineOf).
type Machine struct {
	ID       MachineID
	Health   Health
	busy     int          // executors currently running tasks
	freeList []ExecutorID // idle executors (stack)
	// recentTaskFailures counts task failures since the last health
	// sweep; a burst marks the machine unhealthy.
	recentTaskFailures int
}

// Config sizes a simulated cluster.
type Config struct {
	Machines            int
	ExecutorsPerMachine int
	Model               *Model
}

// Paper100 returns the paper's 100-node evaluation cluster with the
// executor density used throughout the experiments.
func Paper100() Config {
	return Config{Machines: 100, ExecutorsPerMachine: 60, Model: DefaultModel()}
}

// Paper2000 returns the paper's 2,000-node cluster.
func Paper2000() Config {
	return Config{Machines: 2000, ExecutorsPerMachine: 60, Model: DefaultModel()}
}

// loadEntry is a lazy heap entry; stale entries (busy changed since push)
// are discarded at pop time.
type loadEntry struct {
	id   MachineID
	busy int
}

// before orders entries least-loaded first, machine ID breaking ties. A
// machine has at most one entry (inHeap), so the order is total and the
// top is independent of the heap's shape.
func (a loadEntry) before(b loadEntry) bool {
	return a.busy < b.busy || (a.busy == b.busy && a.id < b.id)
}

// loadHeap is a binary min-heap of loadEntry values, hand-rolled so
// entries are never boxed through container/heap's interface{}.
type loadHeap []loadEntry

func (h *loadHeap) push(e loadEntry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

// fixTop restores heap order after the top entry's key grew.
func (h loadHeap) fixTop() {
	n := len(h)
	if n == 0 {
		return
	}
	e := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// popTop removes the top entry.
func (h *loadHeap) popTop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s[:n].fixTop()
}

// Cluster tracks machines, executor occupancy and active connection load.
type Cluster struct {
	cfg Config
	// machines never grows after New, so the pointers Machine returns stay
	// valid for the cluster's lifetime.
	machines []Machine
	busyExec []bool // executor -> running a task
	nFree    int
	byLoad   loadHeap
	inHeap   []bool // machine -> has a (possibly stale) heap entry
}

// New builds a cluster from the configuration.
func New(cfg Config) *Cluster {
	if cfg.Machines <= 0 || cfg.ExecutorsPerMachine <= 0 {
		panic("cluster: non-positive size")
	}
	if cfg.Model == nil {
		cfg.Model = DefaultModel()
	}
	c := &Cluster{
		cfg:      cfg,
		machines: make([]Machine, cfg.Machines),
		busyExec: make([]bool, cfg.Machines*cfg.ExecutorsPerMachine),
		inHeap:   make([]bool, cfg.Machines),
	}
	for i := range c.machines {
		m := &c.machines[i]
		m.ID = MachineID(i)
		m.freeList = make([]ExecutorID, 0, cfg.ExecutorsPerMachine)
		c.repool(m)
		c.pushLoad(m)
	}
	c.nFree = len(c.busyExec)
	return c
}

// repool refills a machine's free stack with the idle executors of its
// range, the highest ID on top (allocation pops from the top).
func (c *Cluster) repool(m *Machine) {
	per := ExecutorID(c.cfg.ExecutorsPerMachine)
	m.freeList = m.freeList[:0]
	for e := ExecutorID(m.ID) * per; e < ExecutorID(m.ID+1)*per; e++ {
		if !c.busyExec[e] {
			m.freeList = append(m.freeList, e)
		}
	}
}

func (c *Cluster) pushLoad(m *Machine) {
	c.byLoad.push(loadEntry{id: m.ID, busy: m.busy})
	c.inHeap[m.ID] = true
}

// Model returns the cost model.
func (c *Cluster) Model() *Model { return c.cfg.Model }

// NumMachines returns the machine count.
func (c *Cluster) NumMachines() int { return len(c.machines) }

// NumExecutors returns the total executor count.
func (c *Cluster) NumExecutors() int { return len(c.busyExec) }

// FreeExecutors returns how many executors are idle and schedulable.
func (c *Cluster) FreeExecutors() int { return c.nFree }

// BusyExecutors returns how many executors are running tasks.
func (c *Cluster) BusyExecutors() int {
	n := 0
	for i := range c.machines {
		n += c.machines[i].busy
	}
	return n
}

// Machine returns the machine with the given ID. The pointer stays valid,
// and reads the machine's live state, for the cluster's lifetime.
func (c *Cluster) Machine(id MachineID) *Machine { return &c.machines[id] }

// MachineOf returns the machine hosting an executor: executors are
// numbered machine by machine.
func (c *Cluster) MachineOf(e ExecutorID) MachineID {
	return MachineID(int(e) / c.cfg.ExecutorsPerMachine)
}

// takeFrom pops one free executor from a machine; the caller guarantees
// one exists.
func (c *Cluster) takeFrom(m *Machine) ExecutorID {
	e := m.freeList[len(m.freeList)-1]
	m.freeList = m.freeList[:len(m.freeList)-1]
	c.busyExec[e] = true
	m.busy++
	c.nFree--
	return e
}

// Allocate hands out up to n free executors, preferring machines in
// locality (data locality) but never pushing a preferred machine past 90%
// load — the guard against "scheduling flock" (Section III-A2). Remaining
// demand is served from the least-loaded healthy machines ("for tasks
// without locality preference, the most free machine is chosen"). It
// returns fewer than n when the cluster cannot supply them.
func (c *Cluster) Allocate(n int, locality []MachineID) []ExecutorID {
	if n <= 0 || c.nFree == 0 {
		return nil
	}
	// Sized to what the pool can supply, not to the request: a saturated
	// scheduler asks for a whole graphlet on every completion and gets the
	// one executor that just freed.
	out := make([]ExecutorID, 0, min(n, c.nFree))
	for _, mid := range locality {
		if len(out) >= n {
			break
		}
		m := &c.machines[mid]
		if m.Health != Healthy {
			continue
		}
		localityCap := int(0.9 * float64(c.cfg.ExecutorsPerMachine))
		for len(out) < n && len(m.freeList) > 0 && m.busy < localityCap {
			out = append(out, c.takeFrom(m))
		}
		if !c.inHeap[mid] {
			c.pushLoad(m)
		}
	}
	// Load-balancing pass over the lazy min-heap.
	for len(out) < n && c.nFree > 0 && len(c.byLoad) > 0 {
		top := c.byLoad[0]
		m := &c.machines[top.id]
		if top.busy != m.busy {
			// Stale entry: refresh.
			c.byLoad.popTop()
			c.byLoad.push(loadEntry{id: m.ID, busy: m.busy})
			continue
		}
		if m.Health != Healthy || len(m.freeList) == 0 {
			c.byLoad.popTop()
			c.inHeap[m.ID] = false
			continue
		}
		out = append(out, c.takeFrom(m))
		c.byLoad[0].busy = m.busy // update key in place, then restore heap order
		c.byLoad.fixTop()
	}
	return out
}

// Release returns executors to the free pool. Executors on non-healthy
// machines are not re-pooled (read-only machines drain; failed machines
// have lost them).
func (c *Cluster) Release(execs []ExecutorID) {
	for _, e := range execs {
		c.ReleaseOne(e)
	}
}

// ReleaseOne is Release for the executor of a single finished task.
func (c *Cluster) ReleaseOne(e ExecutorID) {
	if !c.busyExec[e] {
		return
	}
	c.busyExec[e] = false
	m := &c.machines[c.MachineOf(e)]
	m.busy--
	if m.Health == Healthy {
		m.freeList = append(m.freeList, e)
		c.nFree++
		if !c.inHeap[m.ID] {
			c.pushLoad(m)
		}
	}
}

// SetHealth transitions a machine's health state. Marking a machine Failed
// or ReadOnly removes its idle executors from the pool; restoring it to
// Healthy re-pools the idle ones.
func (c *Cluster) SetHealth(id MachineID, h Health) {
	m := &c.machines[id]
	if m.Health == h {
		return
	}
	wasHealthy := m.Health == Healthy
	m.Health = h
	switch {
	case wasHealthy && h != Healthy:
		c.nFree -= len(m.freeList)
	case !wasHealthy && h == Healthy:
		// Re-pool idle executors that are not running tasks. A failed
		// machine's executors were revoked; they come back fresh.
		c.repool(m)
		c.nFree += len(m.freeList)
		if !c.inHeap[id] {
			c.pushLoad(m)
		}
	}
}

// RecordTaskFailure bumps a machine's recent failure counter and returns
// the new count, letting the health monitor apply its "large quantity of
// tasks failed in a short time" rule.
func (c *Cluster) RecordTaskFailure(id MachineID) int {
	m := &c.machines[id]
	m.recentTaskFailures++
	return m.recentTaskFailures
}

// ResetTaskFailures clears a machine's failure counter (periodic sweep).
func (c *Cluster) ResetTaskFailures(id MachineID) {
	c.machines[id].recentTaskFailures = 0
}

// String summarises the cluster.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{%d machines, %d executors, %d free}",
		len(c.machines), len(c.busyExec), c.nFree)
}
