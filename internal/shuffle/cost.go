package shuffle

import (
	"swift/internal/cluster"
	"swift/internal/dag"
)

// CostInput describes one shuffle edge for the cost model.
type CostInput struct {
	M, N             int   // producer / consumer task counts
	ProducerMachines int   // machines hosting producers (Y on the write side)
	ConsumerMachines int   // machines hosting consumers
	Bytes            int64 // total shuffle volume
	ClusterMachines  int   // machines in the whole cluster
	Model            *cluster.Model
	// Replicas is the replication factor R for cache-backed modes; values
	// ≤ 1 add no cost. Each extra copy pays a network transfer plus one
	// memory copy on the write side (Breakdown.Replicate).
	Replicas int
}

// Breakdown itemises the cost of performing one shuffle in one mode.
// Setup, Transfer, Copy and Disk components are in seconds; a stage's
// shuffle-write cost is Write(), its consumer's shuffle-read cost is Read().
type Breakdown struct {
	Mode        Mode
	Conns       int     // total TCP connections established
	RetransRate float64 // modeled retransmission rate
	Setup       float64 // connection-establishment time on the critical task
	Transfer    float64 // network transfer incl. retransmission slowdown
	Copy        float64 // additional memory copies vs Direct
	DiskWrite   float64 // file-based shuffle only
	DiskRead    float64 // file-based shuffle only
	// Replicate is the extra write-side cost of the R−1 replica copies.
	Replicate float64
}

// Total returns the full end-to-end shuffle time.
func (b Breakdown) Total() float64 {
	return b.Setup + b.Transfer + b.Copy + b.DiskWrite + b.DiskRead + b.Replicate
}

// Write returns the producer-side portion (shuffle-write phase in Fig. 9b):
// half of the copies, disk write for file-based modes, and replica fan-out.
func (b Breakdown) Write() float64 {
	return b.Copy/2 + b.DiskWrite + b.Transfer/2 + b.Replicate
}

// Read returns the consumer-side portion (shuffle-read phase): setup,
// the other transfer half, remaining copies, and disk reads (file-based
// shuffle).
func (b Breakdown) Read() float64 {
	return b.Setup + b.Copy/2 + b.DiskRead + b.Transfer/2
}

// Cost models one shuffle in the given mode. The model follows Section
// III-B and the Fig. 12 discussion:
//
//   - connection setup: each task establishes its per-task connections with
//     bounded parallelism at a latency that grows with cluster congestion
//     ("establishing a TCP connection would take hundreds of milliseconds
//     in a congested network");
//   - retransmission: Direct's rate grows with the connection count up to
//     the measured 3%, Cache-Worker modes stay at the measured <0.02%;
//   - incast: the per-machine inbound stream count degrades effective
//     bandwidth ("the TCP incast problem"), saturating at MaxIncast;
//   - copies: Local adds two memory copies, Remote one;
//   - Disk mode pays a write and a read pass through the shuffle disks.
func Cost(mode Mode, in CostInput) Breakdown {
	if in.M <= 0 || in.N <= 0 {
		return Breakdown{Mode: mode}
	}
	m := in.Model
	if m == nil {
		m = cluster.DefaultModel()
	}
	py := in.ProducerMachines
	cy := in.ConsumerMachines
	if py <= 0 {
		py = 1
	}
	if cy <= 0 {
		cy = 1
	}
	y := py
	if cy > y {
		y = cy
	}

	b := Breakdown{Mode: mode}
	b.Conns = Connections(mode, in.M, in.N, y)

	congestion := m.Congestion(b.Conns, in.ClusterMachines)
	prodConns, consConns := PerTaskConns(mode, in.M, in.N, y)

	// Machine-local connections (task to its own Cache Worker) skip the
	// network and establish at base latency regardless of congestion.
	switch mode {
	case Local:
		b.Setup = m.ConnSetupBase * 2
	case Disk:
		b.Setup = m.ConnSetupTime(consConns, congestion)
	default:
		ps := m.ConnSetupTime(prodConns, congestion)
		cs := m.ConnSetupTime(consConns, congestion)
		if cs > ps {
			ps = cs
		}
		b.Setup = ps
	}

	// Retransmission.
	switch mode {
	case Direct:
		b.RetransRate = m.RetransRate(b.Conns)
	default:
		b.RetransRate = m.CachedRetransRate
	}

	// Incast at Cache Worker hotspots: a Remote-mode Cache Worker serves
	// all N consumers concurrently; the Local mesh fans in from at most
	// the producer-side machine count; Direct's many short flows show up
	// in the retransmission term instead (the paper's 3% measurement).
	var streams float64
	switch mode {
	case Remote:
		streams = float64(in.N)
	case Local:
		streams = float64(py)
	case Disk:
		streams = float64(in.N) / float64(cy) * float64(min(in.M, py))
	case Direct:
		// many short flows: costed through the retransmission term above
	}
	incast := 1 + streams/m.IncastStreamCapacity
	if incast > m.MaxIncastFactor {
		incast = m.MaxIncastFactor
	}
	if mode == Local {
		incast *= m.LocalHopFactor // extra store-and-forward hop
	}

	transferMachines := py
	if cy < py {
		transferMachines = cy // the narrower side bottlenecks
	}
	b.Transfer = m.NetTransferTime(in.Bytes, transferMachines) * incast * m.RetransSlowdown(b.RetransRate)
	b.Copy = m.MemCopyTime(in.Bytes, y, ExtraCopies(mode))
	if mode == Disk {
		// File-based shuffle writes M×N block files; seek overhead
		// grows with the block count (Riffle's small-file problem).
		seek := m.DiskSeekFactor(in.M * in.N)
		b.DiskWrite = m.DiskTime(in.Bytes, py) * seek
		b.DiskRead = m.DiskTime(in.Bytes, py) * seek
	}
	if (mode == Local || mode == Remote) && in.Replicas > 1 {
		// Each of the R−1 extra copies pays a transfer plus one memory
		// copy on the write side.
		b.Replicate = float64(in.Replicas-1) *
			(m.NetTransferTime(in.Bytes, py) + m.MemCopyTime(in.Bytes, y, 1))
	}
	return b
}

// StageCost is what one task of a stage costs, in virtual seconds, phase by
// phase (the Fig. 9b decomposition, with the scan apart from the read).
type StageCost struct {
	Launch  float64 // plan delivery and dispatch to a pre-launched executor
	Scan    float64 // table scanning, for stages that read a table
	Read    float64 // shuffle read of every input edge
	Process float64
	Write   float64 // shuffle write of every output edge
}

// Total is the task's cost end to end.
func (c StageCost) Total() float64 { return c.Launch + c.Scan + c.Read + c.Process + c.Write }

// Price is the one task model, which the simulator and the daemon both
// charge: each stage's per-task cost in topological order (dag.Job.TopoIndex)
// under the edge modes the controller chose at admission (core.Controller.EdgeMode),
// on cl, with replicas copies of each cache-backed shuffle. Per-attempt
// effects (process jitter, waits on producers, cold launches) are the caller's.
func Price(job *dag.Job, modes func(job, from, to string) Mode, cl *cluster.Cluster, replicas int) []StageCost {
	m, machines := cl.Model(), cl.NumMachines()
	costs := make([]StageCost, job.NumStages())
	for _, s := range job.Stages() {
		costs[job.TopoIndex(s.Name)] = StageCost{
			Launch:  m.SwiftPlanDelivery + m.TaskDispatch,
			Scan:    m.ScanTime(s.Cost.ScanBytes, s.Tasks),
			Process: s.Cost.ProcessSecondsPerTask,
		}
	}
	for _, e := range job.Edges() {
		from, to := job.Stage(e.From).Tasks, job.Stage(e.To).Tasks
		b := Cost(modes(job.ID, e.From, e.To), CostInput{
			M: from, N: to, ProducerMachines: m.Spread(from, machines), ConsumerMachines: m.Spread(to, machines),
			Bytes: e.Bytes, ClusterMachines: machines, Model: m, Replicas: replicas,
		})
		costs[job.TopoIndex(e.From)].Write += b.Write()
		costs[job.TopoIndex(e.To)].Read += b.Read()
	}
	return costs
}
