package engine

import (
	"fmt"

	"swift/internal/core"
)

// TaskContext is the API a StageFn uses to read its inputs, emit shuffle
// output and deliver sink results — all as column batches; rows exist only
// before NewTable and after Engine.Run. All methods are safe for the single
// task goroutine that owns the context.
type TaskContext struct {
	engine  *Engine
	js      *jobState
	ref     core.TaskRef
	attempt int
	machine int
	abort   chan struct{}
	sink    []Row // buffered sink output, committed on completion
}

// Index returns the task's index within its stage.
func (c *TaskContext) Index() int { return c.ref.Index }

// ConsumerTasks returns the task count of the consumer stage of an
// out-edge, i.e. the partition fan-out.
func (c *TaskContext) ConsumerTasks(to string) int {
	return c.js.job.Stage(to).Tasks
}

// Aborted reports whether this attempt has been cancelled (recovery or
// injected failure).
func (c *TaskContext) Aborted() bool {
	select {
	case <-c.abort:
		return true
	default:
		return false
	}
}

// TablePartitionBatch returns this task's partition of a registered table
// (scan stages) as a cached column batch the caller must not mutate.
func (c *TaskContext) TablePartitionBatch(name string) (*Batch, error) {
	c.engine.mu.Lock()
	t := c.engine.tables[name]
	c.engine.mu.Unlock()
	if t == nil {
		return nil, &AppError{Msg: fmt.Sprintf("table %q does not exist", name)}
	}
	return t.PartitionBatch(c.ref.Index), nil
}

// InputBatch blocks until every producer task of the in-edge from `from`
// has written this task's partition, then returns the partitions
// concatenated in producer-task order as one dense batch — the one copy a
// shuffled row costs — so plans may read its typed vectors directly. It
// returns ErrInjected if the attempt is aborted while waiting.
func (c *TaskContext) InputBatch(from string) (*Batch, error) {
	runs, err := c.InputBatchRuns(from)
	if err != nil {
		return nil, err
	}
	return ConcatBatches(runs), nil
}

// InputBatchRuns is InputBatch preserving the per-producer runs, as the
// producers emitted them (often selection views).
func (c *TaskContext) InputBatchRuns(from string) ([]*Batch, error) {
	producers := c.js.job.Stage(from).Tasks
	runs := make([]*Batch, producers)
	for p := 0; p < producers; p++ {
		key := SegmentKey(c.js.job.ID, from, c.ref.Stage, p, c.ref.Index)
		b, ok := c.engine.store.GetBatch(key, c.Aborted)
		if !ok {
			return nil, ErrInjected
		}
		runs[p] = b
	}
	return runs, nil
}

// EmitBatchPartitioned writes this task's output for the edge to `to`, one
// batch per consumer task, into the local machine's Cache Worker. The store
// keeps each batch as given, so the plan must not mutate it (or what a view
// selects from) afterwards.
func (c *TaskContext) EmitBatchPartitioned(to string, parts []*Batch) error {
	n := c.ConsumerTasks(to)
	if len(parts) != n {
		return fmt.Errorf("engine: %s->%s: %d partitions for %d consumers", c.ref.Stage, to, len(parts), n)
	}
	for i, b := range parts {
		key := SegmentKey(c.js.job.ID, c.ref.Stage, to, c.ref.Index, i)
		if err := c.engine.store.PutBatch(c.js.job.ID, c.machine, key, b); err != nil {
			return err
		}
	}
	return nil
}

// EmitBatchByKey hash-partitions the batch by the key columns across the
// consumer stage's tasks and writes it out (columnar hash, one selection
// view per partition; no column is copied).
func (c *TaskContext) EmitBatchByKey(to string, b *Batch, keys []int) error {
	return c.EmitBatchPartitioned(to, PartitionBatchByKey(b, keys, c.ConsumerTasks(to)))
}

// EmitBatchByRange range-partitions the batch into contiguous consumer
// partitions by sampled bounds — the Terasort layout where reduce i receives
// keys below reduce i+1's.
func (c *TaskContext) EmitBatchByRange(to string, b *Batch, keys []int, bounds []Row) error {
	n := c.ConsumerTasks(to)
	if len(bounds) != n-1 {
		return fmt.Errorf("engine: need %d bounds, got %d", n-1, len(bounds))
	}
	return c.EmitBatchPartitioned(to, PartitionBatchByRange(b, keys, bounds))
}

// BroadcastBatch replicates the batch to every consumer task (small build
// sides).
func (c *TaskContext) BroadcastBatch(to string, b *Batch) error {
	n := c.ConsumerTasks(to)
	parts := make([]*Batch, n)
	for i := range parts {
		parts[i] = b
	}
	return c.EmitBatchPartitioned(to, parts)
}

// SinkBatch buffers a batch for the job's final result set (terminal
// stages), materialising it as the rows Engine.Run returns. The buffer is
// committed atomically when the attempt completes, giving exactly-once sink
// semantics under failure recovery.
func (c *TaskContext) SinkBatch(b *Batch) {
	c.sink = b.AppendRows(c.sink)
}
