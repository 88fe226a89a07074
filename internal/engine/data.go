// Package engine is Swift's real execution runtime: it runs DAG jobs on
// actual data — column batches between NewTable (rows in) and Engine.Run
// (rows out) — with executors as goroutines, in-memory Cache Workers
// backing the Local/Remote shuffle paths, per-task channels backing Direct
// Shuffle, and the same controller (package core) that drives the
// simulator making every scheduling and recovery decision. It is the
// engine behind the runnable examples and the swiftsim tool's --engine
// mode; the discrete-event simulator (package simrun) remains the
// substrate for paper-scale experiments.
package engine

import (
	"fmt"
	"math"
	"sync"
)

// Value is one boxed cell: what rows hold at the engine's two edges and
// what a batch's TAny lane holds inside; comparisons follow Compare.
type Value interface{}

// Row is one record.
type Row []Value

// Schema names the columns of a row stream.
type Schema []string

// Col returns the index of a named column, or -1.
func (s Schema) Col(name string) int {
	for i, c := range s {
		if c == name {
			return i
		}
	}
	return -1
}

// MustCol is Col but panics on unknown names (plan-construction time).
func (s Schema) MustCol(name string) int {
	i := s.Col(name)
	if i < 0 {
		panic(fmt.Sprintf("engine: unknown column %q in %v", name, s))
	}
	return i
}

// Compare orders two values: numerics numerically (int64/float64), strings
// lexicographically, booleans false<true. Mixed numeric kinds compare as
// float64. NULL (nil) is total: it sorts before every non-NULL value and
// NULL == NULL, matching the batch null-bitmap semantics. It panics on
// incomparable non-nil kinds — a plan bug, not runtime data.
func Compare(a, b Value) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		}
		return 1
	}
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			return 0
		case float64:
			return cmpFloat(float64(av), bv)
		}
	case float64:
		switch bv := b.(type) {
		case float64:
			return cmpFloat(av, bv)
		case int64:
			return cmpFloat(av, float64(bv))
		}
	case string:
		if bv, ok := b.(string); ok {
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			return 0
		}
	case bool:
		if bv, ok := b.(bool); ok {
			switch {
			case !av && bv:
				return -1
			case av && !bv:
				return 1
			}
			return 0
		}
	}
	panic(fmt.Sprintf("engine: incomparable values %T and %T", a, b))
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// FNV-1a parameters and per-kind tags. Tags keep values of different kinds
// from trivially colliding; int64 and float64 share the number tag because
// Compare treats them as one numeric domain.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211

	tagNumber = 0x4e
	tagString = 0x53
	tagBool   = 0x42
	tagNull   = 0x30
	tagOther  = 0x3f
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func hashUint64(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (u & 0xff)) * fnvPrime64
		u >>= 8
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// hashValue folds one key value into h. NULL hashes by its own tag, so nil
// keys co-partition with the batch null bitmap's hashing.
func hashValue(h uint64, v Value) uint64 {
	switch x := v.(type) {
	case int64:
		return hashUint64(hashByte(h, tagNumber), uint64(x))
	case float64:
		return hashFloatValue(h, x)
	case string:
		return hashString(hashByte(h, tagString), x)
	case bool:
		h = hashByte(h, tagBool)
		if x {
			return hashByte(h, 1)
		}
		return hashByte(h, 0)
	case nil:
		return hashByte(h, tagNull)
	default:
		return hashString(hashByte(h, tagOther), fmt.Sprintf("%v", v))
	}
}

// hashFloatValue is the numeric folding: integral floats in int64 range
// hash as that integer, so 1.0 and int64(1) collide on purpose. The bounds
// are exact float64 values (±2^63); NaN/±Inf fail the Trunc test into the
// raw-bits path.
func hashFloatValue(h uint64, v float64) uint64 {
	h = hashByte(h, tagNumber)
	if v == math.Trunc(v) && v >= -9223372036854775808 && v < 9223372036854775808 {
		return hashUint64(h, uint64(int64(v)))
	}
	return hashUint64(h, math.Float64bits(v))
}

// Table is a named, partitioned dataset registered with the engine;
// partition i feeds scan task i.
type Table struct {
	Name       string
	Schema     Schema
	Partitions [][]Row

	// batches lazily caches the columnar view of each partition, built on
	// first PartitionBatch call, so batch scans convert a partition once
	// per table lifetime instead of once per task attempt.
	batchMu sync.Mutex
	batches []*Batch
}

// PartitionBatch returns the columnar view of partition i (cached; callers
// must treat it as immutable). A partition with no rows — past the end, for
// a scan stage wider than the table, or simply empty — is a zero-row batch
// with one column per schema entry, so a scan plan's typed reads
// (b.Cols[k].Strs) see empty vectors.
func (t *Table) PartitionBatch(i int) *Batch {
	if i < 0 || i >= len(t.Partitions) || len(t.Partitions[i]) == 0 {
		return &Batch{Cols: make([]Column, len(t.Schema))}
	}
	t.batchMu.Lock()
	defer t.batchMu.Unlock()
	if t.batches == nil {
		t.batches = make([]*Batch, len(t.Partitions))
	}
	if t.batches[i] == nil {
		t.batches[i] = BatchFromRows(t.Partitions[i])
	}
	return t.batches[i]
}

// NewTable partitions rows round-robin into parts partitions.
func NewTable(name string, schema Schema, rows []Row, parts int) *Table {
	if parts < 1 {
		parts = 1
	}
	t := &Table{Name: name, Schema: schema, Partitions: make([][]Row, parts)}
	for i, r := range rows {
		p := i % parts
		t.Partitions[p] = append(t.Partitions[p], r)
	}
	return t
}

// NumRows counts all rows.
func (t *Table) NumRows() int {
	n := 0
	for _, p := range t.Partitions {
		n += len(p)
	}
	return n
}
