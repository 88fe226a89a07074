package rpc

import "swift/internal/engine"

// Column codec entry points for the wire: segment payloads travel in the
// engine's length-prefixed typed-vector encoding (engine/batch_codec.go),
// carried as the opaque Batch bytes of a PutRequest/GetResponse (wire.go) —
// no interface registration, no per-cell reflection, and the same byte
// count the Store accounts via EncodedBatchSize. FuzzBatchCodec hammers
// this boundary.

// EncodeBatch encodes a batch for transfer, dictionary-encoding
// low-cardinality string columns first (a no-op for batches the Store
// already dictified).
func EncodeBatch(b *engine.Batch) []byte { return engine.EncodeBatch(engine.DictifyBatch(b)) }

// DecodeBatch decodes a transferred batch, erroring (never panicking) on
// truncated or corrupt input.
func DecodeBatch(data []byte) (*engine.Batch, error) { return engine.DecodeBatch(data) }
