package state

import "parblockchain/internal/types"

// Backend is the committed-state store an executor runs against. The
// original implementation is the in-memory KVStore; TieredStore keeps a
// byte-budgeted hot cache over a disk-resident cold tier so total state
// can exceed RAM. Every implementation follows the package-level
// zero-copy ownership contract and must produce bit-identical Hash()
// values for the same set of live (key, value) pairs — the equivalence
// the executor's replica-comparison and recovery checks are built on.
type Backend interface {
	VersionedReader
	// Put writes one record (nil value deletes), bumping its version.
	Put(key types.Key, val []byte)
	// Apply atomically writes a batch of records.
	Apply(writes []types.KV)
	// Hash returns the deterministic full-store digest (see KVStore.Hash
	// for the construction and its honest-replica-only caveat).
	Hash() types.Hash
	// Len returns the number of live records across all tiers.
	Len() int
	// Reset discards every record, returning the store to its
	// freshly-constructed state (state sync installs snapshots over it).
	Reset()
	// Snapshot returns a consistent point-in-time copy of the full
	// contents; value slices are shared where the backend holds them in
	// memory and freshly read where it does not.
	Snapshot() map[types.Key][]byte
	// Close releases any resources (files, temp directories) the backend
	// holds. The store must not be used afterwards.
	Close() error
}

// Close implements Backend; the in-memory store holds no resources.
func (s *KVStore) Close() error { return nil }

var _ Backend = (*KVStore)(nil)
