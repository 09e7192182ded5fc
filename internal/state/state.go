// Package state implements the blockchain state (datastore) maintained by
// executor peers: a versioned key-value store and an overlay view used
// during block execution. The overlay is built per block from the
// transactions' declared write sets, which contract execution and COMMIT
// intake enforce; recording a write outside them panics.
//
// # Ownership contract (zero-copy)
//
// The stores in this package are zero-copy: they neither copy values in on
// write nor copy them out on read. Ownership of a value slice transfers to
// the store on Load/Put/Apply/Write/Record, and every read (Get, GetVersion,
// ReadAsOf, Snapshot) returns the stored slice itself. Record goes one
// step further and retains each recorded KV by pointer, so the write-set
// slice itself must stay untouched too. Consequently:
//
//   - callers must not mutate a slice after handing it to a store, and
//   - callers must treat every returned slice as read-only.
//
// The commit pipeline satisfies this naturally: write sets are either
// freshly allocated by contract execution or freshly decoded from the
// wire, and are never touched again after the commit boundary
// (KVStore.Apply). This removes one allocation + copy per key per write
// from the hot path.
package state

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"parblockchain/internal/types"
)

// Reader is the read-only view a smart contract executes against.
// Returned value slices are shared with the store: treat them as
// immutable (see the package ownership contract).
type Reader interface {
	// Get returns the current value of key and whether it exists.
	Get(key types.Key) ([]byte, bool)
}

// VersionedReader additionally exposes per-key versions, which the XOV
// baseline's endorsement phase records for MVCC validation.
type VersionedReader interface {
	Reader
	// GetVersion returns the value, its version, and whether the key
	// exists. Versions start at 1 on first write and increment on every
	// subsequent write.
	GetVersion(key types.Key) ([]byte, uint64, bool)
}

// shardBits fixes the lock-stripe fan-out of KVStore.
// 32 shards keeps the per-store footprint small while exceeding the worker
// pool sizes used by the executors, so under a uniform key distribution
// two workers rarely contend on the same stripe.
const (
	shardBits  = 5
	shardCount = 1 << shardBits
	shardMask  = shardCount - 1
)

// shardIndex dispatches a key to its stripe with FNV-1a, xor-folded so
// that the high bits participate in the stripe choice. The function is a
// pure function of the key bytes — replicas assign every key to the same
// stripe, which keeps the per-shard digests comparable across nodes.
func shardIndex(key types.Key) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int((h ^ h>>32) & shardMask)
}

// entryDigest hashes one live record with the same length-prefixed framing
// the original full-store hash used. Small records (the common case) are
// framed on the stack and hashed with the allocation-free sha256.Sum256.
func entryDigest(key types.Key, val []byte) [sha256.Size]byte {
	need := 16 + len(key) + len(val)
	var stack [160]byte
	var buf []byte
	if need <= len(stack) {
		buf = stack[:0]
	} else {
		buf = make([]byte, 0, need)
	}
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], uint64(len(key)))
	buf = append(buf, scratch[:]...)
	buf = append(buf, key...)
	binary.BigEndian.PutUint64(scratch[:], uint64(len(val)))
	buf = append(buf, scratch[:]...)
	buf = append(buf, val...)
	return sha256.Sum256(buf)
}

// KVStore is the committed blockchain state: a versioned in-memory
// key-value map, lock-striped across shardCount independent shards so
// that parallel executor workers reading (and the commit path writing)
// disjoint keys never contend on a shared lock.
//
// Each shard maintains a running digest — the XOR of entryDigest over its
// live records. XOR is commutative and self-inverse, so the digest can be
// updated in O(1) per write (fold the old entry out, the new one in) and
// is independent of insertion order; Hash folds the shard digests
// together in O(shardCount) instead of sorting and rehashing the whole
// keyspace.
//
// KVStore is safe for concurrent use and follows the package-level
// zero-copy ownership contract.
type KVStore struct {
	shards [shardCount]kvShard
}

type kvShard struct {
	mu     sync.RWMutex
	data   map[types.Key]versioned
	digest [sha256.Size]byte // XOR of entryDigest over live records
	_      [64]byte          // pad to its own cache lines: shards are hot and adjacent
}

type versioned struct {
	val []byte
	ver uint64
	// dig caches entryDigest(key, val) so an overwrite or delete folds
	// the old entry out of the shard digest without rehashing it: one
	// SHA-256 per write instead of two.
	dig [sha256.Size]byte
}

// NewKVStore returns an empty store.
func NewKVStore() *KVStore {
	s := &KVStore{}
	for i := range s.shards {
		s.shards[i].data = make(map[types.Key]versioned)
	}
	return s
}

func (s *KVStore) shard(key types.Key) *kvShard {
	return &s.shards[shardIndex(key)]
}

// Get returns the current value of key. The returned slice is the stored
// one — read-only for the caller.
func (s *KVStore) Get(key types.Key) ([]byte, bool) {
	sh := s.shard(key)
	sh.mu.RLock()
	v, ok := sh.data[key]
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return v.val, true
}

// GetVersion returns the value and version of key. The returned slice is
// the stored one — read-only for the caller.
func (s *KVStore) GetVersion(key types.Key) ([]byte, uint64, bool) {
	sh := s.shard(key)
	sh.mu.RLock()
	v, ok := sh.data[key]
	sh.mu.RUnlock()
	if !ok {
		return nil, 0, false
	}
	return v.val, v.ver, true
}

// Version returns the current version of key (0 if absent).
func (s *KVStore) Version(key types.Key) uint64 {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.data[key].ver
}

// Put writes one record, bumping its version. Ownership of val transfers
// to the store; the caller must not mutate it afterwards. A nil value
// deletes the record.
func (s *KVStore) Put(key types.Key, val []byte) {
	sh := s.shard(key)
	sh.mu.Lock()
	sh.put(key, val)
	sh.mu.Unlock()
}

// put applies one write under the shard lock, keeping the running digest
// in sync with the map.
func (sh *kvShard) put(key types.Key, val []byte) {
	prev, existed := sh.data[key]
	if existed {
		xorDigest(&sh.digest, prev.dig)
	}
	if val == nil {
		if existed {
			delete(sh.data, key)
		}
		return
	}
	dig := entryDigest(key, val)
	sh.data[key] = versioned{val: val, ver: prev.ver + 1, dig: dig}
	xorDigest(&sh.digest, dig)
}

func xorDigest(acc *[sha256.Size]byte, d [sha256.Size]byte) {
	for i := range acc {
		acc[i] ^= d[i]
	}
}

// Apply writes a batch of records atomically, bumping each version. A nil
// value deletes the record. Ownership of the value slices transfers to
// the store. Atomicity is provided by write-locking every touched shard
// (in ascending order, deadlock-free against the lock-all readers) for
// the duration of the batch.
func (s *KVStore) Apply(writes []types.KV) {
	if len(writes) == 0 {
		return
	}
	var touched [shardCount]bool
	for i := range writes {
		touched[shardIndex(writes[i].Key)] = true
	}
	for i := range s.shards {
		if touched[i] {
			s.shards[i].mu.Lock()
		}
	}
	for _, kv := range writes {
		s.shards[shardIndex(kv.Key)].put(kv.Key, kv.Val)
	}
	for i := range s.shards {
		if touched[i] {
			s.shards[i].mu.Unlock()
		}
	}
}

// Load returns a store holding the given batches of records, exactly as
// NewKVStore followed by Apply of each batch in order would build it:
// the same records, versions and hash. It is the bulk path for genesis
// and snapshot decode: every shard map is sized once, and the shards are
// filled and hashed on at most GOMAXPROCS goroutines. Ownership of the
// value slices transfers to the store, as with Apply.
func Load(batches ...[]types.KV) *KVStore {
	// Bucket the records by shard, keeping their order within a shard
	// (a key always maps to one shard, so per-key order is Apply's).
	var bounds [shardCount + 1]int
	total := 0
	for _, batch := range batches {
		for i := range batch {
			bounds[shardIndex(batch[i].Key)+1]++
		}
		total += len(batch)
	}
	for i := 1; i <= shardCount; i++ {
		bounds[i] += bounds[i-1]
	}
	byShard := make([]*types.KV, total)
	next := bounds
	for _, batch := range batches {
		for i := range batch {
			si := shardIndex(batch[i].Key)
			byShard[next[si]] = &batch[i]
			next[si]++
		}
	}

	s := &KVStore{}
	var claimed atomic.Int32
	fill := func() {
		for {
			i := int(claimed.Add(1)) - 1
			if i >= shardCount {
				return
			}
			sh := &s.shards[i]
			recs := byShard[bounds[i]:bounds[i+1]]
			sh.data = make(map[types.Key]versioned, len(recs))
			for _, kv := range recs {
				sh.put(kv.Key, kv.Val)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), shardCount); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill()
		}()
	}
	fill()
	wg.Wait()
	return s
}

// Adopt replaces the store's contents with src's by moving src's shard
// maps and digests in, without rehashing a record; src is left holding
// the replaced contents. Every shard is write-locked for the swap, so a
// concurrent reader sees the old state or the new one, never a mix or
// an empty store. State sync installs a verified snapshot through it:
// adoption replaces the whole state, it does not merge into it. src must
// not be in concurrent use.
func (s *KVStore) Adopt(src *KVStore) {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	for i := range s.shards {
		dst, from := &s.shards[i], &src.shards[i]
		dst.data, from.data = from.data, dst.data
		dst.digest, from.digest = from.digest, dst.digest
	}
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// rlockAll read-locks every shard in ascending order, giving the caller a
// consistent point-in-time view against Apply's multi-shard write locks.
func (s *KVStore) rlockAll() {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
}

func (s *KVStore) runlockAll() {
	for i := range s.shards {
		s.shards[i].mu.RUnlock()
	}
}

// Len returns the number of live records.
func (s *KVStore) Len() int {
	s.rlockAll()
	defer s.runlockAll()
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].data)
	}
	return n
}

// Hash returns a deterministic digest over the full store contents, used
// by tests and state-sync to compare replicas. It folds the incrementally
// maintained per-shard digests together with the live record count, so
// the cost is O(shardCount) regardless of store size, and the result
// depends only on the set of live (key, value) pairs — replicas applying
// the same writes in any interleaving consistent with the commit order
// produce bit-identical hashes.
//
// The XOR fold makes this digest suitable for detecting divergence among
// honest replicas only: XOR-combined hashes are not collision-resistant
// against an adversary who chooses its own state (Bellare–Micciancio), so
// a Byzantine replica could craft a different state with a matching
// digest. Do not use Hash as a trust anchor across fault domains; the
// BFT-grade commitments in this system are the per-transaction result
// digests checked by Algorithm 3's tau-matching quorum.
func (s *KVStore) Hash() types.Hash {
	var acc [sha256.Size]byte
	var count uint64
	s.rlockAll()
	for i := range s.shards {
		xorDigest(&acc, s.shards[i].digest)
		count += uint64(len(s.shards[i].data))
	}
	s.runlockAll()
	h := sha256.New()
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], count)
	h.Write(scratch[:])
	h.Write(acc[:])
	var out types.Hash
	h.Sum(out[:0])
	return out
}

// rehash recomputes the store hash from scratch, ignoring the maintained
// per-shard digests. Tests use it to assert the incremental digests never
// drift from the map contents.
func (s *KVStore) rehash() types.Hash {
	var acc [sha256.Size]byte
	var count uint64
	s.rlockAll()
	for i := range s.shards {
		for k, v := range s.shards[i].data {
			xorDigest(&acc, entryDigest(k, v.val))
		}
		count += uint64(len(s.shards[i].data))
	}
	s.runlockAll()
	h := sha256.New()
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], count)
	h.Write(scratch[:])
	h.Write(acc[:])
	var out types.Hash
	h.Sum(out[:0])
	return out
}

// Snapshot returns a consistent point-in-time copy of the current
// contents, for tests and state transfer. Per the package ownership
// contract the value slices are shared with the store, not copied —
// treat them as read-only.
func (s *KVStore) Snapshot() map[types.Key][]byte {
	s.rlockAll()
	defer s.runlockAll()
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].data)
	}
	out := make(map[types.Key][]byte, n)
	for i := range s.shards {
		for k, v := range s.shards[i].data {
			out[k] = v.val
		}
	}
	return out
}

// SnapshotShards returns a consistent point-in-time copy of the store
// partitioned by shard, together with the full-store hash of exactly
// that content. Both are captured under one multi-shard read lock, so
// the hash commits to the returned records even when writers are
// concurrent — the pairing the durability subsystem's snapshot writer
// needs. Per the package ownership contract the value slices are shared
// with the store, not copied.
func (s *KVStore) SnapshotShards() ([][]types.KV, types.Hash) {
	var acc [sha256.Size]byte
	var count uint64
	out := make([][]types.KV, shardCount)
	s.rlockAll()
	for i := range s.shards {
		sh := &s.shards[i]
		xorDigest(&acc, sh.digest)
		count += uint64(len(sh.data))
		if len(sh.data) == 0 {
			continue
		}
		kvs := make([]types.KV, 0, len(sh.data))
		for k, v := range sh.data {
			kvs = append(kvs, types.KV{Key: k, Val: v.val})
		}
		out[i] = kvs
	}
	s.runlockAll()
	h := sha256.New()
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], count)
	h.Write(scratch[:])
	h.Write(acc[:])
	var hash types.Hash
	h.Sum(hash[:0])
	return out, hash
}

// Close is a no-op kept for callers that release a recovered store; the
// in-memory store holds no resources.
func (s *KVStore) Close() error { return nil }

var (
	_ Reader          = (*KVStore)(nil)
	_ VersionedReader = (*KVStore)(nil)
)
