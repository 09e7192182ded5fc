package state

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"testing"

	"parblockchain/internal/types"
)

// lockedStore is the pre-sharding KVStore — one global RWMutex over one
// map, defensive copies on write, full sort-and-rehash Hash — kept here
// as the benchmark baseline so the sharded store's speedup stays pinned.
type lockedStore struct {
	mu   sync.RWMutex
	data map[types.Key]versioned
}

func newLockedStore() *lockedStore {
	return &lockedStore{data: make(map[types.Key]versioned)}
}

func (s *lockedStore) Get(key types.Key) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	if !ok {
		return nil, false
	}
	return v.val, true
}

func (s *lockedStore) Put(key types.Key, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.data[key]
	if val == nil {
		delete(s.data, key)
		return
	}
	s.data[key] = versioned{val: append([]byte(nil), val...), ver: prev.ver + 1}
}

func (s *lockedStore) Hash() types.Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var scratch [8]byte
	for _, k := range keys {
		binary.BigEndian.PutUint64(scratch[:], uint64(len(k)))
		h.Write(scratch[:])
		h.Write([]byte(k))
		v := s.data[k]
		binary.BigEndian.PutUint64(scratch[:], uint64(len(v.val)))
		h.Write(scratch[:])
		h.Write(v.val)
	}
	var out types.Hash
	h.Sum(out[:0])
	return out
}

// storeIface abstracts the two implementations for the shared benchmark
// body.
type storeIface interface {
	Get(key types.Key) ([]byte, bool)
	Put(key types.Key, val []byte)
	Hash() types.Hash
}

const benchKeys = 4096

func benchKeyset() []types.Key {
	keys := make([]types.Key, benchKeys)
	for i := range keys {
		keys[i] = types.Key(fmt.Sprintf("account-%06d", i))
	}
	return keys
}

func seedStore(s storeIface, keys []types.Key) {
	for i, k := range keys {
		s.Put(k, []byte(fmt.Sprintf("balance-%d", i)))
	}
}

// benchParallelMixed is the contended hot-path shape: every worker does a
// 90/10 Get/Put mix over a shared keyset, the access pattern of parallel
// transaction execution over a uniform workload.
func benchParallelMixed(b *testing.B, s storeIface) {
	keys := benchKeyset()
	seedStore(s, keys)
	val := []byte("new-balance")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keys[i%benchKeys]
			if i%10 == 9 {
				s.Put(k, val)
			} else {
				s.Get(k)
			}
			i += 13 // decorrelate workers
		}
	})
}

// BenchmarkStoreParallelMixedSharded vs ...SingleLock is the acceptance
// comparison: on >=4 cores the sharded store must deliver >=2x the
// throughput of the single-lock baseline (run with -cpu 4,8).
func BenchmarkStoreParallelMixedSharded(b *testing.B) {
	benchParallelMixed(b, NewKVStore())
}

func BenchmarkStoreParallelMixedSingleLock(b *testing.B) {
	benchParallelMixed(b, newLockedStore())
}

func BenchmarkStoreParallelGetSharded(b *testing.B) {
	s := NewKVStore()
	keys := benchKeyset()
	seedStore(s, keys)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Get(keys[i%benchKeys])
			i += 13
		}
	})
}

func BenchmarkStoreParallelGetSingleLock(b *testing.B) {
	s := newLockedStore()
	keys := benchKeyset()
	seedStore(s, keys)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Get(keys[i%benchKeys])
			i += 13
		}
	})
}

func BenchmarkStorePut(b *testing.B) {
	s := NewKVStore()
	keys := benchKeyset()
	val := []byte("value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keys[i%benchKeys], val)
	}
}

// BenchmarkStoreHash shows the payoff of the incremental digest: O(1) in
// store size for the sharded store vs O(n log n) for the baseline.
func BenchmarkStoreHashSharded(b *testing.B) {
	s := NewKVStore()
	seedStore(s, benchKeyset())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Hash()
	}
}

func BenchmarkStoreHashSingleLock(b *testing.B) {
	s := newLockedStore()
	seedStore(s, benchKeyset())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Hash()
	}
}

func BenchmarkStoreApplyBlock(b *testing.B) {
	s := NewKVStore()
	keys := benchKeyset()
	writes := make([]types.KV, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range writes {
			writes[j] = types.KV{Key: keys[(i*len(writes)+j)%benchKeys], Val: []byte("v")}
		}
		s.Apply(writes)
	}
}

// BenchmarkOverlayGet measures the lock-free read path — one lookup in
// the immutable key index and one load per slot walked — under
// concurrent readers, with the overlay holding a block's worth of
// writes. Run at -cpu 1,2: readers of different keys must not slow each
// other down.
func BenchmarkOverlayGet(b *testing.B) {
	base := NewKVStore()
	keys := benchKeyset()
	seedStore(base, keys)
	sets := make([][]types.Key, 200)
	for i := range sets {
		sets[i] = keys[i : i+1]
	}
	o := NewBlockOverlay(base, declare(sets...))
	for i := 0; i < 200; i++ {
		o.Record(i, []types.KV{{Key: keys[i], Val: []byte("overlaid")}})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			o.Get(keys[i%400]) // half overlay hits, half base fall-through
			i++
		}
	})
}

// BenchmarkOverlayRecord measures the commit path: one iteration builds
// a 200-transaction block's overlay from its declared write sets, records
// every result and takes Final. Record itself allocates nothing, so
// B/op is the overlay's construction plus Final's batch.
func BenchmarkOverlayRecord(b *testing.B) {
	base := NewKVStore()
	keys := benchKeyset()
	sets := make([][]types.Key, 200)
	writes := make([][]types.KV, 200)
	for j := range sets {
		sets[j] = keys[j : j+1]
		writes[j] = []types.KV{{Key: keys[j], Val: []byte("v")}}
	}
	txns := declare(sets...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewBlockOverlay(base, txns)
		for j := range writes {
			o.Record(j, writes[j])
		}
		o.Final()
	}
}
