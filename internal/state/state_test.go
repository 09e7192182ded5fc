package state

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"parblockchain/internal/types"
)

func TestKVStoreBasics(t *testing.T) {
	s := NewKVStore()
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key should not exist")
	}
	if s.Version("missing") != 0 {
		t.Fatal("missing key version should be 0")
	}
	s.Put("k", []byte("v1"))
	val, ver, ok := s.GetVersion("k")
	if !ok || string(val) != "v1" || ver != 1 {
		t.Fatalf("GetVersion = %q %d %v", val, ver, ok)
	}
	s.Put("k", []byte("v2"))
	if s.Version("k") != 2 {
		t.Fatalf("version after rewrite = %d, want 2", s.Version("k"))
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestKVStoreDeleteViaNil(t *testing.T) {
	s := NewKVStore()
	s.Put("k", []byte("v"))
	s.Apply([]types.KV{{Key: "k", Val: nil}})
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil value must delete")
	}
	if s.Len() != 0 {
		t.Fatal("store should be empty")
	}
}

func TestKVStoreApplyBumpsEachVersion(t *testing.T) {
	s := NewKVStore()
	s.Apply([]types.KV{
		{Key: "a", Val: []byte("1")},
		{Key: "b", Val: []byte("2")},
	})
	s.Apply([]types.KV{{Key: "a", Val: []byte("3")}})
	if s.Version("a") != 2 || s.Version("b") != 1 {
		t.Fatalf("versions = %d %d, want 2 1", s.Version("a"), s.Version("b"))
	}
}

// TestKVStoreOwnershipTransfer pins the zero-copy contract: Put takes
// ownership of the value slice (no defensive copy), and Get returns the
// stored slice itself. Callers must not mutate in either direction.
func TestKVStoreOwnershipTransfer(t *testing.T) {
	s := NewKVStore()
	buf := []byte("abc")
	s.Put("k", buf)
	val, _ := s.Get("k")
	if &val[0] != &buf[0] {
		t.Fatal("Put must retain the caller's slice and Get must return it (zero-copy)")
	}
}

func TestKVStoreHashIsOrderInsensitiveAndContentSensitive(t *testing.T) {
	a, b := NewKVStore(), NewKVStore()
	a.Put("x", []byte("1"))
	a.Put("y", []byte("2"))
	b.Put("y", []byte("2"))
	b.Put("x", []byte("1"))
	if a.Hash() != b.Hash() {
		t.Fatal("insertion order must not affect the hash")
	}
	b.Put("x", []byte("9"))
	if a.Hash() == b.Hash() {
		t.Fatal("content must affect the hash")
	}
}

// TestKVStoreSnapshotSharesValues pins Snapshot's side of the zero-copy
// contract: the returned map is a fresh container, but the value slices
// are shared with the store and read-only for the caller.
func TestKVStoreSnapshotSharesValues(t *testing.T) {
	s := NewKVStore()
	v := []byte("v")
	s.Put("k", v)
	snap := s.Snapshot()
	if len(snap) != 1 || &snap["k"][0] != &v[0] {
		t.Fatal("snapshot values must be shared with the store (zero-copy)")
	}
	// The container itself must be detached: mutating it must not affect
	// the store.
	delete(snap, "k")
	if _, ok := s.Get("k"); !ok {
		t.Fatal("snapshot map must be a copy of the key set")
	}
}

// TestKVStoreIncrementalHashMatchesRehash drives the store through
// overwrite and delete cycles and checks the incrementally maintained
// digest never drifts from a from-scratch recompute.
func TestKVStoreIncrementalHashMatchesRehash(t *testing.T) {
	s := NewKVStore()
	for i := 0; i < 200; i++ {
		key := types.Key(fmt.Sprintf("k%d", i%17))
		switch i % 5 {
		case 4:
			s.Put(key, nil) // delete
		default:
			s.Put(key, []byte(fmt.Sprintf("v%d", i)))
		}
		if s.Hash() != s.rehash() {
			t.Fatalf("incremental hash diverged from recompute at step %d", i)
		}
	}
}

// TestKVStoreHashConvergesAcrossInterleavings applies the same batches to
// two stores in different (per-key-order-preserving) interleavings and
// expects identical hashes, the property replicas rely on.
func TestKVStoreHashConvergesAcrossInterleavings(t *testing.T) {
	batchA := []types.KV{{Key: "a", Val: []byte("1")}, {Key: "b", Val: []byte("2")}}
	batchB := []types.KV{{Key: "c", Val: []byte("3")}, {Key: "d", Val: []byte("4")}}
	x, y := NewKVStore(), NewKVStore()
	x.Apply(batchA)
	x.Apply(batchB)
	y.Apply(batchB)
	y.Apply(batchA)
	if x.Hash() != y.Hash() {
		t.Fatal("hash must depend only on final contents, not batch interleaving")
	}
	// Deleting everything must return both to the empty hash.
	empty := NewKVStore().Hash()
	x.Apply([]types.KV{{Key: "a"}, {Key: "b"}, {Key: "c"}, {Key: "d"}})
	if x.Hash() != empty {
		t.Fatal("deleting all records must restore the empty-store hash")
	}
}

func TestKVStoreConcurrentAccess(t *testing.T) {
	s := NewKVStore()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := types.Key(fmt.Sprintf("k%d", i%13))
				s.Put(key, []byte{byte(w)})
				s.Get(key)
				s.Version(key)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 13 {
		t.Fatalf("Len = %d, want 13", s.Len())
	}
}

func TestOverlayReadThrough(t *testing.T) {
	base := NewKVStore()
	base.Put("a", []byte("base"))
	o := NewBlockOverlay(base, declare([]types.Key{"a"}))
	if v, ok := o.Get("a"); !ok || string(v) != "base" {
		t.Fatal("overlay must read through to base")
	}
	o.Record(0, []types.KV{{Key: "a", Val: []byte("new")}})
	if v, _ := o.Get("a"); string(v) != "new" {
		t.Fatal("overlay write must shadow base")
	}
	if v, _ := base.Get("a"); string(v) != "base" {
		t.Fatal("overlay must not mutate base")
	}
}

func TestOverlayHighestIndexWins(t *testing.T) {
	o := NewBlockOverlay(NewKVStore(), declareAll(8, "k"))
	// Out-of-order commits: tx 5 lands before tx 2.
	o.Record(5, []types.KV{{Key: "k", Val: []byte("five")}})
	o.Record(2, []types.KV{{Key: "k", Val: []byte("two")}})
	if v, _ := o.Get("k"); string(v) != "five" {
		t.Fatalf("overlay = %q, want highest-index write", v)
	}
	o.Record(7, []types.KV{{Key: "k", Val: []byte("seven")}})
	if v, _ := o.Get("k"); string(v) != "seven" {
		t.Fatal("higher index must replace")
	}
	if final := o.Final(); len(final) != 1 || string(final[0].Val) != "seven" {
		t.Fatalf("Final = %v, want k's highest-index write alone", final)
	}
}

func TestOverlayDeletionVisible(t *testing.T) {
	base := NewKVStore()
	base.Put("k", []byte("v"))
	o := NewBlockOverlay(base, declareAll(2, "k"))
	o.Record(1, []types.KV{{Key: "k", Val: nil}})
	if _, ok := o.Get("k"); ok {
		t.Fatal("recorded deletion must hide the base value")
	}
}

// TestOverlayFinalInDeclarationOrder: Final lists the written keys in
// the order the block first declares them, whatever order the results
// landed in, and leaves out declared keys nothing wrote.
func TestOverlayFinalInDeclarationOrder(t *testing.T) {
	o := NewBlockOverlay(NewKVStore(), declare([]types.Key{"z", "a"}, []types.Key{"m", "unwritten", "z"}))
	o.Record(1, []types.KV{{Key: "m", Val: []byte("3")}, {Key: "z", Val: []byte("4")}})
	o.Record(0, []types.KV{{Key: "z", Val: []byte("1")}, {Key: "a", Val: []byte("2")}})
	want := []types.KV{{Key: "z", Val: []byte("4")}, {Key: "a", Val: []byte("2")}, {Key: "m", Val: []byte("3")}}
	if final := o.Final(); !reflect.DeepEqual(final, want) {
		t.Fatalf("Final = %v, want %v", final, want)
	}
}

// TestQuickOverlayEquivalentToSequential: recording writes tagged with
// their index, in any arrival order, must produce the same final state as
// applying them in index order.
func TestQuickOverlayEquivalentToSequential(t *testing.T) {
	f := func(perm []int, vals [][3]byte) bool {
		n := len(vals)
		if n == 0 {
			return true
		}
		// Sequential reference.
		want := make(map[types.Key][]byte)
		for i := 0; i < n; i++ {
			key := types.Key(fmt.Sprintf("k%d", int(vals[i][0])%3))
			want[key] = []byte{vals[i][1]}
		}
		// Overlay with permuted arrival order.
		sets := make([][]types.Key, n)
		for i := range sets {
			sets[i] = []types.Key{types.Key(fmt.Sprintf("k%d", int(vals[i][0])%3))}
		}
		o := NewBlockOverlay(NewKVStore(), declare(sets...))
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i, p := range perm {
			if i < n {
				j := ((p % n) + n) % n
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, idx := range order {
			key := types.Key(fmt.Sprintf("k%d", int(vals[idx][0])%3))
			o.Record(idx, []types.KV{{Key: key, Val: []byte{vals[idx][1]}}})
		}
		// Compare: for each key, the last-index writer must win... which
		// is what the sequential reference computed.
		for k, v := range want {
			got, ok := o.Get(k)
			if !ok || !reflect.DeepEqual(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotShards pins the durability capture contract: the shard
// partition and the hash are taken under one lock, so the hash commits
// to exactly the returned content, and restoring the shards into a
// fresh store reproduces both the records and the hash.
func TestSnapshotShards(t *testing.T) {
	s := NewKVStore()
	for i := 0; i < 500; i++ {
		s.Put(types.Key(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	s.Put("key-3", nil) // delete one so the live set is not trivial
	shards, hash := s.SnapshotShards()
	if hash != s.Hash() {
		t.Fatal("captured hash differs from the live store hash")
	}
	restored := NewKVStore()
	total := 0
	for _, kvs := range shards {
		restored.Apply(kvs)
		total += len(kvs)
	}
	if total != s.Len() {
		t.Fatalf("captured %d records, store holds %d", total, s.Len())
	}
	if restored.Hash() != hash {
		t.Fatal("restored store hash diverged from the captured hash")
	}
	if restored.rehash() != hash {
		t.Fatal("restored incremental hash drifted from content")
	}
}

// TestSnapshotShardsUnderConcurrentWrites hammers SnapshotShards against
// concurrent Apply batches: every capture must be internally consistent
// (hash matches content) even though the store keeps moving.
func TestSnapshotShardsUnderConcurrentWrites(t *testing.T) {
	s := NewKVStore()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Apply([]types.KV{
				{Key: types.Key(fmt.Sprintf("a-%d", i%64)), Val: []byte{byte(i)}},
				{Key: types.Key(fmt.Sprintf("b-%d", i%64)), Val: []byte{byte(i >> 8)}},
			})
		}
	}()
	for i := 0; i < 200; i++ {
		shards, hash := s.SnapshotShards()
		restored := NewKVStore()
		for _, kvs := range shards {
			restored.Apply(kvs)
		}
		if restored.Hash() != hash {
			t.Fatal("capture not internally consistent under concurrent writes")
		}
	}
	close(stop)
	wg.Wait()
}
