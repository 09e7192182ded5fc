package state

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"parblockchain/internal/types"
)

// TestKVStoreConcurrentHammer drives the sharded store from many
// goroutines mixing Get, Put, Apply, Hash, Len, and Snapshot — the shapes
// the executor hot path and state-sync produce concurrently. Run under
// -race it checks the striped locking; afterwards it asserts the
// incrementally maintained hash still matches a from-scratch recompute,
// so no interleaving can leak a stale per-shard digest.
func TestKVStoreConcurrentHammer(t *testing.T) {
	s := NewKVStore()
	const (
		workers = 8
		rounds  = 400
		keys    = 61 // spread across all shards
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := types.Key(fmt.Sprintf("k%d", (w*rounds+i)%keys))
				switch i % 6 {
				case 0:
					s.Put(key, []byte(fmt.Sprintf("w%d-%d", w, i)))
				case 1:
					s.Apply([]types.KV{
						{Key: key, Val: []byte{byte(w), byte(i)}},
						{Key: types.Key(fmt.Sprintf("k%d", (i+1)%keys)), Val: []byte{byte(i)}},
					})
				case 2:
					s.Put(key, nil) // delete
				case 3:
					s.Hash()
				case 4:
					s.Get(key)
					s.GetVersion(key)
					s.Version(key)
				case 5:
					s.Len()
					s.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Hash() != s.rehash() {
		t.Fatal("incremental hash drifted from from-scratch recompute after concurrent hammering")
	}
}

// TestOverlayConcurrentHammer exercises the overlay the way the executor
// does: worker goroutines read (lock-free) while the commit path records
// results, with reads of keys both inside and outside the overlay (the
// latter fall through to a concurrently written base store). Every
// recorded value names the index that wrote it, which lets readers check
// the two things per-key publication must still guarantee: an At(bound)
// view never shows a write at or above its bound, and a reader handed
// index i after Record(i) returned — the executor's work-queue hand-off —
// sees all of i's keys.
func TestOverlayConcurrentHammer(t *testing.T) {
	base := NewKVStore()
	const (
		readers = 6
		writes  = 300
	)
	multi := []types.Key{"m0", "m1", "m2"}
	sets := make([][]types.Key, writes)
	for i := range sets {
		sets[i] = append([]types.Key{types.Key(fmt.Sprintf("k%d", i%37))}, multi...)
		if i%20 == 0 {
			sets[i] = append(sets[i], "tomb")
		}
	}
	o := NewBlockOverlay(base, declare(sets...))
	writer := func(val []byte) int {
		idx, err := strconv.Atoi(string(val[1:]))
		if err != nil {
			t.Errorf("unparseable overlay value %q", val)
		}
		return idx
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				o.Get(types.Key(fmt.Sprintf("k%d", i%37)))
				o.Get("missing")
				bound := (i*7 + r) % writes
				for _, key := range []types.Key{types.Key(fmt.Sprintf("k%d", i%37)), multi[i%len(multi)]} {
					if v, ok := o.At(bound).Get(key); ok && writer(v) >= bound {
						t.Errorf("At(%d).Get(%s) = %q, written at or above the bound", bound, key, v)
						return
					}
				}
			}
		}(r)
	}
	// recorded hands each index to the successor after its Record returned.
	// Unbuffered, one receiver: when index i is handed over the successor
	// is done with every earlier one, so the revocations below never pull
	// an index out from under it.
	recorded := make(chan int)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range recorded {
			for _, key := range multi {
				if v, ok := o.At(i + 1).Get(key); !ok || writer(v) != i {
					t.Errorf("successor of %d reads %s = %q,%v: not all of a returned Record's keys are visible", i, key, v, ok)
				}
				if v, ok := o.Get(key); !ok || writer(v) < i {
					t.Errorf("Get(%s) = %q,%v after Record(%d) returned", key, v, ok, i)
				}
			}
		}
	}()
	wg.Add(2)
	go func() { // commit path
		defer wg.Done()
		defer close(recorded)
		for i := 0; i < writes; i++ {
			val := []byte(fmt.Sprintf("v%d", i))
			o.Record(i, []types.KV{{Key: types.Key(fmt.Sprintf("k%d", i%37)), Val: val}})
			if i%20 == 0 {
				o.Record(i, []types.KV{{Key: "tomb", Val: nil}})
			}
			o.Record(i, []types.KV{{Key: multi[0], Val: val}, {Key: multi[1], Val: val}, {Key: multi[2], Val: val}})
			recorded <- i
			if i%9 == 8 {
				// Revoke and re-record an earlier index, as a speculation
				// miss does; bounded views above it must stay consistent.
				o.PurgeIdx(i - 4)
				o.Record(i-4, []types.KV{{Key: multi[1], Val: []byte(fmt.Sprintf("v%d", i-4))}})
			}
		}
	}()
	go func() { // base writer (previous block finalizing)
		defer wg.Done()
		for i := 0; i < writes; i++ {
			base.Put(types.Key(fmt.Sprintf("b%d", i%11)), []byte{byte(i)})
		}
	}()
	// Let readers observe a moving overlay until both writers finish.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	defer func() { <-done }()
	defer close(stop)

	// Meanwhile check convergence properties on the main goroutine.
	final := o.Final()
	for _, kv := range final {
		if kv.Key == "" {
			t.Fatal("empty key leaked into Final")
		}
	}
}
