package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"parblockchain/internal/types"
)

// randomBatches draws batches over a small key pool, so keys repeat
// within and across batches, with nil deletes and empty (live) values
// mixed in.
func randomBatches(rng *rand.Rand) ([][]types.KV, []types.Key) {
	pool := make([]types.Key, 1+rng.Intn(200))
	for i := range pool {
		pool[i] = types.Key(fmt.Sprintf("app%d/acct-%d", i%3, i))
	}
	batches := make([][]types.KV, 1+rng.Intn(4))
	for b := range batches {
		batch := make([]types.KV, rng.Intn(400))
		for i := range batch {
			batch[i].Key = pool[rng.Intn(len(pool))]
			switch r := rng.Intn(10); {
			case r == 0:
				// nil: a delete
			case r == 1:
				batch[i].Val = []byte{}
			default:
				batch[i].Val = []byte(fmt.Sprintf("v%d", rng.Int63()))
			}
		}
		batches[b] = batch
	}
	return batches, pool
}

// TestLoadMatchesApply: the bulk loader builds the store NewKVStore plus
// one Apply per batch builds — the same hash, record count, and value and
// version for every key — across seeded batches with duplicate keys,
// deletes and empty values.
func TestLoadMatchesApply(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		batches, pool := randomBatches(rand.New(rand.NewSource(seed)))
		want := NewKVStore()
		for _, batch := range batches {
			want.Apply(batch)
		}
		got := Load(batches...)
		if got.Hash() != want.Hash() || got.Len() != want.Len() {
			t.Fatalf("seed %d: Load hash/len %x/%d, Apply %x/%d",
				seed, got.Hash(), got.Len(), want.Hash(), want.Len())
		}
		if got.Hash() != got.rehash() {
			t.Fatalf("seed %d: Load's shard digests disagree with its records", seed)
		}
		for _, key := range pool {
			gv, gver, gok := got.GetVersion(key)
			wv, wver, wok := want.GetVersion(key)
			if gok != wok || gver != wver || !bytes.Equal(gv, wv) || (gv == nil) != (wv == nil) {
				t.Fatalf("seed %d key %s: Load (%q, v%d, %v), Apply (%q, v%d, %v)",
					seed, key, gv, gver, gok, wv, wver, wok)
			}
		}
	}
	if empty := Load(); empty.Hash() != NewKVStore().Hash() || empty.Len() != 0 {
		t.Fatal("Load of nothing must be the empty store")
	}
}

// TestAdoptSwapsAtomically: Adopt installs the source's records and hash
// unchanged, leaves the source holding the replaced contents, and a
// reader polling Hash while stores are swapped sees only a whole state.
func TestAdoptSwapsAtomically(t *testing.T) {
	a, _ := randomBatches(rand.New(rand.NewSource(1)))
	b, _ := randomBatches(rand.New(rand.NewSource(2)))
	live, other := Load(a...), Load(b...)
	hashA, hashB := live.Hash(), other.Hash()
	lenB := other.Len()
	if hashA == hashB {
		t.Fatal("seeds must give different states")
	}
	live.Adopt(other)
	if live.Hash() != hashB || live.Len() != lenB || live.rehash() != hashB {
		t.Fatal("Adopt did not install the source's state")
	}
	if other.Hash() != hashA || other.rehash() != hashA {
		t.Fatal("Adopt must leave the source holding the replaced state")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if h := live.Hash(); h != hashA && h != hashB {
					t.Errorf("reader saw %x, neither whole state", h)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		live.Adopt(other)
	}
	stop.Store(true)
	wg.Wait()
}
