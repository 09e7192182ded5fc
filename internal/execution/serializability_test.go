package execution

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// This file property-tests the core claim of the OXII paradigm: any
// schedule the dependency-graph scheduler admits is equivalent to the
// sequential execution of the block ("as long as the transactions are
// executed in an order consistent with the dependency graph, the results
// are valid", Section III-A).
//
// Random blocks of read-modify-write transactions over a small key space
// execute on the real executor (parallel workers, real scheduler); the
// final state must equal a simple sequential interpreter's.

// seqExecute is the reference interpreter: strictly sequential block
// execution.
func seqExecute(genesis []types.KV, txns []*types.Transaction) map[types.Key][]byte {
	store := state.NewKVStore()
	store.Apply(genesis)
	registry := contract.NewRegistry()
	registry.Install("app1", contract.NewKV())
	overlay := state.NewBlockOverlay(store, txns)
	for i, tx := range txns {
		writes, err := registry.Execute(tx.App, overlay, tx.Op)
		if err == nil {
			overlay.Record(i, writes)
		}
	}
	store.Apply(overlay.Final())
	return store.Snapshot()
}

// randomBlock builds transactions that append their index to random keys,
// so any reordering of conflicting transactions changes some final value.
func randomBlock(rng *rand.Rand, n, keys int) []*types.Transaction {
	txns := make([]*types.Transaction, n)
	for i := range txns {
		key := fmt.Sprintf("k%d", rng.Intn(keys))
		tx := &types.Transaction{
			App:      "app1",
			Client:   "c1",
			ClientTS: uint64(i + 1),
			Op:       contract.AppendOp(key, fmt.Sprintf("|%d", i)),
		}
		tx.ID = types.TxID(fmt.Sprintf("t%d", i))
		txns[i] = tx
	}
	return txns
}

// TestPropertySchedulerSerializable runs many random contended blocks
// through the real executor and compares against the sequential
// reference.
func TestPropertySchedulerSerializable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(40)
		keys := 1 + rng.Intn(6) // few keys: heavy contention
		txns := randomBlock(rng, n, keys)
		want := seqExecute(nil, txns)

		h := newHarness(t, func(cfg *Config) {
			cfg.Workers = 1 + rng.Intn(7) // vary parallelism
		})
		h.sendBlock(txns)
		h.awaitCommit(10 * time.Second)
		got := h.store.Snapshot()

		if len(got) != len(want) {
			t.Fatalf("trial %d: key count %d != %d", trial, len(got), len(want))
		}
		for k, v := range want {
			if string(got[k]) != string(v) {
				t.Fatalf("trial %d (n=%d keys=%d): key %s = %q, want %q",
					trial, n, keys, k, got[k], v)
			}
		}
		// The harness registers cleanup per trial; stop it eagerly to
		// bound goroutine growth across trials.
		h.exec.Stop()
		h.net.Close()
	}
}

// TestPropertyMultiBlockSerializable extends the property across several
// chained blocks, where later blocks read earlier blocks' committed
// state.
func TestPropertyMultiBlockSerializable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		blocks := make([][]*types.Transaction, 3)
		ts := 0
		var all []*types.Transaction
		for b := range blocks {
			n := 5 + rng.Intn(15)
			blocks[b] = make([]*types.Transaction, n)
			for i := range blocks[b] {
				ts++
				key := fmt.Sprintf("k%d", rng.Intn(4))
				tx := &types.Transaction{
					App:      "app1",
					Client:   "c1",
					ClientTS: uint64(ts),
					Op:       contract.AppendOp(key, fmt.Sprintf("|%d", ts)),
				}
				tx.ID = types.TxID(fmt.Sprintf("t%d", ts))
				blocks[b][i] = tx
				all = append(all, tx)
			}
		}
		want := seqExecute(nil, all)

		h := newHarness(t, nil)
		for _, block := range blocks {
			h.sendBlock(block)
		}
		for range blocks {
			h.awaitCommit(10 * time.Second)
		}
		got := h.store.Snapshot()
		for k, v := range want {
			if string(got[k]) != string(v) {
				t.Fatalf("trial %d: key %s = %q, want %q", trial, k, got[k], v)
			}
		}
		h.exec.Stop()
		h.net.Close()
	}
}
