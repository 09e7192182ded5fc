package execution

import (
	"fmt"
	"testing"

	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// This file re-runs the equivalence contracts — pipelining and
// speculation — with the executor's state swapped
// for a TieredStore whose hot budget is a small fraction of genesis, so
// most of the working set lives in the cold tier and the clock hand
// evicts continuously while blocks execute. The backend must be
// invisible: state hash, ledger chain, and per-transaction results stay
// bit-identical to the in-memory KVStore and the sequential reference.
// The suite runs under -race in CI (a named gating step).

// tieredTestHotBytes holds only a sliver of the equivalence traces'
// genesis (3 apps x 512 cold accounts plus hot records, ~60KiB of
// entries), forcing eviction on every rig that uses it.
const tieredTestHotBytes = 8 << 10

// newTieredTestStore builds an eviction-forcing tiered store over a
// temp-dir cold tier, seeded with genesis and closed with the test.
func newTieredTestStore(t testing.TB, genesis []types.KV) *state.TieredStore {
	t.Helper()
	ts, err := state.NewTieredStore(state.TieredConfig{HotBytes: tieredTestHotBytes})
	if err != nil {
		t.Fatal(err)
	}
	ts.Apply(genesis)
	t.Cleanup(func() { ts.Close() })
	return ts
}

// requireEvictions fails the test if the run never overflowed the hot
// budget — an equivalence pass that stayed entirely hot would prove
// nothing about the cold tier.
func requireEvictions(t testing.TB, ts *state.TieredStore, name string) {
	t.Helper()
	if st := ts.Stats(); st.Evictions == 0 || st.ColdKeys == 0 {
		t.Fatalf("%s: hot budget never overflowed (stats %+v); the cold tier went unexercised",
			name, st)
	}
}

// TestTieredPipelineEquivalence: the pipelined executor on a tiered
// backend, across contention levels, depths, and schedulers, must match
// the sequential in-memory reference bit for bit while evicting.
func TestTieredPipelineEquivalence(t *testing.T) {
	const (
		numBlocks = 6
		blockTxns = 20
	)
	for _, contention := range []float64{0, 0.4, 1.0} {
		contention := contention
		t.Run(fmt.Sprintf("contention=%.0f%%", contention*100), func(t *testing.T) {
			seed := int64(11000 + int(contention*100))
			blocks, genesis := tracedBlocks(seed, contention, numBlocks, blockTxns)
			wantHash, wantResults := refResults(genesis, blocks)

			for _, sched := range allSchedulers {
				for _, depth := range []int{1, 4} {
					name := fmt.Sprintf("%s/depth=%d", sched, depth)
					ts := newTieredTestStore(t, genesis)
					gotHash, led, finalized := runPipelined(t, depth, "", genesis, blocks,
						withScheduler(sched), func(c *Config) { c.Store = ts })
					if gotHash != wantHash {
						t.Fatalf("%s: tiered state hash diverged from sequential baseline", name)
					}
					if err := led.Verify(); err != nil {
						t.Fatalf("%s: ledger chain invalid: %v", name, err)
					}
					for b, results := range finalized {
						for i := range results {
							if results[i].Digest() != wantResults[b][i].Digest() {
								t.Fatalf("%s block %d tx %d: result diverged on the tiered backend",
									name, b, i)
							}
						}
					}
					requireEvictions(t, ts, name)
				}
			}
		})
	}
}

// TestTieredSpeculationEquivalence: a three-executor fleet speculating
// past the tau quorum, every executor on its own eviction-forcing
// tiered store, converges to the sequential reference.
func TestTieredSpeculationEquivalence(t *testing.T) {
	const (
		numBlocks = 6
		blockTxns = 20
	)
	seed := int64(13000)
	blocks, genesis := tracedBlocksOpt(seed, 0.8, true, numBlocks, blockTxns)
	wantHash, _ := refResults(genesis, blocks)

	n := newSpecNet(t, specNetConfig{
		depth: 4, tau: 2, tiered: true, sched: dispatchOrder{seeded: true, seed: 13},
	}, genesis)
	n.feedMonolithic(t, blocks)
	n.awaitHeight(t, uint64(numBlocks))
	for i, s := range n.stores {
		if got := s.Hash(); got != wantHash {
			t.Fatalf("%s: tiered speculative state hash diverged", n.ids[i])
		}
		requireEvictions(t, s.(*state.TieredStore), string(n.ids[i]))
	}
}
