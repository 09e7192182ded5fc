package execution

import (
	"fmt"
	"testing"

	"parblockchain/internal/types"
)

// TestSchedulerEquivalence is the dispatch-order admission gate (a named
// -race CI step): a ready queue may reorder only the ready set, so at
// pipeline depths {1,4} × contentions {0,0.4,1.0}, every dispatch
// order's final state hash and ledger chain must be bit-identical to the
// sequential baseline — single-executor pipelined intake (tau=1, nothing
// to speculate on), and a three-executor fleet (cross-app conflict
// chains, tau=2) speculating on every foreign first vote.
func TestSchedulerEquivalence(t *testing.T) {
	const (
		numBlocks = 6
		blockTxns = 24
	)
	for _, contention := range []float64{0, 0.4, 1.0} {
		contention := contention
		t.Run(fmt.Sprintf("contention=%.0f%%", contention*100), func(t *testing.T) {
			seed := int64(11000 + int(contention*100))
			blocks, genesis := tracedBlocksOpt(seed, contention, true, numBlocks, blockTxns)
			wantHash, _ := refResults(genesis, blocks)

			for _, depth := range []int{1, 4} {
				var wantChain types.Hash
				for _, sched := range allSchedulers {
					name := fmt.Sprintf("depth=%d/%s", depth, sched)
					gotHash, led, _ := runPipelined(t, depth, "", genesis, blocks, withScheduler(sched))
					if gotHash != wantHash {
						t.Fatalf("%s: state hash diverged from sequential baseline", name)
					}
					if err := led.Verify(); err != nil {
						t.Fatalf("%s: ledger chain invalid: %v", name, err)
					}
					if wantChain.IsZero() {
						wantChain = led.LastHash()
					} else if led.LastHash() != wantChain {
						t.Fatalf("%s: ledger chain diverged across dispatch orders", name)
					}
				}

				var wantTip types.Hash
				for _, sched := range allSchedulers {
					name := fmt.Sprintf("depth=%d/%s/tau=2", depth, sched)
					gotHash, gotTip := runSpecNet(t, specNetConfig{
						depth: depth, tau: 2, sched: sched,
					}, genesis, blocks)
					if gotHash != wantHash {
						t.Fatalf("%s: state hash diverged from sequential baseline", name)
					}
					if wantTip.IsZero() {
						wantTip = gotTip
					} else if gotTip != wantTip {
						t.Fatalf("%s: ledger chain diverged across dispatch orders", name)
					}
				}
			}
		})
	}
}

// TestSeededDispatchEquivalence makes the swappability of independent
// transactions an executable property: for each seed, a fresh trace of
// cross-application conflict chains runs on a three-executor fleet at
// pipeline depth 4 whose ready queues pop a seeded-random item after a
// seeded delay (seededQueue), at tau 1 (nothing to speculate on) and tau
// 2 (every cross-application hop speculates). The state hash, the ledger
// tip and every committed result must equal the sequential baseline. A
// failure names its seed. -short runs 300 seeds, a full run 1000.
func TestSeededDispatchEquivalence(t *testing.T) {
	const (
		numBlocks = 3
		blockTxns = 12
	)
	seeds := 1000
	if testing.Short() {
		seeds = 300
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		blocks, genesis := tracedBlocksOpt(seed, 0.6, true, numBlocks, blockTxns)
		wantHash, wantResults := refResults(genesis, blocks)
		wantTip := chainTip(blocks)
		for _, tau := range []int{1, 2} {
			name := fmt.Sprintf("seed=%d/tau=%d", seed, tau)
			n := newSpecNet(t, specNetConfig{
				depth: 4, tau: tau,
				sched: dispatchOrder{seeded: true, seed: seed},
			}, genesis)
			n.feedMonolithic(t, blocks)
			n.awaitHeight(t, numBlocks)
			for i, led := range n.leds {
				if got := n.stores[i].Hash(); got != wantHash {
					t.Fatalf("%s: executor %s state hash diverged from the sequential baseline", name, n.ids[i])
				}
				if led.LastHash() != wantTip {
					t.Fatalf("%s: executor %s ledger tip diverged", name, n.ids[i])
				}
				for b := range blocks {
					entry, err := led.Get(uint64(b))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for j, r := range entry.Results {
						if r.Digest() != wantResults[b][j].Digest() {
							t.Fatalf("%s: executor %s block %d tx %d: result diverged", name, n.ids[i], b, j)
						}
					}
				}
			}
			n.stop(t)
		}
	}
}
