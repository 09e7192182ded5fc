package execution

import (
	"fmt"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/ledger"
	"parblockchain/internal/state"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// The delayed-vote speculation harness: four executors, two applications
// with two agents each (appA on e1/e2, appB on e3/e4), one tau for both,
// and the COMMIT multicasts of e2 and e4 delayed — so at tau=2, for every
// transaction the first vote arrives quickly while the quorum waits out
// the slow voter. The workload is a cross-application dependency chain
// (consecutive transactions alternate applications and append to one hot
// key), so a stall-for-quorum executor would serialize exec-after-quorum
// on each link: an agent could not even *execute* a transaction until
// the slow vote for its foreign predecessor lands. Speculation executes
// at the first vote and only the (buffered) vote release waits for the
// quorum, taking the contract service time off the vote-bound critical
// path. At tau=1 the first vote is the quorum: the same chain with
// nothing to wait for.
type specBenchRig struct {
	net     *transport.InMemNetwork
	execs   []*Executor
	orderer transport.Endpoint
	ids     []types.NodeID
	commits chan struct{}
	prev    types.Hash
	next    uint64
}

func newSpecBenchRig(b *testing.B, tau int, voteDelay, execCost time.Duration) *specBenchRig {
	b.Helper()
	r := &specBenchRig{
		ids:     []types.NodeID{"e1", "e2", "e3", "e4"},
		commits: make(chan struct{}, 64),
	}
	slow := map[types.NodeID]bool{"e2": true, "e4": true}
	r.net = transport.NewInMemNetwork(transport.InMemConfig{
		ExtraLatency: func(from, _ types.NodeID, payload any) time.Duration {
			if _, ok := payload.(*types.CommitMsg); ok && slow[from] {
				return voteDelay
			}
			return 0
		},
	})
	r.orderer, _ = r.net.Endpoint("o1")
	agents := map[types.AppID][]types.NodeID{
		"appA": {"e1", "e2"},
		"appB": {"e3", "e4"},
	}
	app := contract.WithCost(contract.NewKV(), contract.CostModel{Cost: execCost})
	for _, id := range r.ids {
		ep, _ := r.net.Endpoint(id)
		registry := contract.NewRegistry()
		for appID, ag := range agents {
			for _, a := range ag {
				if a == id {
					registry.Install(appID, app)
				}
			}
		}
		store := state.NewKVStore()
		cfg := Config{
			ID:            id,
			Endpoint:      ep,
			Registry:      registry,
			AgentsOf:      agents,
			Tau:           map[types.AppID]int{"appA": tau, "appB": tau},
			OrderQuorum:   1,
			Executors:     r.ids,
			Store:         store,
			Ledger:        ledger.New(),
			Workers:       8,
			PipelineDepth: 4,
			Signer:        cryptoutil.NoopSigner{NodeID: string(id)},
			Verifier:      cryptoutil.NoopVerifier{},
			Logf:          func(string, ...any) {},
		}
		if id == "e1" {
			cfg.OnCommit = func(*types.Block, []types.TxResult) { r.commits <- struct{}{} }
		}
		exec := New(cfg)
		exec.Start()
		r.execs = append(r.execs, exec)
	}
	b.Cleanup(func() {
		for _, e := range r.execs {
			e.Stop()
		}
		r.net.Close()
	})
	return r
}

// crossAppChainBlock builds one block whose transactions alternate
// between appA and appB while appending to one shared hot key: a pure
// cross-application dependency chain, the workload whose critical path is
// the tau-quorum wait.
func crossAppChainBlock(blockNum, n int) []*types.Transaction {
	txns := make([]*types.Transaction, n)
	for i := range txns {
		app := types.AppID("appA")
		if i%2 == 1 {
			app = "appB"
		}
		tx := &types.Transaction{
			App: app, Client: "c1", ClientTS: uint64(blockNum*n + i + 1),
			Op: contract.AppendOp("hot", "x"),
		}
		tx.ID = types.TxID(fmt.Sprintf("sp-%d-%d", blockNum, i))
		txns[i] = tx
	}
	return txns
}

// runBlocks streams the blocks to every executor and waits for e1 to
// finalize all of them.
func (r *specBenchRig) runBlocks(b *testing.B, blocks [][]*types.Transaction) {
	for _, txns := range blocks {
		block := types.NewBlock(r.next, r.prev, txns)
		r.next++
		r.prev = block.Hash()
		sets := make([]depgraph.RWSet, len(txns))
		for i, tx := range txns {
			sets[i] = depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
			sets[i].Normalize()
		}
		msg := &types.NewBlockMsg{
			Block:   block,
			Graph:   depgraph.Build(sets),
			Apps:    block.Apps(),
			Orderer: "o1",
		}
		for _, id := range r.ids {
			if err := r.orderer.Send(id, msg); err != nil {
				b.Fatal(err)
			}
		}
	}
	for range blocks {
		<-r.commits
	}
}

// BenchmarkExecutorSpeculation measures the speculative commit-wait
// bypass on the delayed-vote harness: a cross-application dependency
// chain under a 2ms slow-voter delay and a 500us contract service time.
// At tau=2 each chain link's execution overlaps the slow vote round-trip;
// tau=1 is the same chain with the quorum wait gone, so the delta between
// the rows is what the quorum still costs under speculation. The
// spec-hits/block metric counts validated speculations (0 at tau=1;
// misses/reexecs stay 0: all voters are honest, only slow).
func BenchmarkExecutorSpeculation(b *testing.B) {
	const (
		blockTxns     = 12
		blocksPerIter = 2
		voteDelay     = 2 * time.Millisecond
		execCost      = 500 * time.Microsecond
	)
	for _, tau := range []int{1, 2} {
		b.Run(fmt.Sprintf("tau=%d", tau), func(b *testing.B) {
			r := newSpecBenchRig(b, tau, voteDelay, execCost)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blocks := make([][]*types.Transaction, blocksPerIter)
				for j := range blocks {
					blocks[j] = crossAppChainBlock(i*blocksPerIter+j, blockTxns)
				}
				r.runBlocks(b, blocks)
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*blocksPerIter*blockTxns)/secs, "tx/s")
			}
			var hits, misses, reexecs uint64
			for _, e := range r.execs {
				st := e.Stats()
				hits += st.SpecHits
				misses += st.SpecMisses
				reexecs += st.SpecReexecs
			}
			if blocksDone := b.N * blocksPerIter; blocksDone > 0 {
				b.ReportMetric(float64(hits)/float64(blocksDone), "spec-hits/block")
				b.ReportMetric(float64(misses)/float64(blocksDone), "spec-misses/block")
				b.ReportMetric(float64(reexecs)/float64(blocksDone), "spec-reexecs/block")
			}
		})
	}
}
