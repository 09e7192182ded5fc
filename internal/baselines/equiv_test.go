// Package baselines_test checks cross-paradigm invariants: all three
// systems implement the same replicated state machine, so on a fixed
// committed workload the sequential OX paradigm, the parallel OXII
// paradigm and the endorse-then-validate XOV paradigm must reach
// identical final states — the serializability guarantee the dependency
// graph exists to provide, and the one XOV's MVCC check buys with aborts.
package baselines_test

import (
	"sync"
	"testing"
	"time"

	"parblockchain/internal/baselines/ox"
	"parblockchain/internal/baselines/xov"
	"parblockchain/internal/contract"
	"parblockchain/internal/oxii"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
	"parblockchain/internal/workload"
)

// fixedWorkload returns a deterministic batch of transactions (mixed
// contention) and the genesis covering them.
func fixedWorkload(n int) ([]*types.Transaction, []types.KV) {
	gen := workload.New(workload.Config{
		Apps:               []types.AppID{"app1", "app2", "app3"},
		Contention:         0.4,
		ColdAccountsPerApp: 4096,
		Seed:               1234,
	})
	txns := make([]*types.Transaction, n)
	for i := range txns {
		txns[i] = gen.Next("c1", uint64(i+1))
	}
	return txns, gen.Genesis()
}

// runOXII commits the batch on a ParBlockchain network and returns the
// observer's state hash.
func runOXII(t *testing.T, txns []*types.Transaction, genesis []types.KV) types.Hash {
	t.Helper()
	net := transport.NewInMemNetwork(transport.InMemConfig{
		Latency: transport.ConstantLatency(100 * time.Microsecond),
	})
	defer net.Close()
	nw, err := oxii.New(oxii.Config{
		Orderers:  []types.NodeID{"o1", "o2", "o3"},
		Executors: []types.NodeID{"e1", "e2", "e3"},
		Clients:   []types.NodeID{"c1"},
		Agents: map[types.AppID][]types.NodeID{
			"app1": {"e1"}, "app2": {"e2"}, "app3": {"e3"},
		},
		Contracts: map[types.AppID]contract.Contract{
			"app1": contract.NewAccounting(),
			"app2": contract.NewAccounting(),
			"app3": contract.NewAccounting(),
		},
		MaxBlockTxns:     16,
		MaxBlockInterval: 20 * time.Millisecond,
		Genesis:          genesis,
		Net:              net,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Stop()
	commitAll(t, oxiiDo(t, nw.Client), txns, 8)
	return nw.ObserverStore().Hash()
}

// runOX commits the batch on the sequential baseline and returns the
// observer's state hash.
func runOX(t *testing.T, txns []*types.Transaction, genesis []types.KV) types.Hash {
	t.Helper()
	net := transport.NewInMemNetwork(transport.InMemConfig{
		Latency: transport.ConstantLatency(100 * time.Microsecond),
	})
	defer net.Close()
	nw, err := ox.New(ox.Config{
		Orderers: []types.NodeID{"o1", "o2", "o3"},
		Peers:    []types.NodeID{"p1", "p2", "p3"},
		Clients:  []types.NodeID{"c1"},
		Contracts: map[types.AppID]contract.Contract{
			"app1": contract.NewAccounting(),
			"app2": contract.NewAccounting(),
			"app3": contract.NewAccounting(),
		},
		MaxBlockTxns:     16,
		MaxBlockInterval: 20 * time.Millisecond,
		Genesis:          genesis,
		Net:              net,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Stop()
	commitAll(t, oxiiDo(t, nw.Client), txns, 8)
	return nw.ObserverStore().Hash()
}

// runXOV commits the batch on the execute-order-validate baseline, one
// transaction at a time, and returns the observer's state hash. With
// several in flight, a hot key's MVCC aborts can exhaust a client's
// retries: the paradigm's livelock under contention, not a divergence.
func runXOV(t *testing.T, txns []*types.Transaction, genesis []types.KV) types.Hash {
	t.Helper()
	net := transport.NewInMemNetwork(transport.InMemConfig{
		Latency: transport.ConstantLatency(100 * time.Microsecond),
	})
	defer net.Close()
	nw, err := xov.New(xov.Config{
		Orderers: []types.NodeID{"o1", "o2", "o3"},
		Peers:    []types.NodeID{"p1", "p2", "p3"},
		Clients:  []types.NodeID{"c1"},
		Agents: map[types.AppID][]types.NodeID{
			"app1": {"p1"}, "app2": {"p2"}, "app3": {"p3"},
		},
		Contracts: map[types.AppID]contract.Contract{
			"app1": contract.NewAccounting(),
			"app2": contract.NewAccounting(),
			"app3": contract.NewAccounting(),
		},
		MaxBlockTxns:     16,
		MaxBlockInterval: 20 * time.Millisecond,
		Genesis:          genesis,
		Net:              net,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Stop()
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	commitAll(t, func(tx *types.Transaction) (types.TxResult, error) {
		result, _, err := client.Do(tx, 20*time.Second)
		return result, err
	}, txns, 1)
	return nw.ObserverStore().Hash()
}

// oxiiDo returns the Do of client c1 built by clientOf.
func oxiiDo(t *testing.T, clientOf func(types.NodeID) (*oxii.Client, error)) func(*types.Transaction) (types.TxResult, error) {
	t.Helper()
	client, err := clientOf("c1")
	if err != nil {
		t.Fatal(err)
	}
	return func(tx *types.Transaction) (types.TxResult, error) { return client.Do(tx, 20*time.Second) }
}

// commitAll submits the transactions in batch order with at most
// inflight outstanding and waits for each commit.
func commitAll(t *testing.T, do func(*types.Transaction) (types.TxResult, error),
	txns []*types.Transaction, inflight int) {
	t.Helper()
	var wg sync.WaitGroup
	sem := make(chan struct{}, inflight)
	for _, tx := range txns {
		// Clone: the same transaction objects go to every system, and
		// Finalize mutates them.
		clone := &types.Transaction{
			App:      tx.App,
			Client:   tx.Client,
			ClientTS: tx.ClientTS,
			Op:       tx.Op,
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(tx *types.Transaction) {
			defer wg.Done()
			defer func() { <-sem }()
			if result, err := do(tx); err != nil {
				t.Errorf("Do: %v", err)
			} else if result.Aborted {
				t.Errorf("unexpected abort: %s", result.AbortReason)
			}
		}(clone)
	}
	wg.Wait()
}

// TestParadigmsConverge: the parallel dependency-graph execution and
// XOV's endorse-then-validate flow must both be equivalent to sequential
// execution — identical final state for the same committed set,
// regardless of the order blocks happened to cut. The accounting
// workload's transfers are deterministic in value and every transaction
// commits, so any serial order yields the same final balances and the
// full state hashes must match.
func TestParadigmsConverge(t *testing.T) {
	txns, genesis := fixedWorkload(60)
	hashOX := runOX(t, txns, genesis)
	if runOXII(t, txns, genesis) != hashOX {
		t.Error("OXII (parallel) and OX (sequential) final states diverge")
	}
	if runXOV(t, txns, genesis) != hashOX {
		t.Error("XOV (endorse, order, validate) and OX (sequential) final states diverge")
	}
}
