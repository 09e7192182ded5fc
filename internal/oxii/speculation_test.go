package oxii

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/types"
)

// TestSpeculativeNetworkConvergence runs the full crypto-enabled network
// through the speculative commit-wait bypass: every application has two
// agents and tau=2, and concurrent clients drive a cross-application
// dependency chain over one shared hot record, so successors routinely
// depend on foreign predecessors whose quorum is still in flight. Every
// replica must converge to the same state hash and ledger chain, and —
// all agents being honest — not a single speculation may miss.
func TestSpeculativeNetworkConvergence(t *testing.T) {
	nw, _ := testNetwork(t, func(cfg *Config) {
		cfg.Agents = map[types.AppID][]types.NodeID{
			"app1": {"e1", "e2"},
			"app2": {"e2", "e3"},
			"app3": {"e3", "e1"},
		}
		cfg.Tau = map[types.AppID]int{"app1": 2, "app2": 2, "app3": 2}
		cfg.Genesis = append(cfg.Genesis, types.KV{
			Key: "shared/hot", Val: contract.EncodeBalance(1_000_000),
		})
	})
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	apps := []types.AppID{"app1", "app2", "app3"}
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 24; i++ {
		app := apps[i%len(apps)]
		tx := client.Prepare(app, contract.TransferOp("shared/hot", fmt.Sprintf("%s/alice", "app1"), 1))
		wg.Add(1)
		go func(tx *types.Transaction) {
			defer wg.Done()
			result, err := client.Do(tx, 15*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if result.Aborted {
				errs <- fmt.Errorf("aborted: %s", result.AbortReason)
			}
		}(tx)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every replica converges to the observer's state and chain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h0 := nw.Ledgers[0].Height()
		converged := true
		for i := 1; i < len(nw.Stores); i++ {
			if nw.Ledgers[i].Height() != h0 || nw.Stores[i].Hash() != nw.Stores[0].Hash() {
				converged = false
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge under speculation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	raw, _ := nw.ObserverStore().Get("shared/hot")
	if bal, _ := contract.Balance(raw); bal != 1_000_000-24 {
		t.Fatalf("shared balance = %d, want %d", bal, 1_000_000-24)
	}
	var executed, hits, misses uint64
	for _, e := range nw.Executors {
		st := e.Stats()
		executed += st.SpecExecuted
		hits += st.SpecHits
		misses += st.SpecMisses
	}
	if misses != 0 {
		t.Fatalf("honest network produced %d speculation misses", misses)
	}
	t.Logf("speculative executions: %d (hits %d)", executed, hits)
}
