package oxii

import (
	"sync"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/node"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// TestOrdererCrashToleratedByKafkaQuorum kills one non-leader broker of
// the Kafka-style ordering service; the remaining quorum must keep
// ordering and executors must keep committing.
func TestOrdererCrashToleratedByKafkaQuorum(t *testing.T) {
	nw, net := testNetwork(t, nil)
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	// Commit once with all orderers alive.
	tx := client.Prepare("app1", contract.DepositOp("app1/alice", 1))
	if _, err := client.Do(tx, 5*time.Second); err != nil {
		t.Fatalf("pre-crash: %v", err)
	}
	// o3 is a non-leader broker (o1 leads the kafkaorder service).
	net.Isolate("o3", true)
	for i := 0; i < 5; i++ {
		tx := client.Prepare("app1", contract.DepositOp("app1/alice", 1))
		if _, err := client.Do(tx, 10*time.Second); err != nil {
			t.Fatalf("post-crash deposit %d: %v", i, err)
		}
	}
	raw, _ := nw.ObserverStore().Get("app1/alice")
	if bal, _ := contract.Balance(raw); bal != 1006 {
		t.Fatalf("balance = %d, want 1006", bal)
	}
}

// TestPBFTPrimaryCrashMidStream kills the PBFT primary while traffic is
// flowing; the view change must recover ordering without client
// involvement.
func TestPBFTPrimaryCrashMidStream(t *testing.T) {
	nw, net := testNetwork(t, func(cfg *Config) {
		cfg.Orderers = []types.NodeID{"o1", "o2", "o3", "o4"}
		cfg.Consensus = node.ConsensusPBFT
	})
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	tx := client.Prepare("app1", contract.DepositOp("app1/alice", 1))
	if _, err := client.Do(tx, 10*time.Second); err != nil {
		t.Fatalf("pre-crash: %v", err)
	}
	net.Isolate("o1", true) // view-0 primary
	// Clients keep submitting round-robin; requests landing at the dead
	// primary are lost, but PBFT's view change plus client retry (fresh
	// submissions) must make progress.
	deadline := time.Now().Add(30 * time.Second)
	committed := 0
	for committed < 3 && time.Now().Before(deadline) {
		tx := client.Prepare("app1", contract.DepositOp("app1/alice", 1))
		if _, err := client.Do(tx, 5*time.Second); err == nil {
			committed++
		}
	}
	if committed < 3 {
		t.Fatal("no progress after primary crash")
	}
}

// TestPassiveExecutorCommitsViaResults adds a passive (non-agent)
// executor and checks it converges to the same state purely from COMMIT
// messages (the paper's "the node becomes a passive node and only the
// third procedure is run").
func TestPassiveExecutorCommitsViaResults(t *testing.T) {
	nw, _ := testNetwork(t, func(cfg *Config) {
		cfg.Executors = append(cfg.Executors, "passive1")
	})
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		tx := client.Prepare("app1", contract.DepositOp("app1/alice", 5))
		wg.Add(1)
		go func(tx *types.Transaction) {
			defer wg.Done()
			if _, err := client.Do(tx, 10*time.Second); err != nil {
				t.Errorf("Do: %v", err)
			}
		}(tx)
	}
	wg.Wait()
	// The passive node (index 3) must reach the same state hash.
	deadline := time.Now().Add(5 * time.Second)
	want := nw.Stores[0].Hash()
	for {
		if nw.Stores[3].Hash() == want && nw.Ledgers[3].Height() == nw.Ledgers[0].Height() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("passive node diverged: height %d vs %d",
				nw.Ledgers[3].Height(), nw.Ledgers[0].Height())
		}
		time.Sleep(10 * time.Millisecond)
		want = nw.Stores[0].Hash()
	}
	if nw.Executors[3].Stats().TxExecuted != 0 {
		t.Fatal("passive node must not execute transactions")
	}
	if err := nw.Ledgers[3].Verify(); err != nil {
		t.Fatalf("passive ledger: %v", err)
	}
}

// TestEagerCommitModeEquivalent checks the eager Algorithm 2 variant
// produces the same final state as the lazy cut rule, at a higher message
// count.
func TestEagerCommitModeEquivalent(t *testing.T) {
	run := func(eager bool) (types.Hash, int64) {
		net := transport.NewInMemNetwork(transport.InMemConfig{
			Latency: transport.ConstantLatency(100 * time.Microsecond),
		})
		defer net.Close()
		nw, err := New(Config{
			Orderers:  []types.NodeID{"o1"},
			Executors: []types.NodeID{"e1", "e2"},
			Clients:   []types.NodeID{"c1"},
			Agents: map[types.AppID][]types.NodeID{
				"app1": {"e1"}, "app2": {"e2"},
			},
			Contracts: map[types.AppID]contract.Contract{
				"app1": contract.NewAccounting(), "app2": contract.NewAccounting(),
			},
			MaxBlockTxns:     4,
			MaxBlockInterval: 20 * time.Millisecond,
			Tunables:         node.Tunables{EagerCommit: eager},
			Genesis: []types.KV{
				{Key: "shared/pot", Val: contract.EncodeBalance(0)},
			},
			Net: net,
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
		var wg sync.WaitGroup
		for i := 0; i < 10; i++ {
			app := types.AppID("app1")
			if i%2 == 1 {
				app = "app2"
			}
			tx := client.Prepare(app, contract.DepositOp("shared/pot", 1))
			wg.Add(1)
			go func(tx *types.Transaction) {
				defer wg.Done()
				if _, err := client.Do(tx, 10*time.Second); err != nil {
					t.Errorf("Do: %v", err)
				}
			}(tx)
		}
		wg.Wait()
		return nw.Stores[0].Hash(), int64(nw.Executors[0].Stats().CommitMsgsSent +
			nw.Executors[1].Stats().CommitMsgsSent)
	}
	lazyHash, lazyMsgs := run(false)
	eagerHash, eagerMsgs := run(true)
	if lazyHash != eagerHash {
		t.Fatal("eager and lazy multicast must converge to identical state")
	}
	t.Logf("commit multicasts: lazy=%d eager=%d", lazyMsgs, eagerMsgs)
}

// TestTauTwoMultiAgentApplication deploys an application with two agents
// and tau=2: both agents execute every transaction and every node
// requires two matching results.
func TestTauTwoMultiAgentApplication(t *testing.T) {
	nw, _ := testNetwork(t, func(cfg *Config) {
		cfg.Agents["app1"] = []types.NodeID{"e1", "e2"}
		cfg.Tau = map[types.AppID]int{"app1": 2}
	})
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tx := client.Prepare("app1", contract.DepositOp("app1/alice", 2))
		result, err := client.Do(tx, 10*time.Second)
		if err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
		if result.Aborted {
			t.Fatalf("deposit aborted: %s", result.AbortReason)
		}
	}
	raw, _ := nw.ObserverStore().Get("app1/alice")
	if bal, _ := contract.Balance(raw); bal != 1010 {
		t.Fatalf("balance = %d, want 1010", bal)
	}
	// Both agents executed all five transactions.
	if nw.Executors[0].Stats().TxExecuted < 5 || nw.Executors[1].Stats().TxExecuted < 5 {
		t.Fatalf("both agents must execute: %d / %d",
			nw.Executors[0].Stats().TxExecuted, nw.Executors[1].Stats().TxExecuted)
	}
}

// TestCryptoDisabledStillConverges runs the crypto-free configuration
// (the benchmark ablation) end to end.
func TestCryptoDisabledStillConverges(t *testing.T) {
	nw, _ := testNetwork(t, func(cfg *Config) { cfg.Crypto = false })
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 10))
	result, err := client.Do(tx, 5*time.Second)
	if err != nil || result.Aborted {
		t.Fatalf("result=%+v err=%v", result, err)
	}
}

// TestRaftOrdererFailover exercises the CFT plug end to end: kill the
// Raft leader and verify the blockchain keeps committing.
func TestRaftOrdererFailover(t *testing.T) {
	nw, net := testNetwork(t, func(cfg *Config) {
		cfg.Consensus = node.ConsensusRaft
	})
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	tx := client.Prepare("app1", contract.DepositOp("app1/alice", 1))
	if _, err := client.Do(tx, 10*time.Second); err != nil {
		t.Fatalf("pre-crash: %v", err)
	}
	// Kill one orderer (possibly the leader; Raft must re-elect).
	net.Isolate("o1", true)
	deadline := time.Now().Add(30 * time.Second)
	committed := 0
	for committed < 3 && time.Now().Before(deadline) {
		tx := client.Prepare("app1", contract.DepositOp("app1/alice", 1))
		if _, err := client.Do(tx, 5*time.Second); err == nil {
			committed++
		}
	}
	if committed < 3 {
		t.Fatal("no progress after raft orderer crash")
	}
}
