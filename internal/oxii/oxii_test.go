package oxii

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/node"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// testNetwork builds a 3-orderer / 3-executor / 3-app deployment matching
// the paper's default evaluation topology, with each executor the sole
// agent of one application.
func testNetwork(t *testing.T, mutate func(*Config)) (*Network, *transport.InMemNetwork) {
	t.Helper()
	net := transport.NewInMemNetwork(transport.InMemConfig{
		Latency: transport.ConstantLatency(100 * time.Microsecond),
	})
	cfg := Config{
		Orderers:  []types.NodeID{"o1", "o2", "o3"},
		Executors: []types.NodeID{"e1", "e2", "e3"},
		Clients:   []types.NodeID{"c1", "c2"},
		Agents: map[types.AppID][]types.NodeID{
			"app1": {"e1"},
			"app2": {"e2"},
			"app3": {"e3"},
		},
		Contracts: map[types.AppID]contract.Contract{
			"app1": contract.NewAccounting(),
			"app2": contract.NewAccounting(),
			"app3": contract.NewAccounting(),
		},
		Consensus:        node.ConsensusKafka,
		MaxBlockTxns:     8,
		MaxBlockInterval: 20 * time.Millisecond,
		Crypto:           true,
		Genesis: []types.KV{
			{Key: "app1/alice", Val: contract.EncodeBalance(1000)},
			{Key: "app1/bob", Val: contract.EncodeBalance(1000)},
			{Key: "app2/carol", Val: contract.EncodeBalance(1000)},
			{Key: "app3/dave", Val: contract.EncodeBalance(1000)},
		},
		Net: net,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	nw, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	nw.Start()
	t.Cleanup(func() {
		nw.Stop()
		net.Close()
	})
	return nw, net
}

func TestEndToEndSingleTransfer(t *testing.T) {
	nw, _ := testNetwork(t, nil)
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 100))
	result, err := client.Do(tx, 5*time.Second)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if result.Aborted {
		t.Fatalf("transfer aborted: %s", result.AbortReason)
	}
	raw, ok := nw.ObserverStore().Get("app1/alice")
	if !ok {
		t.Fatal("alice missing from state")
	}
	if bal, _ := contract.Balance(raw); bal != 900 {
		t.Fatalf("alice balance = %d, want 900", bal)
	}
}

func TestEndToEndInsufficientFundsAborts(t *testing.T) {
	nw, _ := testNetwork(t, nil)
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 5000))
	result, err := client.Do(tx, 5*time.Second)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !result.Aborted {
		t.Fatal("expected abort for insufficient funds")
	}
	raw, _ := nw.ObserverStore().Get("app1/alice")
	if bal, _ := contract.Balance(raw); bal != 1000 {
		t.Fatalf("alice balance = %d, want unchanged 1000", bal)
	}
}

// TestConflictingChainSerializes submits a chain of conflicting deposits
// within one application and checks the final balance equals the serial
// outcome, exercising dependency-graph-ordered execution.
func TestConflictingChainSerializes(t *testing.T) {
	nw, _ := testNetwork(t, nil)
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	const deposits = 25
	var wg sync.WaitGroup
	results := make([]types.TxResult, deposits)
	errs := make([]error, deposits)
	for i := 0; i < deposits; i++ {
		tx := client.Prepare("app1", contract.DepositOp("app1/alice", 10))
		wg.Add(1)
		go func(i int, tx *types.Transaction) {
			defer wg.Done()
			results[i], errs[i] = client.Do(tx, 10*time.Second)
		}(i, tx)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("deposit %d: %v", i, errs[i])
		}
		if results[i].Aborted {
			t.Fatalf("deposit %d aborted: %s", i, results[i].AbortReason)
		}
	}
	raw, _ := nw.ObserverStore().Get("app1/alice")
	if bal, _ := contract.Balance(raw); bal != 1000+10*deposits {
		t.Fatalf("alice balance = %d, want %d", bal, 1000+10*deposits)
	}
}

// TestCrossApplicationDependency builds a cross-app conflict: app1 and
// app2 transactions touching a shared record, forcing the Algorithm 2
// COMMIT exchange between agents.
func TestCrossApplicationDependency(t *testing.T) {
	nw, _ := testNetwork(t, func(cfg *Config) {
		cfg.Genesis = append(cfg.Genesis, types.KV{Key: "shared/pot", Val: contract.EncodeBalance(100)})
	})
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	const rounds = 10
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		app := types.AppID("app1")
		if i%2 == 1 {
			app = "app2"
		}
		tx := client.Prepare(app, contract.DepositOp("shared/pot", 5))
		wg.Add(1)
		go func(tx *types.Transaction) {
			defer wg.Done()
			if result, err := client.Do(tx, 10*time.Second); err != nil {
				t.Errorf("cross-app deposit: %v", err)
			} else if result.Aborted {
				t.Errorf("cross-app deposit aborted: %s", result.AbortReason)
			}
		}(tx)
	}
	wg.Wait()
	raw, _ := nw.ObserverStore().Get("shared/pot")
	if bal, _ := contract.Balance(raw); bal != 100+5*rounds {
		t.Fatalf("pot balance = %d, want %d", bal, 100+5*rounds)
	}
}

// TestReplicaConsistency runs mixed traffic and verifies every executor
// converges to identical state and ledgers.
func TestReplicaConsistency(t *testing.T) {
	nw, _ := testNetwork(t, nil)
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		app := types.AppID(fmt.Sprintf("app%d", i%3+1))
		var op types.Operation
		switch i % 3 {
		case 0:
			op = contract.TransferOp("app1/alice", "app1/bob", 1)
		case 1:
			op = contract.DepositOp("app2/carol", 2)
		case 2:
			op = contract.DepositOp("app3/dave", 3)
		}
		tx := client.Prepare(app, op)
		wg.Add(1)
		go func(tx *types.Transaction) {
			defer wg.Done()
			if _, err := client.Do(tx, 10*time.Second); err != nil {
				t.Errorf("Do: %v", err)
			}
		}(tx)
	}
	wg.Wait()
	// All replicas observed the same blocks; allow stragglers to finish
	// applying the final block.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h0 := nw.Ledgers[0].Height()
		if nw.Ledgers[1].Height() == h0 && nw.Ledgers[2].Height() == h0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger heights diverged: %d %d %d",
				nw.Ledgers[0].Height(), nw.Ledgers[1].Height(), nw.Ledgers[2].Height())
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := nw.Stores[0].Hash()
	for i := 1; i < 3; i++ {
		if got := nw.Stores[i].Hash(); got != want {
			t.Fatalf("executor %d state hash diverged", i)
		}
	}
	for i, led := range nw.Ledgers {
		if err := led.Verify(); err != nil {
			t.Fatalf("executor %d ledger verify: %v", i, err)
		}
	}
}

// TestPBFTConsensusPlug runs the end-to-end flow over PBFT with 4
// orderers, checking the pluggable-consensus path and the f+1 NEWBLOCK
// quorum.
func TestPBFTConsensusPlug(t *testing.T) {
	nw, _ := testNetwork(t, func(cfg *Config) {
		cfg.Orderers = []types.NodeID{"o1", "o2", "o3", "o4"}
		cfg.Consensus = node.ConsensusPBFT
	})
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	for i := 0; i < 5; i++ {
		tx := client.Prepare("app1", contract.DepositOp("app1/alice", 1))
		if result, err := client.Do(tx, 10*time.Second); err != nil {
			t.Fatalf("Do (pbft) %d: %v", i, err)
		} else if result.Aborted {
			t.Fatalf("deposit aborted: %s", result.AbortReason)
		}
	}
	raw, _ := nw.ObserverStore().Get("app1/alice")
	if bal, _ := contract.Balance(raw); bal != 1005 {
		t.Fatalf("alice balance = %d, want 1005", bal)
	}
}
