package ox

import (
	"sync"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/node"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

func testNetwork(t *testing.T, mutate func(*Config)) *Network {
	t.Helper()
	net := transport.NewInMemNetwork(transport.InMemConfig{
		Latency: transport.ConstantLatency(100 * time.Microsecond),
	})
	cfg := Config{
		Orderers: []types.NodeID{"o1", "o2", "o3"},
		Peers:    []types.NodeID{"p1", "p2", "p3"},
		Clients:  []types.NodeID{"c1"},
		Contracts: map[types.AppID]contract.Contract{
			"app1": contract.NewAccounting(),
			"app2": contract.NewAccounting(),
		},
		MaxBlockTxns:     8,
		MaxBlockInterval: 20 * time.Millisecond,
		Crypto:           true,
		Genesis: []types.KV{
			{Key: "app1/alice", Val: contract.EncodeBalance(1000)},
			{Key: "app2/carol", Val: contract.EncodeBalance(1000)},
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
	return nw
}

// pbft orders through four PBFT orderers, so peers release a block only
// on two matching NEWBLOCKs.
func pbft(cfg *Config) {
	cfg.Orderers = []types.NodeID{"o1", "o2", "o3", "o4"}
	cfg.Consensus = node.ConsensusPBFT
}

func TestOXEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		quorum int
	}{{"kafka", nil, 1}, {"pbft", pbft, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			nw := testNetwork(t, tc.mutate)
			if q := nw.Peers[0].intake.Quorum; q != tc.quorum {
				t.Fatalf("order quorum = %d, want %d", q, tc.quorum)
			}
			client, err := nw.Client("c1")
			if err != nil {
				t.Fatalf("Client: %v", err)
			}
			tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 250))
			result, err := client.Do(tx, 5*time.Second)
			if err != nil {
				t.Fatalf("Do: %v", err)
			}
			if result.Aborted {
				t.Fatalf("transfer aborted: %s", result.AbortReason)
			}
			raw, ok := nw.ObserverStore().Get("app1/bob")
			if !ok {
				t.Fatal("bob missing")
			}
			if bal, _ := contract.Balance(raw); bal != 250 {
				t.Fatalf("bob balance = %d, want 250", bal)
			}
		})
	}
}

// TestOXSequentialConsistency checks that mixed concurrent traffic
// produces identical state on every peer and a correct serial outcome.
func TestOXSequentialConsistency(t *testing.T) {
	nw := testNetwork(t, nil)
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	const n = 20
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tx := client.Prepare("app2", contract.DepositOp("app2/carol", 5))
		wg.Add(1)
		go func(tx *types.Transaction) {
			defer wg.Done()
			if result, err := client.Do(tx, 10*time.Second); err != nil {
				t.Errorf("Do: %v", err)
			} else if result.Aborted {
				t.Errorf("aborted: %s", result.AbortReason)
			}
		}(tx)
	}
	wg.Wait()
	raw, _ := nw.ObserverStore().Get("app2/carol")
	if bal, _ := contract.Balance(raw); bal != 1000+5*n {
		t.Fatalf("carol balance = %d, want %d", bal, 1000+5*n)
	}
	// Replica convergence.
	deadline := time.Now().Add(5 * time.Second)
	want := nw.Stores[0].Hash()
	for {
		if nw.Stores[1].Hash() == want && nw.Stores[2].Hash() == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer states diverged")
		}
		time.Sleep(10 * time.Millisecond)
		want = nw.Stores[0].Hash()
	}
	for i, led := range nw.Ledgers {
		if err := led.Verify(); err != nil {
			t.Fatalf("peer %d ledger: %v", i, err)
		}
	}
}

// TestOXAbortsUndeclaredWrite: a transfer that under-declares its write
// set aborts on the OX peers with the reason every OXII agent gives (the
// shared registry's), and the undeclared key is never written.
func TestOXAbortsUndeclaredWrite(t *testing.T) {
	nw := testNetwork(t, nil)
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	op := contract.TransferOp("app1/alice", "app1/bob", 5)
	op.Writes = []types.Key{"app1/alice"}
	registry := contract.NewRegistry()
	registry.Install("app1", contract.NewAccounting())
	_, want := registry.Execute("app1", nw.ObserverStore(), op)
	if want == nil {
		t.Fatal("the registry accepted an undeclared write")
	}
	result, err := client.Do(client.Prepare("app1", op), 5*time.Second)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !result.Aborted || result.AbortReason != want.Error() {
		t.Fatalf("result %+v, want an abort with reason %q", result, want)
	}
	if _, ok := nw.ObserverStore().Get("app1/bob"); ok {
		t.Fatal("the undeclared write reached the store")
	}
}
