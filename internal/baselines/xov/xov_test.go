package xov

import (
	"slices"
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
		Clients:  []types.NodeID{"c1", "c2"},
		Agents: map[types.AppID][]types.NodeID{
			"app1": {"p1"},
			"app2": {"p2"},
		},
		Contracts: map[types.AppID]contract.Contract{
			"app1": contract.NewAccounting(),
			"app2": contract.NewAccounting(),
		},
		MaxBlockTxns:     8,
		MaxBlockInterval: 20 * time.Millisecond,
		Crypto:           true,
		Genesis: []types.KV{
			{Key: "app1/alice", Val: contract.EncodeBalance(1000)},
			{Key: "app1/bob", Val: contract.EncodeBalance(1000)},
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

func TestXOVEndToEnd(t *testing.T) {
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
			tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 100))
			result, attempts, err := client.Do(tx, 5*time.Second)
			if err != nil {
				t.Fatalf("Do: %v", err)
			}
			if result.Aborted {
				t.Fatalf("aborted after %d attempts: %s", attempts, result.AbortReason)
			}
			raw, _ := nw.ObserverStore().Get("app1/alice")
			if bal, _ := contract.Balance(raw); bal != 900 {
				t.Fatalf("alice balance = %d, want 900", bal)
			}
		})
	}
}

// TestXOVMalformedEnvelopesAbort orders what the orderers cannot tell
// from an envelope — a plain signed transaction, and an envelope its
// signer wraps around another client's transaction — and checks both
// commit as aborted on every peer, with the same reason, writing nothing.
func TestXOVMalformedEnvelopesAbort(t *testing.T) {
	nw := testNetwork(t, nil)
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	genesis := nw.Stores[0].Hash()
	deposit := contract.DepositOp("app1/alice", 500)
	foreign := (&EndorsedTx{
		Tx:     &types.Transaction{ID: "c2-tx", App: "app1", Client: "c2", ClientTS: 1, Op: deposit},
		Writes: []types.KV{{Key: "app1/alice", Val: contract.EncodeBalance(1500)}},
	}).Envelope()
	foreign.Client = "c1" // c1 signs and submits it
	foreign.ClientTS = client.sub.NextTS()
	for _, tc := range []struct {
		tx   *types.Transaction
		want error
	}{
		{client.sub.Prepare("app1", deposit), ErrNotEnvelope},
		{foreign, ErrForeignEnvelope},
	} {
		result, err := client.sub.Do(tc.tx, 5*time.Second)
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		if !result.Aborted || result.AbortReason != tc.want.Error() {
			t.Fatalf("result = %+v, want abort %q", result, tc.want)
		}
	}
	height := nw.Ledgers[0].Height()
	deadline := time.Now().Add(5 * time.Second)
	for i, led := range nw.Ledgers {
		for led.Height() < height {
			if time.Now().After(deadline) {
				t.Fatalf("peer %d stuck at height %d, want %d", i, led.Height(), height)
			}
			time.Sleep(5 * time.Millisecond)
		}
		var reasons []string
		for h := uint64(0); h < height; h++ {
			e, err := led.Get(h)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range e.Results {
				if !r.Aborted || len(r.Writes) != 0 {
					t.Fatalf("peer %d: %s committed %d writes", i, r.TxID, len(r.Writes))
				}
				reasons = append(reasons, r.AbortReason)
			}
		}
		if want := []string{ErrNotEnvelope.Error(), ErrForeignEnvelope.Error()}; !slices.Equal(reasons, want) {
			t.Fatalf("peer %d abort reasons = %q, want %q", i, reasons, want)
		}
		if nw.Stores[i].Hash() != genesis {
			t.Fatalf("peer %d state moved", i)
		}
	}
}

func TestXOVSimulationAbortIsNotRetried(t *testing.T) {
	nw := testNetwork(t, nil)
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 99999))
	result, attempts, err := client.Do(tx, 5*time.Second)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !result.Aborted {
		t.Fatal("expected simulation abort")
	}
	if attempts != 1 {
		t.Fatalf("deterministic failure retried %d times", attempts)
	}
}

// TestXOVContentionCausesAbortsButConverges drives conflicting deposits
// at one hot key: MVCC validation must abort stale endorsements, clients
// must retry, and the final balance must equal the serial outcome.
func TestXOVContentionCausesAbortsButConverges(t *testing.T) {
	nw := testNetwork(t, nil)
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tx := client.Prepare("app2", contract.DepositOp("app2/carol", 10))
		wg.Add(1)
		go func(tx *types.Transaction) {
			defer wg.Done()
			if result, _, err := client.Do(tx, 20*time.Second); err != nil {
				t.Errorf("Do: %v", err)
			} else if result.Aborted {
				t.Errorf("final abort: %s", result.AbortReason)
			}
		}(tx)
	}
	wg.Wait()
	raw, _ := nw.ObserverStore().Get("app2/carol")
	if bal, _ := contract.Balance(raw); bal != 1000+10*n {
		t.Fatalf("carol balance = %d, want %d", bal, 1000+10*n)
	}
	if nw.TotalAborts() == 0 {
		t.Log("note: no MVCC aborts observed (timing-dependent); retries:", client.Retries())
	}
	// All peers converge.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := nw.Stores[0].Hash()
		if nw.Stores[1].Hash() == h && nw.Stores[2].Hash() == h {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer states diverged")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestXOVEndorsementPolicy requires two matching endorsements and checks
// the flow still commits.
func TestXOVEndorsementPolicy(t *testing.T) {
	nw := testNetwork(t, func(cfg *Config) {
		cfg.Agents["app1"] = []types.NodeID{"p1", "p3"}
		cfg.Tau = map[types.AppID]int{"app1": 2}
	})
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 10))
	result, _, err := client.Do(tx, 5*time.Second)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if result.Aborted {
		t.Fatalf("aborted: %s", result.AbortReason)
	}
}
