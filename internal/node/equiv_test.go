package node_test

import (
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/ledger"
	"parblockchain/internal/node"
	"parblockchain/internal/oxii"
	"parblockchain/internal/state"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
	"parblockchain/internal/workload"
)

// The deployment both assemblies of TestAssemblyEquivalence build.
var (
	eqOrderers  = []types.NodeID{"o1", "o2", "o3"}
	eqExecutors = []types.NodeID{"e1", "e2", "e3"}
	eqApps      = []types.AppID{"app1", "app2", "app3"}
	eqAgents    = map[types.AppID][]types.NodeID{"app1": {"e1"}, "app2": {"e2"}, "app3": {"e3"}}
	eqContracts = map[types.AppID]contract.Contract{
		"app1": contract.NewAccounting(), "app2": contract.NewAccounting(), "app3": contract.NewAccounting(),
	}
)

const (
	eqClient     = types.NodeID("c1")
	eqBlockTxns  = 20
	eqBlocks     = 10
	eqInterval   = 10 * time.Second // never fires: every block cuts on the count
	eqCommitWait = 20 * time.Second
)

func eqWorkload() *workload.Generator {
	return workload.New(workload.Config{
		Apps:               eqApps,
		Contention:         0.5,
		CrossApp:           true,
		ColdAccountsPerApp: 200,
		Seed:               11,
	})
}

// drive submits the seeded trace one block's worth at a time, all of it
// to o1, and waits for each batch to commit before sending the next. One
// sender to one orderer is a FIFO link, so consensus sees the trace in
// order and every block holds exactly the next eqBlockTxns transactions.
// The submit time a transaction's digest covers is its trace position
// (oxii.Client would stamp the wall clock), so the chain is a function of
// the seed alone.
func drive(t *testing.T, ep transport.Endpoint, router *oxii.CommitRouter) {
	t.Helper()
	signer := cryptoutil.NoopSigner{NodeID: string(eqClient)}
	trace := eqWorkload().Trace(eqClient, eqBlocks*eqBlockTxns)
	for len(trace) > 0 {
		var pending []<-chan types.TxResult
		for _, tx := range trace[:eqBlockTxns] {
			workload.Finalize(tx, int64(tx.ClientTS), signer.Sign)
			pending = append(pending, router.Register(tx.ID))
			if err := ep.Send(eqOrderers[0], &types.RequestMsg{Tx: tx}); err != nil {
				t.Fatal(err)
			}
		}
		for _, ch := range pending {
			select {
			case res, ok := <-ch:
				if !ok || res.Aborted {
					t.Fatalf("transaction did not commit: %+v (open=%v)", res, ok)
				}
			case <-time.After(eqCommitWait):
				t.Fatal("timed out waiting for a commit")
			}
		}
		trace = trace[eqBlockTxns:]
	}
}

// settle waits for every replica to hold the whole chain and returns the
// observer's tip and state hash, having checked the others match it.
func settle(t *testing.T, ledgers []*ledger.Ledger, stores []*state.KVStore) (types.Hash, types.Hash) {
	t.Helper()
	deadline := time.Now().Add(eqCommitWait)
	for i, led := range ledgers {
		for led.Height() < eqBlocks {
			if time.Now().After(deadline) {
				t.Fatalf("executor %d stuck at height %d of %d", i, led.Height(), eqBlocks)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if led.LastHash() != ledgers[0].LastHash() || stores[i].Hash() != stores[0].Hash() {
			t.Fatalf("executor %d diverged from the observer", i)
		}
	}
	return ledgers[0].LastHash(), stores[0].Hash()
}

// TestAssemblyEquivalence runs one seeded workload on the two ways this
// repo deploys ParBlockchain — oxii.New over the in-memory network, and
// NewExecutor/NewOrderer over loopback TCP endpoints, which is what
// parnode and examples/tcpcluster do — and requires bit-identical
// ledgers and state from both.
func TestAssemblyEquivalence(t *testing.T) {
	genesis := eqWorkload().Genesis()

	// In process.
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	nw, err := oxii.New(oxii.Config{
		Orderers:         eqOrderers,
		Executors:        eqExecutors,
		Agents:           eqAgents,
		Contracts:        eqContracts,
		MaxBlockTxns:     eqBlockTxns,
		MaxBlockInterval: eqInterval,
		Genesis:          genesis,
		Net:              net,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	defer nw.Stop()
	clientEP, err := net.Endpoint(eqClient)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, clientEP, nw.Router())
	wantTip, wantState := settle(t, nw.Ledgers, nw.Stores)

	// Over TCP, node by node.
	ids := append(append([]types.NodeID{eqClient}, eqOrderers...), eqExecutors...)
	endpoints := make(map[types.NodeID]*transport.TCPEndpoint, len(ids))
	book := make(map[types.NodeID]string, len(ids))
	for _, id := range ids {
		ep, err := transport.NewTCPEndpoint(transport.TCPConfig{ID: id, ListenAddr: "127.0.0.1:0", Peers: book})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		endpoints[id], book[id] = ep, ep.Addr()
	}
	describe := func(id types.NodeID) node.Config {
		return node.Config{
			ID:               id,
			Endpoint:         endpoints[id],
			Signer:           cryptoutil.NoopSigner{NodeID: string(id)},
			Verifier:         cryptoutil.NoopVerifier{},
			Orderers:         eqOrderers,
			Executors:        eqExecutors,
			Agents:           eqAgents,
			Contracts:        eqContracts,
			MaxBlockTxns:     eqBlockTxns,
			MaxBlockInterval: eqInterval,
			Genesis:          genesis,
			NotifyClients:    id == eqExecutors[0],
			Logf:             t.Logf,
		}
	}
	var ledgers []*ledger.Ledger
	var stores []*state.KVStore
	for _, id := range eqExecutors {
		x, err := node.NewExecutor(describe(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Start(); err != nil {
			t.Fatal(err)
		}
		defer x.Stop()
		ledgers, stores = append(ledgers, x.Ledger), append(stores, x.Store)
	}
	for _, id := range eqOrderers {
		o, err := node.NewOrderer(describe(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Start(); err != nil {
			t.Fatal(err)
		}
		defer o.Stop()
	}
	router := oxii.NewCommitRouter()
	go router.ServeNotifications(endpoints[eqClient].Recv())
	drive(t, endpoints[eqClient], router)
	gotTip, gotState := settle(t, ledgers, stores)

	if gotTip != wantTip {
		t.Errorf("ledger tip differs across assemblies: tcp %s, in-process %s", gotTip, wantTip)
	}
	if gotState != wantState {
		t.Errorf("state hash differs across assemblies: tcp %s, in-process %s", gotState, wantState)
	}
}
