package oxii

import (
	"path/filepath"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/node"
	"parblockchain/internal/persist"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// durableConfig is the durability-test deployment: a single orderer (so
// block numbering is deterministic) and three executors persisting under
// dir, with a small snapshot interval so short runs exercise WAL
// truncation.
func durableConfig(net *transport.InMemNetwork, dir string) Config {
	return Config{
		Orderers:  []types.NodeID{"o1"},
		Executors: []types.NodeID{"e1", "e2", "e3"},
		Clients:   []types.NodeID{"c1"},
		Agents: map[types.AppID][]types.NodeID{
			"app1": {"e1", "e2", "e3"},
		},
		Contracts: map[types.AppID]contract.Contract{
			"app1": contract.NewAccounting(),
		},
		Consensus:        node.ConsensusKafka,
		MaxBlockTxns:     4,
		MaxBlockInterval: 20 * time.Millisecond,
		DataDir:          dir,
		Tunables:         node.Tunables{SnapshotInterval: 2},
		Genesis: []types.KV{
			{Key: "app1/alice", Val: contract.EncodeBalance(10000)},
			{Key: "app1/bob", Val: contract.EncodeBalance(10000)},
		},
		Net:  net,
		Logf: func(string, ...any) {},
	}
}

// TestDurableNetworkRecovery runs a full network with durability on,
// stops it, and asserts (a) every executor's durable state recovers to
// exactly its live store and ledger, from snapshot + WAL tail; and (b) a
// network rebuilt on the same data directory resumes every executor at
// its durable height instead of genesis.
func TestDurableNetworkRecovery(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()

	nw, err := New(durableConfig(net, dir))
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 1))
		if _, err := client.Do(tx, 10*time.Second); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	type snapshot struct {
		hash   types.Hash
		height uint64
		tip    types.Hash
	}
	nw.Stop() // quiesces executors, then closes the durability managers
	live := make([]snapshot, len(nw.Executors))
	for i := range nw.Executors {
		live[i] = snapshot{
			hash:   nw.Stores[i].Hash(),
			height: nw.Ledgers[i].Height(),
			tip:    nw.Ledgers[i].LastHash(),
		}
		if live[i].height == 0 {
			t.Fatalf("executor %d finalized nothing", i)
		}
	}

	// (a) Raw recovery per executor directory.
	for i, id := range []string{"e1", "e2", "e3"} {
		mgr, rec, err := persist.Open(persist.Config{
			Dir: filepath.Join(dir, id), SnapshotInterval: 2,
			Logf: func(string, ...any) {},
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rec.Store.Hash() != live[i].hash {
			t.Errorf("%s: recovered state hash diverged from the live store", id)
		}
		if rec.Ledger.Height() != live[i].height || rec.Ledger.LastHash() != live[i].tip {
			t.Errorf("%s: recovered ledger diverged (height %d vs %d)",
				id, rec.Ledger.Height(), live[i].height)
		}
		if rec.SnapshotHeight == 0 && live[i].height >= 2 {
			t.Errorf("%s: recovery replayed from genesis, not from a snapshot", id)
		}
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// (b) A rebuilt network resumes from the durable state.
	net2 := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net2.Close()
	nw2, err := New(durableConfig(net2, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer nw2.Stop()
	nw2.Start()
	for i := range nw2.Executors {
		if nw2.Stores[i].Hash() != live[i].hash || nw2.Ledgers[i].Height() != live[i].height {
			t.Errorf("executor %d: rebuilt network did not resume from durable state", i)
		}
		if rec := nw2.ExecutorNodes[i].Recovered; rec == nil || rec.Replayed >= int(live[i].height) {
			t.Errorf("executor %d: rebuilt network replayed the full chain (%+v)", i, rec)
		}
	}
}

// TestInMemoryNetworkHasNoManagers pins the compatibility contract: an
// empty DataDir must leave the durability subsystem entirely out of the
// deployment.
func TestInMemoryNetworkHasNoManagers(t *testing.T) {
	nw, _ := testNetwork(t, nil)
	for i, n := range nw.ExecutorNodes {
		if n.Persist != nil || n.Recovered != nil {
			t.Fatalf("executor %d has a durability manager without DataDir", i)
		}
	}
	if len(nw.ExecutorNodes) != len(nw.Executors) {
		t.Fatalf("ExecutorNodes not indexed like Executors")
	}
}
