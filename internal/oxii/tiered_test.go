package oxii

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/state"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// This file is the end-to-end suite for the tiered state backend on a
// full deployment: a fleet whose committed state dwarfs each node's hot
// budget must produce the same chain and the same state hash as the
// in-memory backend, and a killed node must restart from its
// backend-native (PBSNAP02) snapshot and resync the rest from peers.
// The suite runs under -race in CI (a named gating step).

// tieredSyncConfig is durableConfig on the tiered backend, with a genesis
// wide enough (2000 cold accounts against a 16KiB hot budget) that every
// executor evicts most of its state before the first block.
func tieredSyncConfig(net *transport.InMemNetwork, dir string) Config {
	cfg := durableConfig(net, dir)
	cfg.StateBackend = "tiered"
	cfg.HotTierBytes = 16 << 10
	cfg.Genesis = wideTieredGenesis()
	return cfg
}

func wideTieredGenesis() []types.KV {
	genesis := []types.KV{
		{Key: "app1/alice", Val: contract.EncodeBalance(10000)},
		{Key: "app1/bob", Val: contract.EncodeBalance(10000)},
	}
	for i := 0; i < 2000; i++ {
		genesis = append(genesis, types.KV{
			Key: fmt.Sprintf("app1/acct%08d", i),
			Val: []byte(strings.Repeat("v", 16)),
		})
	}
	return genesis
}

// requireTieredEvicting asserts the store is actually a tiered store
// operating past its hot budget — otherwise the test proves nothing.
func requireTieredEvicting(t *testing.T, s state.Backend, who string) *state.TieredStore {
	t.Helper()
	ts, ok := s.(*state.TieredStore)
	if !ok {
		t.Fatalf("%s: store is %T, want *state.TieredStore", who, s)
	}
	if st := ts.Stats(); st.Evictions == 0 || st.ColdKeys == 0 {
		t.Fatalf("%s: hot budget never overflowed (stats %+v)", who, st)
	}
	return ts
}

// TestTieredNetworkMatchesMemoryBackend runs the identical client load
// on an in-memory-backend network and a tiered-backend one and asserts
// the final state hashes agree: the backend split (and its eviction
// traffic) must be invisible to execution.
func TestTieredNetworkMatchesMemoryBackend(t *testing.T) {
	run := func(tiered bool) types.Hash {
		net := transport.NewInMemNetwork(transport.InMemConfig{})
		defer net.Close()
		cfg := durableConfig(net, t.TempDir())
		cfg.Genesis = wideTieredGenesis()
		if tiered {
			cfg.StateBackend = "tiered"
			cfg.HotTierBytes = 16 << 10
		}
		nw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Stop()
		nw.Start()
		client, err := nw.Client("c1")
		if err != nil {
			t.Fatal(err)
		}
		runTransfers(t, client, 24)
		for i := range nw.Executors {
			waitConverged(t, nw, i, nil)
		}
		if tiered {
			// Cold reads must happen while the node is live: committed
			// values are readable regardless of which tier holds them.
			if v, ok := nw.ObserverStore().Get("app1/acct00001999"); !ok ||
				string(v) != strings.Repeat("v", 16) {
				t.Fatalf("cold genesis account unreadable on the live node: %q %v", v, ok)
			}
			requireTieredEvicting(t, nw.ObserverStore(), "observer")
		}
		return nw.ObserverStore().Hash()
	}
	memHash := run(false)
	tieredHash := run(true)
	if tieredHash != memHash {
		t.Fatal("tiered-backend network diverged from the in-memory backend")
	}
}

// TestTieredChaosKillRestart is the chaos harness on the tiered backend:
// sustained load with an executor repeatedly killed and restarted. Each
// restart must recover from the node's own backend-native snapshot (not
// a genesis replay), catch up on the missed blocks via peer state sync,
// and converge bit-identically — with most of its state cold the whole
// time.
func TestTieredChaosKillRestart(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	nw, err := New(tieredSyncConfig(net, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	nw.Start()
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	loadDone := make(chan int)
	go func() {
		sent := 0
		for !stop.Load() {
			tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 1))
			if _, err := client.Do(tx, 10*time.Second); err != nil {
				t.Errorf("transfer %d under chaos: %v", sent, err)
				break
			}
			sent++
		}
		loadDone <- sent
	}()

	// The victim needs height >= SnapshotInterval before the first kill,
	// so its directory holds a tiered snapshot to restart from.
	waitHeight(t, nw, 2, 2)
	for cycle := 0; cycle < 2; cycle++ {
		nw.KillExecutor(2)
		time.Sleep(150 * time.Millisecond) // blocks finalize while it is dead
		if err := nw.RestartExecutor(2); err != nil {
			t.Fatal(err)
		}
		if rec := nw.ExecutorNodes[2].Recovered; rec == nil || rec.SnapshotHeight == 0 {
			t.Fatalf("cycle %d: restart did not recover from a tiered snapshot (%+v)",
				cycle, rec)
		}
		time.Sleep(150 * time.Millisecond)
	}
	stop.Store(true)
	if sent := <-loadDone; sent == 0 {
		t.Fatal("chaos load sent nothing")
	}

	for i := range nw.Executors {
		waitConverged(t, nw, i, nil)
	}
	waitConverged(t, nw, 2, func() bool {
		st := nw.Executors[2].Stats()
		return st.SyncRecordsAdopted > 0 || st.SyncSnapshotsAdopted > 0
	})
	// Recovery loads records straight into their tiers (no eviction
	// traffic), so the restarted store proves its cold tier differently:
	// most keys are cold-resident, and reading one goes to disk.
	ts, ok := nw.Stores[2].(*state.TieredStore)
	if !ok {
		t.Fatalf("restarted store is %T, want *state.TieredStore", nw.Stores[2])
	}
	if st := ts.Stats(); st.ColdKeys == 0 {
		t.Fatalf("restarted executor recovered fully hot (stats %+v)", st)
	}
	if v, ok := nw.Stores[2].Get("app1/acct00000000"); !ok ||
		string(v) != strings.Repeat("v", 16) {
		t.Fatalf("cold account lost across kill/restart: %q %v", v, ok)
	}
	if ts.Stats().ColdReads == 0 {
		t.Fatal("no read ever reached the restarted executor's cold tier")
	}
}
