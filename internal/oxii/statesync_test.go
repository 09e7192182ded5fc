package oxii

import (
	"sync/atomic"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/execution"
	"parblockchain/internal/transport"
)

// This file is the rejoin/chaos suite for peer-served state sync: a
// killed-and-restarted executor (and a partitioned-and-healed one) must
// converge bit-identically with the always-up replicas purely via the
// executors' own sync protocol — the orderers never re-stream history.
// The records path, the below-WAL-truncation snapshot path, a partition
// healing mid-run, and repeated kill/restart cycles under sustained
// load are each covered. Every test runs durableConfig's default
// Tunables: a durable executor arms the watchdog on its own, at ten
// block-cut intervals (200 ms here). The suite runs under -race in CI (a
// named gating step).

func runTransfers(t *testing.T, client *Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 1))
		if _, err := client.Do(tx, 10*time.Second); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
}

// waitHeight waits until executor i's ledger reaches height h.
func waitHeight(t *testing.T, nw *Network, i int, h uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for nw.Ledgers[i].Height() < h {
		if time.Now().After(deadline) {
			t.Fatalf("executor %d stuck at height %d, want %d", i, nw.Ledgers[i].Height(), h)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitConverged waits until executor i is bit-identical to the observer
// (executor 0) — same ledger height, same chain tip, same state hash —
// and extra holds (polled together with convergence, because sync stats
// are incremented after the state mutations they count).
func waitConverged(t *testing.T, nw *Network, i int, extra func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if nw.Ledgers[i].Height() == nw.Ledgers[0].Height() &&
			nw.Ledgers[i].LastHash() == nw.Ledgers[0].LastHash() &&
			nw.Stores[i].Hash() == nw.Stores[0].Hash() &&
			(extra == nil || extra()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("executor %d did not converge: height %d vs %d, hash match %v, stats %+v",
				i, nw.Ledgers[i].Height(), nw.Ledgers[0].Height(),
				nw.Stores[i].Hash() == nw.Stores[0].Hash(), nw.Executors[i].Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStateSyncCatchUpFromPeer kills an executor, advances the chain
// without it, restarts it, and asserts it converges bit-identically even
// though nothing is ever re-streamed to it: the load stops before the
// restart, so the only way back is the startup probe plus peer-served
// WAL records.
func TestStateSyncCatchUpFromPeer(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	nw, err := New(durableConfig(net, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	nw.Start()
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}

	runTransfers(t, client, 8)
	waitHeight(t, nw, 2, 1) // the victim must hold some height: the
	nw.KillExecutor(2)      // restart's probe only arms past genesis
	runTransfers(t, client, 24)
	if err := nw.RestartExecutor(2); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, nw, 2, func() bool {
		return nw.Executors[2].Stats().SyncRecordsAdopted > 0
	})
	if st := nw.Executors[2].Stats(); st.SyncRejected != 0 {
		t.Fatalf("honest peers had %d responses rejected", st.SyncRejected)
	}
}

// TestStateSyncRejoinWithDefaultTunables is the "shed, then sync" path
// of a deployment that sets no knob: an executor is killed, the chain
// moves more than the 64-block buffering horizon past it, and the load
// keeps going after the restart. The restarted node sheds the live
// NEWBLOCKs it receives, which lie beyond its horizon, and state sync
// alone brings it level.
func TestStateSyncRejoinWithDefaultTunables(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	nw, err := New(durableConfig(net, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	nw.Start()
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}

	runTransfers(t, client, 8)
	waitHeight(t, nw, 2, 1)
	nw.KillExecutor(2)
	killedAt := nw.Ledgers[2].Height()
	for nw.Ledgers[0].Height() <= killedAt+execution.DefaultMinHorizon {
		runTransfers(t, client, 4)
	}
	if err := nw.RestartExecutor(2); err != nil {
		t.Fatal(err)
	}
	runTransfers(t, client, 8)
	waitConverged(t, nw, 2, func() bool {
		st := nw.Executors[2].Stats()
		return st.MsgsDroppedFuture > 0 && st.SyncRecordsAdopted+st.SyncSnapshotsAdopted > 0
	})
}

// TestStateSyncSnapshotCatchUp drives the below-WAL-truncation path:
// with per-record segment rolls and frequent snapshots, the peers prune
// their WALs past the victim's height while it is down, so its records
// request is answered with snapshot chunks and the rejoin goes
// snapshot-first.
func TestStateSyncSnapshotCatchUp(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	cfg := durableConfig(net, dir)
	cfg.SegmentBytes = 1 // roll the WAL per record: maximal truncation
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

	runTransfers(t, client, 8)
	waitHeight(t, nw, 2, 1)
	nw.KillExecutor(2)
	runTransfers(t, client, 32) // peers snapshot and prune far past the victim
	if err := nw.RestartExecutor(2); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, nw, 2, func() bool {
		return nw.Executors[2].Stats().SyncSnapshotsAdopted > 0
	})
}

// TestStateSyncPartitionMidWindow isolates an executor mid-run (its
// links silently drop both ways, the process stays up), keeps the
// cluster moving, heals the partition after the load has stopped, and
// asserts sync-driven convergence: the blocks it missed never reached
// it, and nothing arrives after the heal, so only the watchdog's silence
// probe and the sync protocol can supply them.
func TestStateSyncPartitionMidWindow(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	nw, err := New(durableConfig(net, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	nw.Start()
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}

	runTransfers(t, client, 8)
	waitHeight(t, nw, 2, 1)
	net.Isolate("e3", true)
	runTransfers(t, client, 48) // about one block per sequential transfer
	net.Isolate("e3", false)
	waitConverged(t, nw, 2, func() bool {
		return nw.Executors[2].Stats().SyncRecordsAdopted > 0
	})
}

// TestChaosKillRestartConvergence is the chaos harness: sustained client
// load with an executor repeatedly killed and restarted underneath it.
// After the load drains, every replica — including the twice-restarted
// one — must be bit-identical, and the final incarnation must have used
// state sync for the blocks finalized while it was dead.
func TestChaosKillRestartConvergence(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	nw, err := New(durableConfig(net, dir))
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

	waitHeight(t, nw, 2, 1)
	for cycle := 0; cycle < 2; cycle++ {
		nw.KillExecutor(2)
		time.Sleep(150 * time.Millisecond) // blocks finalize while it is dead
		if err := nw.RestartExecutor(2); err != nil {
			t.Fatal(err)
		}
		time.Sleep(150 * time.Millisecond)
	}
	stop.Store(true)
	sent := <-loadDone
	if sent == 0 {
		t.Fatal("chaos load sent nothing")
	}

	for i := range nw.Executors {
		waitConverged(t, nw, i, nil)
	}
	waitConverged(t, nw, 2, func() bool {
		st := nw.Executors[2].Stats()
		return st.SyncRecordsAdopted > 0 || st.SyncSnapshotsAdopted > 0
	})
	if h := nw.Ledgers[0].Height(); h == 0 {
		t.Fatal("chaos run finalized nothing")
	}
}
