package execution

import (
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/types"
)

// TestCrashRestartRecovery is the durability subsystem's end-to-end
// integration test: an executor is killed mid-window — after the next
// block was admitted and began executing, but while a foreign
// application's transaction in it still waits for its agent's COMMIT —
// and restarted from its data directory. The restarted node must resume
// admission at the recovered ledger height, finish the trace from
// re-sent announcements, and land on exactly the sequential reference's
// state hash, ledger chain and results. The recovery itself must come
// from a snapshot plus a WAL tail, never a full-chain replay. Runs under
// -race as a gating CI step.
func TestCrashRestartRecovery(t *testing.T) {
	const (
		numBlocks = 8
		blockTxns = 12
		// Blocks 0..killAt-1 finalize (and are durable) before the kill;
		// block killAt is admitted into the window and held open.
		killAt = 5
		// The executor under test is an agent of every application but
		// this one, whose single agent e2 is played by the test.
		foreign types.AppID = "app3"
	)
	blocks, genesis := tracedBlocks(4242, 0.4, numBlocks, blockTxns)
	wantHash, wantResults := refResults(genesis, blocks)
	wantTip := chainTip(blocks)
	mono := cutMono(blocks, "o1")

	withForeignApp := func(c *Config) {
		c.Registry = contract.NewRegistry()
		c.AgentsOf = make(map[types.AppID][]types.NodeID, len(equivApps))
		for _, app := range equivApps {
			if app == foreign {
				c.AgentsOf[app] = []types.NodeID{"e2"}
				continue
			}
			c.Registry.Install(app, contract.NewAccounting())
			c.AgentsOf[app] = []types.NodeID{"e1"}
		}
	}
	// foreignCommit is e2's COMMIT for block n: the sequential
	// reference's result of every foreign transaction in it.
	foreignCommit := func(n int) *types.CommitMsg {
		m := &types.CommitMsg{BlockNum: uint64(n), Executor: "e2"}
		for i, tx := range blocks[n] {
			if tx.App == foreign {
				m.Results = append(m.Results, wantResults[n][i])
			}
		}
		return m
	}
	if len(foreignCommit(killAt).Results) == 0 {
		t.Fatalf("block %d has no %s transaction to hold it open", killAt, foreign)
	}
	dir := t.TempDir()
	r := newDurableRig(t, 4, dir, genesis, withForeignApp)
	e2, _ := r.net.Endpoint("e2")
	for n := 0; n < killAt; n++ {
		r.send(t, mono[n])
		if err := e2.Send("e1", foreignCommit(n)); err != nil {
			t.Fatal(err)
		}
	}
	r.awaitBlocks(t, killAt)

	// Admit the next block — its local transactions start executing
	// inside the window — but withhold e2's COMMIT, so the block can
	// never finalize before the kill.
	before := r.exec.Stats().TxExecuted
	r.send(t, mono[killAt])
	deadline := time.Now().Add(10 * time.Second)
	for r.exec.Stats().TxExecuted <= before {
		if time.Now().After(deadline) {
			t.Fatalf("held-open block %d never started executing", killAt)
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the node mid-window — uncleanly: unsynced WAL bytes are
	// discarded, exactly like a power loss. The held-open block's work is
	// in memory only and must simply vanish; every externalized block
	// must already be durable because the finalize path group-fsyncs the
	// WAL *before* externalizing, not because a graceful close flushed
	// it. A regression that externalizes first loses the last batch here
	// and fails the height assertion below.
	r.crash(t)

	// Restart from disk.
	r2 := newDurableRig(t, 4, dir, genesis, withForeignApp)
	if h := r2.led.Height(); h != killAt {
		t.Fatalf("restart admission height = %d, want %d", h, killAt)
	}
	if r2.rec.SnapshotHeight == 0 {
		t.Fatal("restart replayed from genesis, not from a snapshot")
	}
	if r2.rec.Replayed >= killAt {
		t.Fatalf("restart replayed %d records — the full chain, not the WAL tail",
			r2.rec.Replayed)
	}
	if got := r2.rec.SnapshotHeight + uint64(r2.rec.Replayed); got != killAt {
		t.Fatalf("snapshot %d + replayed %d != durable height %d",
			r2.rec.SnapshotHeight, r2.rec.Replayed, killAt)
	}

	// Re-send the announcements from the recovered height (in a real
	// cluster the orderers retransmit or the node state-syncs; the wire
	// contract is identical either way) and finish the trace.
	e2b, _ := r2.net.Endpoint("e2")
	for n := killAt; n < numBlocks; n++ {
		r2.send(t, mono[n])
		if err := e2b.Send("e1", foreignCommit(n)); err != nil {
			t.Fatal(err)
		}
	}
	finalized := r2.awaitBlocks(t, numBlocks-killAt)

	if got := r2.store.Hash(); got != wantHash {
		t.Fatal("restarted node's final state hash diverged from the sequential reference")
	}
	if r2.led.Height() != numBlocks || r2.led.LastHash() != wantTip {
		t.Fatalf("restarted node's ledger diverged (height %d, want %d)", r2.led.Height(), numBlocks)
	}
	if err := r2.led.Verify(); err != nil {
		t.Fatalf("restarted node's ledger chain invalid: %v", err)
	}
	for b, results := range finalized {
		want := wantResults[killAt+b]
		if len(results) != len(want) {
			t.Fatalf("block %d: %d results, want %d", killAt+b, len(results), len(want))
		}
		for i := range results {
			if results[i].Digest() != want[i].Digest() {
				t.Fatalf("block %d tx %d: result diverged after restart", killAt+b, i)
			}
		}
	}
}
