package execution

import (
	"sync/atomic"
	"testing"
	"time"

	"parblockchain/internal/depgraph"
	"parblockchain/internal/types"
)

// This file pins the budget-accounting invariant behind the
// maxOrdererStreamBytes / maxCommitBytesPerSender flood bounds: every
// byte charged against a sender's budget must eventually be credited
// back, so once all buffers drain both per-sender maps are empty. A
// leaked charge would permanently shrink an honest sender's budget —
// a silent denial of service that compounds over the node's lifetime.
// The suite exercises every path that buffers charged content: NEWBLOCK
// content awaiting its install, content whose endorsement was rejected,
// COMMIT messages buffered ahead of their block, and a state-sync rebase
// tearing down the whole window. It also pins the flood bounds
// themselves. Runs under -race in CI (a named gating step).

// assertBudgetsEmpty stops the executor and inspects the actor-owned
// budget maps (the quiescent-inspection pattern this package's flood
// tests established).
func assertBudgetsEmpty(t *testing.T, e *Executor, when string) {
	t.Helper()
	e.Stop()
	if len(e.streamBytes) != 0 {
		t.Fatalf("%s: streamBytes retains %d senders: %v", when, len(e.streamBytes), e.streamBytes)
	}
	if len(e.commitBytes) != 0 {
		t.Fatalf("%s: commitBytes retains %d senders: %v", when, len(e.commitBytes), e.commitBytes)
	}
}

// TestBudgetCreditedAfterMonolithicDrain: COMMITs buffered ahead of
// their blocks are credited when the chain passes their height, and
// every NEWBLOCK's content is credited at its install.
func TestBudgetCreditedAfterMonolithicDrain(t *testing.T) {
	blocks, genesis := tracedBlocks(52, 0.4, 4, 12)
	r := newRig(t, 4, genesis)
	e9, _ := r.net.Endpoint("e9")
	junk := &types.CommitMsg{
		BlockNum: 2,
		Results:  []types.TxResult{{TxID: "junk", Index: 0}},
		Executor: "e9",
	}
	for i := 0; i < 16; i++ {
		if err := e9.Send("e1", junk); err != nil {
			t.Fatal(err)
		}
	}
	for _, msg := range cutMono(blocks, "o1") {
		r.send(t, msg)
	}
	r.awaitBlocks(t, 4)
	assertBudgetsEmpty(t, r.exec, "after monolithic drain")
}

// TestInHorizonCommitFloodCapped: COMMIT messages for block numbers
// inside the horizon are buffered only up to the sender's byte budget;
// the rest are dropped and counted.
func TestInHorizonCommitFloodCapped(t *testing.T) {
	oldBudget := maxCommitBytesPerSender
	maxCommitBytesPerSender = 4096
	t.Cleanup(func() { maxCommitBytesPerSender = oldBudget })
	blocks, genesis := tracedBlocks(47, 0, 1, 4)
	r := newRig(t, 4, genesis)
	junk := &types.CommitMsg{
		BlockNum: 5, // within the horizon, never cut in this test
		Results:  []types.TxResult{{TxID: "junk", Index: 0}},
		Executor: "o1",
	}
	perMsg := junk.ApproxSize()
	fits := maxCommitBytesPerSender / perMsg
	const overflow = 100
	for i := 0; i < fits+overflow; i++ {
		r.send(t, junk)
	}
	r.send(t, cutMono(blocks, "o1")[0])
	r.awaitBlocks(t, 1)
	if got := r.exec.Stats().MsgsDroppedFuture; got != overflow {
		t.Fatalf("MsgsDroppedFuture = %d, want %d", got, overflow)
	}
	r.exec.Stop()
	if n := len(r.exec.pendingCommits[5]); n != fits {
		t.Fatalf("pendingCommits[5] holds %d entries, want budget-bounded %d", n, fits)
	}
}

// TestFarFutureFloodBounded is the bounded-buffering regression: a flood
// of COMMIT and NEWBLOCK messages far beyond the horizon must be dropped
// and counted, not buffered, and must not disturb normal processing.
func TestFarFutureFloodBounded(t *testing.T) {
	blocks, genesis := tracedBlocks(45, 0, 1, 4)
	r := newRig(t, 4, genesis)
	const flood = 1000
	for i := 0; i < flood; i++ {
		r.send(t, &types.CommitMsg{
			BlockNum: uint64(100000 + i),
			Results:  []types.TxResult{{TxID: "junk", Index: 0}},
			Executor: "o1",
		})
	}
	far := types.NewBlock(99999, types.Hash{1}, nil)
	r.send(t, &types.NewBlockMsg{
		Block: far, Graph: depgraph.Build(nil), Orderer: "o1",
	})
	r.send(t, cutMono(blocks, "o1")[0])
	r.awaitBlocks(t, 1)
	// The flood preceded the block on a FIFO link, so by finalization it
	// has been fully processed: everything must have been dropped.
	if got := r.exec.Stats().MsgsDroppedFuture; got != flood+1 {
		t.Fatalf("MsgsDroppedFuture = %d, want %d", got, flood+1)
	}
	// Stop the executor so the actor-owned maps are safe to inspect.
	r.exec.Stop()
	if n := len(r.exec.pendingCommits); n != 0 {
		t.Fatalf("pendingCommits holds %d entries after the flood", n)
	}
	if n := len(r.exec.blocks); n != 0 {
		t.Fatalf("blocks map holds %d entries after the flood", n)
	}
}

// TestBudgetCreditedAfterStateSyncRebase covers the teardown path that
// never replays: charged buffers for blocks the node ends up adopting
// from a peer (NEWBLOCK content whose endorsement was rejected, COMMITs
// for blocks below the synced tip) must be credited when rebaseAfterSync
// discards the window.
func TestBudgetCreditedAfterStateSyncRebase(t *testing.T) {
	chain := buildSyncChain(6)
	rig := newSyncPeerRig(t, []types.NodeID{"honest"})
	var reqs atomic.Uint64
	ep := rig.servePeer(t, "honest", &reqs, func(req *types.StateSyncRequestMsg) *types.StateSyncResponseMsg {
		return chain.response(t, req, nil)
	})

	// Charged state the rebase must credit: a NEWBLOCK for block 2 whose
	// transaction root is wrong (the endorsement is rejected, and only an
	// install or a teardown releases the content) and buffered COMMITs
	// for block 3, both below the tip the sync will land on. (The
	// watchdog announcement below also buffers one charged COMMIT from
	// "honest" for block 5.)
	o9, _ := rig.net.Endpoint("o9")
	if err := o9.Send("req", chain.badRootNewBlock(2, "o9")); err != nil {
		t.Fatal(err)
	}
	e9, _ := rig.net.Endpoint("e9")
	junk := &types.CommitMsg{
		BlockNum: 3,
		Results:  []types.TxResult{{TxID: "junk", Index: 0}},
		Executor: "e9",
	}
	for i := 0; i < 16; i++ {
		if err := e9.Send("req", junk); err != nil {
			t.Fatal(err)
		}
	}
	// Let the charges land before arming the watchdog. Cross-sender
	// delivery order is not guaranteed, but a charge that instead
	// arrives after the rebase is dropped below-height without being
	// charged — the invariant holds either way; the pause just makes the
	// run exercise the rebase-credit path it is written for.
	time.Sleep(100 * time.Millisecond)
	announce(t, ep, uint64(len(chain.records)-1))

	n := uint64(len(chain.records))
	waitFor(t, "sync convergence", func() bool { return rig.led.Height() == n })
	assertBudgetsEmpty(t, rig.exec, "after state-sync rebase")
	if got := rig.store.Hash(); got != chain.finalHash {
		t.Fatal("synced store hash diverged from the honest chain")
	}
}

// badRootNewBlock announces one chain block from the given orderer with
// a header whose transaction root commits to nothing: the orderer's vote
// endorses it at OrderQuorum 1, install rejects it, and its content stays
// charged to the orderer's budget.
func (c *syncChain) badRootNewBlock(num uint64, orderer types.NodeID) *types.NewBlockMsg {
	block := c.records[num].Block
	sets := make([]depgraph.RWSet, len(block.Txns))
	for i, tx := range block.Txns {
		sets[i] = depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
	}
	return &types.NewBlockMsg{
		Block:   &types.Block{Header: badRoot(block.Header), Txns: block.Txns},
		Graph:   depgraph.Build(sets),
		Orderer: orderer,
	}
}
