package execution

import (
	"sync/atomic"
	"testing"
	"time"

	"parblockchain/internal/types"
)

// This file pins the budget-accounting invariant behind the
// maxOrdererStreamBytes / maxCommitBytesPerSender flood bounds: every
// byte charged against a sender's budget must eventually be credited
// back, so once all buffers drain both per-sender maps are empty. A
// leaked charge would permanently shrink an honest sender's budget —
// a silent denial of service that compounds over the node's lifetime.
// The suite exercises every path that buffers charged content: segment
// streams feeding admission, streams broken mid-block, COMMIT messages
// buffered ahead of their block, and a state-sync rebase tearing down
// the whole window. Runs under -race in CI (a named gating step).

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

// TestBudgetCreditedAfterStreamedDrain drives every in-protocol
// buffering path to quiescence in one run: o1 streams six blocks to
// finalization (stream bytes stay charged until each seal validates),
// o2's stream for block 0 breaks on a gap after a charged segment (the
// teardown credit), and a fake executor floods COMMITs for a mid-trace
// block before it exists (buffered and charged until replay credits
// them — every one is then rejected as unauthorized, which must not
// matter to the budget).
func TestBudgetCreditedAfterStreamedDrain(t *testing.T) {
	blocks, genesis := tracedBlocks(51, 0.4, 6, 20)
	r := newStreamRig(t, 4, genesis)

	e9, _ := r.net.Endpoint("e9")
	junk := &types.CommitMsg{
		BlockNum: 4,
		Results:  []types.TxResult{{TxID: "junk", Index: 0}},
		Executor: "e9",
	}
	for i := 0; i < 32; i++ {
		if err := e9.Send("e1", junk); err != nil {
			t.Fatal(err)
		}
	}

	// o2's stream for block 0: one charged segment, then a gap.
	o2, _ := r.net.Endpoint("o2")
	o2stream := cutStream(blocks, 2, "o2")
	if err := o2.Send("e1", o2stream[0].segs[0]); err != nil {
		t.Fatal(err)
	}
	if err := o2.Send("e1", o2stream[0].segs[2]); err != nil { // gap: breaks
		t.Fatal(err)
	}

	for _, sb := range cutStream(blocks, 16, "o1") {
		for _, seg := range sb.segs {
			r.send(t, seg)
		}
		r.send(t, sb.seal)
	}
	r.awaitBlocks(t, 6)
	assertBudgetsEmpty(t, r.exec, "after streamed drain")
}

// TestBudgetCreditedAfterMonolithicDrain is the plain-path control:
// COMMITs buffered ahead of monolithically announced blocks are
// credited when the chain passes their height.
func TestBudgetCreditedAfterMonolithicDrain(t *testing.T) {
	blocks, genesis := tracedBlocks(52, 0.4, 4, 12)
	r := newStreamRig(t, 4, genesis)
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

// TestBudgetCreditedAfterStateSyncRebase covers the teardown path that
// never replays: charged buffers for blocks the node ends up adopting
// from a peer (a segment stream for a future block that never
// completes, COMMITs for blocks below the synced tip) must be credited
// when rebaseAfterSync discards the window.
func TestBudgetCreditedAfterStateSyncRebase(t *testing.T) {
	chain := buildSyncChain(6)
	rig := newSyncPeerRig(t, []types.NodeID{"honest"})
	var reqs atomic.Uint64
	ep := rig.servePeer(t, "honest", &reqs, func(req *types.StateSyncRequestMsg) *types.StateSyncResponseMsg {
		return chain.response(t, req, nil)
	})

	// Charged state the rebase must credit: a dangling segment stream
	// for block 2 and buffered COMMITs for block 3, both below the tip
	// the sync will land on. (The watchdog announcement below also
	// buffers one charged COMMIT from "honest" for block 5.)
	o9, _ := rig.net.Endpoint("o9")
	if err := o9.Send("req", chain.segmentFor(2, "o9")); err != nil {
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

// segmentFor cuts a valid first segment of one chain block, attributed
// to the given orderer — enough to charge the orderer's stream budget
// without ever completing the stream.
func (c *syncChain) segmentFor(num uint64, orderer types.NodeID) *types.BlockSegmentMsg {
	block := c.records[num].Block
	return &types.BlockSegmentMsg{
		BlockNum: num,
		Seg:      0,
		Start:    0,
		Txns:     block.Txns,
		Preds:    make([][]int32, len(block.Txns)),
		Orderer:  orderer,
	}
}
