package execution

import (
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"parblockchain/internal/depgraph"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// This file pins the intake contract: an orderer endorses a block with
// exactly one vote — its NEWBLOCK digest — and the block's content is
// installed from the NEWBLOCK of an orderer that voted the digest that
// reached OrderQuorum. Runs under -race in CI (a named gating step).

// intakeRig is a rig at OrderQuorum 2 with four orderer identities, o1
// being the rig's own.
type intakeRig struct {
	*rig
	eps map[types.NodeID]transport.Endpoint
}

func newIntakeRig(t *testing.T, genesis []types.KV) *intakeRig {
	t.Helper()
	r := &intakeRig{
		rig: newRig(t, 4, genesis, func(c *Config) { c.OrderQuorum = 2 }),
		eps: make(map[types.NodeID]transport.Endpoint),
	}
	r.eps["o1"] = r.orderer
	for _, id := range []types.NodeID{"o2", "o3", "o4"} {
		ep, err := r.net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		r.eps[id] = ep
	}
	return r
}

// as sends a copy of a NEWBLOCK re-attributed to the orderer.
func (r *intakeRig) as(t *testing.T, from types.NodeID, nb *types.NewBlockMsg) {
	t.Helper()
	c := *nb
	c.Orderer = from
	if err := r.eps[from].Send("e1", &c); err != nil {
		t.Fatal(err)
	}
}

// quiet asserts nothing finalizes for a while.
func (r *intakeRig) quiet(t *testing.T, what string) {
	t.Helper()
	select {
	case <-r.commits:
		t.Fatalf("a block finalized %s", what)
	case <-time.After(150 * time.Millisecond):
	}
}

// badRoot returns a copy of a header whose transaction commitment does
// not match any content.
func badRoot(h types.BlockHeader) types.BlockHeader {
	h.TxRoot = types.Hash{0xbd}
	return h
}

// TestIntake drives one executor at OrderQuorum 2 through the ways a
// block's endorsement and content can meet, and checks each ends where
// the single-orderer run does — or does not end at all.
func TestIntake(t *testing.T) {
	blocks, genesis := tracedBlocks(3001, 0.4, 2, 8)
	wantHash, _ := refResults(genesis, blocks)
	_, monoLed, _ := runPipelined(t, 4, "", genesis, blocks)
	wantChain := monoLed.LastHash()
	mono := cutMono(blocks, "o1")

	// finalizes asserts the rig lands on the single-orderer run's ledger
	// and state after n blocks.
	finalizes := func(t *testing.T, r *intakeRig, n int) {
		t.Helper()
		r.awaitBlocks(t, n)
		if got := r.store.Hash(); got != wantHash {
			t.Fatal("state hash diverged from the sequential baseline")
		}
		if r.led.Height() != uint64(n) || r.led.LastHash() != wantChain {
			t.Fatalf("ledger at height %d diverged from the single-orderer run", r.led.Height())
		}
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, r *intakeRig)
	}{
		{"newblock-quorum", func(t *testing.T, r *intakeRig) {
			for _, nb := range mono {
				r.as(t, "o1", nb)
			}
			r.quiet(t, "on one NEWBLOCK at quorum 2")
			for _, nb := range mono {
				r.as(t, "o2", nb)
			}
			finalizes(t, r, 2)
		}},
		{"divergent-newblock-quorum-halts", func(t *testing.T, r *intakeRig) {
			// Block 1 of another chain links to that chain's block 0, not
			// to the one this node finalized.
			other, _ := tracedBlocks(3002, 0.4, 2, 8)
			r.as(t, "o2", mono[0])
			r.as(t, "o3", mono[0])
			r.awaitBlocks(t, 1)
			wrong := cutMono(other, "o2")[1]
			r.as(t, "o2", wrong)
			r.as(t, "o3", wrong)
			waitFor(t, "halt", func() bool { return r.exec.Status().Halted })
			if reason := r.exec.Status().HaltReason; !strings.Contains(reason, "block 1") {
				t.Fatalf("halt_reason = %q, want it to name block 1", reason)
			}
			r.quiet(t, "after a divergent quorum")
		}},
		{"bad-root-newblock-then-valid", func(t *testing.T, r *intakeRig) {
			bad := *mono[0]
			bad.Block = &types.Block{Header: badRoot(mono[0].Block.Header), Txns: mono[0].Block.Txns}
			r.as(t, "o1", &bad)
			r.as(t, "o2", &bad)
			r.quiet(t, "from content with a bad tx root")
			for _, nb := range mono {
				r.as(t, "o3", nb)
				r.as(t, "o4", nb)
			}
			finalizes(t, r, 2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, newIntakeRig(t, genesis))
		})
	}
}

// TestIntakeUnendorsedNewBlocksBounded is the memory bound on content no
// quorum vouches for: a lone faulty orderer at OrderQuorum 2 announces a
// large, never-endorsed NEWBLOCK for every block inside the horizon. Its
// content is charged to the orderer's byte budget, so what the executor
// retains stays within that budget, and an honest
// quorum still finalizes block 0. The flood goes straight into the
// executor's mailbox, which releases what it delivers, so a weak pointer
// to each announced transaction tells exactly what the executor keeps.
func TestIntakeUnendorsedNewBlocksBounded(t *testing.T) {
	old := maxOrdererStreamBytes
	maxOrdererStreamBytes = 1 << 20
	t.Cleanup(func() { maxOrdererStreamBytes = old })
	blocks, genesis := tracedBlocks(3003, 0, 1, 4)
	r := newIntakeRig(t, genesis)
	deliver := func(nb *types.NewBlockMsg) {
		nb.Orderer = "o1"
		r.exec.mailbox.Push(event{kind: evMsg, msg: transport.Message{From: "o1", To: "e1", Payload: nb}})
	}

	const payload = 256 << 10
	var sent []weak.Pointer[types.Transaction]
	for num := uint64(0); num < DefaultMinHorizon; num++ {
		tx := kvTx("app1", num, "junk", strings.Repeat("x", payload))
		deliver(&types.NewBlockMsg{
			Block: types.NewBlock(num, types.Hash{0xfa}, []*types.Transaction{tx}),
			Graph: depgraph.Build([]depgraph.RWSet{{Writes: tx.Op.Writes}}),
		})
		sent = append(sent, weak.Make(tx))
	}
	// One message past the horizon: once it is counted, the actor has
	// handled every announcement before it.
	deliver(&types.NewBlockMsg{
		Block: types.NewBlock(1<<20, types.Hash{}, nil),
		Graph: depgraph.Build(nil),
	})
	waitFor(t, "flood drained", func() bool { return r.exec.Stats().MsgsDroppedFuture == 1 })

	if got := r.exec.Status().StreamBufferBytes; got > int64(maxOrdererStreamBytes) {
		t.Fatalf("stream buffer holds %d bytes, budget %d", got, maxOrdererStreamBytes)
	}
	runtime.GC()
	runtime.GC()
	retained := 0
	for _, p := range sent {
		if p.Value() != nil {
			retained += payload
		}
	}
	if retained > maxOrdererStreamBytes {
		t.Fatalf("executor retains %d of %d unendorsed bytes, budget %d",
			retained, len(sent)*payload, maxOrdererStreamBytes)
	}

	nb := cutMono(blocks, "o2")[0]
	r.as(t, "o2", nb)
	r.as(t, "o3", nb)
	r.awaitBlocks(t, 1)
}
