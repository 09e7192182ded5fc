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
// exactly one vote — its NEWBLOCK digest or its seal digest, whichever
// arrives first — and the block's content is installed from whichever
// candidate (a segment stream, or a NEWBLOCK's own content) matches the
// digest that reached OrderQuorum. Runs under -race in CI (a named gating
// step).

// intakeRig is a stream rig at OrderQuorum 2 with four orderer
// identities, o1 being the rig's own.
type intakeRig struct {
	*streamRig
	eps map[types.NodeID]transport.Endpoint
}

func newIntakeRig(t *testing.T, genesis []types.KV) *intakeRig {
	t.Helper()
	r := &intakeRig{
		streamRig: newStreamRig(t, 4, genesis, func(c *Config) { c.OrderQuorum = 2 }),
		eps:       make(map[types.NodeID]transport.Endpoint),
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

// as sends a copy of an intake message re-attributed to the orderer.
func (r *intakeRig) as(t *testing.T, from types.NodeID, payload any) {
	t.Helper()
	switch m := payload.(type) {
	case *types.NewBlockMsg:
		c := *m
		c.Orderer = from
		payload = &c
	case *types.BlockSegmentMsg:
		c := *m
		c.Orderer = from
		payload = &c
	case *types.BlockSealMsg:
		c := *m
		c.Orderer = from
		payload = &c
	}
	if err := r.eps[from].Send("e1", payload); err != nil {
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

// awaitStarted waits until the executor ran n transactions — proof that
// a block was admitted from its segments before any endorsement.
func (r *intakeRig) awaitStarted(t *testing.T, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.exec.Stats().TxExecuted < n {
		if time.Now().After(deadline) {
			t.Fatalf("segments did not execute (executed=%d)", r.exec.Stats().TxExecuted)
		}
		time.Sleep(time.Millisecond)
	}
}

// badRoot returns a copy of a header whose transaction commitment does
// not match any content.
func badRoot(h types.BlockHeader) types.BlockHeader {
	h.TxRoot = types.Hash{0xbd}
	return h
}

// TestIntake drives one executor at OrderQuorum 2 through every way a
// block's endorsement and content can meet, and checks each ends where
// the monolithic single-orderer run does — or does not end at all.
func TestIntake(t *testing.T) {
	blocks, genesis := tracedBlocks(3001, 0.4, 2, 8)
	wantHash, _ := refResults(genesis, blocks)
	_, monoLed, _ := runPipelined(t, 4, "", genesis, blocks)
	wantChain := monoLed.LastHash()
	stream := cutStream(blocks, 4, "o1")
	mono := cutMono(blocks, "o1")

	// finalizes asserts the rig lands on the monolithic run's ledger and
	// state after n blocks.
	finalizes := func(t *testing.T, r *intakeRig, n int) {
		t.Helper()
		r.awaitBlocks(t, n)
		if got := r.store.Hash(); got != wantHash {
			t.Fatal("state hash diverged from the sequential baseline")
		}
		if r.led.Height() != uint64(n) || r.led.LastHash() != wantChain {
			t.Fatalf("ledger at height %d diverged from the monolithic run", r.led.Height())
		}
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, r *intakeRig)
	}{
		{"seal-quorum", func(t *testing.T, r *intakeRig) {
			for _, sb := range stream {
				for _, seg := range sb.segs {
					r.as(t, "o1", seg)
				}
				r.as(t, "o1", sb.seal)
			}
			r.quiet(t, "on one seal at quorum 2")
			for _, sb := range stream {
				r.as(t, "o2", sb.seal)
			}
			finalizes(t, r, 2)
		}},
		{"newblock-and-seal-never-pool", func(t *testing.T, r *intakeRig) {
			r.as(t, "o1", mono[0])
			for _, seg := range stream[0].segs {
				r.as(t, "o2", seg)
			}
			r.as(t, "o2", stream[0].seal)
			r.quiet(t, "on one NEWBLOCK plus one seal")
			r.as(t, "o3", stream[0].seal)
			r.as(t, "o2", mono[1])
			r.as(t, "o3", mono[1])
			finalizes(t, r, 2)
		}},
		{"started-then-newblock-quorum", func(t *testing.T, r *intakeRig) {
			r.as(t, "o1", stream[0].segs[0])
			r.awaitStarted(t, uint64(len(stream[0].segs[0].Txns)))
			for _, nb := range mono {
				r.as(t, "o2", nb)
				r.as(t, "o3", nb)
			}
			finalizes(t, r, 2)
		}},
		{"divergent-newblock-quorum-halts", func(t *testing.T, r *intakeRig) {
			other, _ := tracedBlocks(3002, 0.4, 1, 8)
			r.as(t, "o1", stream[0].segs[0])
			r.awaitStarted(t, uint64(len(stream[0].segs[0].Txns)))
			wrong := cutMono(other, "o2")[0]
			r.as(t, "o2", wrong)
			r.as(t, "o3", wrong)
			waitFor(t, "halt", func() bool { return r.exec.Status().Halted })
			if reason := r.exec.Status().HaltReason; !strings.Contains(reason, "block 0") {
				t.Fatalf("halt_reason = %q, want it to name block 0", reason)
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
		{"bad-root-seal-then-valid", func(t *testing.T, r *intakeRig) {
			for _, seg := range stream[0].segs {
				r.as(t, "o1", seg)
			}
			bad := *stream[0].seal
			bad.Header = badRoot(bad.Header)
			r.as(t, "o1", &bad)
			r.as(t, "o2", &bad)
			r.quiet(t, "from content with a bad tx root")
			if r.exec.Status().Halted {
				t.Fatalf("a rejected endorsement halted the executor: %s", r.exec.Status().HaltReason)
			}
			r.as(t, "o3", stream[0].seal)
			r.as(t, "o4", stream[0].seal)
			for _, seg := range stream[1].segs {
				r.as(t, "o3", seg)
			}
			r.as(t, "o3", stream[1].seal)
			r.as(t, "o4", stream[1].seal)
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
// content is charged to the orderer's byte budget like a segment stream,
// so what the executor retains stays within that budget, and an honest
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
			Graph: depgraph.Build([]depgraph.RWSet{{Writes: tx.Op.Writes}}, depgraph.Standard),
		})
		sent = append(sent, weak.Make(tx))
	}
	// One message past the horizon: once it is counted, the actor has
	// handled every announcement before it.
	deliver(&types.NewBlockMsg{
		Block: types.NewBlock(1<<20, types.Hash{}, nil),
		Graph: depgraph.Build(nil, depgraph.Standard),
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
