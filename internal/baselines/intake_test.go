package baselines_test

import (
	"testing"

	"parblockchain/internal/baselines"
	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/types"
)

var orderers = []types.NodeID{"o1", "o2", "o3", "o4"}

// signers holds one deterministic key per orderer; ring verifies them.
var signers, ring = func() (map[types.NodeID]*cryptoutil.KeyPair, *cryptoutil.KeyRing) {
	keys := make(map[types.NodeID]*cryptoutil.KeyPair)
	ring := cryptoutil.NewKeyRing()
	for _, id := range orderers {
		keys[id] = cryptoutil.DeterministicKeyPair(string(id))
		ring.Add(string(id), keys[id].Public())
	}
	return keys, ring
}()

// fixtureTx returns a distinct transaction per ts. Transaction.Digest
// does not cover ID, so the transactions differ in ClientTS.
func fixtureTx(ts uint64) *types.Transaction {
	return &types.Transaction{
		App: "app1", Client: "c1", ClientTS: ts, Op: contract.DepositOp("app1/alice", 1),
	}
}

// fixtureChain returns n linked blocks of two transactions each; salt
// varies their content, so chains with different salts diverge.
func fixtureChain(n int, salt uint64) []*types.Block {
	var blocks []*types.Block
	prev := types.ZeroHash
	for i := range n {
		ts := 100*salt + 2*uint64(i)
		b := types.NewBlock(uint64(i), prev, []*types.Transaction{fixtureTx(ts), fixtureTx(ts + 1)})
		blocks = append(blocks, b)
		prev = b.Hash()
	}
	return blocks
}

// announce is orderer from's signed NEWBLOCK for b.
func announce(from types.NodeID, b *types.Block) *types.NewBlockMsg {
	m := &types.NewBlockMsg{Block: b, Apps: b.Apps(), Orderer: from}
	d := m.Digest()
	m.Sig = signers[from].Sign(d[:])
	return m
}

// add feeds one announcement and fails the test on an error.
func add(t *testing.T, in *baselines.Intake, from types.NodeID, b *types.Block) []*types.Block {
	t.Helper()
	out, err := in.Add(from, announce(from, b))
	if err != nil {
		t.Fatalf("Add(%s, block %d): %v", from, b.Header.Number, err)
	}
	return out
}

func wantBlocks(t *testing.T, got []*types.Block, want ...*types.Block) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("released %d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("release %d is block %d (%x), want block %d (%x)", i,
				got[i].Header.Number, got[i].Hash(), want[i].Header.Number, want[i].Hash())
		}
	}
}

func TestBlockIntakeReleasesAtQuorum(t *testing.T) {
	in := &baselines.Intake{Quorum: 2, Verifier: ring}
	b := fixtureChain(1, 0)[0]
	wantBlocks(t, add(t, in, "o1", b))
	wantBlocks(t, add(t, in, "o2", b), b)
	wantBlocks(t, add(t, in, "o3", b))
	wantBlocks(t, add(t, in, "o4", b))
}

func TestBlockIntakeCountsOneVotePerOrderer(t *testing.T) {
	in := &baselines.Intake{Quorum: 2}
	b := fixtureChain(1, 0)[0]
	wantBlocks(t, add(t, in, "o1", b))
	wantBlocks(t, add(t, in, "o1", b))
	// An announcement naming another orderer than its sender is no vote.
	if out, err := in.Add("o2", announce("o1", b)); err != nil || len(out) != 0 {
		t.Fatalf("relayed vote released %d blocks (err %v)", len(out), err)
	}
	wantBlocks(t, add(t, in, "o2", b), b)
}

func TestBlockIntakeIgnoresDivergentDigest(t *testing.T) {
	in := &baselines.Intake{Quorum: 2}
	honest, forged := fixtureChain(1, 0)[0], fixtureChain(1, 1)[0]
	if honest.Hash() == forged.Hash() {
		t.Fatal("fixture blocks do not diverge")
	}
	wantBlocks(t, add(t, in, "o1", honest))
	wantBlocks(t, add(t, in, "o2", forged))
	// o2 already voted: its switch to the honest block is not counted.
	wantBlocks(t, add(t, in, "o2", honest))
	wantBlocks(t, add(t, in, "o3", honest), honest)
}

func TestBlockIntakeIgnoresBadSignature(t *testing.T) {
	in := &baselines.Intake{Quorum: 2, Verifier: ring}
	b := fixtureChain(1, 0)[0]
	wantBlocks(t, add(t, in, "o1", b))
	bad := announce("o2", b)
	bad.Sig = signers["o3"].Sign(bad.Sig) // any signature but o2's over the digest
	if out, err := in.Add("o2", bad); err != nil || len(out) != 0 {
		t.Fatalf("badly signed vote released %d blocks (err %v)", len(out), err)
	}
	// o2's rejected vote was not recorded, so its real one counts.
	wantBlocks(t, add(t, in, "o2", b), b)
}

func TestBlockIntakeNeverReleasesTxRootMismatch(t *testing.T) {
	in := &baselines.Intake{Quorum: 2}
	b := fixtureChain(1, 0)[0]
	// Same header — hence the same digest and valid signatures — over a
	// swapped body.
	tampered := &types.Block{Header: b.Header, Txns: []*types.Transaction{fixtureTx(7), fixtureTx(8)}}
	for _, o := range orderers {
		wantBlocks(t, add(t, in, o, tampered))
	}
}

func TestBlockIntakeReleasesInOrder(t *testing.T) {
	in := &baselines.Intake{Quorum: 1}
	chain := fixtureChain(4, 0)
	wantBlocks(t, add(t, in, "o1", chain[2]))
	wantBlocks(t, add(t, in, "o1", chain[1]))
	wantBlocks(t, add(t, in, "o1", chain[0]), chain[0], chain[1], chain[2])
	wantBlocks(t, add(t, in, "o2", chain[1])) // already handed out
	wantBlocks(t, add(t, in, "o1", chain[3]), chain[3])
}

func TestBlockIntakeChainBreakHalts(t *testing.T) {
	in := &baselines.Intake{Quorum: 1}
	chain := fixtureChain(1, 0)
	// Block 1 of another history: well-formed, but its PrevHash is not
	// block 0's hash.
	stray := fixtureChain(2, 1)[1]
	wantBlocks(t, add(t, in, "o1", stray))
	out, err := in.Add("o1", announce("o1", chain[0]))
	if err == nil {
		t.Fatal("a block that does not extend the chain was released")
	}
	wantBlocks(t, out, chain[0])
}
