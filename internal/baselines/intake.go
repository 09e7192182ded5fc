// Package baselines holds what the OX and XOV baseline peers share: both
// sit behind the same graph-less ordering service as ParBlockchain, so
// both accept its NEWBLOCK announcements through one orderer-quorum
// intake.
package baselines

import (
	"fmt"

	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/types"
)

// Intake turns the orderers' NEWBLOCK announcements into the chain of
// blocks a baseline peer applies. The zero value with Quorum set is ready
// to use; it is not safe for concurrent use.
type Intake struct {
	// Quorum is the number of matching announcements from distinct
	// orderers that releases a block (values below 1 mean 1).
	Quorum int
	// Verifier, when set, checks each announcement's orderer signature;
	// an announcement that fails is ignored.
	Verifier cryptoutil.Verifier

	tallies  map[uint64]*tally
	next     uint64 // number of the next block to hand out
	prevHash types.Hash
}

// tally collects the votes on one block number.
type tally struct {
	voted    map[types.NodeID]bool
	count    map[types.Hash]int
	first    map[types.Hash]*types.Block // first body seen per digest
	released *types.Block
}

// Add counts the announcement m received from orderer from and returns
// the blocks it releases, in chain order: each block once Quorum
// orderers announced the same digest and its body matches its tx root.
// An announcement whose sender, signature or tx root does not check is
// ignored, as is a second vote from one orderer. The error reports a
// released block that does not extend the previous one; the caller must
// halt, after applying the blocks returned beside it.
func (in *Intake) Add(from types.NodeID, m *types.NewBlockMsg) ([]*types.Block, error) {
	if m.Block == nil || m.Orderer != from || m.Block.Header.Number < in.next {
		return nil, nil
	}
	digest := m.Digest()
	if in.Verifier != nil && in.Verifier.Verify(string(from), digest[:], m.Sig) != nil {
		return nil, nil
	}
	if in.tallies == nil {
		in.tallies = make(map[uint64]*tally)
	}
	num := m.Block.Header.Number
	t := in.tallies[num]
	if t == nil {
		t = &tally{
			voted: make(map[types.NodeID]bool),
			count: make(map[types.Hash]int),
			first: make(map[types.Hash]*types.Block),
		}
		in.tallies[num] = t
	}
	if t.released != nil || t.voted[from] {
		return nil, nil
	}
	if t.first[digest] == nil {
		if !m.Block.VerifyTxRoot() {
			return nil, nil
		}
		t.first[digest] = m.Block
	}
	t.voted[from] = true
	t.count[digest]++
	if t.count[digest] < max(in.Quorum, 1) {
		return nil, nil
	}
	t.released = t.first[digest]

	var out []*types.Block
	for t := in.tallies[in.next]; t != nil && t.released != nil; t = in.tallies[in.next] {
		b := t.released
		if b.Header.PrevHash != in.prevHash {
			return out, fmt.Errorf("baselines: block %d does not extend the chain", b.Header.Number)
		}
		delete(in.tallies, in.next)
		out = append(out, b)
		in.next++
		in.prevHash = b.Hash()
	}
	return out, nil
}
