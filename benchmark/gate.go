package main

import (
	"errors"
	"fmt"

	"parblockchain/internal/contract"
	"parblockchain/internal/ledger"
	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// errLedgerPruned reports that a ledger no longer starts at genesis (a
// snapshot truncated it), so it cannot be replayed from the start.
var errLedgerPruned = errors.New("ledger pruned below a snapshot")

// gate is the correctness check run after every workload. replicas[0] is
// the observer. It requires that
//
//   - every ledger verifies (hash chain and Merkle roots);
//   - every replica's chain is a prefix of the observer's;
//   - replaying the observer's ledger one transaction at a time through
//     the accounting contract, on a fresh store seeded with genesis,
//     gives the same outcome for every transaction and, at each
//     replica's height, exactly that replica's state hash.
//
// Replicas at the same height therefore hold the same state, and that
// state is the sequential one. In-process runs bring every executor to
// the observer's height first; a TCP node stopped a moment earlier may
// legitimately be a few blocks short.
//
// It returns the replay's state hash after each height, which the probes
// check their own results against.
func gate(replicas []replica, genesis []types.KV) ([]types.Hash, error) {
	if len(replicas) == 0 {
		return nil, errors.New("gate: no replicas")
	}
	observer := replicas[0].ledger
	if observer.Base() != 0 {
		return nil, fmt.Errorf("gate: observer %w", errLedgerPruned)
	}
	for _, r := range replicas {
		if err := r.ledger.Verify(); err != nil {
			return nil, fmt.Errorf("gate: %s ledger: %w", r.name, err)
		}
		if r.ledger.Base() != 0 {
			return nil, fmt.Errorf("gate: %s %w", r.name, errLedgerPruned)
		}
		if r.ledger.Height() > observer.Height() {
			return nil, fmt.Errorf("gate: %s at height %d is ahead of the observer at %d",
				r.name, r.ledger.Height(), observer.Height())
		}
	}
	hashAt, err := replay(observer, genesis)
	if err != nil {
		return nil, err
	}
	for _, r := range replicas {
		h := r.ledger.Height()
		if h > 0 {
			mine, _ := r.ledger.Get(h - 1)
			theirs, _ := observer.Get(h - 1)
			if mine.Block.Hash() != theirs.Block.Hash() {
				return nil, fmt.Errorf("gate: %s diverges from the observer's chain at block %d", r.name, h-1)
			}
		}
		if r.stateHash != hashAt[h] {
			return nil, fmt.Errorf("gate: %s state hash %s at height %d, sequential replay gives %s",
				r.name, r.stateHash, h, hashAt[h])
		}
	}
	return hashAt, nil
}

// replay executes the ledger sequentially from genesis and returns the
// state hash after each height (index h = state after h blocks). It
// fails if any transaction's outcome differs from the recorded one.
func replay(led *ledger.Ledger, genesis []types.KV) ([]types.Hash, error) {
	store := state.NewKVStore()
	store.Apply(genesis)
	logic := contract.NewAccounting()
	height := led.Height()
	hashAt := make([]types.Hash, height+1)
	hashAt[0] = store.Hash()
	for h := uint64(0); h < height; h++ {
		entry, err := led.Get(h)
		if err != nil {
			return nil, fmt.Errorf("gate: %w", err)
		}
		for i, tx := range entry.Block.Txns {
			writes, err := logic.Execute(store, tx.Op)
			if aborted := err != nil; aborted != entry.Results[i].Aborted {
				return nil, fmt.Errorf("gate: block %d tx %d (%s): replay aborted=%v, ledger says %v",
					h, i, tx.ID, aborted, entry.Results[i].Aborted)
			}
			if err == nil {
				store.Apply(writes)
			}
		}
		hashAt[h+1] = store.Hash()
	}
	return hashAt, nil
}
