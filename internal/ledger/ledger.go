// Package ledger implements the append-only hash-chained block ledger each
// executor peer maintains. When a block of transactions is executed and
// validated, the peer appends the block (with its final execution results)
// to its copy of the ledger; the chain of header hashes makes any
// retroactive tampering evident.
package ledger

import (
	"errors"
	"fmt"
	"sync"

	"parblockchain/internal/types"
)

// Errors returned by Append and Verify.
var (
	// ErrBadNumber is returned when a block's number is not the next
	// height.
	ErrBadNumber = errors.New("ledger: block number out of sequence")
	// ErrBadPrevHash is returned when a block's previous-hash pointer does
	// not match the chain tip.
	ErrBadPrevHash = errors.New("ledger: previous hash mismatch")
	// ErrBadTxRoot is returned when a block's header does not commit to
	// its transactions.
	ErrBadTxRoot = errors.New("ledger: transaction merkle root mismatch")
	// ErrNotFound is returned by Get for heights beyond the chain tip.
	ErrNotFound = errors.New("ledger: block not found")
	// ErrPruned is returned by Get for heights below a restored ledger's
	// base: the entries were folded into a state snapshot and are no
	// longer held (recovery rebuilds the chain from snapshot + WAL tail,
	// not from genesis).
	ErrPruned = errors.New("ledger: block pruned below snapshot base")
)

// Entry is one committed block together with the final execution result of
// every transaction in it (in block order).
type Entry struct {
	// Block is the ordered block as received from the orderers.
	Block *types.Block
	// Results holds one result per transaction, in block order. Aborted
	// transactions appear with their abort marker, mirroring the paper's
	// (x, "abort") pairs.
	Results []types.TxResult
}

// Ledger is an in-memory append-only hash chain of blocks. It is safe for
// concurrent use.
//
// A ledger restored from a durability snapshot starts at a non-zero base:
// entries below the base were folded into the snapshot's state and
// pruned, and the chain is anchored by the base hash instead of the zero
// genesis pointer. Height, Append, and Verify all operate relative to
// that anchor, so the executor's admission logic is oblivious to whether
// the history below it is held or pruned.
type Ledger struct {
	mu       sync.RWMutex
	base     uint64
	baseHash types.Hash
	entries  []Entry
}

// New returns an empty ledger whose first block must carry number 0 and a
// zero previous hash.
func New() *Ledger { return &Ledger{} }

// NewAt returns a ledger whose history below height has been pruned: the
// next block appended must carry that height and chain from lastHash.
// The durability subsystem uses it to restore a node from a state
// snapshot without replaying (or retaining) the chain below it.
// NewAt(0, types.ZeroHash) is equivalent to New.
func NewAt(height uint64, lastHash types.Hash) *Ledger {
	return &Ledger{base: height, baseHash: lastHash}
}

// Height returns the number of committed blocks, including pruned ones.
func (l *Ledger) Height() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base + uint64(len(l.entries))
}

// Base returns the lowest height this ledger still holds an entry for
// (equal to Height for a freshly restored, empty ledger).
func (l *Ledger) Base() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base
}

// LastHash returns the hash of the newest block — or, when no entries are
// held, the base anchor hash (the zero hash for a genesis ledger) — the
// value the next block's PrevHash must equal.
func (l *Ledger) LastHash() types.Hash {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.entries) == 0 {
		return l.baseHash
	}
	return l.entries[len(l.entries)-1].Block.Hash()
}

// Append adds a block and its results to the chain after checking the
// height, the previous-hash pointer, the header's transaction commitment,
// and that results align one-to-one with transactions.
func (l *Ledger) Append(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.base + uint64(len(l.entries))
	if e.Block.Header.Number != next {
		return fmt.Errorf("%w: got %d, want %d", ErrBadNumber, e.Block.Header.Number, next)
	}
	prev := l.baseHash
	if len(l.entries) > 0 {
		prev = l.entries[len(l.entries)-1].Block.Hash()
	}
	if e.Block.Header.PrevHash != prev {
		return fmt.Errorf("%w: block %d", ErrBadPrevHash, next)
	}
	if !e.Block.VerifyTxRoot() {
		return fmt.Errorf("%w: block %d", ErrBadTxRoot, next)
	}
	if len(e.Results) != len(e.Block.Txns) {
		return fmt.Errorf("ledger: block %d has %d results for %d transactions",
			next, len(e.Results), len(e.Block.Txns))
	}
	l.entries = append(l.entries, e)
	return nil
}

// ResetTo reanchors the ledger at a new, higher base: every held entry
// is discarded and the next block appended must carry the given height
// and chain from lastHash. State sync uses it when adopting a peer's
// snapshot — the history below the snapshot is replaced wholesale, not
// appended to. Moving the anchor backwards is refused: a ledger never
// un-commits.
func (l *Ledger) ResetTo(height uint64, lastHash types.Hash) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if height < l.base+uint64(len(l.entries)) {
		return fmt.Errorf("%w: reset to %d below height %d", ErrBadNumber,
			height, l.base+uint64(len(l.entries)))
	}
	l.base = height
	l.baseHash = lastHash
	l.entries = l.entries[:0]
	return nil
}

// Get returns the entry at the given height. Heights below a restored
// ledger's base return ErrPruned.
func (l *Ledger) Get(height uint64) (Entry, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if height < l.base {
		return Entry{}, fmt.Errorf("%w: height %d (base %d)", ErrPruned, height, l.base)
	}
	if height-l.base >= uint64(len(l.entries)) {
		return Entry{}, fmt.Errorf("%w: height %d", ErrNotFound, height)
	}
	return l.entries[height-l.base], nil
}

// Verify re-validates the held chain: numbering, hash links from the base
// anchor, and transaction commitments. It is an audit, so it re-hashes
// every transaction from its content instead of trusting sealed digests
// (Append may trust them): an in-memory rewrite of a sealed transaction
// still fails. It returns the first violation found, if any.
func (l *Ledger) Verify() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	prev := l.baseHash
	for i, e := range l.entries {
		if e.Block.Header.Number != l.base+uint64(i) {
			return fmt.Errorf("%w: index %d holds block %d", ErrBadNumber, i, e.Block.Header.Number)
		}
		if e.Block.Header.PrevHash != prev {
			return fmt.Errorf("%w: block %d", ErrBadPrevHash, i)
		}
		if !e.Block.AuditTxRoot() {
			return fmt.Errorf("%w: block %d", ErrBadTxRoot, i)
		}
		prev = e.Block.Hash()
	}
	return nil
}

// TxCount returns the total number of transactions across the blocks the
// ledger still holds (pruned history is not counted).
func (l *Ledger) TxCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	total := 0
	for _, e := range l.entries {
		total += len(e.Block.Txns)
	}
	return total
}
