package types

import (
	"crypto/sha256"
	"encoding/binary"
)

// BlockHeader carries the chaining metadata of a block. Headers are hashed
// to link blocks: each header embeds the hash of the previous block
// (h = H(B') in the paper's NEWBLOCK message).
type BlockHeader struct {
	// Number is the block's sequence number n; the genesis block is 0.
	Number uint64
	// PrevHash is the hash of the previous block's header.
	PrevHash Hash
	// TxRoot is the Merkle root over the digests of the block's
	// transactions, committing the header to the block body.
	TxRoot Hash
	// Count is the number of transactions in the block.
	Count int
}

// Block is an ordered batch of transactions produced by the ordering
// phase. Orderers cut blocks on three deterministic conditions: maximum
// transaction count, maximum byte size, or a timeout signalled through
// consensus (Section IV-B).
type Block struct {
	// Header is the chaining metadata.
	Header BlockHeader
	// Txns are the block's transactions in their agreed total order. The
	// position of a transaction in this slice is its timestamp ts(T)
	// relative to the other transactions of the block.
	Txns []*Transaction
}

// Hash returns the block's identity: a digest of its header.
func (b *Block) Hash() Hash {
	e := newEncoder()
	e.u64(b.Header.Number)
	e.bytes(b.Header.PrevHash[:])
	e.bytes(b.Header.TxRoot[:])
	e.u64(uint64(b.Header.Count))
	return e.sum()
}

// NewBlock assembles a block over txns, linking it to the previous block
// hash and committing the header to the transaction list via a Merkle
// root.
func NewBlock(number uint64, prev Hash, txns []*Transaction) *Block {
	b := &Block{
		Header: BlockHeader{
			Number:   number,
			PrevHash: prev,
			Count:    len(txns),
		},
		Txns: txns,
	}
	b.Header.TxRoot = TxMerkleRoot(txns)
	return b
}

// TxMerkleRoot computes the Merkle root over the transactions' digests.
// An empty transaction list yields the zero hash. Odd levels duplicate the
// trailing node, the conventional Bitcoin-style padding. Sealed
// transactions contribute their cached digests, so only the internal
// nodes are hashed.
func TxMerkleRoot(txns []*Transaction) Hash {
	return merkleRoot(txns, (*Transaction).Digest)
}

// merkleRoot is the one Merkle builder: leaf supplies each transaction's
// leaf hash, and the levels are reduced in place in a single slice. An
// internal node hashes the two children with the digest encoder's length
// prefixes, built on the stack.
func merkleRoot(txns []*Transaction, leaf func(*Transaction) Hash) Hash {
	if len(txns) == 0 {
		return ZeroHash
	}
	level := make([]Hash, len(txns))
	for i, tx := range txns {
		level[i] = leaf(tx)
	}
	// node is len(left) || left || len(right) || right.
	const half = 8 + sha256.Size
	var node [2 * half]byte
	binary.BigEndian.PutUint64(node[0:], sha256.Size)
	binary.BigEndian.PutUint64(node[half:], sha256.Size)
	for n := len(level); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n; i += 2 {
			j := i + 1
			if j == n {
				j = i // duplicate the odd trailing node
			}
			copy(node[8:half], level[i][:])
			copy(node[half+8:], level[j][:])
			level[i/2] = sha256.Sum256(node[:])
		}
	}
	return level[0]
}

// Apps returns the set of application IDs with at least one transaction in
// the block (the A component of the NEWBLOCK message), in first-seen
// order.
func (b *Block) Apps() []AppID {
	seen := make(map[AppID]bool, 4)
	apps := make([]AppID, 0, 4)
	for _, tx := range b.Txns {
		if !seen[tx.App] {
			seen[tx.App] = true
			apps = append(apps, tx.App)
		}
	}
	return apps
}

// VerifyTxRoot recomputes the Merkle root of the block body and reports
// whether it matches the header commitment. Sealed transactions
// contribute their cached digests.
func (b *Block) VerifyTxRoot() bool {
	return TxMerkleRoot(b.Txns) == b.Header.TxRoot
}

// AuditTxRoot is VerifyTxRoot with every leaf re-hashed from the
// transactions' content, ignoring sealed digests: it catches an in-place
// edit of a sealed transaction, which VerifyTxRoot by design cannot.
func (b *Block) AuditTxRoot() bool {
	return merkleRoot(b.Txns, (*Transaction).contentDigest) == b.Header.TxRoot
}
