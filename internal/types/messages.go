package types

import (
	"parblockchain/internal/depgraph"
)

// This file defines the protocol messages exchanged by ParBlockchain
// nodes, following the paper's notation:
//
//	<REQUEST, op, A, ts_c, c>_sigma_c      client -> orderers
//	<NEWBLOCK, n, B, G(B), A, o, h>_sigma_o orderers -> executors
//	<COMMIT, S, e>_sigma_e                 executor -> executors
//
// The baselines reuse Request and add their own endorsement/validation
// messages in their packages.

// RequestMsg is a signed client request carrying one transaction. The
// transaction embeds the operation, the application ID, the client
// timestamp, and the client signature, so RequestMsg is a thin envelope.
type RequestMsg struct {
	// Tx is the requested transaction.
	Tx *Transaction
}

// NewBlockMsg is the orderers' announcement of a freshly cut block
// together with its dependency graph. Executors act on a block after
// receiving a quorum of matching NewBlockMsg from distinct orderers.
type NewBlockMsg struct {
	// Block is the ordered batch B with header number n and previous
	// hash h.
	Block *Block
	// Graph is the dependency graph G(B) over Block.Txns.
	Graph *depgraph.Graph
	// Apps lists the applications with transactions in the block.
	Apps []AppID
	// Orderer is the sending orderer o.
	Orderer NodeID
	// Sig is the orderer's signature over Digest().
	Sig []byte
}

// Digest returns the signed digest of the message: the block hash bound to
// the graph shape. Orderers that agree on the block necessarily agree on
// the (deterministically generated) graph, so hashing the block identity
// plus the edge count suffices to detect tampering with either.
func (m *NewBlockMsg) Digest() Hash {
	e := newEncoder()
	bh := m.Block.Hash()
	e.bytes(bh[:])
	if m.Graph != nil {
		e.u64(uint64(m.Graph.N))
		e.u64(uint64(m.Graph.EdgeCount()))
		for _, succ := range m.Graph.Succ {
			e.u64(uint64(len(succ)))
			for _, j := range succ {
				e.u64(uint64(j))
			}
		}
	}
	return e.sum()
}

// CommitMsg carries the execution results S of one or more transactions
// from an agent to all executor nodes (Algorithm 2). Results for several
// transactions are batched per the paper's lazy multicast rule: an agent
// flushes accumulated results when an executed transaction has a successor
// owned by a different application, or at the end of its work on a block.
type CommitMsg struct {
	// BlockNum is the block the results belong to.
	BlockNum uint64
	// Results is the batched set S of (transaction, result) pairs.
	Results []TxResult
	// Executor is the sending agent e.
	Executor NodeID
	// Sig is the executor's signature over Digest().
	Sig []byte
}

// Digest returns the signed digest of the commit message.
func (m *CommitMsg) Digest() Hash {
	e := newEncoder()
	e.u64(m.BlockNum)
	e.u64(uint64(len(m.Results)))
	for i := range m.Results {
		d := m.Results[i].Digest()
		e.bytes(d[:])
	}
	e.str(string(m.Executor))
	return e.sum()
}

// BlockSegmentMsg is the frame of the retired segment-streaming wire
// format: one run of a block's transactions with their incremental
// dependency edges. Nothing sends or decodes it any more (TCP tag 5 is
// reserved); the declaration stays only because the benchmark harness
// still names the type among the protocol payloads it counts.
type BlockSegmentMsg struct {
	// BlockNum is the block the segment belongs to.
	BlockNum uint64
	// Seg is the zero-based segment index within the block.
	Seg int
	// Start is the block index of Txns[0].
	Start int
	// Txns are the segment's transactions in their agreed total order.
	Txns []*Transaction
	// Preds[i] lists the dependency-graph predecessors of Txns[i] as
	// block indices.
	Preds [][]int32
	// Orderer is the sending orderer.
	Orderer NodeID
	// Sig is the orderer's signature over the segment.
	Sig []byte
}

// BlockSealMsg closed a streamed block in the retired segment-streaming
// wire format: the block header, the number of segments, and the
// cumulative segment digest binding the seal to the streamed content.
// Nothing sends or decodes it any more (TCP tag 6 is reserved). Its
// Digest stays because finalization records written by streaming nodes
// carry a quorum of signatures over it (persist.BlockRecord.Streamed),
// and state sync still verifies them.
type BlockSealMsg struct {
	// Header is the sealed block's header (number, previous hash,
	// transaction root, count).
	Header BlockHeader
	// Segments is the number of segments the block was streamed in.
	Segments int
	// Cum is the cumulative segment digest over the block's segments.
	Cum Hash
	// Apps lists the applications with transactions in the block.
	Apps []AppID
	// Orderer is the sending orderer.
	Orderer NodeID
	// Sig is the orderer's signature over Digest().
	Sig []byte
}

// Digest returns the signed digest of the seal: the block identity bound
// to the streamed content. The orderer identity is excluded so seals from
// orderers that agree on the block match.
func (m *BlockSealMsg) Digest() Hash {
	e := newEncoder()
	bh := (&Block{Header: m.Header}).Hash()
	e.bytes(bh[:])
	e.u64(uint64(m.Segments))
	e.bytes(m.Cum[:])
	e.u64(uint64(len(m.Apps)))
	for _, a := range m.Apps {
		e.str(string(a))
	}
	return e.sum()
}

// CommitNotifyMsg informs a client of its transaction's final outcome.
// In-process deployments route completions through the observer
// executor's commit hook instead; TCP clusters enable client notification
// on a designated executor (execution.Config.NotifyClients).
type CommitNotifyMsg struct {
	// TxID identifies the client's transaction.
	TxID TxID
	// BlockNum is the block the transaction committed in.
	BlockNum uint64
	// Aborted reports the transaction's final outcome.
	Aborted bool
	// AbortReason explains an abort.
	AbortReason string
}
