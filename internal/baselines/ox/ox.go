// Package ox implements the sequential order-execute baseline (the
// paper's "OX" paradigm, as in Tendermint or Multichain): orderers agree
// on a total order and cut blocks exactly as in ParBlockchain — but
// without dependency graphs — and then *every* peer executes every
// transaction of each block sequentially against its local state. Every
// peer therefore installs every smart contract, which is precisely the
// confidentiality drawback the paper attributes to this paradigm.
package ox

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"parblockchain/internal/baselines"
	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/execution"
	"parblockchain/internal/ledger"
	"parblockchain/internal/state"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// PeerConfig parameterizes one OX peer.
type PeerConfig struct {
	// ID is this peer's identity.
	ID types.NodeID
	// Endpoint is the peer's transport attachment.
	Endpoint transport.Endpoint
	// Registry holds every application's contract: OX peers execute all
	// transactions.
	Registry *contract.Registry
	// OrderQuorum is the number of matching NEWBLOCK messages required.
	OrderQuorum int
	// Store is the peer's committed state.
	Store *state.KVStore
	// Ledger is the peer's block ledger.
	Ledger *ledger.Ledger
	// Verifier checks NEWBLOCK signatures when VerifySigs is set.
	Verifier   cryptoutil.Verifier
	VerifySigs bool
	// OnCommit observes finalized blocks.
	OnCommit execution.CommitHook
	// Logf receives diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Peer is one OX peer: it takes blocks from an orderer quorum and
// executes their transactions in order, sequentially, on a single
// goroutine — the paradigm's defining bottleneck.
type Peer struct {
	cfg PeerConfig

	// State owned by the run goroutine.
	intake baselines.Intake
	halted bool

	executed atomic.Uint64
	aborted  atomic.Uint64

	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewPeer creates an OX peer. Call Start before use.
func NewPeer(cfg PeerConfig) *Peer {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	p := &Peer{cfg: cfg, intake: baselines.Intake{Quorum: cfg.OrderQuorum}}
	if cfg.VerifySigs {
		p.intake.Verifier = cfg.Verifier
	}
	return p
}

// Start launches the execution loop.
func (p *Peer) Start() {
	p.wg.Add(1)
	go p.runLoop()
}

// Stop shuts the peer down.
func (p *Peer) Stop() {
	p.stopOnce.Do(func() { p.cfg.Endpoint.Close() })
	p.wg.Wait()
}

// Executed returns the number of transactions executed.
func (p *Peer) Executed() uint64 { return p.executed.Load() }

// Aborted returns the number of aborted transactions.
func (p *Peer) Aborted() uint64 { return p.aborted.Load() }

// runLoop executes the blocks the intake releases. The endpoint's inbox
// is unbounded, so reading it here never holds up a sender.
func (p *Peer) runLoop() {
	defer p.wg.Done()
	for msg := range p.cfg.Endpoint.Recv() {
		m, ok := msg.Payload.(*types.NewBlockMsg)
		if !ok || p.halted {
			continue
		}
		blocks, err := p.intake.Add(msg.From, m)
		for _, b := range blocks {
			if !p.halted {
				p.executeBlock(b)
			}
		}
		if err != nil {
			p.cfg.Logf("ox peer %s: %v; halting", p.cfg.ID, err)
			p.halted = true
		}
	}
}

// executeBlock runs the block's transactions one after another — the OX
// paradigm's sequential execution on every node. Write sets are freshly
// allocated by the contracts and handed to the overlay and then the store
// by reference (the zero-copy ownership transfer at the commit boundary).
func (p *Peer) executeBlock(block *types.Block) {
	overlay := state.NewBlockOverlay(p.cfg.Store, block.Txns)
	results := make([]types.TxResult, len(block.Txns))
	for i, tx := range block.Txns {
		writes, err := p.cfg.Registry.Execute(tx.App, overlay, tx.Op)
		results[i] = types.TxResult{TxID: tx.ID, Index: i}
		if err != nil {
			results[i].Aborted = true
			results[i].AbortReason = err.Error()
			p.aborted.Add(1)
		} else {
			results[i].Writes = writes
			overlay.Record(i, writes)
		}
		p.executed.Add(1)
	}
	p.cfg.Store.Apply(overlay.Final())
	if err := p.cfg.Ledger.Append(ledger.Entry{Block: block, Results: results}); err != nil {
		p.cfg.Logf("ox peer %s: ledger append: %v; halting", p.cfg.ID, err)
		p.halted = true
		return
	}
	if p.cfg.OnCommit != nil {
		p.cfg.OnCommit(block, results)
	}
}

// String identifies the peer in logs.
func (p *Peer) String() string { return fmt.Sprintf("oxpeer(%s)", p.cfg.ID) }
