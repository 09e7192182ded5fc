package xov

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"parblockchain/internal/baselines"
	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/eventq"
	"parblockchain/internal/execution"
	"parblockchain/internal/ledger"
	"parblockchain/internal/state"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// PeerConfig parameterizes one XOV peer.
type PeerConfig struct {
	// ID is this peer's identity.
	ID types.NodeID
	// Endpoint is the peer's transport attachment.
	Endpoint transport.Endpoint
	// Registry holds the contracts this peer endorses for (empty for
	// non-endorsing peers, which only validate).
	Registry *contract.Registry
	// AgentsOf maps applications to their endorser sets.
	AgentsOf map[types.AppID][]types.NodeID
	// Tau is the per-application endorsement policy size; missing
	// entries default to 1.
	Tau map[types.AppID]int
	// OrderQuorum is the number of matching NEWBLOCK messages required.
	OrderQuorum int
	// Store is the peer's committed, versioned state.
	Store *state.KVStore
	// Ledger is the peer's block ledger.
	Ledger *ledger.Ledger
	// Signer signs endorsements.
	Signer cryptoutil.Signer
	// Verifier checks NEWBLOCK and endorsement signatures when
	// VerifySigs is set.
	Verifier   cryptoutil.Verifier
	VerifySigs bool
	// OnCommit observes every validated block with its final results.
	OnCommit execution.CommitHook
	// Logf receives diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Peer is one XOV peer: an endorser for the applications whose contracts
// it holds, and a validator for every block. Validation is sequential and
// applies Fabric's MVCC read-set check, aborting stale transactions.
type Peer struct {
	cfg      PeerConfig
	mailbox  *eventq.Queue[transport.Message]
	endorseQ *eventq.Queue[endorseJob]

	// State owned by the run goroutine.
	intake baselines.Intake
	halted bool

	validated atomic.Uint64
	aborted   atomic.Uint64
	endorsed  atomic.Uint64
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

type endorseJob struct {
	from types.NodeID
	tx   *types.Transaction
}

// NewPeer creates an XOV peer. Call Start before use.
func NewPeer(cfg PeerConfig) *Peer {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	p := &Peer{
		cfg:      cfg,
		mailbox:  eventq.New[transport.Message](),
		endorseQ: eventq.New[endorseJob](),
		intake:   baselines.Intake{Quorum: cfg.OrderQuorum},
	}
	if cfg.VerifySigs {
		p.intake.Verifier = cfg.Verifier
	}
	return p
}

// Start launches the receive, validation, and endorsement loops. One
// endorsement loop per peer is the paper's model of one execution unit
// per endorser ("XOV can execute 3 — the number of applications —
// transactions in parallel").
func (p *Peer) Start() {
	p.wg.Add(3)
	go p.recvLoop()
	go p.runLoop()
	go p.endorseLoop()
}

// Stop shuts the peer down.
func (p *Peer) Stop() {
	p.stopOnce.Do(func() {
		p.cfg.Endpoint.Close()
		p.mailbox.Close()
		p.endorseQ.Close()
	})
	p.wg.Wait()
}

// Validated returns the number of transactions that passed validation.
func (p *Peer) Validated() uint64 { return p.validated.Load() }

// Aborted returns the number of transactions aborted at validation.
func (p *Peer) Aborted() uint64 { return p.aborted.Load() }

// Endorsed returns the number of endorsements produced.
func (p *Peer) Endorsed() uint64 { return p.endorsed.Load() }

func (p *Peer) recvLoop() {
	defer p.wg.Done()
	for msg := range p.cfg.Endpoint.Recv() {
		switch m := msg.Payload.(type) {
		case *EndorseRequestMsg:
			if m.Tx != nil {
				p.endorseQ.Push(endorseJob{from: msg.From, tx: m.Tx})
			}
		default:
			p.mailbox.Push(msg)
		}
	}
}

// endorseLoop simulates transactions against committed state, recording
// read versions — the "execute" phase of execute-order-validate.
func (p *Peer) endorseLoop() {
	defer p.wg.Done()
	for {
		job, ok := p.endorseQ.Pop()
		if !ok {
			return
		}
		p.handleEndorse(job.from, job.tx)
	}
}

// recordingView captures the versions of every key a simulation reads.
type recordingView struct {
	store *state.KVStore
	mu    sync.Mutex
	reads map[types.Key]uint64
}

func (v *recordingView) Get(key types.Key) ([]byte, bool) {
	val, ver, ok := v.store.GetVersion(key)
	v.mu.Lock()
	if _, seen := v.reads[key]; !seen {
		v.reads[key] = ver
	}
	v.mu.Unlock()
	if !ok {
		return nil, false
	}
	return val, true
}

func (p *Peer) handleEndorse(from types.NodeID, tx *types.Transaction) {
	c, ok := p.cfg.Registry.Lookup(tx.App)
	if !ok {
		return // not an endorser for this application
	}
	view := &recordingView{store: p.cfg.Store, reads: make(map[types.Key]uint64, 4)}
	writes, err := c.Execute(view, tx.Op)
	resp := &EndorsementMsg{TxID: tx.ID, Endorser: p.cfg.ID}
	if err != nil {
		resp.Aborted = true
		resp.AbortReason = err.Error()
	} else {
		resp.Writes = writes
	}
	resp.ReadVers = make([]KeyVer, 0, len(view.reads))
	// Deterministic order: declared read set order, which both endorsers
	// share; undeclared reads cannot occur per the contract interface.
	for _, key := range tx.Op.Reads {
		if ver, seen := view.reads[key]; seen {
			resp.ReadVers = append(resp.ReadVers, KeyVer{Key: key, Ver: ver})
		}
	}
	digest := resp.SignedDigest()
	resp.Sig = p.cfg.Signer.Sign(digest[:])
	p.endorsed.Add(1)
	if err := p.cfg.Endpoint.Send(from, resp); err != nil {
		p.cfg.Logf("xov peer %s: endorsement reply to %s: %v", p.cfg.ID, from, err)
	}
}

// runLoop validates the blocks the intake releases, in order. It reads
// a mailbox of its own so endorsements never queue behind validation.
func (p *Peer) runLoop() {
	defer p.wg.Done()
	for {
		msg, ok := p.mailbox.Pop()
		if !ok {
			return
		}
		m, ok := msg.Payload.(*types.NewBlockMsg)
		if !ok || p.halted {
			continue
		}
		blocks, err := p.intake.Add(msg.From, m)
		for _, b := range blocks {
			if !p.halted {
				p.validateBlock(b)
			}
		}
		if err != nil {
			p.cfg.Logf("xov peer %s: %v; halting", p.cfg.ID, err)
			p.halted = true
		}
	}
}

// validateBlock performs Fabric-style sequential validation of a block of
// envelopes: envelope check, endorsement policy check and the MVCC
// read-version check, applying valid writes and aborting the rest. The
// ledger holds the ordered block itself, so results are keyed by
// envelope ID.
func (p *Peer) validateBlock(block *types.Block) {
	results := make([]types.TxResult, len(block.Txns))
	for i, env := range block.Txns {
		result := types.TxResult{TxID: env.ID, Index: i}
		etx, err := OpenEnvelope(env)
		switch {
		case err != nil:
			result.Aborted = true
			result.AbortReason = err.Error()
		case !p.policySatisfied(etx):
			result.Aborted = true
			result.AbortReason = "endorsement policy unsatisfied"
		case etx.SimAborted:
			result.Aborted = true
			result.AbortReason = etx.AbortReason
		case !p.mvccCheck(etx):
			result.Aborted = true
			result.AbortReason = AbortMVCCConflict
		default:
			// Ownership of the endorsed write set transfers to the store
			// (zero-copy): the slices were decoded from the envelope and
			// are immutable from here on.
			p.cfg.Store.Apply(etx.Writes)
			result.Writes = etx.Writes
		}
		if result.Aborted {
			p.aborted.Add(1)
		} else {
			p.validated.Add(1)
		}
		results[i] = result
	}
	if err := p.cfg.Ledger.Append(ledger.Entry{Block: block, Results: results}); err != nil {
		p.cfg.Logf("xov peer %s: ledger append: %v; halting", p.cfg.ID, err)
		p.halted = true
		return
	}
	if p.cfg.OnCommit != nil {
		p.cfg.OnCommit(block, results)
	}
}

// policySatisfied checks tau(A) matching endorsements by authorized
// endorsers. Signatures are verified when VerifySigs is set.
func (p *Peer) policySatisfied(etx *EndorsedTx) bool {
	app := etx.Tx.App
	need := 1
	if t, ok := p.cfg.Tau[app]; ok && t > 0 {
		need = t
	}
	if len(etx.Endorsers) < need {
		return false
	}
	seen := make(map[types.NodeID]bool, len(etx.Endorsers))
	count := 0
	for i, endorser := range etx.Endorsers {
		if seen[endorser] || !p.isAgentOf(app, endorser) {
			continue
		}
		seen[endorser] = true
		if p.cfg.VerifySigs {
			em := &EndorsementMsg{
				TxID:        etx.Tx.ID,
				ReadVers:    etx.ReadVers,
				Writes:      etx.Writes,
				Aborted:     etx.SimAborted,
				AbortReason: etx.AbortReason,
				Endorser:    endorser,
			}
			digest := em.SignedDigest()
			if err := p.cfg.Verifier.Verify(string(endorser), digest[:], etx.Sigs[i]); err != nil {
				continue
			}
		}
		count++
	}
	return count >= need
}

func (p *Peer) isAgentOf(app types.AppID, node types.NodeID) bool {
	for _, agent := range p.cfg.AgentsOf[app] {
		if agent == node {
			return true
		}
	}
	return false
}

// mvccCheck verifies every read version is still current — Fabric's
// validation rule. A single stale read aborts the transaction.
func (p *Peer) mvccCheck(etx *EndorsedTx) bool {
	for _, rv := range etx.ReadVers {
		if p.cfg.Store.Version(rv.Key) != rv.Ver {
			return false
		}
	}
	return true
}

// String identifies the peer in logs.
func (p *Peer) String() string { return fmt.Sprintf("xovpeer(%s)", p.cfg.ID) }
