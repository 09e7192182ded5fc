// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov) as a pluggable ordering protocol for ParBlockchain: n = 3f+1
// orderers tolerate f Byzantine members. The implementation covers the
// normal-case three-phase protocol (pre-prepare, prepare, commit) with
// request batching, in-order delivery, watermark-bounded pipelining, and
// view changes that re-propose prepared batches under a new primary.
//
// Simplifications relative to a hardened production deployment (see
// README.md, "Substitutions"): message authenticity is delegated to the
// transport's pairwise-authenticated links (per-message signatures can be
// layered by the embedding node), durable state is not persisted across
// process restarts, and duplicate suppression across view changes is
// performed by the block-building layer (which dedupes transactions by
// ID), so the ordering layer provides at-least-once delivery of submitted
// payloads and exactly-once delivery of sequence numbers.
package pbft

import (
	"crypto/sha256"
	"fmt"
	"time"

	"parblockchain/internal/consensus"
	"parblockchain/internal/eventq"
	"parblockchain/internal/types"
)

// Config parameterizes one PBFT member.
type Config struct {
	// ID is this member's identity.
	ID types.NodeID
	// Members lists all orderers in a fixed, globally agreed order; the
	// primary of view v is Members[v mod len(Members)].
	Members []types.NodeID
	// Sender is the outbound half of the node's transport endpoint.
	Sender consensus.Sender
	// Batch controls request batching at the primary.
	Batch consensus.BatchConfig
	// ViewChangeTimeout is how long a replica waits for progress on
	// outstanding work before starting a view change. Zero means 500ms.
	ViewChangeTimeout time.Duration
	// MaxInFlight bounds the number of undelivered batch sequence numbers
	// in the pipeline (the watermark window). Zero means 128.
	MaxInFlight uint64
}

// Protocol messages. Exported so transports can frame them.
type (
	// Forward carries a payload from a non-primary replica to the
	// primary for ordering.
	Forward struct {
		Payload []byte
	}
	// PrePrepare is the primary's proposal of a batch at a sequence
	// number within a view.
	PrePrepare struct {
		View   uint64
		Seq    uint64
		Digest types.Hash
		Batch  [][]byte
	}
	// Prepare is a replica's agreement to the proposal identity.
	Prepare struct {
		View   uint64
		Seq    uint64
		Digest types.Hash
	}
	// Commit is a replica's statement that the proposal is prepared.
	Commit struct {
		View   uint64
		Seq    uint64
		Digest types.Hash
	}
	// ViewChange announces a replica's move to a new view, carrying
	// certificates for batches prepared but not yet delivered.
	ViewChange struct {
		NewView       uint64
		LastDelivered uint64
		Prepared      []PreparedCert
	}
	// PreparedCert proves a batch reached the prepared state.
	PreparedCert struct {
		Seq    uint64
		View   uint64
		Digest types.Hash
		Batch  [][]byte
	}
	// NewView is the new primary's installation message re-proposing
	// prepared batches.
	NewView struct {
		View          uint64
		LastDelivered uint64
		PrePrepares   []PrePrepare
	}
)

// BatchDigest hashes a batch of payloads.
func BatchDigest(batch [][]byte) types.Hash {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range batch {
		n := uint64(len(p))
		for i := 0; i < 8; i++ {
			lenBuf[i] = byte(n >> (8 * (7 - i)))
		}
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var out types.Hash
	h.Sum(out[:0])
	return out
}

// event is the actor-mailbox item type.
type event struct {
	kind    eventKind
	from    types.NodeID
	msg     any
	payload []byte
	gen     uint64 // timer generation, to discard stale fires
}

type eventKind int

const (
	evStep eventKind = iota + 1
	evSubmit
	evBatchTimer
	evViewTimer
	evStop
)

// instance is the per-(seq) protocol state within the current view.
type instance struct {
	view       uint64
	seq        uint64
	digest     types.Hash
	batch      [][]byte
	havePre    bool
	prepares   map[types.NodeID]types.Hash
	commits    map[types.NodeID]types.Hash
	sentCommit bool
	committed  bool
	delivered  bool
}

// Node is one PBFT member.
type Node struct {
	cfg     Config
	n       int
	f       int
	mailbox *eventq.Queue[event]
	deliver *consensus.DeliveryQueue

	// Protocol state, owned by the run goroutine.
	view          uint64
	nextSeq       uint64 // primary: next batch seq to assign
	lastDelivered uint64 // highest batch seq delivered
	entrySeq      uint64 // global payload counter for Entry.Seq
	log           map[uint64]*instance
	pending       [][]byte // primary's unflushed batch
	batchGen      uint64
	batchTimerOn  bool
	viewGen       uint64
	viewTimerOn   bool
	inViewChange  bool
	viewChanges   map[uint64]map[types.NodeID]ViewChange
	retryBuf      [][]byte // payloads forwarded but possibly lost to a failed primary
	stopped       bool
	done          chan struct{}
}

// New creates a PBFT member. Call Start before use.
func New(cfg Config) *Node {
	if cfg.ViewChangeTimeout <= 0 {
		cfg.ViewChangeTimeout = 500 * time.Millisecond
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 128
	}
	cfg.Batch = cfg.Batch.Normalized()
	n := len(cfg.Members)
	return &Node{
		cfg:         cfg,
		n:           n,
		f:           (n - 1) / 3,
		mailbox:     eventq.New[event](),
		deliver:     consensus.NewDeliveryQueue(),
		log:         make(map[uint64]*instance),
		viewChanges: make(map[uint64]map[types.NodeID]ViewChange),
		done:        make(chan struct{}),
	}
}

// Quorum returns the commit quorum size 2f+1.
func (p *Node) Quorum() int { return 2*p.f + 1 }

// Start launches the actor loop.
func (p *Node) Start() { go p.run() }

// Submit proposes a payload for total ordering.
func (p *Node) Submit(payload []byte) error {
	p.mailbox.Push(event{kind: evSubmit, payload: payload})
	return nil
}

// Step feeds one inbound consensus message.
func (p *Node) Step(from types.NodeID, msg any) {
	p.mailbox.Push(event{kind: evStep, from: from, msg: msg})
}

// Committed returns the ordered entry stream.
func (p *Node) Committed() <-chan consensus.Entry { return p.deliver.Out() }

// Stop terminates the actor loop and closes the committed stream.
func (p *Node) Stop() {
	p.mailbox.Push(event{kind: evStop})
	<-p.done
}

var _ consensus.Node = (*Node)(nil)

// primaryOf returns the primary of a view.
func (p *Node) primaryOf(view uint64) types.NodeID {
	return p.cfg.Members[view%uint64(p.n)]
}

func (p *Node) isPrimary() bool { return p.primaryOf(p.view) == p.cfg.ID }

func (p *Node) run() {
	defer close(p.done)
	defer p.deliver.Close()
	for {
		ev, ok := p.mailbox.Pop()
		if !ok {
			return
		}
		switch ev.kind {
		case evStop:
			p.mailbox.Close()
			return
		case evSubmit:
			p.handleSubmit(ev.payload)
		case evBatchTimer:
			if ev.gen == p.batchGen {
				p.batchTimerOn = false
				p.flushBatch()
			}
		case evViewTimer:
			if ev.gen == p.viewGen && p.viewTimerOn {
				p.viewTimerOn = false
				// Mirror PBFT's client rebroadcast: share the stalled
				// payloads with every replica so they also observe the
				// primary's silence, arm timers, and join the view
				// change — a single suspecting replica cannot form a
				// view-change quorum alone.
				for _, payload := range p.retryBuf {
					p.broadcast(Forward{Payload: payload})
				}
				p.startViewChange(p.view + 1)
			}
		case evStep:
			p.handleStep(ev.from, ev.msg)
		}
	}
}

func (p *Node) broadcast(msg any) {
	for _, m := range p.cfg.Members {
		if m == p.cfg.ID {
			continue
		}
		// Best-effort: transport-level loss is handled by view changes.
		_ = p.cfg.Sender.Send(m, msg)
	}
}

// ---- Submission and batching ----

func (p *Node) handleSubmit(payload []byte) {
	if p.inViewChange {
		p.retryBuf = append(p.retryBuf, payload)
		return
	}
	if !p.isPrimary() {
		_ = p.cfg.Sender.Send(p.primaryOf(p.view), Forward{Payload: payload})
		p.retryBuf = append(p.retryBuf, payload)
		p.armViewTimer()
		return
	}
	p.pending = append(p.pending, payload)
	if len(p.pending) >= p.cfg.Batch.MaxMsgs {
		p.flushBatch()
		return
	}
	if !p.batchTimerOn {
		p.batchTimerOn = true
		p.batchGen++
		gen := p.batchGen
		time.AfterFunc(time.Duration(p.cfg.Batch.MaxDelayMillis)*time.Millisecond, func() {
			p.mailbox.Push(event{kind: evBatchTimer, gen: gen})
		})
	}
}

func (p *Node) flushBatch() {
	if len(p.pending) == 0 || p.inViewChange || !p.isPrimary() {
		return
	}
	// Respect the watermark window.
	if p.nextSeq >= p.lastDelivered+p.cfg.MaxInFlight {
		// Re-arm the timer; the window will drain as batches deliver.
		p.batchTimerOn = true
		p.batchGen++
		gen := p.batchGen
		time.AfterFunc(time.Duration(p.cfg.Batch.MaxDelayMillis)*time.Millisecond, func() {
			p.mailbox.Push(event{kind: evBatchTimer, gen: gen})
		})
		return
	}
	batch := p.pending
	p.pending = nil
	p.nextSeq++
	seq := p.nextSeq
	pre := PrePrepare{View: p.view, Seq: seq, Digest: BatchDigest(batch), Batch: batch}
	inst := p.getInstance(seq)
	p.acceptPrePrepare(inst, pre)
	p.broadcast(pre)
	p.armViewTimer()
}

// ---- Normal-case protocol ----

func (p *Node) getInstance(seq uint64) *instance {
	inst, ok := p.log[seq]
	if !ok {
		inst = &instance{
			seq:      seq,
			prepares: make(map[types.NodeID]types.Hash),
			commits:  make(map[types.NodeID]types.Hash),
		}
		p.log[seq] = inst
	}
	return inst
}

func (p *Node) handleStep(from types.NodeID, msg any) {
	switch m := msg.(type) {
	case Forward:
		if p.isPrimary() && !p.inViewChange {
			p.handleSubmit(m.Payload)
		} else {
			// A rebroadcast payload from a replica that suspects the
			// primary: remember it (it will be resubmitted after a view
			// change) and start suspecting too.
			p.retryBuf = append(p.retryBuf, m.Payload)
			p.armViewTimer()
		}
	case PrePrepare:
		p.onPrePrepare(from, m)
	case Prepare:
		p.onPrepare(from, m)
	case Commit:
		p.onCommit(from, m)
	case ViewChange:
		p.onViewChange(from, m)
	case NewView:
		p.onNewView(from, m)
	}
}

func (p *Node) onPrePrepare(from types.NodeID, m PrePrepare) {
	if p.inViewChange || m.View != p.view || from != p.primaryOf(m.View) {
		return
	}
	if m.Seq <= p.lastDelivered || m.Seq > p.lastDelivered+p.cfg.MaxInFlight {
		return
	}
	if BatchDigest(m.Batch) != m.Digest {
		return // malformed proposal
	}
	inst := p.getInstance(m.Seq)
	if inst.havePre {
		return // conflicting or duplicate proposal; keep the first
	}
	p.acceptPrePrepare(inst, m)
	p.broadcast(Prepare{View: m.View, Seq: m.Seq, Digest: m.Digest})
	p.armViewTimer()
	p.checkPrepared(inst)
}

// acceptPrePrepare records the proposal, this node's own prepare vote,
// and the primary's implicit one: in PBFT the pre-prepare stands in for
// the primary's prepare, so a replica reaches the prepared state with
// pre-prepare + 2f matching prepares.
func (p *Node) acceptPrePrepare(inst *instance, m PrePrepare) {
	inst.view = m.View
	inst.digest = m.Digest
	inst.batch = m.Batch
	inst.havePre = true
	inst.prepares[p.cfg.ID] = m.Digest
	inst.prepares[p.primaryOf(m.View)] = m.Digest
}

func (p *Node) onPrepare(from types.NodeID, m Prepare) {
	if m.View != p.view || m.Seq <= p.lastDelivered {
		return
	}
	inst := p.getInstance(m.Seq)
	if _, dup := inst.prepares[from]; dup {
		return
	}
	inst.prepares[from] = m.Digest
	p.checkPrepared(inst)
}

// checkPrepared moves an instance to the commit phase once 2f+1 distinct
// replicas (including this one) prepared the same digest.
func (p *Node) checkPrepared(inst *instance) {
	if inst.sentCommit || !inst.havePre {
		return
	}
	if p.countMatching(inst.prepares, inst.digest) < p.Quorum() {
		return
	}
	inst.sentCommit = true
	inst.commits[p.cfg.ID] = inst.digest
	p.broadcast(Commit{View: inst.view, Seq: inst.seq, Digest: inst.digest})
	p.checkCommitted(inst)
}

func (p *Node) onCommit(from types.NodeID, m Commit) {
	if m.Seq <= p.lastDelivered {
		return
	}
	inst := p.getInstance(m.Seq)
	if _, dup := inst.commits[from]; dup {
		return
	}
	inst.commits[from] = m.Digest
	p.checkCommitted(inst)
}

func (p *Node) checkCommitted(inst *instance) {
	if inst.committed || !inst.sentCommit || !inst.havePre {
		return
	}
	if p.countMatching(inst.commits, inst.digest) < p.Quorum() {
		return
	}
	inst.committed = true
	p.tryDeliver()
}

func (p *Node) countMatching(votes map[types.NodeID]types.Hash, digest types.Hash) int {
	count := 0
	for _, d := range votes {
		if d == digest {
			count++
		}
	}
	return count
}

// tryDeliver emits committed batches in sequence order.
func (p *Node) tryDeliver() {
	for {
		inst, ok := p.log[p.lastDelivered+1]
		if !ok || !inst.committed || inst.delivered {
			return
		}
		inst.delivered = true
		p.lastDelivered++
		for _, payload := range inst.batch {
			p.entrySeq++
			p.deliver.Push(consensus.Entry{Seq: p.entrySeq, Payload: payload})
		}
		delete(p.log, p.lastDelivered)
		// Progress observed: clear forwarded-payload retry state and
		// restart the liveness timer only if work remains.
		p.retryBuf = nil
		p.viewTimerOn = false
		if p.outstandingWork() {
			p.armViewTimer()
		}
	}
}

// outstandingWork reports whether undelivered instances or unbatched
// payloads exist, which is when a stalled primary must be suspected.
func (p *Node) outstandingWork() bool {
	return len(p.log) > 0 || len(p.pending) > 0 || len(p.retryBuf) > 0
}

func (p *Node) armViewTimer() {
	if p.viewTimerOn || p.inViewChange {
		return
	}
	p.viewTimerOn = true
	p.viewGen++
	gen := p.viewGen
	time.AfterFunc(p.cfg.ViewChangeTimeout, func() {
		p.mailbox.Push(event{kind: evViewTimer, gen: gen})
	})
}

// ---- View change ----

func (p *Node) startViewChange(newView uint64) {
	if newView <= p.view {
		return
	}
	p.inViewChange = true
	p.batchTimerOn = false
	vc := ViewChange{
		NewView:       newView,
		LastDelivered: p.lastDelivered,
		Prepared:      p.preparedCerts(),
	}
	p.recordViewChange(p.cfg.ID, vc)
	p.broadcast(vc)
	// If the new primary is also faulty, escalate after another timeout.
	p.viewGen++
	gen := p.viewGen
	p.viewTimerOn = true
	targetView := newView
	time.AfterFunc(p.cfg.ViewChangeTimeout, func() {
		p.mailbox.Push(event{kind: evViewTimer, gen: gen})
	})
	_ = targetView
	p.maybeInstallNewView(newView)
}

// preparedCerts collects certificates for batches this replica prepared
// but has not delivered.
func (p *Node) preparedCerts() []PreparedCert {
	var certs []PreparedCert
	for seq, inst := range p.log {
		if seq <= p.lastDelivered || !inst.havePre {
			continue
		}
		if p.countMatching(inst.prepares, inst.digest) >= p.Quorum() {
			certs = append(certs, PreparedCert{
				Seq: seq, View: inst.view, Digest: inst.digest, Batch: inst.batch,
			})
		}
	}
	return certs
}

func (p *Node) onViewChange(from types.NodeID, m ViewChange) {
	if m.NewView <= p.view {
		return
	}
	p.recordViewChange(from, m)
	// Joining the view change once f+1 distinct replicas demand it
	// guarantees liveness when timers fire at different moments.
	if len(p.viewChanges[m.NewView]) > p.f && !p.inViewChange {
		p.startViewChange(m.NewView)
		return
	}
	p.maybeInstallNewView(m.NewView)
}

func (p *Node) recordViewChange(from types.NodeID, m ViewChange) {
	byNode, ok := p.viewChanges[m.NewView]
	if !ok {
		byNode = make(map[types.NodeID]ViewChange)
		p.viewChanges[m.NewView] = byNode
	}
	byNode[from] = m
}

// maybeInstallNewView runs at the would-be primary of the target view once
// a quorum of view-change messages arrived.
func (p *Node) maybeInstallNewView(newView uint64) {
	if p.primaryOf(newView) != p.cfg.ID || newView <= p.view {
		return
	}
	msgs := p.viewChanges[newView]
	if len(msgs) < p.Quorum() {
		return
	}
	// Determine the union of prepared certificates above the maximum
	// delivered sequence any member reports.
	maxDelivered := uint64(0)
	for _, vc := range msgs {
		if vc.LastDelivered > maxDelivered {
			maxDelivered = vc.LastDelivered
		}
	}
	bySeq := make(map[uint64]PreparedCert)
	maxSeq := maxDelivered
	for _, vc := range msgs {
		for _, cert := range vc.Prepared {
			if cert.Seq <= maxDelivered {
				continue
			}
			if cur, ok := bySeq[cert.Seq]; !ok || cert.View > cur.View {
				bySeq[cert.Seq] = cert
			}
			if cert.Seq > maxSeq {
				maxSeq = cert.Seq
			}
		}
	}
	nv := NewView{View: newView, LastDelivered: maxDelivered}
	for seq := maxDelivered + 1; seq <= maxSeq; seq++ {
		if cert, ok := bySeq[seq]; ok {
			nv.PrePrepares = append(nv.PrePrepares, PrePrepare{
				View: newView, Seq: seq, Digest: cert.Digest, Batch: cert.Batch,
			})
		} else {
			// Fill the gap with an empty batch so delivery stays gap-free.
			nv.PrePrepares = append(nv.PrePrepares, PrePrepare{
				View: newView, Seq: seq, Digest: BatchDigest(nil), Batch: nil,
			})
		}
	}
	p.broadcast(nv)
	p.installNewView(nv)
}

func (p *Node) onNewView(from types.NodeID, m NewView) {
	if m.View < p.view || from != p.primaryOf(m.View) {
		return
	}
	p.installNewView(m)
}

// installNewView adopts the new view and replays the re-proposed batches
// through the normal-case protocol.
func (p *Node) installNewView(m NewView) {
	p.view = m.View
	p.inViewChange = false
	p.viewTimerOn = false
	p.nextSeq = m.LastDelivered
	// Replicas that lag behind maxDelivered cannot verify those batches
	// were theirs; with in-order FIFO links and correct quorums, the
	// delivered prefix is identical, so only undelivered instances are
	// reset here.
	for seq := range p.log {
		if seq > m.LastDelivered {
			delete(p.log, seq)
		}
	}
	for _, pre := range m.PrePrepares {
		if pre.Seq > p.nextSeq {
			p.nextSeq = pre.Seq
		}
		inst := p.getInstance(pre.Seq)
		p.acceptPrePrepare(inst, pre)
		if p.cfg.ID != p.primaryOf(m.View) {
			p.broadcast(Prepare{View: pre.View, Seq: pre.Seq, Digest: pre.Digest})
		}
		p.checkPrepared(inst)
	}
	// Re-submit payloads that may have died with the old primary. The
	// block-building layer dedupes by transaction ID, so duplicates are
	// harmless.
	buf := p.retryBuf
	p.retryBuf = nil
	for _, payload := range buf {
		p.handleSubmit(payload)
	}
	if p.outstandingWork() {
		p.armViewTimer()
	}
}

// View returns the node's current view (for tests and monitoring). It is
// safe only from the actor goroutine or after Stop; tests call it after
// quiescence.
func (p *Node) View() uint64 { return p.view }

// String identifies the node for logs.
func (p *Node) String() string {
	return fmt.Sprintf("pbft(%s,view=%d)", p.cfg.ID, p.view)
}
