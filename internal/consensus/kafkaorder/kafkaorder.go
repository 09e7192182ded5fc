// Package kafkaorder implements a Kafka-style ordering service: a fixed
// sequencing leader (the partition leader) replicates batches to broker
// members and commits once a quorum of acknowledgements arrives (Kafka's
// in-sync-replica acks). The paper's evaluation uses "a typical Kafka
// orderer setup with 3 ZooKeeper nodes, 4 Kafka brokers and 3 orderers";
// this package collapses that external service into an in-protocol
// equivalent with the same interface and crash-fault-tolerance model,
// as documented in README.md's substitution table.
//
// Leadership is static: Members[0] sequences. Crash fault tolerance for
// the *data* comes from broker replication; leader fail-over (Kafka's
// controller/ZooKeeper job) is out of scope, exactly as it is external to
// Fabric's ordering node implementation. While the leader is down nothing
// is ordered; followers hold the forwards it did not accept and re-send
// them once it is back.
//
// With Config.Dir set, a member persists sequenced batches and commit
// decisions through the persist.RecordLog layer (storage.go): an Ack is
// only sent once the batch is fsynced — Kafka's log.flush durability —
// and on restart the member redelivers its committed prefix with stable
// sequence numbers and fetches anything it missed from the leader's
// durable log. A follower fetches too when a commit announcement shows
// batches it never received: a leader that crashed with them in flight
// does not send them again.
package kafkaorder

import (
	"log"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/consensus"
	"parblockchain/internal/eventq"
	"parblockchain/internal/types"
)

// Config parameterizes one kafkaorder member.
type Config struct {
	// ID is this member's identity.
	ID types.NodeID
	// Members lists all members; Members[0] is the sequencing leader.
	Members []types.NodeID
	// Sender is the outbound half of the node's transport endpoint.
	Sender consensus.Sender
	// Batch controls batching at the leader.
	Batch consensus.BatchConfig
	// AckQuorum is the number of members (including the leader) whose
	// acknowledgement commits a batch. Zero means a majority.
	AckQuorum int
	// Dir enables durable state: batches and commit decisions are
	// persisted under this directory and recovered on restart. Empty
	// keeps the member in memory.
	Dir string
	// Logf receives diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Protocol messages. Exported so transports can frame them.
type (
	// Forward carries a payload from a non-leader member to the leader.
	Forward struct {
		Payload []byte
	}
	// Append replicates a sequenced batch from the leader to brokers.
	Append struct {
		Seq   uint64
		Batch [][]byte
	}
	// Ack acknowledges the durable append of a batch at a broker.
	Ack struct {
		Seq uint64
	}
	// CommitAnn announces that a batch reached its ack quorum and may be
	// delivered.
	CommitAnn struct {
		Seq uint64
	}
	// Fetch asks the leader to re-send every batch and commit above the
	// sender's contiguous committed prefix — a durable broker's catch-up
	// request after a restart, served from the leader's log.
	Fetch struct {
		Have uint64
	}
)

type event struct {
	kind    eventKind
	from    types.NodeID
	msg     any
	payload []byte
	gen     uint64
}

type eventKind int

const (
	evStep eventKind = iota + 1
	evSubmit
	evBatchTimer
	evStop
)

type slot struct {
	batch     [][]byte
	acks      map[types.NodeID]bool
	committed bool
	delivered bool
}

// Node is one kafkaorder member.
type Node struct {
	cfg     Config
	mailbox *eventq.Queue[event]
	deliver *consensus.DeliveryQueue

	// State owned by the run goroutine.
	nextSeq     uint64 // leader: next batch seq
	lastDeliver uint64
	entrySeq    uint64
	slots       map[uint64]*slot
	// pending holds the payloads that wait for the batch timer: at the
	// leader those of the next batch, at a follower the forwards the
	// leader has not accepted yet (see forward), in submission order.
	pending      [][]byte
	dropLogged   bool   // follower: a full pending has been reported
	gapFetched   uint64 // follower: 1 + lastDeliver at its last gap Fetch
	batchGen     uint64
	batchTimerOn bool
	done         chan struct{}

	// Durable state (nil without Config.Dir), owned by the run goroutine.
	storage  *storage
	started  atomic.Bool
	crashed  atomic.Bool
	stopOnce sync.Once
}

// New creates a kafkaorder member. Call Start before use. With cfg.Dir
// set, the durable log is recovered here: the slot table is rebuilt and
// the committed prefix will be redelivered (with stable sequence
// numbers) when the actor loop starts.
func New(cfg Config) (*Node, error) {
	cfg.Batch = cfg.Batch.Normalized()
	if cfg.AckQuorum <= 0 {
		cfg.AckQuorum = len(cfg.Members)/2 + 1
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	k := &Node{
		cfg:     cfg,
		mailbox: eventq.New[event](),
		deliver: consensus.NewDeliveryQueue(),
		slots:   make(map[uint64]*slot),
		done:    make(chan struct{}),
	}
	if cfg.Dir != "" {
		s, slots, maxSeq, err := openStorage(cfg.Dir, cfg.Logf)
		if err != nil {
			return nil, err
		}
		k.storage = s
		k.slots = slots
		k.nextSeq = maxSeq
		// Our own durable batches count as self-acked; peer acks are not
		// durable and are re-collected live.
		for _, sl := range slots {
			if sl.batch != nil {
				sl.acks[cfg.ID] = true
			}
		}
	}
	return k, nil
}

// Leader returns the static sequencing leader.
func (k *Node) Leader() types.NodeID { return k.cfg.Members[0] }

// Start launches the actor loop.
func (k *Node) Start() {
	if !k.started.CompareAndSwap(false, true) {
		return
	}
	go k.run()
}

// Submit proposes a payload; non-leaders forward to the leader.
func (k *Node) Submit(payload []byte) error {
	k.mailbox.Push(event{kind: evSubmit, payload: payload})
	return nil
}

// Step feeds one inbound consensus message.
func (k *Node) Step(from types.NodeID, msg any) {
	k.mailbox.Push(event{kind: evStep, from: from, msg: msg})
}

// Committed returns the ordered entry stream.
func (k *Node) Committed() <-chan consensus.Entry { return k.deliver.Out() }

// Stop terminates the actor loop and closes the durable storage. Safe
// to call before Start (the storage is still released) and idempotent.
func (k *Node) Stop() {
	k.stopOnce.Do(func() {
		if k.started.Load() {
			k.mailbox.Push(event{kind: evStop})
			<-k.done
		} else {
			k.storage.close(k.crashed.Load())
		}
	})
}

// Crash stops the member simulating a process crash: unsynced log bytes
// are dropped instead of synced on close.
func (k *Node) Crash() {
	k.crashed.Store(true)
	k.Stop()
}

var _ consensus.Node = (*Node)(nil)
var _ consensus.Crasher = (*Node)(nil)

func (k *Node) run() {
	defer close(k.done)
	defer k.deliver.Close()
	defer func() { k.storage.close(k.crashed.Load()) }()
	if k.storage != nil {
		k.recover()
	}
	for {
		ev, ok := k.mailbox.Pop()
		if !ok {
			return
		}
		switch ev.kind {
		case evStop:
			k.mailbox.Close()
			return
		case evSubmit:
			k.handleSubmit(ev.payload)
		case evBatchTimer:
			if ev.gen == k.batchGen {
				k.batchTimerOn = false
				if k.isLeader() {
					k.flush()
				} else {
					k.retryForwards()
				}
			}
		case evStep:
			k.handleStep(ev.from, ev.msg)
		}
	}
}

func (k *Node) isLeader() bool { return k.cfg.ID == k.Leader() }

// recover acts on the slot table rebuilt from the durable log: the
// committed prefix is redelivered (with the same sequence numbers as
// before the crash — the consumer's high-water mark dedupes it), the
// leader re-replicates batches that never reached their quorum, and a
// broker asks the leader for everything past its committed prefix.
func (k *Node) recover() {
	k.tryDeliver()
	if k.isLeader() {
		for seq := k.lastDeliver + 1; seq <= k.nextSeq; seq++ {
			if s := k.slots[seq]; s != nil && s.batch != nil {
				k.broadcast(Append{Seq: seq, Batch: s.batch})
				if s.committed {
					k.broadcast(CommitAnn{Seq: seq})
				}
			}
		}
	} else {
		_ = k.cfg.Sender.Send(k.Leader(), Fetch{Have: k.lastDeliver})
	}
}

// serveFetch re-sends, from the durable log, every batch and commit
// above the requester's committed prefix. Served from disk because
// delivered slots leave the in-memory table.
func (k *Node) serveFetch(from types.NodeID, have uint64) {
	if k.storage == nil || !k.isLeader() {
		return
	}
	k.storage.rangeAll(func(kind byte, seq uint64, batch [][]byte) {
		if seq <= have {
			return
		}
		switch kind {
		case recBatch:
			_ = k.cfg.Sender.Send(from, Append{Seq: seq, Batch: batch})
		case recCommit:
			_ = k.cfg.Sender.Send(from, CommitAnn{Seq: seq})
		}
	})
}

func (k *Node) broadcast(msg any) {
	for _, m := range k.cfg.Members {
		if m != k.cfg.ID {
			_ = k.cfg.Sender.Send(m, msg)
		}
	}
}

func (k *Node) handleSubmit(payload []byte) {
	if !k.isLeader() {
		k.forward(payload)
		return
	}
	k.pending = append(k.pending, payload)
	if len(k.pending) >= k.cfg.Batch.MaxMsgs {
		k.flush()
		return
	}
	k.armBatchTimer()
}

func (k *Node) armBatchTimer() {
	if k.batchTimerOn {
		return
	}
	k.batchTimerOn = true
	k.batchGen++
	gen := k.batchGen
	time.AfterFunc(time.Duration(k.cfg.Batch.MaxDelayMillis)*time.Millisecond, func() {
		k.mailbox.Push(event{kind: evBatchTimer, gen: gen})
	})
}

// forward sends a follower's payload to the leader. A payload whose send
// fails — the leader is not listening yet, or is down — is held in
// pending, behind any held before it, and re-sent on the batch timer
// until the leader accepts it. At most Batch.MaxMsgs are held; beyond
// that a payload is dropped, and the client's resubmit covers it. A
// re-sent payload that had reached the leader after all is ordered
// twice, and the orderer's dedupe drops the second copy.
func (k *Node) forward(payload []byte) {
	if len(k.pending) == 0 && k.cfg.Sender.Send(k.Leader(), Forward{Payload: payload}) == nil {
		return
	}
	if len(k.pending) >= k.cfg.Batch.MaxMsgs {
		if !k.dropLogged {
			k.dropLogged = true
			k.cfg.Logf("kafkaorder: %s: leader %s has not accepted %d forwarded payloads; dropping new ones until it does",
				k.cfg.ID, k.Leader(), len(k.pending))
		}
		return
	}
	k.pending = append(k.pending, payload)
	k.armBatchTimer()
}

// retryForwards re-sends a follower's held forwards in order, up to the
// first that fails again, and re-arms the timer while any remain.
func (k *Node) retryForwards() {
	sent := 0
	for _, payload := range k.pending {
		if k.cfg.Sender.Send(k.Leader(), Forward{Payload: payload}) != nil {
			break
		}
		sent++
	}
	k.pending = slices.Delete(k.pending, 0, sent)
	if len(k.pending) > 0 {
		k.armBatchTimer()
	} else {
		k.dropLogged = false
	}
}

func (k *Node) flush() {
	if len(k.pending) == 0 {
		return
	}
	batch := k.pending
	k.pending = nil
	k.nextSeq++
	seq := k.nextSeq
	s := k.getSlot(seq)
	s.batch = batch
	s.acks[k.cfg.ID] = true
	if k.storage != nil {
		// The leader's own copy must be durable before replication: its
		// self-ack counts toward the quorum.
		k.storage.append(encodeBatchRecord(seq, batch))
	}
	k.broadcast(Append{Seq: seq, Batch: batch})
	k.checkCommit(seq)
}

func (k *Node) getSlot(seq uint64) *slot {
	s, ok := k.slots[seq]
	if !ok {
		s = &slot{acks: make(map[types.NodeID]bool)}
		k.slots[seq] = s
	}
	return s
}

func (k *Node) handleStep(from types.NodeID, msg any) {
	switch m := msg.(type) {
	case Forward:
		if k.isLeader() {
			k.handleSubmit(m.Payload)
		}
	case Append:
		if from != k.Leader() {
			return
		}
		if m.Seq <= k.lastDeliver {
			// Already delivered (hence durable here): a redundant
			// retransmit after a leader restart. Re-ack without re-logging.
			_ = k.cfg.Sender.Send(from, Ack{Seq: m.Seq})
			return
		}
		s := k.getSlot(m.Seq)
		if s.batch == nil {
			s.batch = m.Batch
			if k.storage != nil {
				// Ack semantics: the batch must survive this member's
				// crash before the leader counts it toward the quorum.
				k.storage.append(encodeBatchRecord(m.Seq, m.Batch))
			}
		}
		_ = k.cfg.Sender.Send(from, Ack{Seq: m.Seq})
	case Ack:
		if !k.isLeader() || m.Seq <= k.lastDeliver {
			// A re-ack of a delivered batch (a broker answering a
			// re-sent Append) must not open a fresh slot for it.
			return
		}
		s := k.getSlot(m.Seq)
		s.acks[from] = true
		k.checkCommit(m.Seq)
	case CommitAnn:
		if from != k.Leader() {
			return
		}
		if m.Seq <= k.lastDeliver {
			return // already delivered
		}
		s := k.getSlot(m.Seq)
		if !s.committed {
			s.committed = true
			if k.storage != nil {
				k.storage.append(encodeCommitRecord(m.Seq))
			}
		}
		k.tryDeliver()
		if k.lastDeliver < m.Seq && k.gapFetched != k.lastDeliver+1 {
			// Links are FIFO and the leader commits in order, so a commit
			// above undelivered batches means the leader's messages for
			// them were lost: it crashed with them in flight, and after
			// its restart it re-sends only what it has not delivered.
			// Fetch once per gap, not once per commit announced above it.
			k.gapFetched = k.lastDeliver + 1
			_ = k.cfg.Sender.Send(k.Leader(), Fetch{Have: k.lastDeliver})
		}
	case Fetch:
		k.serveFetch(from, m.Have)
	}
}

// checkCommit runs at the leader: once the ack quorum is met the batch is
// durable on enough brokers to survive f crashes, so it commits.
func (k *Node) checkCommit(seq uint64) {
	s := k.slots[seq]
	if s == nil || s.committed || len(s.acks) < k.cfg.AckQuorum {
		return
	}
	s.committed = true
	if k.storage != nil {
		// The commit decision must be durable before it is announced: a
		// restarted leader must never forget (and re-sequence) a batch a
		// broker already delivered.
		k.storage.append(encodeCommitRecord(seq))
	}
	k.broadcast(CommitAnn{Seq: seq})
	k.tryDeliver()
}

func (k *Node) tryDeliver() {
	for {
		s, ok := k.slots[k.lastDeliver+1]
		if !ok || !s.committed || s.delivered || s.batch == nil {
			return
		}
		s.delivered = true
		k.lastDeliver++
		for _, payload := range s.batch {
			k.entrySeq++
			k.deliver.Push(consensus.Entry{Seq: k.entrySeq, Payload: payload})
		}
		delete(k.slots, k.lastDeliver)
	}
}
