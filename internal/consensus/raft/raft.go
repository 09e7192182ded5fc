// Package raft implements a Raft-style crash fault-tolerant ordering
// protocol (Ongaro & Ousterhout) as a consensus plug-in for ParBlockchain:
// n = 2f+1 orderers tolerate f crash failures. It provides leader election
// with randomized timeouts, log replication with conflict repair, majority
// commit with the current-term guard, and in-order delivery. The paper
// cites Raft as the CFT option of the pluggable ordering service (as used
// by Quorum).
//
// State is kept in memory by default; with Config.Dir set, the member
// persists its replicated log and (term, votedFor) hard state through
// the persist.RecordLog layer (storage.go) and recovers both on
// restart, so a full-cluster bounce redelivers the committed prefix
// with stable sequence numbers instead of losing it. A member restarted
// without a data directory still rejoins with an empty log and is
// repaired by the leader like any lagging follower.
package raft

import (
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/consensus"
	"parblockchain/internal/eventq"
	"parblockchain/internal/types"
)

// Config parameterizes one Raft member.
type Config struct {
	// ID is this member's identity.
	ID types.NodeID
	// Members lists all members; majorities are computed over this set.
	Members []types.NodeID
	// Sender is the outbound half of the node's transport endpoint.
	Sender consensus.Sender
	// ElectionTimeout is the base follower timeout; each arming draws
	// uniformly from [ElectionTimeout, 2*ElectionTimeout). Zero means
	// 150ms.
	ElectionTimeout time.Duration
	// HeartbeatInterval is the leader's idle replication period. Zero
	// means ElectionTimeout/5.
	HeartbeatInterval time.Duration
	// Seed randomizes election timeouts; zero derives one from the ID.
	Seed int64
	// Dir enables durable state: the replicated log and the hard state
	// are persisted under this directory and recovered on restart. Empty
	// keeps the member in memory.
	Dir string
	// LogSegmentBytes rolls the durable log to a fresh segment once the
	// active one exceeds this size. Zero means
	// persist.DefaultLogSegmentBytes.
	LogSegmentBytes int64
	// Logf receives diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Protocol messages. Exported so transports can frame them.
type (
	// Forward carries a payload from a follower to the leader.
	Forward struct {
		Payload []byte
	}
	// RequestVote solicits a vote for a candidate.
	RequestVote struct {
		Term         uint64
		LastLogIndex uint64
		LastLogTerm  uint64
	}
	// VoteResp answers a RequestVote.
	VoteResp struct {
		Term    uint64
		Granted bool
	}
	// AppendEntries replicates log entries (empty for heartbeats).
	AppendEntries struct {
		Term         uint64
		PrevIndex    uint64
		PrevTerm     uint64
		Entries      []LogEntry
		LeaderCommit uint64
	}
	// AppendResp answers an AppendEntries.
	AppendResp struct {
		Term       uint64
		Success    bool
		MatchIndex uint64
	}
	// LogEntry is one replicated log slot. A nil Payload is a leader
	// no-op used to commit the new term's prefix.
	LogEntry struct {
		Term    uint64
		Payload []byte
	}
)

type role int

const (
	follower role = iota + 1
	candidate
	leader
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
	evElectionTimer
	evHeartbeatTimer
	evStop
)

// Node is one Raft member.
type Node struct {
	cfg     Config
	rng     *rand.Rand
	mailbox *eventq.Queue[event]
	deliver *consensus.DeliveryQueue

	// Raft state, owned by the run goroutine.
	role        role
	term        uint64
	votedFor    types.NodeID
	log         []LogEntry // log[i] is index i+1
	commitIndex uint64
	delivered   uint64 // highest log index delivered
	entrySeq    uint64 // payload-bearing entry counter
	leaderID    types.NodeID
	votes       map[types.NodeID]bool
	nextIndex   map[types.NodeID]uint64
	matchIndex  map[types.NodeID]uint64
	retryBuf    [][]byte // payloads awaiting a known leader
	electionGen uint64
	hbGen       uint64
	done        chan struct{}

	// Durable state (nil without Config.Dir), owned by the run goroutine.
	storage  *storage
	started  atomic.Bool
	crashed  atomic.Bool
	stopOnce sync.Once
}

// New creates a Raft member. Call Start before use. With cfg.Dir set,
// the durable log and hard state are recovered here; the member resumes
// with its full pre-crash log and redelivers the committed prefix with
// stable sequence numbers once a leader commits.
func New(cfg Config) (*Node, error) {
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 150 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = cfg.ElectionTimeout / 5
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	seed := cfg.Seed
	if seed == 0 {
		for _, c := range cfg.ID {
			seed = seed*131 + int64(c)
		}
	}
	r := &Node{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(seed)),
		mailbox: eventq.New[event](),
		deliver: consensus.NewDeliveryQueue(),
		role:    follower,
		done:    make(chan struct{}),
	}
	if cfg.Dir != "" {
		s, entries, err := openStorage(cfg.Dir, cfg.LogSegmentBytes, cfg.Logf)
		if err != nil {
			return nil, err
		}
		r.storage = s
		r.log = entries
		r.term = s.term
		r.votedFor = s.votedFor
	}
	return r, nil
}

// Start launches the actor loop.
func (r *Node) Start() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	go r.run()
}

// Submit proposes a payload for total ordering; followers forward it to
// the leader they know of.
func (r *Node) Submit(payload []byte) error {
	r.mailbox.Push(event{kind: evSubmit, payload: payload})
	return nil
}

// Step feeds one inbound consensus message.
func (r *Node) Step(from types.NodeID, msg any) {
	r.mailbox.Push(event{kind: evStep, from: from, msg: msg})
}

// Committed returns the ordered entry stream.
func (r *Node) Committed() <-chan consensus.Entry { return r.deliver.Out() }

// Stop terminates the actor loop and closes the durable storage. Safe
// to call before Start (the storage is still released) and idempotent.
func (r *Node) Stop() {
	r.stopOnce.Do(func() {
		if r.started.Load() {
			r.mailbox.Push(event{kind: evStop})
			<-r.done
		} else {
			r.storage.close(r.crashed.Load())
		}
	})
}

// Crash stops the member simulating a process crash: unsynced log bytes
// are dropped instead of synced on close.
func (r *Node) Crash() {
	r.crashed.Store(true)
	r.Stop()
}

var _ consensus.Node = (*Node)(nil)
var _ consensus.Crasher = (*Node)(nil)

func (r *Node) majority() int { return len(r.cfg.Members)/2 + 1 }

func (r *Node) lastIndex() uint64 { return uint64(len(r.log)) }

func (r *Node) termAt(index uint64) uint64 {
	if index == 0 || index > uint64(len(r.log)) {
		return 0
	}
	return r.log[index-1].Term
}

func (r *Node) run() {
	defer close(r.done)
	defer r.deliver.Close()
	defer func() { r.storage.close(r.crashed.Load()) }()
	r.armElectionTimer()
	for {
		ev, ok := r.mailbox.Pop()
		if !ok {
			return
		}
		switch ev.kind {
		case evStop:
			r.mailbox.Close()
			return
		case evSubmit:
			r.handleSubmit(ev.payload)
		case evElectionTimer:
			if ev.gen == r.electionGen && r.role != leader {
				r.startElection()
			}
		case evHeartbeatTimer:
			if ev.gen == r.hbGen && r.role == leader {
				r.replicateAll()
				r.armHeartbeat()
			}
		case evStep:
			r.handleStep(ev.from, ev.msg)
		}
	}
}

func (r *Node) broadcast(msg any) {
	for _, m := range r.cfg.Members {
		if m != r.cfg.ID {
			_ = r.cfg.Sender.Send(m, msg)
		}
	}
}

func (r *Node) armElectionTimer() {
	r.electionGen++
	gen := r.electionGen
	d := r.cfg.ElectionTimeout + time.Duration(r.rng.Int63n(int64(r.cfg.ElectionTimeout)))
	time.AfterFunc(d, func() {
		r.mailbox.Push(event{kind: evElectionTimer, gen: gen})
	})
}

func (r *Node) armHeartbeat() {
	r.hbGen++
	gen := r.hbGen
	time.AfterFunc(r.cfg.HeartbeatInterval, func() {
		r.mailbox.Push(event{kind: evHeartbeatTimer, gen: gen})
	})
}

// ---- Submission ----

// persistLog makes every in-memory log entry durable before it is
// replicated or acknowledged — the Raft durability invariant: what a
// member tells its peers about must survive its own crash. A storage
// failure is loud but non-fatal; the member keeps operating in memory.
func (r *Node) persistLog() {
	if r.storage == nil {
		return
	}
	if err := r.storage.appendFrom(r.log); err != nil {
		r.cfg.Logf("raft %s: persisting log: %v", r.cfg.ID, err)
	}
}

func (r *Node) handleSubmit(payload []byte) {
	switch r.role {
	case leader:
		r.log = append(r.log, LogEntry{Term: r.term, Payload: payload})
		r.persistLog()
		r.replicateAll()
	default:
		if r.leaderID != "" {
			_ = r.cfg.Sender.Send(r.leaderID, Forward{Payload: payload})
		} else {
			r.retryBuf = append(r.retryBuf, payload)
		}
	}
}

// ---- Elections ----

func (r *Node) startElection() {
	r.role = candidate
	r.term++
	r.votedFor = r.cfg.ID
	r.leaderID = ""
	r.votes = map[types.NodeID]bool{r.cfg.ID: true}
	// The self-vote must be durable before soliciting others: forgetting
	// it across a crash could double-vote this term.
	r.storage.saveHardState(r.term, r.votedFor)
	r.broadcast(RequestVote{
		Term:         r.term,
		LastLogIndex: r.lastIndex(),
		LastLogTerm:  r.termAt(r.lastIndex()),
	})
	r.armElectionTimer()
	r.maybeWinElection()
}

func (r *Node) stepDown(term uint64) {
	r.term = term
	r.role = follower
	r.votedFor = ""
	r.votes = nil
	r.storage.saveHardState(r.term, r.votedFor)
}

func (r *Node) maybeWinElection() {
	if r.role != candidate || len(r.votes) < r.majority() {
		return
	}
	r.role = leader
	r.leaderID = r.cfg.ID
	r.nextIndex = make(map[types.NodeID]uint64, len(r.cfg.Members))
	r.matchIndex = make(map[types.NodeID]uint64, len(r.cfg.Members))
	for _, m := range r.cfg.Members {
		r.nextIndex[m] = r.lastIndex() + 1
		r.matchIndex[m] = 0
	}
	// Commit the new term's prefix through a no-op entry.
	r.log = append(r.log, LogEntry{Term: r.term})
	// Flush payloads buffered while leaderless.
	buf := r.retryBuf
	r.retryBuf = nil
	for _, p := range buf {
		r.log = append(r.log, LogEntry{Term: r.term, Payload: p})
	}
	r.persistLog()
	r.replicateAll()
	r.armHeartbeat()
}

// ---- Replication ----

func (r *Node) replicateAll() {
	for _, m := range r.cfg.Members {
		if m != r.cfg.ID {
			r.replicateTo(m)
		}
	}
	r.advanceCommit()
}

func (r *Node) replicateTo(peer types.NodeID) {
	next := r.nextIndex[peer]
	if next == 0 {
		next = 1
	}
	prev := next - 1
	var entries []LogEntry
	if r.lastIndex() >= next {
		entries = append([]LogEntry(nil), r.log[next-1:]...)
	}
	_ = r.cfg.Sender.Send(peer, AppendEntries{
		Term:         r.term,
		PrevIndex:    prev,
		PrevTerm:     r.termAt(prev),
		Entries:      entries,
		LeaderCommit: r.commitIndex,
	})
}

func (r *Node) handleStep(from types.NodeID, msg any) {
	switch m := msg.(type) {
	case Forward:
		if r.role == leader {
			r.handleSubmit(m.Payload)
		} else if r.leaderID != "" && r.leaderID != r.cfg.ID {
			_ = r.cfg.Sender.Send(r.leaderID, m)
		} else {
			r.retryBuf = append(r.retryBuf, m.Payload)
		}
	case RequestVote:
		r.onRequestVote(from, m)
	case VoteResp:
		r.onVoteResp(from, m)
	case AppendEntries:
		r.onAppendEntries(from, m)
	case AppendResp:
		r.onAppendResp(from, m)
	}
}

func (r *Node) onRequestVote(from types.NodeID, m RequestVote) {
	if m.Term > r.term {
		r.stepDown(m.Term)
	}
	grant := false
	if m.Term == r.term && (r.votedFor == "" || r.votedFor == from) && r.logUpToDate(m) {
		grant = true
		r.votedFor = from
		// The vote must be durable before the response leaves the node.
		r.storage.saveHardState(r.term, r.votedFor)
		r.armElectionTimer()
	}
	_ = r.cfg.Sender.Send(from, VoteResp{Term: r.term, Granted: grant})
}

// logUpToDate implements Raft's election restriction: the candidate's log
// must be at least as up-to-date as the voter's.
func (r *Node) logUpToDate(m RequestVote) bool {
	myLastTerm := r.termAt(r.lastIndex())
	if m.LastLogTerm != myLastTerm {
		return m.LastLogTerm > myLastTerm
	}
	return m.LastLogIndex >= r.lastIndex()
}

func (r *Node) onVoteResp(from types.NodeID, m VoteResp) {
	if m.Term > r.term {
		r.stepDown(m.Term)
		return
	}
	if r.role != candidate || m.Term != r.term || !m.Granted {
		return
	}
	r.votes[from] = true
	r.maybeWinElection()
}

func (r *Node) onAppendEntries(from types.NodeID, m AppendEntries) {
	if m.Term > r.term || (m.Term == r.term && r.role == candidate) {
		r.stepDown(m.Term)
	}
	if m.Term < r.term {
		_ = r.cfg.Sender.Send(from, AppendResp{Term: r.term, Success: false})
		return
	}
	r.leaderID = from
	r.armElectionTimer()
	// Consistency check on the previous slot.
	if m.PrevIndex > r.lastIndex() || r.termAt(m.PrevIndex) != m.PrevTerm {
		_ = r.cfg.Sender.Send(from, AppendResp{Term: r.term, Success: false, MatchIndex: r.commitIndex})
		return
	}
	// Append, truncating conflicting suffixes.
	for i, entry := range m.Entries {
		idx := m.PrevIndex + uint64(i) + 1
		if idx <= r.lastIndex() {
			if r.termAt(idx) == entry.Term {
				continue
			}
			r.log = r.log[:idx-1]
			if r.storage != nil {
				// Record index of Raft entry idx is idx-1.
				if err := r.storage.truncate(idx - 1); err != nil {
					r.cfg.Logf("raft %s: truncating log at %d: %v", r.cfg.ID, idx, err)
				}
			}
		}
		r.log = append(r.log, entry)
	}
	// The appended entries must be durable before the leader is told
	// they match: the commit rule counts this member's disk.
	r.persistLog()
	if m.LeaderCommit > r.commitIndex {
		newCommit := min(m.LeaderCommit, r.lastIndex())
		if newCommit > r.commitIndex {
			r.commitIndex = newCommit
			r.deliverCommitted()
		}
	}
	matched := m.PrevIndex + uint64(len(m.Entries))
	_ = r.cfg.Sender.Send(from, AppendResp{Term: r.term, Success: true, MatchIndex: matched})
	// A follower that knows the leader can drain its buffered payloads.
	if len(r.retryBuf) > 0 {
		buf := r.retryBuf
		r.retryBuf = nil
		for _, p := range buf {
			_ = r.cfg.Sender.Send(r.leaderID, Forward{Payload: p})
		}
	}
}

func (r *Node) onAppendResp(from types.NodeID, m AppendResp) {
	if m.Term > r.term {
		r.stepDown(m.Term)
		r.armElectionTimer()
		return
	}
	if r.role != leader || m.Term != r.term {
		return
	}
	if !m.Success {
		// Back off; MatchIndex hints the follower's committed prefix,
		// which is always a safe restart point.
		next := r.nextIndex[from]
		if next > 1 {
			next--
		}
		if m.MatchIndex+1 < next {
			next = m.MatchIndex + 1
		}
		r.nextIndex[from] = next
		r.replicateTo(from)
		return
	}
	if m.MatchIndex > r.matchIndex[from] {
		r.matchIndex[from] = m.MatchIndex
	}
	r.nextIndex[from] = m.MatchIndex + 1
	r.advanceCommit()
}

// advanceCommit moves commitIndex to the highest index replicated on a
// majority whose entry is from the current term (Raft's commit guard).
func (r *Node) advanceCommit() {
	if r.role != leader {
		return
	}
	for idx := r.lastIndex(); idx > r.commitIndex; idx-- {
		if r.termAt(idx) != r.term {
			break
		}
		count := 1 // self
		for _, m := range r.cfg.Members {
			if m != r.cfg.ID && r.matchIndex[m] >= idx {
				count++
			}
		}
		if count >= r.majority() {
			r.commitIndex = idx
			r.deliverCommitted()
			break
		}
	}
}

// deliverCommitted emits committed, payload-bearing entries in log order.
func (r *Node) deliverCommitted() {
	for r.delivered < r.commitIndex {
		r.delivered++
		entry := r.log[r.delivered-1]
		if entry.Payload == nil {
			continue // leader no-op
		}
		r.entrySeq++
		r.deliver.Push(consensus.Entry{Seq: r.entrySeq, Payload: entry.Payload})
	}
}

// Leader returns the leader this node currently believes in (may be empty
// during elections). Intended for tests after quiescence.
func (r *Node) Leader() types.NodeID { return r.leaderID }

func min(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
