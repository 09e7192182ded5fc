// Package consensus defines the pluggable ordering abstraction of the
// OXII paradigm (Section III-A: "OXII, similar to Fabric, uses a pluggable
// consensus protocol for ordering"). Two implementations are provided in
// subpackages, one per fault model:
//
//   - kafkaorder: a Kafka-like leader/broker ordering service, matching
//     the evaluation's "typical Kafka orderer setup" (2f+1 nodes tolerate
//     f crash failures of brokers; the leader is static).
//   - pbft: Practical Byzantine Fault Tolerance (3f+1 nodes tolerate f
//     Byzantine failures), the protocol the paper's running example uses.
//
// All implementations deliver the same abstraction: a gap-free, totally
// ordered stream of opaque payloads, identical at every correct member.
package consensus

import (
	"parblockchain/internal/eventq"
	"parblockchain/internal/types"
)

// Entry is one ordered payload. Seq is 1-based and gap-free: every correct
// member delivers the same payload at the same Seq.
type Entry struct {
	// Seq is the global order position, starting at 1.
	Seq uint64
	// Payload is the opaque ordered value (an encoded transaction or a
	// block-cut marker in ParBlockchain's usage).
	Payload []byte
}

// Node is one member's consensus instance. The embedding node owns the
// network endpoint and routes inbound consensus messages to Step; the
// instance sends its own outbound messages through the Sender it was
// constructed with.
type Node interface {
	// Start launches the instance's internal event loop.
	Start()
	// Submit proposes a payload for total ordering. It may be called on
	// any member; non-leaders forward to the current leader.
	Submit(payload []byte) error
	// Step feeds one inbound consensus message from a peer. Unknown
	// message types are ignored.
	Step(from types.NodeID, msg any)
	// Committed returns the ordered stream. The channel is closed on
	// Stop.
	Committed() <-chan Entry
	// Stop terminates the instance. It is idempotent.
	Stop()
}

// Crasher is implemented by consensus instances with durable state.
// Crash stops the instance simulating a process crash: unsynced log
// bytes are dropped (what a power loss does to the page cache) and the
// data-dir lock is released, instead of the clean sync-and-close that
// Stop performs. It is idempotent, and a no-op after Stop.
type Crasher interface {
	Crash()
}

// Sender abstracts the outbound half of a transport endpoint.
type Sender interface {
	// Send asynchronously delivers payload to the named node.
	Send(to types.NodeID, payload any) error
}

// SenderFunc adapts a function to Sender.
type SenderFunc func(to types.NodeID, payload any) error

// Send invokes the function.
func (f SenderFunc) Send(to types.NodeID, payload any) error { return f(to, payload) }

// DeliveryQueue decouples protocol progress from the consumer of the
// committed stream: Push never blocks, while the pump goroutine feeds the
// consumer-facing channel. Every consensus implementation embeds one.
type DeliveryQueue struct {
	q   *eventq.Queue[Entry]
	out chan Entry
}

// NewDeliveryQueue returns a started queue; Out drains it. Out's 64-entry
// buffer lets the pump move a burst of entries while the consumer is busy
// instead of handing them over one receive at a time.
func NewDeliveryQueue() *DeliveryQueue {
	q := &DeliveryQueue{q: eventq.New[Entry](), out: make(chan Entry, 64)}
	go q.pump()
	return q
}

// Push enqueues an entry for the consumer without blocking; it is a no-op
// after Close.
func (q *DeliveryQueue) Push(e Entry) { q.q.Push(e) }

// Out returns the consumer-facing ordered channel.
func (q *DeliveryQueue) Out() <-chan Entry { return q.out }

// Close ends the stream; Out's channel closes once drained.
func (q *DeliveryQueue) Close() { q.q.Close() }

func (q *DeliveryQueue) pump() {
	defer close(q.out)
	for {
		e, ok := q.q.Pop()
		if !ok {
			return
		}
		q.out <- e
	}
}

// BatchConfig controls submission batching inside a consensus instance:
// the leader groups payloads into one protocol instance per batch, which
// is how practical deployments amortize the per-instance message cost.
type BatchConfig struct {
	// MaxMsgs flushes a batch when it reaches this many payloads.
	MaxMsgs int
	// MaxDelayMillis flushes PBFT's non-empty batch this many
	// milliseconds after its first payload arrived, and paces a Kafka
	// follower's re-sends of forwards its leader has not accepted. The
	// Kafka leader has no batch timer: it flushes once its last batch
	// has committed.
	MaxDelayMillis int
}

// Normalized returns the config with defaults applied.
func (c BatchConfig) Normalized() BatchConfig {
	if c.MaxMsgs <= 0 {
		c.MaxMsgs = 64
	}
	if c.MaxDelayMillis <= 0 {
		c.MaxDelayMillis = 5
	}
	return c
}
