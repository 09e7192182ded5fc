package transport

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"parblockchain/internal/types"
)

// InMemConfig configures an in-process network.
type InMemConfig struct {
	// Latency models per-link one-way delay. Nil means zero latency.
	Latency LatencyModel
	// ExtraLatency, when non-nil, returns an additional one-way delay per
	// message on top of Latency, keyed by the link and the payload. It is
	// called synchronously once per Send. The benchmark harness uses it to
	// delay COMMIT votes from chosen executors (the delayed-vote
	// speculation experiments); it must be safe for concurrent use.
	ExtraLatency func(from, to types.NodeID, payload any) time.Duration
}

// InMemNetwork is an in-process implementation of the transport: every
// registered node gets an Endpoint whose inbox delivers each message at
// its modeled deadline, with the authenticated sender identity attached.
// Deadlines on one directed link never move backwards, so per-link FIFO
// holds under any latency model, while links into the same node stay
// independent. It also exposes partition controls for failure-injection
// tests and message counters for the communication-cost experiments.
type InMemNetwork struct {
	cfg InMemConfig

	mu        sync.Mutex
	endpoints map[types.NodeID]*inmemEndpoint
	last      map[linkKey]time.Time // the latest deadline on each link
	blocked   map[linkKey]bool
	isolated  map[types.NodeID]bool
	closed    bool
	wg        sync.WaitGroup
	counts    map[reflect.Type]int64
	bytes     int64
}

type linkKey struct {
	from, to types.NodeID
}

// NewInMemNetwork creates an empty in-process network.
func NewInMemNetwork(cfg InMemConfig) *InMemNetwork {
	return &InMemNetwork{
		cfg:       cfg,
		endpoints: make(map[types.NodeID]*inmemEndpoint),
		last:      make(map[linkKey]time.Time),
		blocked:   make(map[linkKey]bool),
		isolated:  make(map[types.NodeID]bool),
		counts:    make(map[reflect.Type]int64),
	}
}

// Endpoint registers (or returns the existing) endpoint for a node.
func (n *InMemNetwork) Endpoint(id types.NodeID) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if ep, ok := n.endpoints[id]; ok {
		return ep, nil
	}
	ep := &inmemEndpoint{net: n, id: id, inbox: startInbox(&n.wg)}
	n.endpoints[id] = ep
	return ep, nil
}

// Remove detaches a node's endpoint from the network, closing it, so a
// subsequent Endpoint call for the same ID registers a fresh one. Traffic
// in flight to and from the node is lost, and the removed endpoint's
// later sends deliver nothing. The chaos harness uses it to model a
// process kill: a restarted node must come back with a clean endpoint,
// not the closed carcass of its previous life. Partitions set by
// SetBlocked and Isolate belong to the node ID and outlive Remove.
func (n *InMemNetwork) Remove(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep, ok := n.endpoints[id]
	if !ok {
		return
	}
	delete(n.endpoints, id)
	for key := range n.last {
		if key.from == id || key.to == id {
			delete(n.last, key)
		}
	}
	for _, other := range n.endpoints {
		other.inbox.dropFrom(id)
	}
	ep.Close()
}

// SetBlocked blocks or unblocks the directed link from -> to. Blocked
// links silently drop messages, modeling a network partition.
func (n *InMemNetwork) SetBlocked(from, to types.NodeID, blocked bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[linkKey{from, to}] = blocked
}

// Isolate blocks traffic in both directions between the node and everyone
// else, including nodes registered later (or restores it), modeling a
// crashed or partitioned node.
func (n *InMemNetwork) Isolate(node types.NodeID, isolated bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.isolated[node] = isolated
}

// Close shuts the network down: all endpoints' Recv channels close and all
// delivery goroutines exit.
func (n *InMemNetwork) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, ep := range n.endpoints {
		ep.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
}

// MessageCount returns the number of messages sent with the given payload
// type name (e.g. "*types.CommitMsg", as fmt's %T prints it), or the total
// across all types when name is empty.
func (n *InMemNetwork) MessageCount(name string) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := int64(0)
	for typ, c := range n.counts {
		if name == "" || fmt.Sprint(typ) == name {
			total += c
		}
	}
	return total
}

// BytesSent returns the cumulative approximate payload bytes sent.
func (n *InMemNetwork) BytesSent() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bytes
}

// Sizer lets payloads report an approximate wire size for the byte
// counters.
type Sizer interface {
	// ApproxSize returns the payload's approximate encoded size in bytes.
	ApproxSize() int
}

// defaultMsgSize is assumed for payloads that do not implement Sizer.
const defaultMsgSize = 128

func (n *InMemNetwork) send(src *inmemEndpoint, to types.NodeID, payload any) error {
	from := src.id
	delay := time.Duration(0)
	if n.cfg.Latency != nil {
		delay = n.cfg.Latency.Sample(from, to)
	}
	if n.cfg.ExtraLatency != nil {
		delay += n.cfg.ExtraLatency(from, to, payload)
	}
	size := defaultMsgSize
	if s, ok := payload.(Sizer); ok {
		size = s.ApproxSize()
	}
	at := time.Now().Add(delay)

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	dst, ok := n.endpoints[to]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	key := linkKey{from, to}
	if n.endpoints[from] != src || n.isolated[from] || n.isolated[to] || n.blocked[key] {
		return nil // a removed sender, an isolated node or a partitioned link drops silently
	}
	n.counts[reflect.TypeOf(payload)]++
	n.bytes += int64(size)
	if last := n.last[key]; at.Before(last) {
		at = last
	}
	n.last[key] = at
	// Pushing under n.mu lets Remove's dropFrom see every message its
	// node sent before it was removed.
	dst.inbox.push(Message{From: from, To: to, Payload: payload}, at)
	return nil
}

// inmemEndpoint is one node's attachment to an InMemNetwork.
type inmemEndpoint struct {
	net   *InMemNetwork
	id    types.NodeID
	inbox *inbox
}

func (e *inmemEndpoint) ID() types.NodeID { return e.id }

func (e *inmemEndpoint) Send(to types.NodeID, payload any) error {
	return e.net.send(e, to, payload)
}

func (e *inmemEndpoint) Recv() <-chan Message { return e.inbox.out }

func (e *inmemEndpoint) Close() { e.inbox.close() }

var _ Endpoint = (*inmemEndpoint)(nil)
