package transport

import (
	"fmt"
	"sync"
	"time"

	"parblockchain/internal/eventq"
	"parblockchain/internal/types"
)

// InMemConfig configures an in-process network.
type InMemConfig struct {
	// Latency models per-link one-way delay. Nil means zero latency.
	Latency LatencyModel
	// BandwidthBytesPerSec, when positive, adds a serialization delay of
	// size/bandwidth per message, so large blocks cost more to ship — the
	// effect the paper leans on when it credits batching with amortizing
	// transfer cost. Zero disables bandwidth modeling.
	BandwidthBytesPerSec int64
	// ExtraLatency, when non-nil, returns an additional one-way delay per
	// message on top of Latency/bandwidth, keyed by the link and the
	// payload. The benchmark harness uses it to delay COMMIT votes from
	// chosen executors (the delayed-vote speculation experiments); it must
	// be safe for concurrent use.
	ExtraLatency func(from, to types.NodeID, payload any) time.Duration
}

// InMemNetwork is an in-process implementation of the transport: every
// registered node gets an Endpoint, links preserve per-link FIFO order,
// impose modeled latency, and attach the authenticated sender identity.
// It also exposes partition controls for failure-injection tests and
// message counters for the communication-cost experiments.
type InMemNetwork struct {
	cfg InMemConfig

	mu        sync.Mutex
	endpoints map[types.NodeID]*inmemEndpoint
	links     map[linkKey]*link
	blocked   map[linkKey]bool
	closed    bool
	wg        sync.WaitGroup

	statsMu sync.Mutex
	counts  map[string]int64
	bytes   int64
}

type linkKey struct {
	from, to types.NodeID
}

// NewInMemNetwork creates an empty in-process network.
func NewInMemNetwork(cfg InMemConfig) *InMemNetwork {
	return &InMemNetwork{
		cfg:       cfg,
		endpoints: make(map[types.NodeID]*inmemEndpoint),
		links:     make(map[linkKey]*link),
		blocked:   make(map[linkKey]bool),
		counts:    make(map[string]int64),
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
	ep := &inmemEndpoint{
		net:  n,
		id:   id,
		in:   eventq.New[Message](),
		out:  make(chan Message, 1),
		done: make(chan struct{}),
	}
	n.endpoints[id] = ep
	n.wg.Add(1)
	go ep.pump(&n.wg)
	return ep, nil
}

// Remove detaches a node's endpoint from the network, closing it and
// severing its links, so a subsequent Endpoint call for the same ID
// registers a fresh one. The chaos harness uses it to model a process
// kill: a restarted node must come back with a clean endpoint, not the
// closed carcass of its previous life.
func (n *InMemNetwork) Remove(id types.NodeID) {
	n.mu.Lock()
	ep, ok := n.endpoints[id]
	if !ok {
		n.mu.Unlock()
		return
	}
	delete(n.endpoints, id)
	var dead []*link
	for key, l := range n.links {
		if key.from == id || key.to == id {
			dead = append(dead, l)
			delete(n.links, key)
		}
	}
	for key := range n.blocked {
		if key.from == id || key.to == id {
			delete(n.blocked, key)
		}
	}
	n.mu.Unlock()
	for _, l := range dead {
		l.close()
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
// else (or restores it), modeling a crashed or partitioned node.
func (n *InMemNetwork) Isolate(node types.NodeID, isolated bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.endpoints {
		if other == node {
			continue
		}
		n.blocked[linkKey{node, other}] = isolated
		n.blocked[linkKey{other, node}] = isolated
	}
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
	eps := make([]*inmemEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()
	for _, l := range links {
		l.close()
	}
	for _, ep := range eps {
		ep.Close()
	}
	n.wg.Wait()
}

// MessageCount returns the number of messages sent with the given payload
// type name (e.g. "*types.CommitMsg"), or the total across all types when
// name is empty.
func (n *InMemNetwork) MessageCount(name string) int64 {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	if name == "" {
		total := int64(0)
		for _, c := range n.counts {
			total += c
		}
		return total
	}
	return n.counts[name]
}

// BytesSent returns the cumulative approximate payload bytes sent.
func (n *InMemNetwork) BytesSent() int64 {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	return n.bytes
}

// Sizer lets payloads report an approximate wire size for bandwidth
// modeling and byte counters.
type Sizer interface {
	// ApproxSize returns the payload's approximate encoded size in bytes.
	ApproxSize() int
}

// defaultMsgSize is assumed for payloads that do not implement Sizer.
const defaultMsgSize = 128

func (n *InMemNetwork) send(from, to types.NodeID, payload any) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	dst, ok := n.endpoints[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	if n.blocked[linkKey{from, to}] {
		n.mu.Unlock()
		return nil // partitioned links drop silently
	}
	key := linkKey{from, to}
	l, ok := n.links[key]
	if !ok {
		l = newLink(dst)
		n.links[key] = l
		n.wg.Add(1)
		go l.pump(&n.wg)
	}
	n.mu.Unlock()

	size := defaultMsgSize
	if s, ok := payload.(Sizer); ok {
		size = s.ApproxSize()
	}
	n.statsMu.Lock()
	n.counts[fmt.Sprintf("%T", payload)]++
	n.bytes += int64(size)
	n.statsMu.Unlock()

	delay := time.Duration(0)
	if n.cfg.Latency != nil {
		delay = n.cfg.Latency.Sample(from, to)
	}
	if n.cfg.BandwidthBytesPerSec > 0 {
		delay += time.Duration(int64(size) * int64(time.Second) / n.cfg.BandwidthBytesPerSec)
	}
	if n.cfg.ExtraLatency != nil {
		delay += n.cfg.ExtraLatency(from, to, payload)
	}
	l.push(timedMsg{
		msg:       Message{From: from, To: to, Payload: payload},
		deliverAt: time.Now().Add(delay),
	})
	return nil
}

// inmemEndpoint is one node's attachment to an InMemNetwork.
type inmemEndpoint struct {
	net      *InMemNetwork
	id       types.NodeID
	in       *eventq.Queue[Message]
	out      chan Message
	done     chan struct{}
	doneOnce sync.Once
}

func (e *inmemEndpoint) ID() types.NodeID { return e.id }

func (e *inmemEndpoint) Send(to types.NodeID, payload any) error {
	return e.net.send(e.id, to, payload)
}

func (e *inmemEndpoint) Recv() <-chan Message { return e.out }

func (e *inmemEndpoint) Close() {
	e.in.Close()
	e.doneOnce.Do(func() { close(e.done) })
}

// pump drains the unbounded inbox into the receiver-facing channel so
// senders never block on a slow receiver. The done channel unblocks the
// forwarding send when the endpoint closes with messages a consumer never
// drained.
func (e *inmemEndpoint) pump(wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(e.out)
	for {
		m, ok := e.in.Pop()
		if !ok {
			return
		}
		select {
		case e.out <- m:
		case <-e.done:
			return
		}
	}
}

var _ Endpoint = (*inmemEndpoint)(nil)

// timedMsg is a message scheduled for delivery at a specific instant.
type timedMsg struct {
	msg       Message
	deliverAt time.Time
}

// link is a directed FIFO channel between two nodes. A dedicated goroutine
// delivers messages in order after their modeled delay.
type link struct {
	dst *inmemEndpoint

	mu     sync.Mutex
	cond   *sync.Cond
	q      []timedMsg
	closed bool
}

func newLink(dst *inmemEndpoint) *link {
	l := &link{dst: dst}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *link) push(m timedMsg) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.q = append(l.q, m)
	l.cond.Signal()
}

func (l *link) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.cond.Signal()
}

func (l *link) pump(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		m := l.q[0]
		l.q[0] = timedMsg{} // the backing array must not keep a delivered message alive
		l.q = l.q[1:]
		l.mu.Unlock()
		if wait := time.Until(m.deliverAt); wait > 0 {
			time.Sleep(wait)
		}
		l.dst.in.Push(m.msg)
	}
}
