// Package transport provides the point-to-point communication substrate:
// pairwise FIFO, sender-authenticated channels between nodes, exactly the
// network model Section III of the paper assumes. Two implementations are
// provided: an in-process network with a configurable per-link latency
// model (used by all experiments, including the geo-distribution sweeps of
// Figure 7) and a TCP transport for running real clusters.
package transport

import (
	"errors"
	"time"

	"parblockchain/internal/types"
)

// Errors returned by transport operations.
var (
	// ErrClosed is returned when sending through a closed endpoint or
	// network.
	ErrClosed = errors.New("transport: closed")
	// ErrUnknownNode is returned when the destination is not registered.
	ErrUnknownNode = errors.New("transport: unknown node")
)

// Message is a delivered payload together with its authenticated sender.
// The transport attaches From itself, mirroring the paper's pairwise
// authenticated links: a Byzantine node cannot forge a message from a
// correct node.
type Message struct {
	// From is the authenticated sender.
	From types.NodeID
	// To is the recipient (the owner of the endpoint that received it).
	To types.NodeID
	// Payload is the message body. In-memory transports pass the decoded
	// value; senders must treat payloads as immutable after Send.
	Payload any
}

// Endpoint is one node's attachment to the network.
type Endpoint interface {
	// ID returns the node identity this endpoint speaks for.
	ID() types.NodeID
	// Send delivers payload to the named node. Per-link FIFO order is
	// preserved. The in-memory network queues the message in the
	// receiver's inbox and never blocks on the receiver. TCP writes the
	// frame on the caller's goroutine, so Send blocks while the peer's
	// socket buffer is full, that is, while the peer reads more slowly
	// than the caller sends.
	Send(to types.NodeID, payload any) error
	// Recv returns the channel of inbound messages. The channel is closed
	// when the endpoint closes.
	Recv() <-chan Message
	// Close detaches the endpoint; pending inbound messages are dropped.
	Close()
}

// multicaster is the optional capability an Endpoint can implement to
// serialize a payload once and fan the encoded frame out, instead of
// re-marshaling per destination (the TCP endpoint does).
type multicaster interface {
	multicast(tos []types.NodeID, payload any) error
}

// Multicast sends payload to every listed destination, skipping the
// sender itself. Errors for individual destinations are ignored beyond
// the first, matching best-effort multicast semantics; reliability comes
// from protocol-level quorums. Endpoints implementing the multicaster
// capability encode the payload exactly once.
func Multicast(ep Endpoint, tos []types.NodeID, payload any) error {
	if mc, ok := ep.(multicaster); ok {
		return mc.multicast(tos, payload)
	}
	var firstErr error
	for _, to := range tos {
		if to == ep.ID() {
			continue
		}
		if err := ep.Send(to, payload); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// LatencyModel samples the one-way delivery delay for a message from one
// node to another. Implementations must be safe for concurrent use.
type LatencyModel interface {
	// Sample returns the delay to impose on one message from -> to.
	Sample(from, to types.NodeID) time.Duration
}

// ConstantLatency imposes the same delay on every link.
type ConstantLatency time.Duration

// Sample returns the constant delay.
func (c ConstantLatency) Sample(types.NodeID, types.NodeID) time.Duration {
	return time.Duration(c)
}

var _ LatencyModel = ConstantLatency(0)

// ZoneLatency models a multi-datacenter deployment: nodes are assigned to
// zones, and intra-zone messages are fast while inter-zone messages pay
// the WAN delay. This is the substrate for the Figure 7 experiments, where
// one group of nodes at a time is moved to a far region.
type ZoneLatency struct {
	// Zone maps each node to its zone name. Nodes absent from the map are
	// in DefaultZone.
	Zone map[types.NodeID]string
	// DefaultZone is the zone of unmapped nodes.
	DefaultZone string
	// Intra is the one-way delay within a zone.
	Intra time.Duration
	// Inter is the one-way delay across zones.
	Inter time.Duration
}

// Sample returns Intra for same-zone pairs and Inter otherwise.
func (z *ZoneLatency) Sample(from, to types.NodeID) time.Duration {
	if z.zoneOf(from) == z.zoneOf(to) {
		return z.Intra
	}
	return z.Inter
}

func (z *ZoneLatency) zoneOf(n types.NodeID) string {
	if zone, ok := z.Zone[n]; ok {
		return zone
	}
	return z.DefaultZone
}

var _ LatencyModel = (*ZoneLatency)(nil)
