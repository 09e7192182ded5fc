package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/consensus/kafkaorder"
	"parblockchain/internal/consensus/pbft"
	"parblockchain/internal/consensus/raft"
	"parblockchain/internal/types"
)

// TCPConfig configures a TCP endpoint: one listening socket per node plus
// an address book of peers. Per-link FIFO comes from TCP's in-order
// delivery on a single connection per direction.
//
// Frames are length-prefixed and tagged, and every payload has a
// binary codec. The protocol payloads — REQUEST, NEWBLOCK, COMMIT, the
// state-sync pair and the client's commit notification — travel as the
// fuzz-hardened encodings of internal/types, and every consensus payload
// (Raft, kafkaorder and PBFT messages, including the heartbeats that
// dominate idle-cluster traffic and the nested view-change certificates)
// as the hand-rolled codecs of their packages. So the wire format is
// deterministic, and hostile input fails in a bounded decoder. Sending a
// payload type without a codec is an error.
//
// Peer identity is established by a handshake frame and then pinned to
// the connection. Production deployments would authenticate links with
// TLS; in this reproduction message-level signatures (REQUEST, NEWBLOCK,
// COMMIT) provide end-to-end authenticity and the
// handshake provides addressing.
type TCPConfig struct {
	// ID is this node's identity.
	ID types.NodeID
	// ListenAddr is the local address to accept peers on (host:port).
	ListenAddr string
	// Peers maps every reachable node to its listen address.
	Peers map[types.NodeID]string
	// DialTimeout bounds connection establishment (default 3s).
	DialTimeout time.Duration
	// RedialBackoff is the pause before retrying a failed peer (default
	// 250ms).
	RedialBackoff time.Duration
}

// RegisterWireTypes does nothing. It registered payload types with the
// retired gob frame (tag 0); every payload now has a binary frame. It is
// kept only for callers that still invoke it.
func RegisterWireTypes(...any) {}

// Frame tags. A frame on the wire is [u32 length][1-byte tag][body],
// where length counts the tag byte plus the body.
const (
	// Tag 0 carried the retired per-frame gob escape hatch. It stays
	// reserved and decodes as an unknown tag.
	frameHello    byte = 1 // body: sender NodeID (handshake, first frame)
	frameRequest  byte = 2 // body: types.RequestMsg binary encoding
	frameNewBlock byte = 3 // body: types.NewBlockMsg binary encoding
	frameCommit   byte = 4 // body: types.CommitMsg binary encoding
	// Tags 5 and 6 carried the retired segment-streaming frames (SEGMENT
	// and SEAL). They stay reserved and decode as unknown tags.

	// Consensus-internal payloads of the crash-fault-tolerant protocols
	// (Raft heartbeats dominate idle-cluster traffic; kafka appends carry
	// every ordered payload).
	frameRaftForward       byte = 7  // body: raft.Forward binary encoding
	frameRaftRequestVote   byte = 8  // body: raft.RequestVote binary encoding
	frameRaftVoteResp      byte = 9  // body: raft.VoteResp binary encoding
	frameRaftAppendEntries byte = 10 // body: raft.AppendEntries binary encoding
	frameRaftAppendResp    byte = 11 // body: raft.AppendResp binary encoding
	frameKafkaForward      byte = 12 // body: kafkaorder.Forward binary encoding
	frameKafkaAppend       byte = 13 // body: kafkaorder.Append binary encoding
	frameKafkaAck          byte = 14 // body: kafkaorder.Ack binary encoding
	frameKafkaCommitAnn    byte = 15 // body: kafkaorder.CommitAnn binary encoding

	// Peer-served catch-up (state sync) messages.
	frameStateSyncReq  byte = 16 // body: types.StateSyncRequestMsg binary encoding
	frameStateSyncResp byte = 17 // body: types.StateSyncResponseMsg binary encoding

	// PBFT consensus payloads, including the nested view-change
	// certificates.
	framePBFTForward    byte = 18 // body: pbft.Forward binary encoding
	framePBFTPrePrepare byte = 19 // body: pbft.PrePrepare binary encoding
	framePBFTPrepare    byte = 20 // body: pbft.Prepare binary encoding
	framePBFTCommit     byte = 21 // body: pbft.Commit binary encoding
	framePBFTViewChange byte = 22 // body: pbft.ViewChange binary encoding
	framePBFTNewView    byte = 23 // body: pbft.NewView binary encoding

	// Kafka broker catch-up after a durable restart.
	frameKafkaFetch byte = 24 // body: kafkaorder.Fetch binary encoding

	// The observer's per-transaction outcome, sent to the client.
	frameCommitNotify byte = 25 // body: types.CommitNotifyMsg binary encoding
)

// maxFrameBytes bounds a single inbound frame (64 MiB): far above any
// real block, far below what a hostile length prefix could otherwise make
// the reader allocate.
const maxFrameBytes = 64 << 20

// encodeFrame serializes a payload into (tag, body) with its binary
// codec. A payload type without one is an error naming the type.
func encodeFrame(payload any) (byte, []byte, error) {
	switch p := payload.(type) {
	case *types.RequestMsg:
		return frameRequest, p.Marshal(), nil
	case *types.NewBlockMsg:
		return frameNewBlock, p.Marshal(), nil
	case *types.CommitMsg:
		return frameCommit, p.Marshal(), nil
	case raft.Forward:
		return frameRaftForward, p.Marshal(), nil
	case raft.RequestVote:
		return frameRaftRequestVote, p.Marshal(), nil
	case raft.VoteResp:
		return frameRaftVoteResp, p.Marshal(), nil
	case raft.AppendEntries:
		return frameRaftAppendEntries, p.Marshal(), nil
	case raft.AppendResp:
		return frameRaftAppendResp, p.Marshal(), nil
	case kafkaorder.Forward:
		return frameKafkaForward, p.Marshal(), nil
	case kafkaorder.Append:
		return frameKafkaAppend, p.Marshal(), nil
	case kafkaorder.Ack:
		return frameKafkaAck, p.Marshal(), nil
	case kafkaorder.CommitAnn:
		return frameKafkaCommitAnn, p.Marshal(), nil
	case kafkaorder.Fetch:
		return frameKafkaFetch, p.Marshal(), nil
	case pbft.Forward:
		return framePBFTForward, p.Marshal(), nil
	case pbft.PrePrepare:
		return framePBFTPrePrepare, p.Marshal(), nil
	case pbft.Prepare:
		return framePBFTPrepare, p.Marshal(), nil
	case pbft.Commit:
		return framePBFTCommit, p.Marshal(), nil
	case pbft.ViewChange:
		return framePBFTViewChange, p.Marshal(), nil
	case pbft.NewView:
		return framePBFTNewView, p.Marshal(), nil
	case *types.StateSyncRequestMsg:
		return frameStateSyncReq, p.Marshal(), nil
	case *types.StateSyncResponseMsg:
		return frameStateSyncResp, p.Marshal(), nil
	case *types.CommitNotifyMsg:
		return frameCommitNotify, p.Marshal(), nil
	default:
		return 0, nil, fmt.Errorf("transport: no wire codec for payload type %T", payload)
	}
}

// decodeFrame reverses encodeFrame. Binary decoders validate structure
// (graph shape, edge ranges) before the payload reaches a node.
func decodeFrame(tag byte, body []byte) (any, error) {
	switch tag {
	case frameRequest:
		return types.UnmarshalRequestMsg(body)
	case frameNewBlock:
		return types.UnmarshalNewBlockMsg(body)
	case frameCommit:
		return types.UnmarshalCommitMsg(body)
	case frameRaftForward:
		return raft.UnmarshalForward(body)
	case frameRaftRequestVote:
		return raft.UnmarshalRequestVote(body)
	case frameRaftVoteResp:
		return raft.UnmarshalVoteResp(body)
	case frameRaftAppendEntries:
		return raft.UnmarshalAppendEntries(body)
	case frameRaftAppendResp:
		return raft.UnmarshalAppendResp(body)
	case frameKafkaForward:
		return kafkaorder.UnmarshalForward(body)
	case frameKafkaAppend:
		return kafkaorder.UnmarshalAppend(body)
	case frameKafkaAck:
		return kafkaorder.UnmarshalAck(body)
	case frameKafkaCommitAnn:
		return kafkaorder.UnmarshalCommitAnn(body)
	case frameKafkaFetch:
		return kafkaorder.UnmarshalFetch(body)
	case framePBFTForward:
		return pbft.UnmarshalForward(body)
	case framePBFTPrePrepare:
		return pbft.UnmarshalPrePrepare(body)
	case framePBFTPrepare:
		return pbft.UnmarshalPrepare(body)
	case framePBFTCommit:
		return pbft.UnmarshalCommit(body)
	case framePBFTViewChange:
		return pbft.UnmarshalViewChange(body)
	case framePBFTNewView:
		return pbft.UnmarshalNewView(body)
	case frameStateSyncReq:
		return types.UnmarshalStateSyncRequest(body)
	case frameStateSyncResp:
		return types.UnmarshalStateSyncResponse(body)
	case frameCommitNotify:
		return types.UnmarshalCommitNotifyMsg(body)
	default:
		return nil, fmt.Errorf("transport: unknown frame tag %d", tag)
	}
}

// frameHeaderBytes is the length-prefix size preceding every frame's
// tag byte; wire-byte accounting charges header + tag + body.
const frameHeaderBytes = 4

// writeFrame emits one length-prefixed frame.
func writeFrame(w *bufio.Writer, tag byte, body []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(1+len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := w.WriteByte(tag); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame consumes one frame, enforcing the size bound before
// allocating.
func readFrame(r *bufio.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrameBytes {
		return 0, nil, fmt.Errorf("transport: frame length %d out of bounds", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// TCPEndpoint implements Endpoint over real sockets.
type TCPEndpoint struct {
	cfg      TCPConfig
	listener net.Listener
	inbox    *inbox

	mu      sync.Mutex
	conns   map[types.NodeID]*outConn
	inbound map[net.Conn]bool
	wg      sync.WaitGroup

	stats struct {
		framesSent   atomic.Uint64
		bytesSent    atomic.Uint64
		framesRecv   atomic.Uint64
		bytesRecv    atomic.Uint64
		sendErrors   atomic.Uint64
		connsDropped atomic.Uint64
	}
}

type outConn struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
}

// NewTCPEndpoint starts listening and returns a ready endpoint.
func NewTCPEndpoint(cfg TCPConfig) (*TCPEndpoint, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = 250 * time.Millisecond
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %s: %w", cfg.ListenAddr, err)
	}
	e := &TCPEndpoint{
		cfg:      cfg,
		listener: ln,
		conns:    make(map[types.NodeID]*outConn),
		inbound:  make(map[net.Conn]bool),
	}
	e.inbox = startInbox(&e.wg)
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// ID returns the node identity.
func (e *TCPEndpoint) ID() types.NodeID { return e.cfg.ID }

// Addr returns the bound listen address (useful with ":0" configs).
func (e *TCPEndpoint) Addr() string { return e.listener.Addr().String() }

// Recv returns the inbound message channel.
func (e *TCPEndpoint) Recv() <-chan Message { return e.inbox.out }

// Send delivers payload to the named peer, dialing on first use. The
// write happens on the caller's goroutine and blocks while the peer's
// socket buffer is full. A dead connection is dropped and redialed on
// the next send; reliability above that is the protocols' job (quorums,
// retransmission by view change).
func (e *TCPEndpoint) Send(to types.NodeID, payload any) error {
	select {
	case <-e.inbox.done:
		return ErrClosed
	default:
	}
	tag, body, err := encodeFrame(payload)
	if err != nil {
		return err
	}
	return e.sendFrame(to, tag, body)
}

// sendFrame delivers one pre-encoded frame to a peer. Frame bodies are
// destination-independent (identity rides the connection handshake), so
// multicast encodes once and fans the same bytes out here.
func (e *TCPEndpoint) sendFrame(to types.NodeID, tag byte, body []byte) error {
	addr, ok := e.cfg.Peers[to]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	conn, err := e.getConn(to, addr)
	if err != nil {
		e.stats.sendErrors.Add(1)
		return err
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if err := writeFrame(conn.bw, tag, body); err != nil {
		e.stats.sendErrors.Add(1)
		e.dropConn(to, conn)
		return fmt.Errorf("transport: sending to %s: %w", to, err)
	}
	e.stats.framesSent.Add(1)
	e.stats.bytesSent.Add(uint64(frameHeaderBytes + 1 + len(body)))
	return nil
}

// multicast sends one payload to every destination except self, encoding
// it exactly once; transport.Multicast dispatches here for TCP endpoints.
func (e *TCPEndpoint) multicast(tos []types.NodeID, payload any) error {
	select {
	case <-e.inbox.done:
		return ErrClosed
	default:
	}
	tag, body, err := encodeFrame(payload)
	if err != nil {
		return err
	}
	var firstErr error
	for _, to := range tos {
		if to == e.cfg.ID {
			continue
		}
		if err := e.sendFrame(to, tag, body); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (e *TCPEndpoint) getConn(to types.NodeID, addr string) (*outConn, error) {
	e.mu.Lock()
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()
	raw, err := net.DialTimeout("tcp", addr, e.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s at %s: %w", to, addr, err)
	}
	c := &outConn{conn: raw, bw: bufio.NewWriter(raw)}
	// Handshake: announce our identity once per connection.
	if err := writeFrame(c.bw, frameHello, []byte(e.cfg.ID)); err != nil {
		raw.Close()
		return nil, fmt.Errorf("transport: handshake with %s: %w", to, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if existing, ok := e.conns[to]; ok {
		raw.Close() // lost a benign race; reuse the winner
		return existing, nil
	}
	e.conns[to] = c
	return c, nil
}

func (e *TCPEndpoint) dropConn(to types.NodeID, c *outConn) {
	e.stats.connsDropped.Add(1)
	c.conn.Close()
	e.mu.Lock()
	if e.conns[to] == c {
		delete(e.conns, to)
	}
	e.mu.Unlock()
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		select {
		case <-e.inbox.done:
			e.mu.Unlock()
			conn.Close()
			return
		default:
		}
		e.inbound[conn] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// readLoop consumes frames from one inbound connection. The first frame
// must be the handshake pinning the sender identity; a decode failure on
// any later frame drops the link (the peer is broken or hostile — there
// is no way to resynchronize a corrupt length-prefixed stream).
func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	tag, body, err := readFrame(br)
	if err != nil || tag != frameHello || len(body) == 0 {
		return
	}
	from := types.NodeID(body)
	for {
		tag, body, err := readFrame(br)
		if err != nil {
			return
		}
		payload, err := decodeFrame(tag, body)
		if err != nil {
			return // undecodable frame: drop the link
		}
		e.stats.framesRecv.Add(1)
		e.stats.bytesRecv.Add(uint64(frameHeaderBytes + 1 + len(body)))
		e.inbox.push(Message{From: from, To: e.cfg.ID, Payload: payload}, time.Time{}) // due on arrival
	}
}

// Close shuts the endpoint down: the listener stops, connections close,
// and Recv's channel closes.
func (e *TCPEndpoint) Close() {
	if e.inbox.close() {
		e.listener.Close()
		e.mu.Lock()
		for id, c := range e.conns {
			c.conn.Close()
			delete(e.conns, id)
		}
		for conn := range e.inbound {
			conn.Close() // unblocks the readLoop's readFrame
		}
		e.mu.Unlock()
	}
	e.wg.Wait()
}

var _ Endpoint = (*TCPEndpoint)(nil)
