package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"parblockchain/internal/consensus/kafkaorder"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/types"
)

// note builds the payload the socket tests send: a commit notification,
// whose block number and TxID carry the test's values.
func note(n int, text string) *types.CommitNotifyMsg {
	return &types.CommitNotifyMsg{TxID: types.TxID(text), BlockNum: uint64(n)}
}

// tcpPair builds two connected TCP endpoints on loopback.
func tcpPair(t *testing.T) (*TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	book := make(map[types.NodeID]string)
	a, err := NewTCPEndpoint(TCPConfig{ID: "a", ListenAddr: "127.0.0.1:0", Peers: book})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPEndpoint(TCPConfig{ID: "b", ListenAddr: "127.0.0.1:0", Peers: book})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	book["a"] = a.Addr()
	book["b"] = b.Addr()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func TestTCPSendReceive(t *testing.T) {
	a, b := tcpPair(t)
	if err := a.Send("b", note(7, "hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-b.Recv():
		if msg.From != "a" {
			t.Fatalf("From = %s", msg.From)
		}
		p, ok := msg.Payload.(*types.CommitNotifyMsg)
		if !ok || p.BlockNum != 7 || p.TxID != "hello" {
			t.Fatalf("payload = %#v", msg.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, b := tcpPair(t)
	if err := a.Send("b", note(1, "")); err != nil {
		t.Fatal(err)
	}
	<-b.Recv()
	if err := b.Send("a", note(2, "")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-a.Recv():
		if msg.Payload.(*types.CommitNotifyMsg).BlockNum != 2 {
			t.Fatalf("payload = %#v", msg.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reverse delivery")
	}
}

func TestTCPFIFO(t *testing.T) {
	a, b := tcpPair(t)
	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send("b", note(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case msg := <-b.Recv():
			if msg.Payload.(*types.CommitNotifyMsg).BlockNum != uint64(i) {
				t.Fatalf("out of order at %d: %#v", i, msg.Payload)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled at %d", i)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := tcpPair(t)
	if err := a.Send("ghost", note(0, "")); err == nil {
		t.Fatal("send to unknown peer must error")
	}
}

func TestTCPSendAfterCloseErrors(t *testing.T) {
	a, b := tcpPair(t)
	a.Close()
	if err := a.Send("b", note(0, "")); err == nil {
		t.Fatal("send after close must error")
	}
	_ = b
}

func TestTCPCloseEndsRecv(t *testing.T) {
	a, b := tcpPair(t)
	_ = a
	done := make(chan struct{})
	go func() {
		for range b.Recv() {
		}
		close(done)
	}()
	b.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not end on close")
	}
}

// roundTripTx builds a transaction with every field populated, so frame
// round trips exercise the full encoding.
func roundTripTx() *types.Transaction {
	return &types.Transaction{
		ID:       "tx-rt",
		App:      "app1",
		Client:   "c1",
		ClientTS: 42,
		Op: types.Operation{
			Method: "transfer",
			Params: []string{"a", "b", "5"},
			Reads:  []string{"a", "b"},
			Writes: []string{"a", "b"},
		},
		SubmitUnixNano: 99,
		Sig:            []byte{1, 2, 3},
	}
}

// recvPayload waits for one message on b and returns its payload.
func recvPayload(t *testing.T, b *TCPEndpoint) any {
	t.Helper()
	select {
	case msg := <-b.Recv():
		if msg.From != "a" {
			t.Fatalf("From = %s", msg.From)
		}
		return msg.Payload
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
		return nil
	}
}

// TestTCPBinaryFrameRoundTrips sends every binary-framed protocol type
// through a real socket pair and checks the decoded value is equivalent
// (digests match, structure intact) — the transport-level counterpart of
// the codec fuzz contract.
func TestTCPBinaryFrameRoundTrips(t *testing.T) {
	a, b := tcpPair(t)
	tx := roundTripTx()

	t.Run("REQUEST", func(t *testing.T) {
		if err := a.Send("b", &types.RequestMsg{Tx: tx}); err != nil {
			t.Fatal(err)
		}
		got, ok := recvPayload(t, b).(*types.RequestMsg)
		if !ok || got.Tx == nil || got.Tx.Digest() != tx.Digest() {
			t.Fatalf("REQUEST mangled: %#v", got)
		}
	})

	t.Run("NEWBLOCK", func(t *testing.T) {
		block := types.NewBlock(3, types.Hash{9}, []*types.Transaction{tx, roundTripTx()})
		msg := &types.NewBlockMsg{
			Block: block,
			Graph: &depgraph.Graph{N: 2, Succ: [][]int32{{1}, nil}, Pred: [][]int32{nil, {0}}},
			Apps:  block.Apps(), Orderer: "a", Sig: []byte{4},
		}
		if err := a.Send("b", msg); err != nil {
			t.Fatal(err)
		}
		got, ok := recvPayload(t, b).(*types.NewBlockMsg)
		if !ok || got.Digest() != msg.Digest() || !got.Block.VerifyTxRoot() {
			t.Fatalf("NEWBLOCK mangled: %#v", got)
		}
		if got.Graph == nil || !got.Graph.HasEdge(0, 1) {
			t.Fatal("graph lost on the wire")
		}
	})

	t.Run("COMMIT", func(t *testing.T) {
		msg := &types.CommitMsg{
			BlockNum: 7,
			Results: []types.TxResult{
				{TxID: "t1", Index: 0, Writes: []types.KV{
					{Key: "k", Val: []byte("v")},
					{Key: "deleted", Val: nil},
				}},
				{TxID: "t2", Index: 1, Aborted: true, AbortReason: "broke"},
			},
			Executor: "a", Sig: []byte{5},
		}
		if err := a.Send("b", msg); err != nil {
			t.Fatal(err)
		}
		got, ok := recvPayload(t, b).(*types.CommitMsg)
		if !ok || got.Digest() != msg.Digest() {
			t.Fatalf("COMMIT mangled: %#v", got)
		}
		if got.Results[0].Writes[1].Val != nil {
			t.Fatal("deletion write became a value on the wire")
		}
	})

	// The consensus payloads are binary-framed too; each must arrive as
	// the same value type the consensus state machines type-switch on.
	t.Run("kafka", func(t *testing.T) {
		for _, msg := range []any{
			kafkaorder.Forward{Payload: []byte("fwd")},
			kafkaorder.Append{Seq: 9, Batch: [][]byte{[]byte("p1"), []byte("p2")}},
			kafkaorder.Ack{Seq: 9},
			kafkaorder.CommitAnn{Seq: 9},
		} {
			if err := a.Send("b", msg); err != nil {
				t.Fatal(err)
			}
			got := recvPayload(t, b)
			if !reflect.DeepEqual(got, msg) {
				t.Fatalf("%T mangled: %#v != %#v", msg, got, msg)
			}
		}
	})

	t.Run("COMMIT-NOTIFY", func(t *testing.T) {
		for _, msg := range []*types.CommitNotifyMsg{
			{TxID: "tx-rt", BlockNum: 11},
			{TxID: "tx-rt2", BlockNum: 12, Aborted: true, AbortReason: "insufficient funds"},
		} {
			if err := a.Send("b", msg); err != nil {
				t.Fatal(err)
			}
			got, ok := recvPayload(t, b).(*types.CommitNotifyMsg)
			if !ok || *got != *msg {
				t.Fatalf("COMMIT-NOTIFY mangled: %#v != %#v", got, msg)
			}
		}
	})
}

// TestTCPSendWithoutCodecErrors: a payload type with no binary codec is
// refused at Send with an error naming the type, and nothing reaches
// the peer; the link still carries the next valid frame.
func TestTCPSendWithoutCodecErrors(t *testing.T) {
	type noCodec struct{ N int }
	a, b := tcpPair(t)
	err := a.Send("b", noCodec{N: 1})
	if err == nil || !strings.Contains(err.Error(), "noCodec") {
		t.Fatalf("Send(noCodec) = %v, want an error naming the type", err)
	}
	if err := Multicast(a, []types.NodeID{"b"}, noCodec{N: 2}); err == nil || !strings.Contains(err.Error(), "noCodec") {
		t.Fatalf("Multicast(noCodec) = %v, want an error naming the type", err)
	}
	if err := a.Send("b", note(3, "after")); err != nil {
		t.Fatal(err)
	}
	if got, ok := recvPayload(t, b).(*types.CommitNotifyMsg); !ok || got.BlockNum != 3 {
		t.Fatalf("first delivery = %#v, want the valid frame sent after the refused ones", got)
	}
	if n := a.stats.framesSent.Load(); n != 1 {
		t.Fatalf("framesSent = %d, want only the valid frame", n)
	}
}

// TestTCPMalformedFrameDropsLink: a hostile frame must kill the link, not
// the process, and later messages on a fresh connection still flow.
func TestTCPMalformedFrameDropsLink(t *testing.T) {
	_, b := tcpPair(t)
	raw, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	bw := bufio.NewWriter(raw)
	if err := writeFrame(bw, frameHello, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// A NEWBLOCK frame whose body is garbage: the decoder must error and
	// the endpoint must drop the connection.
	if err := writeFrame(bw, frameNewBlock, []byte{0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-b.Recv():
		t.Fatalf("malformed frame delivered: %#v", msg)
	case <-time.After(200 * time.Millisecond):
	}
	// The link is dead: the endpoint should have closed it.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("endpoint kept a link alive after a malformed frame")
	}
}

// TestTCPOversizedFrameRejected: a length prefix beyond the bound must
// not cause a giant allocation; the link dies instead.
func TestTCPOversizedFrameRejected(t *testing.T) {
	_, b := tcpPair(t)
	raw, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("endpoint accepted an oversized frame header")
	}
}

// TestTCPMulticastSingleEncode: Multicast over TCP fans one encoded
// frame out to every peer; each receives an equivalent message.
func TestTCPMulticastSingleEncode(t *testing.T) {
	book := make(map[types.NodeID]string)
	mk := func(id types.NodeID) *TCPEndpoint {
		ep, err := NewTCPEndpoint(TCPConfig{ID: id, ListenAddr: "127.0.0.1:0", Peers: book})
		if err != nil {
			t.Fatal(err)
		}
		book[id] = ep.Addr()
		t.Cleanup(ep.Close)
		return ep
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	msg := &types.CommitMsg{
		BlockNum: 3,
		Results:  []types.TxResult{{TxID: "t", Index: 0, Writes: []types.KV{{Key: "k", Val: []byte("v")}}}},
		Executor: "a", Sig: []byte{1},
	}
	// The destination list includes the sender, which Multicast must skip.
	if err := Multicast(a, []types.NodeID{"a", "b", "c"}, msg); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []*TCPEndpoint{b, c} {
		select {
		case got := <-ep.Recv():
			cm, ok := got.Payload.(*types.CommitMsg)
			if !ok || cm.Digest() != msg.Digest() {
				t.Fatalf("%s received mangled multicast: %#v", ep.ID(), got.Payload)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s missed the multicast", ep.ID())
		}
	}
	select {
	case got := <-a.Recv():
		t.Fatalf("sender received its own multicast: %#v", got)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestTCPManyPeers(t *testing.T) {
	book := make(map[types.NodeID]string)
	const n = 5
	eps := make([]*TCPEndpoint, n)
	for i := 0; i < n; i++ {
		id := types.NodeID(fmt.Sprintf("n%d", i))
		ep, err := NewTCPEndpoint(TCPConfig{ID: id, ListenAddr: "127.0.0.1:0", Peers: book})
		if err != nil {
			t.Fatal(err)
		}
		book[id] = ep.Addr()
		eps[i] = ep
		defer ep.Close()
	}
	// Everyone sends to everyone.
	for i, from := range eps {
		for j := range eps {
			if i == j {
				continue
			}
			to := types.NodeID(fmt.Sprintf("n%d", j))
			if err := from.Send(to, note(i*10+j, "")); err != nil {
				t.Fatalf("%d->%d: %v", i, j, err)
			}
		}
	}
	for j, ep := range eps {
		got := 0
		deadline := time.After(5 * time.Second)
		for got < n-1 {
			select {
			case <-ep.Recv():
				got++
			case <-deadline:
				t.Fatalf("node %d received %d of %d", j, got, n-1)
			}
		}
	}
}

// TestRetiredFrameTagsRejected: tag 0 carried the retired gob escape
// hatch, tags 5 and 6 the retired segment-streaming frames, and tags
// 7–11 the retired Raft adapter's messages. They stay reserved, so a
// peer still speaking those formats gets its frames refused instead of
// misread.
func TestRetiredFrameTagsRejected(t *testing.T) {
	for _, tag := range []byte{0, 5, 6, 7, 8, 9, 10, 11} {
		if payload, err := decodeFrame(tag, []byte{0, 1, 2, 3}); err == nil {
			t.Fatalf("tag %d decoded to %T, want an unknown-tag error", tag, payload)
		}
	}
}
