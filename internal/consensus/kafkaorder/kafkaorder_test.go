package kafkaorder_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parblockchain/internal/consensus"
	"parblockchain/internal/consensus/kafkaorder"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

func newCluster(t *testing.T, n int) (*transport.InMemNetwork, []*kafkaorder.Node, []types.NodeID) {
	t.Helper()
	return newClusterWith(t, n, nil)
}

// newClusterWith builds a cluster whose member id sends through
// wrap(id, its endpoint's sender) when wrap is set.
func newClusterWith(t *testing.T, n int, wrap func(types.NodeID, consensus.Sender) consensus.Sender) (*transport.InMemNetwork, []*kafkaorder.Node, []types.NodeID) {
	t.Helper()
	return newClusterBatch(t, n, consensus.BatchConfig{MaxMsgs: maxMsgs, MaxDelayMillis: 2}, wrap)
}

// newClusterBatch is newClusterWith with the members' batch config.
func newClusterBatch(t *testing.T, n int, batch consensus.BatchConfig, wrap func(types.NodeID, consensus.Sender) consensus.Sender) (*transport.InMemNetwork, []*kafkaorder.Node, []types.NodeID) {
	t.Helper()
	net := transport.NewInMemNetwork(transport.InMemConfig{
		Latency: transport.ConstantLatency(200 * time.Microsecond),
	})
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(fmt.Sprintf("k%d", i+1))
	}
	nodes := make([]*kafkaorder.Node, n)
	for i, id := range ids {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		var sender consensus.Sender = consensus.SenderFunc(ep.Send)
		if wrap != nil {
			sender = wrap(id, sender)
		}
		node, err := kafkaorder.New(kafkaorder.Config{
			ID:      id,
			Members: ids,
			Sender:  sender,
			Batch:   batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		go func(ep transport.Endpoint, node *kafkaorder.Node) {
			for msg := range ep.Recv() {
				node.Step(msg.From, msg.Payload)
			}
		}(ep, node)
		node.Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
		net.Close()
	})
	return net, nodes, ids
}

// maxMsgs is the test clusters' batch size, and so the number of
// forwards a follower holds while the leader does not accept them.
const maxMsgs = 4

// failingSender fails sends to one destination while failing says so,
// and passes every other send through.
type failingSender struct {
	consensus.Sender
	to      types.NodeID
	failing func() bool
}

func (s failingSender) Send(to types.NodeID, payload any) error {
	if to == s.to && s.failing() {
		return errors.New("leader unreachable")
	}
	return s.Sender.Send(to, payload)
}

// expectQuiet fails if n delivers anything within d.
func expectQuiet(t *testing.T, n *kafkaorder.Node, d time.Duration) {
	t.Helper()
	select {
	case e := <-n.Committed():
		t.Fatalf("unexpected extra entry %d: %q", e.Seq, e.Payload)
	case <-time.After(d):
	}
}

func collect(t *testing.T, n *kafkaorder.Node, k int, timeout time.Duration) []consensus.Entry {
	t.Helper()
	out := make([]consensus.Entry, 0, k)
	deadline := time.After(timeout)
	for len(out) < k {
		select {
		case e, ok := <-n.Committed():
			if !ok {
				t.Fatalf("stream closed after %d entries", len(out))
			}
			out = append(out, e)
		case <-deadline:
			t.Fatalf("timeout: got %d of %d entries", len(out), k)
		}
	}
	return out
}

func TestTotalOrderAcrossMembers(t *testing.T) {
	_, nodes, _ := newCluster(t, 3)
	const k = 30
	for i := 0; i < k; i++ {
		_ = nodes[i%3].Submit([]byte(fmt.Sprintf("p%03d", i)))
	}
	streams := make([][]consensus.Entry, 3)
	for i, n := range nodes {
		streams[i] = collect(t, n, k, 10*time.Second)
	}
	for i := 1; i < 3; i++ {
		for j := range streams[0] {
			if string(streams[0][j].Payload) != string(streams[i][j].Payload) {
				t.Fatalf("node %d diverges at %d", i, j)
			}
			if streams[i][j].Seq != uint64(j+1) {
				t.Fatalf("node %d seq %d at position %d", i, streams[i][j].Seq, j)
			}
		}
	}
}

func TestLeaderIsStatic(t *testing.T) {
	_, nodes, ids := newCluster(t, 3)
	for _, n := range nodes {
		if n.Leader() != ids[0] {
			t.Fatalf("Leader = %s, want %s", n.Leader(), ids[0])
		}
	}
}

func TestSurvivesBrokerFailure(t *testing.T) {
	net, nodes, ids := newCluster(t, 3)
	// Quorum is 2 of 3: losing one non-leader broker must not stall.
	net.Isolate(ids[2], true)
	_ = nodes[1].Submit([]byte("x"))
	for i := 0; i < 2; i++ {
		entries := collect(t, nodes[i], 1, 5*time.Second)
		if string(entries[0].Payload) != "x" {
			t.Fatalf("node %d got %q", i, entries[0].Payload)
		}
	}
}

func TestAckQuorumConfigurable(t *testing.T) {
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	ids := []types.NodeID{"a", "b", "c"}
	eps := make(map[types.NodeID]transport.Endpoint)
	for _, id := range ids {
		ep, _ := net.Endpoint(id)
		eps[id] = ep
	}
	// AckQuorum 3 requires every broker; isolate one and the batch must
	// NOT commit.
	nodes := make([]*kafkaorder.Node, 3)
	for i, id := range ids {
		var err error
		nodes[i], err = kafkaorder.New(kafkaorder.Config{
			ID: id, Members: ids,
			Sender:    consensus.SenderFunc(eps[id].Send),
			Batch:     consensus.BatchConfig{MaxMsgs: 1, MaxDelayMillis: 1},
			AckQuorum: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func(ep transport.Endpoint, node *kafkaorder.Node) {
			for msg := range ep.Recv() {
				node.Step(msg.From, msg.Payload)
			}
		}(eps[id], nodes[i])
		nodes[i].Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	net.Isolate("c", true)
	_ = nodes[0].Submit([]byte("x"))
	select {
	case e := <-nodes[0].Committed():
		t.Fatalf("committed %q without full ack quorum", e.Payload)
	case <-time.After(150 * time.Millisecond):
	}
	// Heal. The Append to c was dropped during the partition and the
	// static-leader service does not re-send it, so the batch at seq 1
	// stays uncommitted and nothing may commit out of order behind it.
	net.Isolate("c", false)
	select {
	case e := <-nodes[0].Committed():
		t.Fatalf("unexpected commit %q", e.Payload)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestLeaderBatchesLonePayloadAtOnce: a payload far below MaxMsgs at an
// idle leader leaves at once, with no batch timer to wait for — the
// timer here is ten seconds — and every member delivers it promptly.
func TestLeaderBatchesLonePayloadAtOnce(t *testing.T) {
	_, nodes, ids := newClusterBatch(t, 3, consensus.BatchConfig{MaxMsgs: 64, MaxDelayMillis: 10_000}, nil)
	_ = nodes[0].Submit([]byte("solo"))
	for i, n := range nodes {
		if e := collect(t, n, 1, 200*time.Millisecond)[0]; string(e.Payload) != "solo" {
			t.Fatalf("member %s delivered %q", ids[i], e.Payload)
		}
	}
}

// ackGate holds the Acks sent through it while closed, and sends them
// when opened.
type ackGate struct {
	mu     sync.Mutex
	closed bool
	held   []func()
}

func (g *ackGate) wrap(s consensus.Sender) consensus.Sender {
	return consensus.SenderFunc(func(to types.NodeID, msg any) error {
		if _, ok := msg.(kafkaorder.Ack); ok {
			g.mu.Lock()
			defer g.mu.Unlock()
			if g.closed {
				g.held = append(g.held, func() { _ = s.Send(to, msg) })
				return nil
			}
		}
		return s.Send(to, msg)
	})
}

func (g *ackGate) heldAcks() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.held)
}

func (g *ackGate) open() {
	g.mu.Lock()
	g.closed = false
	held := g.held
	g.held = nil
	g.mu.Unlock()
	for _, send := range held {
		send()
	}
}

// TestLeaderBatchesWhatQueuedBehindOutstandingBatch: while a batch waits
// for its acks, the payloads submitted behind it wait too, however long;
// once it commits they leave together as the next batch.
func TestLeaderBatchesWhatQueuedBehindOutstandingBatch(t *testing.T) {
	gate := &ackGate{closed: true}
	var mu sync.Mutex
	var sizes []int // of the leader's Appends to k2, one per batch
	_, nodes, _ := newClusterBatch(t, 3, consensus.BatchConfig{MaxMsgs: 64, MaxDelayMillis: 2},
		func(id types.NodeID, s consensus.Sender) consensus.Sender {
			if id != "k1" {
				return gate.wrap(s)
			}
			return consensus.SenderFunc(func(to types.NodeID, msg any) error {
				if a, ok := msg.(kafkaorder.Append); ok && to == "k2" {
					mu.Lock()
					sizes = append(sizes, len(a.Batch))
					mu.Unlock()
				}
				return s.Send(to, msg)
			})
		})
	appends := func() []int {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(sizes)
	}

	_ = nodes[0].Submit([]byte("first"))
	deadline := time.Now().Add(5 * time.Second)
	for gate.heldAcks() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the followers never acknowledged the first batch")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		_ = nodes[0].Submit([]byte(fmt.Sprintf("p%d", i)))
	}
	time.Sleep(50 * time.Millisecond)
	if got := appends(); !slices.Equal(got, []int{1}) {
		t.Fatalf("Appends while the first batch waits for its acks: %v, want [1]", got)
	}

	gate.open()
	collect(t, nodes[0], 11, 5*time.Second)
	if got := appends(); !slices.Equal(got, []int{1, 10}) {
		t.Fatalf("Appends = %v, want [1 10]: the ten waiting payloads leave as one batch", got)
	}
}

// TestFollowerRetriesFailedForwards: a follower whose forwards to the
// leader fail — the leader is not listening yet — holds them and re-sends
// them on its retry timer, so each payload submitted once at the follower
// is delivered exactly once, in submission order, by every member.
func TestFollowerRetriesFailedForwards(t *testing.T) {
	const failures = 5
	var sends atomic.Int64
	_, nodes, ids := newClusterWith(t, 3, func(id types.NodeID, s consensus.Sender) consensus.Sender {
		if id != "k2" {
			return s
		}
		return failingSender{Sender: s, to: "k1", failing: func() bool { return sends.Add(1) <= failures }}
	})
	want := []string{"a", "b", "c"}
	for _, p := range want {
		_ = nodes[1].Submit([]byte(p))
	}
	for i, n := range nodes {
		entries := collect(t, n, len(want), 5*time.Second)
		for j, e := range entries {
			if string(e.Payload) != want[j] {
				t.Fatalf("member %s delivered %q at %d, want %q", ids[i], e.Payload, j, want[j])
			}
		}
	}
	if sends.Load() <= failures {
		t.Fatalf("the leader was reached after %d sends, want more than %d failures", sends.Load(), failures)
	}
	for _, n := range nodes {
		expectQuiet(t, n, 50*time.Millisecond)
	}
}

// TestFollowerHoldsAtMostMaxMsgsForwards: while the leader accepts
// nothing, a follower holds the first Batch.MaxMsgs payloads submitted to
// it and drops the rest; once the leader is reachable, exactly the held
// ones are delivered, in order.
func TestFollowerHoldsAtMostMaxMsgsForwards(t *testing.T) {
	var down atomic.Bool
	var failed atomic.Int64
	down.Store(true)
	_, nodes, _ := newClusterWith(t, 3, func(id types.NodeID, s consensus.Sender) consensus.Sender {
		if id != "k2" {
			return s
		}
		return failingSender{Sender: s, to: "k1", failing: func() bool {
			if !down.Load() {
				return false
			}
			failed.Add(1)
			return true
		}}
	})
	for i := 0; i < maxMsgs+3; i++ {
		_ = nodes[1].Submit([]byte(fmt.Sprintf("p%d", i)))
	}
	// Two more failed re-sends: the timer behind the second was armed
	// after every Submit above was queued, so the follower has taken all
	// of them by then.
	seen := failed.Load()
	deadline := time.Now().Add(5 * time.Second)
	for failed.Load() < seen+2 {
		if time.Now().After(deadline) {
			t.Fatal("the follower stopped re-sending its held forwards")
		}
		time.Sleep(time.Millisecond)
	}
	down.Store(false)
	entries := collect(t, nodes[0], maxMsgs, 5*time.Second)
	for i, e := range entries {
		if want := fmt.Sprintf("p%d", i); string(e.Payload) != want {
			t.Fatalf("delivered %q at %d, want %q", e.Payload, i, want)
		}
	}
	expectQuiet(t, nodes[0], 50*time.Millisecond)
}

// TestFollowerFetchesAfterLostCommit: the leader crashes with a batch's
// Append and CommitAnn to one follower lost in flight, after the batch
// committed on the other. The restarted leader has that batch delivered
// and does not send it again, so the follower learns of the gap only from
// the next commit; it then fetches the missing batch from the leader's
// log and delivers both, in order.
func TestFollowerFetchesAfterLostCommit(t *testing.T) {
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	t.Cleanup(net.Close)
	dir := t.TempDir()
	ids := []types.NodeID{"k1", "k2", "k3"}
	start := func(id types.NodeID) *kafkaorder.Node {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		n, err := kafkaorder.New(kafkaorder.Config{
			ID: id, Members: ids,
			Sender: consensus.SenderFunc(ep.Send),
			Batch:  consensus.BatchConfig{MaxMsgs: 1, MaxDelayMillis: 1},
			Dir:    filepath.Join(dir, string(id)),
			Logf:   t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for msg := range ep.Recv() {
				n.Step(msg.From, msg.Payload)
			}
		}()
		n.Start()
		t.Cleanup(n.Stop)
		return n
	}
	leader, k2, k3 := start("k1"), start("k2"), start("k3")

	net.SetBlocked("k1", "k2", true)
	_ = leader.Submit([]byte("a"))
	collect(t, k3, 1, 5*time.Second)
	collect(t, leader, 1, 5*time.Second)
	leader.Crash()
	net.Remove("k1")
	net.SetBlocked("k1", "k2", false)

	leader = start("k1")
	_ = leader.Submit([]byte("b"))
	for i, n := range []*kafkaorder.Node{k2, k3} {
		var got []string
		for _, e := range collect(t, n, 2-i, 5*time.Second) {
			got = append(got, string(e.Payload))
		}
		if want := []string{"a", "b"}[i:]; !slices.Equal(got, want) {
			t.Fatalf("member k%d delivered %q, want %q", i+2, got, want)
		}
	}
}
