package transport

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"parblockchain/internal/types"
)

func newNet(t *testing.T, cfg InMemConfig) *InMemNetwork {
	t.Helper()
	n := NewInMemNetwork(cfg)
	t.Cleanup(n.Close)
	return n
}

func TestSendReceive(t *testing.T) {
	net := newNet(t, InMemConfig{})
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", "hello"); err != nil {
		t.Fatal(err)
	}
	msg := <-b.Recv()
	if msg.From != "a" || msg.To != "b" || msg.Payload != "hello" {
		t.Fatalf("msg = %+v", msg)
	}
}

func TestSenderIdentityIsAuthenticated(t *testing.T) {
	net := newNet(t, InMemConfig{})
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	_ = a.Send("b", "x")
	msg := <-b.Recv()
	// The transport attaches From; a payload cannot forge it.
	if msg.From != "a" {
		t.Fatalf("From = %s, want a", msg.From)
	}
}

func TestPerLinkFIFO(t *testing.T) {
	net := newNet(t, InMemConfig{Latency: ConstantLatency(time.Millisecond)})
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send("b", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		msg := <-b.Recv()
		if msg.Payload.(int) != i {
			t.Fatalf("out of order: got %v at position %d", msg.Payload, i)
		}
	}
}

func TestUnknownDestination(t *testing.T) {
	net := newNet(t, InMemConfig{})
	a, _ := net.Endpoint("a")
	if err := a.Send("ghost", "x"); err == nil {
		t.Fatal("send to unknown node must error")
	}
}

func TestLatencyIsImposed(t *testing.T) {
	net := newNet(t, InMemConfig{Latency: ConstantLatency(50 * time.Millisecond)})
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	start := time.Now()
	_ = a.Send("b", "x")
	<-b.Recv()
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("delivery took %v, want >= ~50ms", elapsed)
	}
}

func TestZoneLatency(t *testing.T) {
	model := &ZoneLatency{
		Zone:        map[types.NodeID]string{"far": "dc2"},
		DefaultZone: "dc1",
		Intra:       time.Millisecond,
		Inter:       80 * time.Millisecond,
	}
	if d := model.Sample("a", "b"); d != time.Millisecond {
		t.Fatalf("intra = %v", d)
	}
	if d := model.Sample("a", "far"); d != 80*time.Millisecond {
		t.Fatalf("inter = %v", d)
	}
	if d := model.Sample("far", "far"); d != time.Millisecond {
		t.Fatalf("far-far = %v", d)
	}
}

func TestBandwidthDelayScalesWithSize(t *testing.T) {
	net := newNet(t, InMemConfig{BandwidthBytesPerSec: 1 << 20}) // 1 MiB/s
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	big := sizedPayload(1 << 19) // 512 KiB -> ~500ms serialization
	start := time.Now()
	_ = a.Send("b", big)
	<-b.Recv()
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Fatalf("big payload arrived in %v, want bandwidth-limited delay", elapsed)
	}
}

type sizedPayload int

func (s sizedPayload) ApproxSize() int { return int(s) }

func TestPartitionDropsSilently(t *testing.T) {
	net := newNet(t, InMemConfig{})
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	net.SetBlocked("a", "b", true)
	if err := a.Send("b", "lost"); err != nil {
		t.Fatalf("partitioned send must not error: %v", err)
	}
	select {
	case msg := <-b.Recv():
		t.Fatalf("blocked link delivered %+v", msg)
	case <-time.After(30 * time.Millisecond):
	}
	// Heal and verify delivery resumes.
	net.SetBlocked("a", "b", false)
	_ = a.Send("b", "found")
	msg := <-b.Recv()
	if msg.Payload != "found" {
		t.Fatalf("payload = %v", msg.Payload)
	}
}

func TestIsolateBlocksBothDirections(t *testing.T) {
	net := newNet(t, InMemConfig{})
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	net.Isolate("b", true)
	_ = a.Send("b", "x")
	_ = b.Send("a", "y")
	select {
	case <-a.Recv():
		t.Fatal("isolated node's message delivered")
	case <-b.Recv():
		t.Fatal("message delivered to isolated node")
	case <-time.After(30 * time.Millisecond):
	}
	net.Isolate("b", false)
	_ = a.Send("b", "x2")
	if msg := <-b.Recv(); msg.Payload != "x2" {
		t.Fatal("heal failed")
	}
}

func TestMulticastSkipsSelf(t *testing.T) {
	net := newNet(t, InMemConfig{})
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	c, _ := net.Endpoint("c")
	err := Multicast(a, []types.NodeID{"a", "b", "c"}, "m")
	if err != nil {
		t.Fatal(err)
	}
	if msg := <-b.Recv(); msg.Payload != "m" {
		t.Fatal("b missed multicast")
	}
	if msg := <-c.Recv(); msg.Payload != "m" {
		t.Fatal("c missed multicast")
	}
	select {
	case <-a.Recv():
		t.Fatal("multicast must skip the sender")
	case <-time.After(20 * time.Millisecond):
	}
}

func TestMessageCounters(t *testing.T) {
	net := newNet(t, InMemConfig{})
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	_ = a.Send("b", "s1")
	_ = a.Send("b", "s2")
	_ = a.Send("b", 3)
	for i := 0; i < 3; i++ {
		<-b.Recv()
	}
	if got := net.MessageCount("string"); got != 2 {
		t.Fatalf("string count = %d, want 2", got)
	}
	if got := net.MessageCount("int"); got != 1 {
		t.Fatalf("int count = %d, want 1", got)
	}
	if got := net.MessageCount(""); got != 3 {
		t.Fatalf("total = %d, want 3", got)
	}
	if net.BytesSent() <= 0 {
		t.Fatal("bytes counter should be positive")
	}
}

func TestSenderNeverBlocksOnSlowReceiver(t *testing.T) {
	net := newNet(t, InMemConfig{})
	a, _ := net.Endpoint("a")
	_, _ = net.Endpoint("slow") // never reads
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			_ = a.Send("slow", i)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sender blocked on a slow receiver")
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	net := NewInMemNetwork(InMemConfig{})
	a, _ := net.Endpoint("a")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range a.Recv() {
		}
	}()
	net.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not end Recv")
	}
	if err := a.Send("a", "x"); err == nil {
		t.Fatal("send after close must error")
	}
}

func TestEndpointIdempotentRegistration(t *testing.T) {
	net := newNet(t, InMemConfig{})
	a1, _ := net.Endpoint("a")
	a2, _ := net.Endpoint("a")
	if a1 != a2 {
		t.Fatal("repeated Endpoint must return the same instance")
	}
}

// TestDeliveredMessagesReleased checks that a message the receiver has
// taken is collectable while the link and the inbox that carried it live
// on with later messages still queued: neither FIFO's backing array may
// keep a delivered message reachable (an orderer's NEWBLOCK would
// otherwise outlive its block until the array is reallocated).
func TestDeliveredMessagesReleased(t *testing.T) {
	type payload struct{ buf [64]byte }
	net := newNet(t, InMemConfig{})
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	const sent, taken = 200, 100
	ptrs := make([]weak.Pointer[payload], sent)
	for i := range ptrs {
		p := &payload{}
		ptrs[i] = weak.Make(p)
		if err := a.Send("b", p); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // let the link move the backlog into b's inbox
	func() {
		for i := 0; i < taken; i++ {
			msg := <-b.Recv()
			if msg.Payload.(*payload) != ptrs[i].Value() {
				t.Fatalf("message %d delivered out of order", i)
			}
		}
	}()
	runtime.GC()
	runtime.GC()
	for i := 0; i < taken; i++ {
		if ptrs[i].Value() != nil {
			t.Fatalf("delivered message %d is still reachable from the network's queues", i)
		}
	}
}
