package transport

import (
	"runtime"
	"slices"
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
	_ = a.Send("b", sizedPayload(5000))
	for i := 0; i < 4; i++ {
		<-b.Recv()
	}
	if got := net.MessageCount("string"); got != 2 {
		t.Fatalf("string count = %d, want 2", got)
	}
	if got := net.MessageCount("int"); got != 1 {
		t.Fatalf("int count = %d, want 1", got)
	}
	if got := net.MessageCount("transport.sizedPayload"); got != 1 {
		t.Fatalf("sizedPayload count = %d, want 1", got)
	}
	if got := net.MessageCount(""); got != 4 {
		t.Fatalf("total = %d, want 4", got)
	}
	if got := net.BytesSent(); got != 3*defaultMsgSize+5000 {
		t.Fatalf("bytes = %d, want %d (Sizer payloads report their own size)", got, 3*defaultMsgSize+5000)
	}
}

type sizedPayload int

func (s sizedPayload) ApproxSize() int { return int(s) }

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

// TestPerLinkFIFOUnderShrinkingDelay checks that a message whose delay is
// shorter than an earlier one's on the same link still arrives after it:
// deadlines on one directed link never move backwards.
func TestPerLinkFIFOUnderShrinkingDelay(t *testing.T) {
	net := newNet(t, InMemConfig{
		ExtraLatency: func(_, _ types.NodeID, payload any) time.Duration {
			if payload.(int) == 0 {
				return 40 * time.Millisecond
			}
			return 0
		},
	})
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send("b", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if msg := <-b.Recv(); msg.Payload.(int) != i {
			t.Fatalf("out of order: got %v at position %d", msg.Payload, i)
		}
	}
}

// TestConcurrentSendersKeepPerLinkFIFO sends from several goroutines at
// once into one node, each message with its own jittered delay: every
// message arrives, and each sender's messages arrive in send order.
func TestConcurrentSendersKeepPerLinkFIFO(t *testing.T) {
	net := newNet(t, InMemConfig{
		ExtraLatency: func(_, _ types.NodeID, payload any) time.Duration {
			return time.Duration(payload.(int)%7) * 100 * time.Microsecond
		},
	})
	dst, _ := net.Endpoint("dst")
	const senders, perSender = 4, 300
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		src, _ := net.Endpoint(types.NodeID(rune('a' + s)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := src.Send("dst", i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	next := make(map[types.NodeID]int)
	for i := 0; i < senders*perSender; i++ {
		msg := <-dst.Recv()
		if got := msg.Payload.(int); got != next[msg.From] {
			t.Fatalf("from %s: got %d, want %d", msg.From, got, next[msg.From])
		}
		next[msg.From]++
	}
	wg.Wait()
}

// TestNoCrossLinkHeadOfLineBlocking checks that links into one node are
// independent: a near sender's message is not held behind a far sender's
// earlier, slower one.
func TestNoCrossLinkHeadOfLineBlocking(t *testing.T) {
	net := newNet(t, InMemConfig{Latency: &ZoneLatency{
		Zone:        map[types.NodeID]string{"far": "dc2"},
		DefaultZone: "dc1",
		Inter:       300 * time.Millisecond,
	}})
	far, _ := net.Endpoint("far")
	near, _ := net.Endpoint("near")
	b, _ := net.Endpoint("b")
	start := time.Now()
	_ = far.Send("b", "slow")
	_ = near.Send("b", "fast")
	if msg := <-b.Recv(); msg.Payload != "fast" {
		t.Fatalf("first delivery = %v, want the near sender's", msg.Payload)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("near message took %v: blocked behind the far one", elapsed)
	}
	if msg := <-b.Recv(); msg.Payload != "slow" {
		t.Fatalf("second delivery = %v", msg.Payload)
	}
}

// TestRemoveDropsInFlightBothWays checks Remove's process-kill semantics:
// messages in flight to and from the removed node are lost, and the node
// re-registered under the same ID starts with none of its previous life's
// traffic but is reachable again.
func TestRemoveDropsInFlightBothWays(t *testing.T) {
	net := newNet(t, InMemConfig{Latency: ConstantLatency(30 * time.Millisecond)})
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	_ = a.Send("b", "from old a")
	_ = b.Send("a", "to old a")
	net.Remove("a")
	a2, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if a2 == a {
		t.Fatal("Remove must let Endpoint register a fresh endpoint")
	}
	select {
	case msg := <-b.Recv():
		t.Fatalf("in-flight message from the removed node delivered: %+v", msg)
	case msg := <-a2.Recv():
		t.Fatalf("re-registered node received its previous life's traffic: %+v", msg)
	case <-time.After(80 * time.Millisecond):
	}
	_ = a2.Send("b", "from new a")
	_ = b.Send("a", "to new a")
	if msg := <-b.Recv(); msg.Payload != "from new a" {
		t.Fatalf("b received %v", msg.Payload)
	}
	if msg := <-a2.Recv(); msg.Payload != "to new a" {
		t.Fatalf("new a received %v", msg.Payload)
	}
}

// TestIsolateIsPerNode checks that isolation belongs to the node, not to
// the links that existed when Isolate ran: a node registered afterwards,
// and a removed and re-registered one, cannot reach the isolated node
// either, and healing restores both.
func TestIsolateIsPerNode(t *testing.T) {
	net := newNet(t, InMemConfig{})
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	net.Isolate("b", true)
	c, _ := net.Endpoint("c") // registered after the isolation
	net.Remove("a")
	a, _ = net.Endpoint("a") // re-registered after the isolation
	_ = a.Send("b", "a->b")
	_ = c.Send("b", "c->b")
	_ = b.Send("a", "b->a")
	_ = b.Send("c", "b->c")
	select {
	case msg := <-a.Recv():
		t.Fatalf("isolated node reached a: %+v", msg)
	case msg := <-b.Recv():
		t.Fatalf("isolated node was reached: %+v", msg)
	case msg := <-c.Recv():
		t.Fatalf("isolated node reached c: %+v", msg)
	case <-time.After(30 * time.Millisecond):
	}
	net.Isolate("b", false)
	_ = c.Send("b", "healed")
	_ = b.Send("a", "healed")
	if msg := <-b.Recv(); msg.Payload != "healed" {
		t.Fatalf("b received %v", msg.Payload)
	}
	if msg := <-a.Recv(); msg.Payload != "healed" {
		t.Fatalf("a received %v", msg.Payload)
	}
}

// TestDeliveryGoroutinesPerEndpoint checks that delivery costs one
// goroutine per endpoint, not one per directed link: 8 endpoints with
// all-pairs traffic (56 links) run at most 8 plus a small constant.
func TestDeliveryGoroutinesPerEndpoint(t *testing.T) {
	const nodes, slack = 8, 2
	before := runtime.NumGoroutine()
	net := newNet(t, InMemConfig{Latency: ConstantLatency(time.Millisecond)})
	eps := make([]Endpoint, nodes)
	for i := range eps {
		eps[i], _ = net.Endpoint(types.NodeID(rune('a' + i)))
	}
	for _, from := range eps {
		for _, to := range eps {
			if from != to {
				if err := from.Send(to.ID(), "x"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, ep := range eps {
		for i := 0; i < nodes-1; i++ {
			<-ep.Recv()
		}
	}
	if got := runtime.NumGoroutine() - before; got > nodes+slack {
		t.Fatalf("%d endpoints with all-pairs traffic run %d goroutines, want <= %d", nodes, got, nodes+slack)
	}
}

// TestSendAllocations checks that a steady-state Send allocates nothing of
// its own: counting, scheduling and queueing reuse what earlier sends
// built.
func TestSendAllocations(t *testing.T) {
	net := newNet(t, InMemConfig{})
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	go func() {
		for range b.Recv() {
		}
	}()
	payload := &struct{ n int }{}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 0.5 {
		t.Fatalf("Send allocates %.2f times per call, want < 0.5", allocs)
	}
}

// BenchmarkInMemOneWay measures the one-way delay the in-memory network
// actually delivers on an idle link, against the modeled one: the
// realized p50 and p99 are reported as p50-us and p99-us.
func BenchmarkInMemOneWay(b *testing.B) {
	for _, model := range []struct {
		name  string
		delay time.Duration
	}{{"0", 0}, {"250us", 250 * time.Microsecond}} {
		b.Run(model.name, func(b *testing.B) {
			net := NewInMemNetwork(InMemConfig{Latency: ConstantLatency(model.delay)})
			defer net.Close()
			src, _ := net.Endpoint("src")
			dst, _ := net.Endpoint("dst")
			realized := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range realized {
				start := time.Now()
				if err := src.Send("dst", i); err != nil {
					b.Fatal(err)
				}
				<-dst.Recv()
				realized[i] = time.Since(start)
			}
			b.StopTimer()
			slices.Sort(realized)
			b.ReportMetric(realized[len(realized)/2].Seconds()*1e6, "p50-us")
			b.ReportMetric(realized[len(realized)*99/100].Seconds()*1e6, "p99-us")
		})
	}
}
