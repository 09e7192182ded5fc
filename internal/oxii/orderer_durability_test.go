package oxii

import (
	"sync/atomic"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// This file is the orderer-durability suite: the ordering side now
// persists its consensus log and cut decisions, so a killed orderer —
// or the entire cluster — must come back and resume cutting at block
// N+1, never re-cutting from 0 and never double-cutting, with every
// executor converging bit-identically. The suite runs under -race in CI
// (a named gating step).

// TestFullClusterRestart kills every node — executors and the orderer —
// rebuilds the whole deployment on the same data directory, and asserts
// the orderer resumes at exactly its durable height, the executors
// converge bit-identically, and fresh traffic commits on top. If the
// orderer had restarted numbering at 0, its new blocks would collide
// below the recovered executors' frontier and nothing new would ever
// commit.
func TestFullClusterRestart(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	nw, err := New(durableConfig(net, dir))
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	runTransfers(t, client, 16)
	preDurable := nw.Orderers[0].DurableHeight()
	if preDurable == 0 {
		t.Fatal("orderer cut nothing durable before the restart")
	}
	preHeight := nw.Ledgers[0].Height()
	preTip := nw.Ledgers[0].LastHash()

	// Kill the whole cluster: the orderer first (no further cuts), then
	// every executor. Only fsynced bytes survive, as in a power loss.
	nw.KillOrderer(0)
	for i := range nw.Executors {
		nw.KillExecutor(i)
	}
	nw.Stop()
	net.Close()

	net2 := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net2.Close()
	nw2, err := New(durableConfig(net2, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer nw2.Stop()
	nw2.Start()

	// The orderer resumed at N+1 — its durable height survives intact.
	// Replay runs on the delivery goroutine, so poll for it to finish.
	deadline := time.Now().Add(20 * time.Second)
	for nw2.Orderers[0].DurableHeight() != preDurable {
		if time.Now().After(deadline) {
			t.Fatalf("orderer resumed at height %d, want %d",
				nw2.Orderers[0].DurableHeight(), preDurable)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Replay re-multicasts the retained window, so every executor reaches
	// the pre-kill chain bit-identically before any new traffic.
	for i := range nw2.Executors {
		waitHeight(t, nw2, i, preHeight)
	}
	if tip := nw2.Ledgers[0].LastHash(); tip != preTip {
		t.Fatal("recovered chain tip diverged from the pre-kill chain")
	}
	for i := range nw2.Executors {
		waitConverged(t, nw2, i, nil)
	}

	// Fresh traffic commits on top of the recovered chain.
	client2, err := nw2.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	runTransfers(t, client2, 8)
	for i := range nw2.Executors {
		waitConverged(t, nw2, i, nil)
	}
	if h := nw2.Ledgers[0].Height(); h <= preHeight {
		t.Fatalf("chain did not advance past the restart: height %d, pre-kill %d", h, preHeight)
	}
	if got := nw2.Orderers[0].DurableHeight(); got <= preDurable {
		t.Fatalf("orderer durable height did not advance: %d, pre-kill %d", got, preDurable)
	}
}

// TestChaosOrdererKillRestartUnderLoad is the orderer half of the chaos
// harness: sustained client load over a three-broker Kafka-style
// ordering service while non-leader orderers are repeatedly killed and
// restarted underneath it. Restarted orderers recover their consensus
// and cut-state logs, rejoin, and the whole network stays convergent.
func TestChaosOrdererKillRestartUnderLoad(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	cfg := durableConfig(net, dir)
	cfg.Orderers = []types.NodeID{"o1", "o2", "o3"}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	nw.Start()
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	loadDone := make(chan int)
	go func() {
		sent := 0
		for !stop.Load() {
			tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 1))
			if _, err := client.Do(tx, 5*time.Second); err != nil {
				// A submission racing a kill window lands on the dead
				// broker's severed endpoint, or is lost in flight; Do's
				// internal retry covers the latter, the loop covers the
				// former.
				continue
			}
			sent++
		}
		loadDone <- sent
	}()

	waitHeight(t, nw, 0, 1)
	for cycle := 0; cycle < 2; cycle++ {
		for _, victim := range []int{1, 2} { // o1 leads the kafka service
			nw.KillOrderer(victim)
			time.Sleep(150 * time.Millisecond) // blocks keep cutting via the quorum
			if err := nw.RestartOrderer(victim); err != nil {
				t.Fatal(err)
			}
			time.Sleep(150 * time.Millisecond)
		}
	}
	stop.Store(true)
	sent := <-loadDone
	if sent == 0 {
		t.Fatal("chaos load committed nothing")
	}

	for i := range nw.Executors {
		waitConverged(t, nw, i, nil)
	}
	if h := nw.Ledgers[0].Height(); h == 0 {
		t.Fatal("chaos run finalized nothing")
	}
	// The restarted brokers kept their durable cut state across the
	// kills: numbering never reset to 0.
	for i := 1; i < len(nw.Orderers); i++ {
		if nw.Orderers[i].DurableHeight() == 0 {
			t.Fatalf("restarted orderer %d lost its durable height", i)
		}
	}
}

// TestChaosFullClusterBounceUnderLoad bounces the entire cluster —
// orderer and all executors killed, then rebuilt in place — while the
// client keeps submitting throughout. Submissions during the outage
// fail and are retried; once the cluster is back, commits must resume
// on the recovered chain without the orderer resetting its numbering.
func TestChaosFullClusterBounceUnderLoad(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	nw, err := New(durableConfig(net, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	nw.Start()
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var committed atomic.Int64
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for !stop.Load() {
			tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 1))
			if _, err := client.Do(tx, 2*time.Second); err == nil {
				committed.Add(1)
			}
		}
	}()

	waitHeight(t, nw, 0, 2)
	preDurable := nw.Orderers[0].DurableHeight()

	// Bounce everything under the live load. Executors restart first so
	// their endpoints exist when the orderer's replay re-multicasts the
	// retained window (and re-streams any partially streamed block).
	nw.KillOrderer(0)
	for i := range nw.Executors {
		nw.KillExecutor(i)
	}
	time.Sleep(100 * time.Millisecond)
	for i := range nw.Executors {
		if err := nw.RestartExecutor(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.RestartOrderer(0); err != nil {
		t.Fatal(err)
	}

	// Commits resume on the recovered chain.
	base := committed.Load()
	deadline := time.Now().Add(20 * time.Second)
	for committed.Load() <= base {
		if time.Now().After(deadline) {
			t.Fatal("no commits after the full-cluster bounce")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	<-loadDone

	for i := range nw.Executors {
		waitConverged(t, nw, i, nil)
	}
	if got := nw.Orderers[0].DurableHeight(); got <= preDurable {
		t.Fatalf("orderer durable height went from %d to %d across the bounce",
			preDurable, got)
	}
}

// TestKafkaLeaderKillRestartUnderLoad is the Kafka answer to leader
// failover. The service's leader is static, so losing o1 stops ordering:
// under sustained load no orderer cuts a block while o1 is down. o1 then
// restarts on its data dir, and commits resume on top of the chain it
// left, without any orderer's durable height going back, and every
// executor converges bit-identically.
func TestKafkaLeaderKillRestartUnderLoad(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	cfg := durableConfig(net, dir)
	cfg.Orderers = []types.NodeID{"o1", "o2", "o3"}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	nw.Start()
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var committed atomic.Int64
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for !stop.Load() {
			tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 1))
			if _, err := client.Do(tx, 2*time.Second); err == nil {
				committed.Add(1)
			}
		}
	}()

	waitHeight(t, nw, 0, 3)
	preLeader := nw.Orderers[0].DurableHeight()
	nw.KillOrderer(0)
	// Let whatever o1 cut before it died reach every orderer and
	// executor, then watch the followers under the load: without the
	// leader nothing is ordered, so nothing is cut.
	time.Sleep(100 * time.Millisecond)
	down := make([]uint64, len(nw.Orderers))
	for i := 1; i < len(nw.Orderers); i++ {
		down[i] = nw.Orderers[i].DurableHeight()
	}
	downChain := nw.Ledgers[0].Height()
	time.Sleep(300 * time.Millisecond)
	for i := 1; i < len(nw.Orderers); i++ {
		if h := nw.Orderers[i].DurableHeight(); h != down[i] {
			t.Fatalf("orderer %d cut blocks %d..%d while the leader was down", i, down[i]+1, h)
		}
	}
	if h := nw.Ledgers[0].Height(); h != downChain {
		t.Fatalf("the chain grew from %d to %d while the leader was down", downChain, h)
	}

	if err := nw.RestartOrderer(0); err != nil {
		t.Fatal(err)
	}
	// The leader replays its logs on the delivery goroutine and resumes
	// at its durable height, not at 0.
	deadline := time.Now().Add(20 * time.Second)
	for nw.Orderers[0].DurableHeight() < preLeader {
		if time.Now().After(deadline) {
			t.Fatalf("restarted leader at durable height %d, want at least %d",
				nw.Orderers[0].DurableHeight(), preLeader)
		}
		time.Sleep(2 * time.Millisecond)
	}
	base := committed.Load()
	for committed.Load() < base+8 {
		if time.Now().After(deadline) {
			t.Fatalf("%d commits after the leader restarted, want 8", committed.Load()-base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	<-loadDone

	for i := range nw.Executors {
		waitConverged(t, nw, i, nil)
	}
	// Every orderer, the restarted leader included, cuts past the height
	// the followers held while it was down, and all end at the same
	// height: each cuts the same blocks from the same ordered stream.
	deadline = time.Now().Add(20 * time.Second)
	for {
		h0 := nw.Orderers[0].DurableHeight()
		same := h0 > down[1]
		for _, o := range nw.Orderers[1:] {
			same = same && o.DurableHeight() == h0
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			for i, o := range nw.Orderers {
				t.Errorf("orderer %d at durable height %d", i, o.DurableHeight())
			}
			t.Fatalf("orderers did not reach one height above %d", down[1])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h := nw.Ledgers[0].Height(); h <= downChain {
		t.Fatalf("chain at height %d after the restart, want above %d", h, downChain)
	}
}
