package ordering

import (
	"sync"
	"testing"
	"time"

	"parblockchain/internal/consensus"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// fakeConsensus is a scripted consensus.Node: Submit loops straight back
// into the committed stream, so one orderer acts as a sequencer.
type fakeConsensus struct {
	mu      sync.Mutex
	seq     uint64
	deliver *consensus.DeliveryQueue
}

func newFakeConsensus() *fakeConsensus {
	return &fakeConsensus{deliver: consensus.NewDeliveryQueue()}
}

func (f *fakeConsensus) Start() {}
func (f *fakeConsensus) Submit(payload []byte) error {
	f.mu.Lock()
	f.seq++
	seq := f.seq
	f.mu.Unlock()
	f.deliver.Push(consensus.Entry{Seq: seq, Payload: payload})
	return nil
}
func (f *fakeConsensus) Step(types.NodeID, any)            {}
func (f *fakeConsensus) Committed() <-chan consensus.Entry { return f.deliver.Out() }
func (f *fakeConsensus) Stop()                             { f.deliver.Close() }

var _ consensus.Node = (*fakeConsensus)(nil)

type fixture struct {
	net     *transport.InMemNetwork
	orderer *Orderer
	exec    transport.Endpoint // executor-side endpoint receiving NEWBLOCKs
	client  transport.Endpoint
}

func newFixture(t *testing.T, mutate func(*Config)) *fixture {
	t.Helper()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	ordEP, _ := net.Endpoint("o1")
	execEP, _ := net.Endpoint("e1")
	clientEP, _ := net.Endpoint("c1")
	cfg := Config{
		ID:               "o1",
		Endpoint:         ordEP,
		Consensus:        newFakeConsensus(),
		Executors:        []types.NodeID{"e1"},
		Signer:           cryptoutil.NoopSigner{NodeID: "o1"},
		Verifier:         cryptoutil.NoopVerifier{},
		MaxBlockTxns:     3,
		MaxBlockInterval: 30 * time.Millisecond,
		BuildGraph:       true,
		Logf:             func(string, ...any) {},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.Start()
	f := &fixture{net: net, orderer: o, exec: execEP, client: clientEP}
	t.Cleanup(func() {
		o.Stop()
		net.Close()
	})
	return f
}

func testTx(client types.NodeID, ts uint64, reads, writes []types.Key) *types.Transaction {
	tx := &types.Transaction{
		App:      "app1",
		Client:   client,
		ClientTS: ts,
		Op:       types.Operation{Method: "m", Reads: reads, Writes: writes},
	}
	tx.ID = types.TxID(tx.Digest().String()[:16])
	return tx
}

func (f *fixture) submit(t *testing.T, tx *types.Transaction) {
	t.Helper()
	if err := f.client.Send("o1", &types.RequestMsg{Tx: tx}); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) nextBlock(t *testing.T, timeout time.Duration) *types.NewBlockMsg {
	t.Helper()
	select {
	case msg := <-f.exec.Recv():
		nb, ok := msg.Payload.(*types.NewBlockMsg)
		if !ok {
			t.Fatalf("unexpected payload %T", msg.Payload)
		}
		return nb
	case <-time.After(timeout):
		t.Fatal("no NEWBLOCK received")
		return nil
	}
}

func TestCutOnMaxTxns(t *testing.T) {
	f := newFixture(t, nil)
	for i := 0; i < 3; i++ {
		f.submit(t, testTx("c1", uint64(i+1), nil, []types.Key{"k"}))
	}
	nb := f.nextBlock(t, 2*time.Second)
	if len(nb.Block.Txns) != 3 {
		t.Fatalf("block has %d txns, want 3", len(nb.Block.Txns))
	}
	if nb.Block.Header.Number != 0 {
		t.Fatalf("first block number = %d", nb.Block.Header.Number)
	}
	if !nb.Block.VerifyTxRoot() {
		t.Fatal("block root broken")
	}
}

func TestCutOnTimeout(t *testing.T) {
	f := newFixture(t, nil)
	f.submit(t, testTx("c1", 1, nil, []types.Key{"k"}))
	start := time.Now()
	nb := f.nextBlock(t, 2*time.Second)
	if len(nb.Block.Txns) != 1 {
		t.Fatalf("block has %d txns, want 1", len(nb.Block.Txns))
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("cut too early (%v), timeout is 30ms", elapsed)
	}
}

func TestCutOnMaxBytes(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.MaxBlockTxns = 1000
		cfg.MaxBlockBytes = 200
		cfg.MaxBlockInterval = 10 * time.Second
	})
	for i := 0; i < 3; i++ {
		f.submit(t, testTx("c1", uint64(i+1), nil, []types.Key{"some-reasonably-long-key-name"}))
	}
	nb := f.nextBlock(t, 2*time.Second)
	if len(nb.Block.Txns) >= 3 {
		t.Fatalf("byte cut did not trigger early (got %d txns)", len(nb.Block.Txns))
	}
}

func TestGraphGenerated(t *testing.T) {
	f := newFixture(t, nil)
	f.submit(t, testTx("c1", 1, nil, []types.Key{"x"}))
	f.submit(t, testTx("c1", 2, []types.Key{"x"}, nil))
	f.submit(t, testTx("c1", 3, nil, []types.Key{"unrelated"}))
	nb := f.nextBlock(t, 2*time.Second)
	if nb.Graph == nil {
		t.Fatal("graph missing")
	}
	if nb.Graph.N != 3 {
		t.Fatalf("graph size %d", nb.Graph.N)
	}
	if !nb.Graph.HasEdge(0, 1) {
		t.Fatal("write->read dependency missing")
	}
	if len(nb.Graph.Pred[2]) != 0 {
		t.Fatal("independent txn should have no preds")
	}
	if err := nb.Graph.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
}

func TestGraphDisabledForOX(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.BuildGraph = false })
	f.submit(t, testTx("c1", 1, nil, []types.Key{"x"}))
	nb := f.nextBlock(t, 2*time.Second)
	if nb.Graph != nil {
		t.Fatal("OX mode must not carry graphs")
	}
}

func TestHashChainAcrossBlocks(t *testing.T) {
	f := newFixture(t, nil)
	for i := 0; i < 6; i++ {
		f.submit(t, testTx("c1", uint64(i+1), nil, []types.Key{"k"}))
	}
	b0 := f.nextBlock(t, 2*time.Second)
	b1 := f.nextBlock(t, 2*time.Second)
	if b1.Block.Header.Number != 1 {
		t.Fatalf("second block number = %d", b1.Block.Header.Number)
	}
	if b1.Block.Header.PrevHash != b0.Block.Hash() {
		t.Fatal("hash chain broken between blocks")
	}
}

func TestDuplicateTransactionsDropped(t *testing.T) {
	f := newFixture(t, nil)
	tx := testTx("c1", 1, nil, []types.Key{"k"})
	f.submit(t, tx)
	f.submit(t, tx) // consensus-level duplicate
	f.submit(t, testTx("c1", 2, nil, []types.Key{"k"}))
	f.submit(t, testTx("c1", 3, nil, []types.Key{"k"}))
	nb := f.nextBlock(t, 2*time.Second)
	seen := make(map[types.TxID]bool)
	for _, tx := range nb.Block.Txns {
		if seen[tx.ID] {
			t.Fatalf("duplicate transaction %s in block", tx.ID)
		}
		seen[tx.ID] = true
	}
}

func TestACLRejectsUnauthorizedClient(t *testing.T) {
	acl := &AccessControl{}
	acl.Allow("app1", "c-good")
	f := newFixture(t, func(cfg *Config) { cfg.ACL = acl })
	bad := testTx("c1", 1, nil, []types.Key{"k"}) // c1 not allowed
	f.submit(t, bad)
	select {
	case msg := <-f.exec.Recv():
		t.Fatalf("unauthorized request was ordered: %+v", msg)
	case <-time.After(100 * time.Millisecond):
	}
	if got := f.orderer.Stats().RequestsRejected; got != 1 {
		t.Fatalf("RequestsRejected = %d, want 1", got)
	}
}

func TestSenderSpoofRejected(t *testing.T) {
	f := newFixture(t, nil)
	// Transaction claims client c2 but arrives on c1's authenticated
	// link.
	spoofed := testTx("c2", 1, nil, []types.Key{"k"})
	f.submit(t, spoofed)
	select {
	case <-f.exec.Recv():
		t.Fatal("spoofed request was ordered")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestClientSignatureVerified(t *testing.T) {
	ring := cryptoutil.NewKeyRing()
	kp := cryptoutil.MustGenerateKeyPair("c1")
	ring.Add("c1", kp.Public())
	f := newFixture(t, func(cfg *Config) {
		cfg.VerifyClientSigs = true
		cfg.Verifier = ring
	})
	// Unsigned transaction: rejected.
	f.submit(t, testTx("c1", 1, nil, []types.Key{"k"}))
	select {
	case <-f.exec.Recv():
		t.Fatal("unsigned request was ordered")
	case <-time.After(100 * time.Millisecond):
	}
	// Properly signed: ordered.
	tx := testTx("c1", 2, nil, []types.Key{"k"})
	digest := tx.Digest()
	tx.Sig = kp.Sign(digest[:])
	f.submit(t, tx)
	nb := f.nextBlock(t, 2*time.Second)
	if len(nb.Block.Txns) != 1 || nb.Block.Txns[0].ID != tx.ID {
		t.Fatal("signed request missing from block")
	}
}

func TestStatsAccumulate(t *testing.T) {
	f := newFixture(t, nil)
	for i := 0; i < 3; i++ {
		f.submit(t, testTx("c1", uint64(i+1), nil, []types.Key{"k"}))
	}
	f.nextBlock(t, 2*time.Second)
	stats := f.orderer.Stats()
	if stats.BlocksCut != 1 || stats.TxnsOrdered != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.GraphBuildNanos == 0 {
		t.Fatal("graph build time not recorded")
	}
}

func TestMultiVersionGraphMode(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.GraphMode = depgraph.MultiVersion })
	// Two writers of the same key: unordered under MVCC.
	f.submit(t, testTx("c1", 1, nil, []types.Key{"x"}))
	f.submit(t, testTx("c1", 2, nil, []types.Key{"x"}))
	f.submit(t, testTx("c1", 3, nil, []types.Key{"y"}))
	nb := f.nextBlock(t, 2*time.Second)
	if nb.Graph.EdgeCount() != 0 {
		t.Fatalf("MVCC write-write should be unordered, got %d edges", nb.Graph.EdgeCount())
	}
}
