package ordering

import (
	"reflect"
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

// TestGraphPerBlockMatchesBuild: the orderer reuses one conflict index
// across blocks, removing each block at its cut, so every block's graph
// must equal, edge for edge, depgraph.Build over that block alone — no
// block may see an earlier block's accesses.
func TestGraphPerBlockMatchesBuild(t *testing.T) {
	f := newFixture(t, nil)
	keys := func(ks ...types.Key) []types.Key { return ks }
	txns := []*types.Transaction{
		testTx("c1", 1, nil, keys("a")), testTx("c1", 2, keys("a"), keys("b")), testTx("c1", 3, keys("b"), nil),
		testTx("c1", 4, keys("b"), nil), testTx("c1", 5, keys("a", "b"), keys("a")), testTx("c1", 6, nil, keys("b")),
		testTx("c1", 7, keys("c"), keys("a")), testTx("c1", 8, keys("a"), nil), testTx("c1", 9, keys("a"), keys("a")),
	}
	for _, tx := range txns {
		f.submit(t, tx)
	}
	for b := 0; b < 3; b++ {
		nb := f.nextBlock(t, 2*time.Second)
		sets := make([]depgraph.RWSet, len(nb.Block.Txns))
		for i, tx := range nb.Block.Txns {
			sets[i] = depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
		}
		if want := depgraph.Build(sets); !reflect.DeepEqual(nb.Graph, want) {
			t.Fatalf("block %d graph %+v, want Build's %+v", b, nb.Graph, want)
		}
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

// TestSeenTxSurvivesRotation is the regression test for the dedupe reset
// bug: the old wholesale `make(map...)` reset forgot the IDs of the block
// just cut, so a late consensus retry could re-order a recent
// transaction. The two-generation rotation must keep rejecting it.
func TestSeenTxSurvivesRotation(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.MaxBlockTxns = 2 })
	// 4*MaxBlockTxns = 8: the rotation triggers at the cut that brings
	// seenCur to 8 IDs. Run well past it and retry a transaction from the
	// block just cut after every cut.
	// 20 transactions cross both the old reset threshold (len > 16) and
	// several two-generation rotations (len(cur) >= 8), so the old code's
	// forget-and-reorder bug manifests as a duplicate block here.
	var all []*types.Transaction
	var blocks []*types.NewBlockMsg
	for i := 0; i < 20; i++ {
		tx := testTx("c1", uint64(i+1), nil, []types.Key{"k"})
		all = append(all, tx)
		f.submit(t, tx)
		if i%2 == 1 {
			// Block boundary: wait for the cut, then replay both of its
			// transactions (a consensus retry delivers the same payload
			// again).
			blocks = append(blocks, f.nextBlock(t, 2*time.Second))
			f.submit(t, all[i-1])
			f.submit(t, all[i])
		}
	}
	// Flush one more block so any wrongly re-ordered duplicate would have
	// been cut by now.
	f.submit(t, testTx("c1", 100, nil, []types.Key{"k"}))
	f.submit(t, testTx("c1", 101, nil, []types.Key{"k"}))
	blocks = append(blocks, collectBlocks(t, f.exec, 1)...)
	seen := make(map[types.TxID]int)
	for _, nb := range blocks {
		for _, tx := range nb.Block.Txns {
			seen[tx.ID]++
			if seen[tx.ID] > 1 {
				t.Fatalf("transaction %s ordered twice after dedupe rotation", tx.ID)
			}
		}
	}
}

// TestNonCanonicalAccessSetsDropped: access sets are covered by the
// client signature, so the orderer cannot repair them — transactions
// with unsorted or duplicated read/write sets are dropped before they
// reach graph generation, deterministically on every orderer.
func TestNonCanonicalAccessSetsDropped(t *testing.T) {
	f := newFixture(t, nil)
	bad := testTx("c1", 1, []types.Key{"b", "a"}, []types.Key{"k", "k"})
	f.submit(t, bad)
	select {
	case msg := <-f.exec.Recv():
		t.Fatalf("non-canonical transaction was ordered: %+v", msg)
	case <-time.After(100 * time.Millisecond):
	}
	good := testTx("c1", 2, []types.Key{"a", "b"}, []types.Key{"k"})
	f.submit(t, good)
	nb := f.nextBlock(t, 2*time.Second)
	if len(nb.Block.Txns) != 1 || nb.Block.Txns[0].ID != good.ID {
		t.Fatalf("canonical transaction missing from block: %+v", nb.Block.Txns)
	}
}

// collectBlocks drains n NEWBLOCK messages from the endpoint.
func collectBlocks(t *testing.T, exec transport.Endpoint, n int) []*types.NewBlockMsg {
	t.Helper()
	out := make([]*types.NewBlockMsg, 0, n)
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case msg := <-exec.Recv():
			if nb, ok := msg.Payload.(*types.NewBlockMsg); ok {
				out = append(out, nb)
			}
		case <-deadline:
			t.Fatalf("received %d of %d blocks", len(out), n)
		}
	}
	return out
}

// broadcastConsensus delivers one scripted, totally ordered entry stream
// to every subscribed orderer — the shared consensus log two orderers of
// one ordering service observe.
type broadcastConsensus struct {
	mu   sync.Mutex
	seq  uint64
	subs []*consensus.DeliveryQueue
}

func (b *broadcastConsensus) append(payload []byte) {
	b.mu.Lock()
	b.seq++
	seq := b.seq
	subs := append([]*consensus.DeliveryQueue(nil), b.subs...)
	b.mu.Unlock()
	for _, q := range subs {
		q.Push(consensus.Entry{Seq: seq, Payload: payload})
	}
}

// member is one orderer's view of the broadcast consensus.
type member struct {
	parent *broadcastConsensus
	q      *consensus.DeliveryQueue
}

func (b *broadcastConsensus) join() *member {
	m := &member{parent: b, q: consensus.NewDeliveryQueue()}
	b.mu.Lock()
	b.subs = append(b.subs, m.q)
	b.mu.Unlock()
	return m
}

func (m *member) Start() {}
func (m *member) Submit(payload []byte) error {
	m.parent.append(payload)
	return nil
}
func (m *member) Step(types.NodeID, any)            {}
func (m *member) Committed() <-chan consensus.Entry { return m.q.Out() }
func (m *member) Stop()                             { m.q.Close() }

var _ consensus.Node = (*member)(nil)

// TestTimeoutCutDeterministicAcrossOrderers scripts the exact race the
// consensus-ordered cut marker exists for: the marker for block 0 is
// delivered *between* new transactions, so a naive local-timeout cut
// would give the two orderers different blocks. Both orderers consume
// the identical entry stream and must cut identical blocks — same
// hashes, same graphs — including ignoring a stale marker replayed after
// the cut.
func TestTimeoutCutDeterministicAcrossOrderers(t *testing.T) {
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	execEP, _ := net.Endpoint("e1")
	shared := &broadcastConsensus{}

	makeOrderer := func(id types.NodeID) *Orderer {
		ep, _ := net.Endpoint(id)
		o, err := New(Config{
			ID:        id,
			Endpoint:  ep,
			Consensus: shared.join(),
			Executors: []types.NodeID{"e1"},
			Signer:    cryptoutil.NoopSigner{NodeID: string(id)},
			Verifier:  cryptoutil.NoopVerifier{},
			// Huge thresholds: every cut in this test comes from a marker.
			MaxBlockTxns:     1000,
			MaxBlockInterval: time.Hour,
			BuildGraph:       true,
			Logf:             func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		o.Start()
		return o
	}
	o1 := makeOrderer("o1")
	o2 := makeOrderer("o2")
	defer o1.Stop()
	defer o2.Stop()

	tx := func(ts uint64) []byte {
		return encodeTxPayload(testTx("c1", ts, []types.Key{"k"}, []types.Key{"k"}))
	}
	// Block 0 forms with tx 1; o1's timer "fires" (marker submitted) but
	// txs 2 and 3 race past it in consensus order. Every orderer must cut
	// block 0 = {1,2,3} at the marker. The stale replay of the block-0
	// marker after the cut must be ignored by both. A second marker then
	// cuts block 1 = {4}.
	shared.append(tx(1))
	shared.append(tx(2))
	shared.append(tx(3))
	shared.append(encodeCutPayload(0, "o1"))
	shared.append(encodeCutPayload(0, "o1")) // stale duplicate
	shared.append(tx(4))
	shared.append(encodeCutPayload(1, "o2")) // any orderer may request

	type key struct {
		num  uint64
		from types.NodeID
	}
	got := make(map[key]*types.NewBlockMsg)
	deadline := time.After(5 * time.Second)
	for len(got) < 4 {
		select {
		case msg := <-execEP.Recv():
			nb, ok := msg.Payload.(*types.NewBlockMsg)
			if !ok {
				t.Fatalf("unexpected payload %T", msg.Payload)
			}
			k := key{nb.Block.Header.Number, msg.From}
			if prev, dup := got[k]; dup {
				t.Fatalf("orderer %s cut block %d twice (hashes %v / %v)",
					msg.From, k.num, prev.Block.Hash(), nb.Block.Hash())
			}
			got[k] = nb
		case <-deadline:
			t.Fatalf("received %d of 4 NEWBLOCKs: %v", len(got), got)
		}
	}
	for _, num := range []uint64{0, 1} {
		a, b := got[key{num, "o1"}], got[key{num, "o2"}]
		if a == nil || b == nil {
			t.Fatalf("block %d missing from an orderer", num)
		}
		if a.Block.Hash() != b.Block.Hash() {
			t.Fatalf("block %d hashes diverge across orderers", num)
		}
		if a.Digest() != b.Digest() {
			t.Fatalf("block %d NEWBLOCK digests (graph shape) diverge", num)
		}
	}
	if n := len(got[key{0, "o1"}].Block.Txns); n != 3 {
		t.Fatalf("block 0 has %d txns, want 3 (marker raced the stream)", n)
	}
	if n := len(got[key{1, "o1"}].Block.Txns); n != 1 {
		t.Fatalf("block 1 has %d txns, want 1", n)
	}
}
