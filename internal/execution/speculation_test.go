package execution

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/ledger"
	"parblockchain/internal/persist"
	"parblockchain/internal/state"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// This file property-tests the speculative commit-wait bypass: dependent
// transactions executing against a predecessor's uncommitted (first-vote)
// result must leave ledger and state bit-identical to the sequential
// reference — across pipeline
// depths, tau settings, contention levels, and with durability enabled —
// and a divergent leading vote must
// cascade re-execution through the speculation subtree without ever
// releasing a multicast derived from the invalidated value. The suite
// runs under -race in CI (a named gating step).

// specNet is a fleet of executors on one in-process network, fed raw
// blocks by a test orderer endpoint. Every application is agented on two
// consecutive executors, so with three executors each node has one
// foreign application whose transactions would stall on the tau quorum
// without speculation — the configuration the bypass exists for.
type specNet struct {
	net     *transport.InMemNetwork
	execs   []*Executor
	stores  []state.Backend
	leds    []*ledger.Ledger
	mgrs    []*persist.Manager
	orderer transport.Endpoint
	ids     []types.NodeID
	stopped bool
}

type specNetConfig struct {
	executors int
	depth     int
	tau       int
	tiered    bool // eviction-forcing tiered store per executor (in-memory rigs only)
	sched     dispatchOrder
	dataDir   string // per-executor subdirectories; "" = in-memory
}

func newSpecNet(t testing.TB, cfg specNetConfig, genesis []types.KV) *specNet {
	t.Helper()
	if cfg.executors <= 0 {
		cfg.executors = 3
	}
	n := &specNet{net: transport.NewInMemNetwork(transport.InMemConfig{})}
	for i := 0; i < cfg.executors; i++ {
		n.ids = append(n.ids, types.NodeID(fmt.Sprintf("e%d", i+1)))
	}
	n.orderer, _ = n.net.Endpoint("o1")

	agents := make(map[types.AppID][]types.NodeID, len(equivApps))
	tau := make(map[types.AppID]int, len(equivApps))
	for i, app := range equivApps {
		agents[app] = []types.NodeID{
			n.ids[i%len(n.ids)],
			n.ids[(i+1)%len(n.ids)],
		}
		tau[app] = cfg.tau
	}

	for _, id := range n.ids {
		ep, _ := n.net.Endpoint(id)
		registry := contract.NewRegistry()
		for app, ag := range agents {
			for _, a := range ag {
				if a == id {
					registry.Install(app, contract.NewAccounting())
				}
			}
		}
		var (
			store state.Backend
			led   *ledger.Ledger
			mgr   *persist.Manager
		)
		if cfg.dataDir != "" {
			var rec *persist.Recovered
			var err error
			mgr, rec, err = persist.Open(persist.Config{
				Dir:              filepath.Join(cfg.dataDir, string(id)),
				SnapshotInterval: 2,
				Logf:             t.Logf,
			}, genesis)
			if err != nil {
				t.Fatal(err)
			}
			store, led = rec.Store, rec.Ledger
		} else {
			if cfg.tiered {
				ts, err := state.NewTieredStore(state.TieredConfig{HotBytes: tieredTestHotBytes})
				if err != nil {
					t.Fatal(err)
				}
				store = ts
			} else {
				store = state.NewKVStore()
			}
			store.Apply(genesis)
			led = ledger.New()
		}
		ecfg := Config{
			ID:            id,
			Endpoint:      ep,
			Registry:      registry,
			AgentsOf:      agents,
			Tau:           tau,
			OrderQuorum:   1,
			Executors:     n.ids,
			Store:         store,
			Ledger:        led,
			Workers:       4,
			PipelineDepth: cfg.depth,
			Signer:        cryptoutil.NoopSigner{NodeID: string(id)},
			Verifier:      cryptoutil.NoopVerifier{},
			Persist:       mgr,
			Logf:          func(string, ...any) {},
		}
		withScheduler(cfg.sched)(&ecfg)
		exec := New(ecfg)
		exec.Start()
		n.execs = append(n.execs, exec)
		n.stores = append(n.stores, store)
		n.leds = append(n.leds, led)
		n.mgrs = append(n.mgrs, mgr)
	}
	t.Cleanup(func() { n.stop(t) })
	return n
}

func (n *specNet) stop(t testing.TB) {
	t.Helper()
	if n.stopped {
		return
	}
	n.stopped = true
	for _, e := range n.execs {
		e.Stop()
	}
	for _, m := range n.mgrs {
		if m != nil {
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range n.stores {
		s.Close() // tiered stores hold cold-tier temp dirs
	}
	n.net.Close()
}

// broadcast sends a payload to every executor.
func (n *specNet) broadcast(t testing.TB, payload any) {
	t.Helper()
	for _, id := range n.ids {
		if err := n.orderer.Send(id, payload); err != nil {
			t.Fatal(err)
		}
	}
}

// feedMonolithic announces every block as one NEWBLOCK to every executor.
func (n *specNet) feedMonolithic(t testing.TB, blocks [][]*types.Transaction) {
	t.Helper()
	var prev types.Hash
	for num, txns := range blocks {
		block := types.NewBlock(uint64(num), prev, txns)
		prev = block.Hash()
		sets := make([]depgraph.RWSet, len(txns))
		for i, tx := range txns {
			sets[i] = depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
			sets[i].Normalize()
		}
		n.broadcast(t, &types.NewBlockMsg{
			Block:   block,
			Graph:   depgraph.Build(sets),
			Apps:    block.Apps(),
			Orderer: "o1",
		})
	}
}

// awaitHeight waits for every executor's ledger to reach the height.
func (n *specNet) awaitHeight(t testing.TB, height uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for _, led := range n.leds {
		for led.Height() < height {
			if time.Now().After(deadline) {
				t.Fatalf("ledger stalled at height %d, want %d", led.Height(), height)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// runSpecNet drives one configuration end to end and returns the (single,
// asserted-identical) state hash and ledger tip across the fleet.
func runSpecNet(t *testing.T, cfg specNetConfig, genesis []types.KV,
	blocks [][]*types.Transaction) (types.Hash, types.Hash) {
	t.Helper()
	n := newSpecNet(t, cfg, genesis)
	n.feedMonolithic(t, blocks)
	n.awaitHeight(t, uint64(len(blocks)))
	hash := n.stores[0].Hash()
	tip := n.leds[0].LastHash()
	for i := range n.execs {
		if got := n.stores[i].Hash(); got != hash {
			t.Fatalf("%+v: executor %s state hash diverged from %s",
				cfg, n.ids[i], n.ids[0])
		}
		if err := n.leds[i].Verify(); err != nil {
			t.Fatalf("executor %s ledger chain invalid: %v", n.ids[i], err)
		}
		if got := n.leds[i].LastHash(); got != tip {
			t.Fatalf("executor %s ledger tip diverged from %s", n.ids[i], n.ids[0])
		}
	}
	if cfg.dataDir != "" {
		// Every block finalized on every executor, so every directory must
		// recover to the live state from snapshot + WAL tail.
		n.stop(t)
		for _, id := range n.ids {
			verifyRecovery(t, filepath.Join(cfg.dataDir, string(id)), genesis, hash, n.leds[0])
		}
	}
	return hash, tip
}

// TestSpeculationEquivalence asserts, for cross-application conflict
// chains at two contention levels, that speculation leaves ledger and
// state bit-identical to the sequential reference at pipeline depths
// {1,4} and tau {1,2} — and, at the deepest configuration, with
// durability enabled on every executor.
func TestSpeculationEquivalence(t *testing.T) {
	const (
		numBlocks = 6
		blockTxns = 20
	)
	for _, contention := range []float64{0.4, 1.0} {
		t.Run(fmt.Sprintf("contention=%.0f%%", contention*100), func(t *testing.T) {
			seed := int64(9000 + int(contention*100))
			blocks, genesis := tracedBlocksOpt(seed, contention, true, numBlocks, blockTxns)
			wantHash, _ := refResults(genesis, blocks)
			wantTip := chainTip(blocks)

			for _, sched := range allSchedulers {
				for _, tau := range []int{1, 2} {
					for _, depth := range []int{1, 4} {
						name := fmt.Sprintf("%s/tau=%d/depth=%d", sched, tau, depth)
						gotHash, gotTip := runSpecNet(t, specNetConfig{
							depth: depth, tau: tau, sched: sched,
						}, genesis, blocks)
						if gotHash != wantHash {
							t.Fatalf("%s: state hash diverged from the sequential reference", name)
						}
						if gotTip != wantTip {
							t.Fatalf("%s: ledger chain diverged from the sequential reference", name)
						}
					}
				}
			}

			// Durability on: the WAL at the finalize boundary under
			// speculative scheduling must neither change the results nor
			// break recovery.
			gotHash, gotTip := runSpecNet(t, specNetConfig{
				depth: 4, tau: 2, dataDir: t.TempDir(),
			}, genesis, blocks)
			if gotHash != wantHash || gotTip != wantTip {
				t.Fatal("durable speculative run diverged")
			}
		})
	}
}

// TestTauOneSpeculatesNothing pins what speculation costs where there
// is nothing to wait for: at tau=1 the first vote is the quorum, so a
// local result whose inputs committed commits on this node's own vote
// before it satisfies any successor. No execution may then read an
// uncommitted input, no vote is adopted, and no result is gated or
// re-executed — on contended cross-application chains, pipelined, on
// every executor of the fleet.
func TestTauOneSpeculatesNothing(t *testing.T) {
	blocks, genesis := tracedBlocksOpt(9300, 1.0, true, 6, 20)
	wantHash, _ := refResults(genesis, blocks)
	n := newSpecNet(t, specNetConfig{depth: 4, tau: 1}, genesis)
	n.feedMonolithic(t, blocks)
	n.awaitHeight(t, uint64(len(blocks)))
	for i, e := range n.execs {
		if n.stores[i].Hash() != wantHash {
			t.Fatalf("executor %s diverged from the sequential reference", n.ids[i])
		}
		st := e.Stats()
		if st.TxExecuted == 0 {
			t.Fatalf("executor %s executed nothing", n.ids[i])
		}
		if st.SpecExecuted+st.SpecHits+st.SpecMisses+st.SpecReexecs+st.SpecThrottled != 0 {
			t.Fatalf("executor %s speculated at tau=1: %+v", n.ids[i], st)
		}
	}
}

// chainTip is the hash of the last block when blocks are chained from
// the zero hash in order: the ledger tip every executor must reach.
func chainTip(blocks [][]*types.Transaction) types.Hash {
	var tip types.Hash
	for num, txns := range blocks {
		tip = types.NewBlock(uint64(num), tip, txns).Hash()
	}
	return tip
}

// TestSpeculationExecutesBeforeQuorum pins the point of the bypass: with
// tau=2, a transaction whose predecessor belongs to a foreign application
// executes as soon as the first (below-quorum) vote arrives, while its
// own COMMIT multicast stays buffered until the predecessor commits.
// divergentRig builds that scenario with hand-injected votes.
type divergentRig struct {
	exec    *Executor
	spyEP   transport.Endpoint
	spyMsgs chan *types.CommitMsg
	agentEP []transport.Endpoint // the foreign application's fake agents
	block   *types.Block
	graph   *depgraph.Graph
	genesis []types.KV
}

// foreignChainBlock builds one block: tx0 of application "appA" (agents
// are the fake endpoints x1..x3, tau 2) writing the shared hot key,
// followed by a chain of "appB" transactions (agented on the real
// executor) that each read and write the hot key — the speculation
// subtree rooted at tx0's result.
func newDivergentRig(t testing.TB, chainLen int) *divergentRig {
	t.Helper()
	r := &divergentRig{genesis: []types.KV{
		{Key: "hot", Val: contract.EncodeBalance(1000)},
		{Key: "appA/sink", Val: contract.EncodeBalance(0)},
	}}
	for i := 0; i < chainLen; i++ {
		r.genesis = append(r.genesis, types.KV{
			Key: fmt.Sprintf("appB/sink%d", i), Val: contract.EncodeBalance(0),
		})
	}
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	execEP, _ := net.Endpoint("e1")
	spyEP, _ := net.Endpoint("spy")
	for _, id := range []types.NodeID{"x1", "x2", "x3"} {
		ep, _ := net.Endpoint(id)
		r.agentEP = append(r.agentEP, ep)
	}
	orderer, _ := net.Endpoint("o1")

	registry := contract.NewRegistry()
	registry.Install("appB", contract.NewAccounting())
	store := state.NewKVStore()
	store.Apply(r.genesis)
	exec := New(Config{
		ID:       "e1",
		Endpoint: execEP,
		Registry: registry,
		AgentsOf: map[types.AppID][]types.NodeID{
			"appA": {"x1", "x2", "x3"},
			"appB": {"e1"},
		},
		Tau:           map[types.AppID]int{"appA": 2, "appB": 1},
		OrderQuorum:   1,
		Executors:     []types.NodeID{"e1", "spy"},
		Store:         store,
		Ledger:        ledger.New(),
		Workers:       4,
		PipelineDepth: 4,
		Signer:        cryptoutil.NoopSigner{NodeID: "e1"},
		Verifier:      cryptoutil.NoopVerifier{},
		Logf:          func(string, ...any) {},
	})
	exec.Start()
	r.exec = exec
	r.spyEP = spyEP
	r.spyMsgs = make(chan *types.CommitMsg, 64)
	go func() {
		defer close(r.spyMsgs)
		for msg := range spyEP.Recv() {
			if m, ok := msg.Payload.(*types.CommitMsg); ok && msg.From == "e1" {
				r.spyMsgs <- m
			}
		}
	}()

	txns := make([]*types.Transaction, 0, chainLen+1)
	tx0 := &types.Transaction{
		App: "appA", Client: "c1", ClientTS: 1,
		Op: contract.TransferOp("hot", "appA/sink", 1),
	}
	tx0.ID = "div-0"
	txns = append(txns, tx0)
	for i := 0; i < chainLen; i++ {
		tx := &types.Transaction{
			App: "appB", Client: "c1", ClientTS: uint64(i + 2),
			Op: contract.TransferOp("hot", fmt.Sprintf("appB/sink%d", i), 1),
		}
		tx.ID = types.TxID(fmt.Sprintf("div-%d", i+1))
		txns = append(txns, tx)
	}
	r.block = types.NewBlock(0, types.ZeroHash, txns)
	sets := make([]depgraph.RWSet, len(txns))
	for i, tx := range txns {
		sets[i] = depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
		sets[i].Normalize()
	}
	r.graph = depgraph.Build(sets)
	if err := orderer.Send("e1", &types.NewBlockMsg{
		Block: r.block, Graph: r.graph, Apps: r.block.Apps(), Orderer: "o1",
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		exec.Stop()
		net.Close()
	})
	return r
}

// vote injects one fake agent's COMMIT for tx0 with the given result.
func (r *divergentRig) vote(t testing.TB, agent int, result types.TxResult) {
	t.Helper()
	msg := &types.CommitMsg{
		BlockNum: 0,
		Results:  []types.TxResult{result},
		Executor: types.NodeID(fmt.Sprintf("x%d", agent+1)),
	}
	if err := r.agentEP[agent].Send("e1", msg); err != nil {
		t.Fatal(err)
	}
}

// correctTx0Result executes tx0's transfer honestly against genesis.
func (r *divergentRig) correctTx0Result(t testing.TB) types.TxResult {
	t.Helper()
	reg := contract.NewRegistry()
	reg.Install("appA", contract.NewAccounting())
	store := state.NewKVStore()
	store.Apply(r.genesis)
	writes, err := reg.Execute("appA", store, r.block.Txns[0].Op)
	if err != nil {
		t.Fatal(err)
	}
	return types.TxResult{TxID: r.block.Txns[0].ID, Index: 0, Writes: writes}
}

// wrongTx0Result is a divergent leading vote: structurally valid writes
// to tx0's declared write set, but different values than honest
// execution produces.
func (r *divergentRig) wrongTx0Result() types.TxResult {
	return types.TxResult{
		TxID: r.block.Txns[0].ID, Index: 0,
		Writes: []types.KV{
			{Key: "hot", Val: contract.EncodeBalance(31337)},
			{Key: "appA/sink", Val: contract.EncodeBalance(7)},
		},
	}
}

// honestChain executes the appB chain sequentially on top of the
// committed tx0 result, returning the state hash the block must finalize
// to and every chain transaction's honest result digest.
func (r *divergentRig) honestChain(t testing.TB, tx0 types.TxResult) (types.Hash, map[types.TxID]types.Hash) {
	t.Helper()
	store := state.NewKVStore()
	store.Apply(r.genesis)
	store.Apply(tx0.Writes)
	reg := contract.NewRegistry()
	reg.Install("appB", contract.NewAccounting())
	digests := make(map[types.TxID]types.Hash, len(r.block.Txns)-1)
	for i := 1; i < len(r.block.Txns); i++ {
		writes, err := reg.Execute("appB", store, r.block.Txns[i].Op)
		if err != nil {
			t.Fatal(err)
		}
		res := types.TxResult{TxID: r.block.Txns[i].ID, Index: i, Writes: writes}
		digests[res.TxID] = res.Digest()
		store.Apply(writes)
	}
	return store.Hash(), digests
}

func awaitExecuted(t testing.TB, e *Executor, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().TxExecuted < want {
		if time.Now().After(deadline) {
			t.Fatalf("executed %d transactions, want >= %d", e.Stats().TxExecuted, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpeculationDivergentVoteCascade injects a divergent leading vote
// for a foreign predecessor: the executor speculates the dependent chain
// against it, and when the tau quorum commits a different digest, the
// whole speculation subtree must be re-executed against the committed
// value, the buffered multicasts of the invalidated results must never
// be released, and the final state must match the sequential execution
// of the chain on the committed value.
func TestSpeculationDivergentVoteCascade(t *testing.T) {
	const chainLen = 3
	r := newDivergentRig(t, chainLen)
	correct := r.correctTx0Result(t)
	wrong := r.wrongTx0Result()
	if wrong.Digest() == correct.Digest() {
		t.Fatal("test bug: divergent result matches honest execution")
	}

	// The divergent leading vote: the chain executes against it.
	r.vote(t, 0, wrong)
	awaitExecuted(t, r.exec, chainLen)
	// Everything executed is downstream of an uncommitted foreign input:
	// nothing may be multicast yet.
	time.Sleep(100 * time.Millisecond)
	if got := r.exec.Stats().CommitMsgsSent; got != 0 {
		t.Fatalf("multicast %d COMMITs while every input was uncommitted", got)
	}
	if got := r.exec.Stats().SpecExecuted; got < chainLen {
		t.Fatalf("SpecExecuted = %d, want >= %d", got, chainLen)
	}

	// The honest quorum: two matching votes with the correct digest
	// commit tx0 with a result that contradicts the speculation.
	r.vote(t, 1, correct)
	r.vote(t, 2, correct)

	// The block finalizes only if the cascade repaired every result.
	deadline := time.Now().Add(10 * time.Second)
	for r.exec.cfg.Ledger.Height() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("block did not finalize after the divergent-vote cascade")
		}
		time.Sleep(time.Millisecond)
	}
	wantHash, _ := r.honestChain(t, correct)
	if r.exec.cfg.Store.Hash() != wantHash {
		t.Fatal("cascade converged to a different state than sequential execution on the committed value")
	}
	stats := r.exec.Stats()
	if stats.SpecMisses == 0 {
		t.Fatalf("divergent vote produced no speculation misses: %+v", stats)
	}
	if stats.SpecReexecs < chainLen {
		t.Fatalf("SpecReexecs = %d, want >= %d (full subtree re-execution)",
			stats.SpecReexecs, chainLen)
	}
}

// TestSpeculationRejectsUndeclaredAdoptedWrites pins the adoption
// validation: a leading vote whose writes stray outside the
// transaction's declared write set carries no quorum backing and must
// not be adopted — the dependency graph (and hence the lineage gating)
// only covers declared keys, so a fabricated out-of-set write would be
// visible to readers with no edge to invalidate them through. The vote
// still counts toward the quorum tally; the dependents simply wait for
// the commit.
func TestSpeculationRejectsUndeclaredAdoptedWrites(t *testing.T) {
	const chainLen = 2
	r := newDivergentRig(t, chainLen)
	correct := r.correctTx0Result(t)
	// Leading vote smuggling a write to a key tx0 never declared.
	poison := types.TxResult{
		TxID: r.block.Txns[0].ID, Index: 0,
		Writes: []types.KV{
			{Key: "hot", Val: contract.EncodeBalance(999)},
			{Key: "undeclared", Val: []byte("boom")},
		},
	}
	r.vote(t, 0, poison)
	time.Sleep(100 * time.Millisecond)
	if got := r.exec.Stats().TxExecuted; got != 0 {
		t.Fatalf("dependents executed against a non-adoptable vote (executed=%d)", got)
	}
	// The honest quorum commits tx0; the chain executes and finalizes.
	r.vote(t, 1, correct)
	r.vote(t, 2, correct)
	deadline := time.Now().Add(10 * time.Second)
	for r.exec.cfg.Ledger.Height() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("block did not finalize after the quorum")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := r.exec.cfg.Store.Get("undeclared"); ok {
		t.Fatal("fabricated out-of-set write reached the committed store")
	}
}

// TestSpeculativeMulticastGatedUntilInputsCommit asserts the
// externalization rule end to end on the wire: every COMMIT the executor
// multicasts carries only results consistent with the committed
// predecessor value — the results derived from the divergent leading
// vote are never released, even though they were fully executed and
// staged before the quorum arrived.
func TestSpeculativeMulticastGatedUntilInputsCommit(t *testing.T) {
	const chainLen = 3
	r := newDivergentRig(t, chainLen)
	correct := r.correctTx0Result(t)
	r.vote(t, 0, r.wrongTx0Result())
	awaitExecuted(t, r.exec, chainLen)
	r.vote(t, 1, correct)
	r.vote(t, 2, correct)
	deadline := time.Now().Add(10 * time.Second)
	for r.exec.cfg.Ledger.Height() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("block did not finalize")
		}
		time.Sleep(time.Millisecond)
	}

	// The chain's honest results against the committed tx0.
	_, want := r.honestChain(t, correct)

	// Drain every COMMIT the spy saw; all chain results must carry the
	// post-commit digests, never the speculated-against-divergence ones.
	// Stopping the executor first guarantees no COMMIT is in flight when
	// the spy endpoint closes (its forwarder then closes the channel).
	r.exec.Stop()
	r.spyEP.Close()
	seen := 0
	for msg := range r.spyMsgs {
		for i := range msg.Results {
			res := &msg.Results[i]
			wantDigest, ok := want[res.TxID]
			if !ok {
				continue
			}
			seen++
			if res.Digest() != wantDigest {
				t.Fatalf("multicast released an invalidated speculative result for %s", res.TxID)
			}
		}
	}
	if seen < chainLen {
		t.Fatalf("spy saw %d chain results, want >= %d", seen, chainLen)
	}
}
