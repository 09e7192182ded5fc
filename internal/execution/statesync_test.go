package execution

import (
	"fmt"
	"sync/atomic"
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

// This file tests the requester side of peer-served state sync against
// hand-scripted peers: the stall watchdog must arm off a height
// announcement alone, a peer serving tampered records (broken delta or
// lying state hash) must be rejected without corrupting the local store,
// and the retry rotation must eventually converge on an honest peer's
// history bit-identically. The peers here are raw endpoints driven by
// the test, not executors, so every hostile response shape is reachable.

// syncChain is a verifiable chain of finalization records built exactly
// the way an honest executor's durability path would have logged them:
// evidence recomputed over the block plus the deterministically rebuilt
// graph, delta equal to the results' writes, state hash tracked
// cumulatively.
type syncChain struct {
	records   []*persist.BlockRecord
	finalHash types.Hash // store hash after the whole chain
	tipHash   types.Hash // hash of the last block
}

func buildSyncChain(n int) *syncChain {
	c := &syncChain{}
	store := state.NewKVStore()
	var prev types.Hash
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i%3) // recycle keys so overwrites matter
		val := []byte{byte(i), 0xA5}
		tx := &types.Transaction{
			ID:       types.TxID(fmt.Sprintf("tx-%d", i)),
			App:      "app1",
			Client:   "c1",
			ClientTS: uint64(i),
			Op:       types.Operation{Method: "set", Writes: []types.Key{key}},
		}
		block := types.NewBlock(uint64(i), prev, []*types.Transaction{tx})
		prev = block.Hash()
		delta := []types.KV{{Key: key, Val: val}}
		store.Apply(delta)
		sets := []depgraph.RWSet{{Reads: tx.Op.Reads, Writes: tx.Op.Writes}}
		evidence := (&types.NewBlockMsg{
			Block: block,
			Graph: depgraph.Build(sets, depgraph.Standard),
		}).Digest()
		c.records = append(c.records, &persist.BlockRecord{
			Block:          block,
			Results:        []types.TxResult{{TxID: tx.ID, Index: 0, Writes: delta}},
			Delta:          delta,
			StateHash:      store.Hash(),
			EvidenceDigest: evidence,
			Endorse:        []persist.Endorsement{{Node: "o1"}},
		})
	}
	c.finalHash = store.Hash()
	c.tipHash = prev
	return c
}

// response builds a peer's answer to one sync request, serving the whole
// remainder of the chain in one batch. A non-nil mutate tampers a fresh
// decoded copy of every record, so the shared chain stays pristine.
func (c *syncChain) response(t *testing.T, req *types.StateSyncRequestMsg,
	mutate func(*persist.BlockRecord)) *types.StateSyncResponseMsg {
	t.Helper()
	n := uint64(len(c.records))
	resp := &types.StateSyncResponseMsg{Nonce: req.Nonce, Kind: types.SyncKindNothing, Height: n}
	if req.Kind != types.SyncKindRecords || req.From >= n {
		return resp
	}
	resp.Kind = types.SyncKindRecords
	resp.From = req.From
	for _, rec := range c.records[req.From:] {
		raw := rec.Marshal()
		if mutate != nil {
			cp, err := persist.UnmarshalBlockRecord(raw)
			if err != nil {
				t.Errorf("re-decoding own record: %v", err)
				return resp
			}
			mutate(cp)
			raw = cp.Marshal()
		}
		resp.Records = append(resp.Records, raw)
	}
	return resp
}

// syncPeerRig is one requester executor plus raw peer endpoints the test
// scripts by hand.
type syncPeerRig struct {
	net     *transport.InMemNetwork
	exec    *Executor
	store   *state.KVStore
	led     *ledger.Ledger
	stopped bool
}

func (r *syncPeerRig) shutdown() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.exec.Stop()
	r.net.Close()
}

func newSyncPeerRig(t *testing.T, peers []types.NodeID) *syncPeerRig {
	t.Helper()
	r := &syncPeerRig{
		net:   transport.NewInMemNetwork(transport.InMemConfig{}),
		store: state.NewKVStore(),
		led:   ledger.New(),
	}
	ep, err := r.net.Endpoint("req")
	if err != nil {
		t.Fatal(err)
	}
	registry := contract.NewRegistry()
	registry.Install("app1", contract.NewAccounting())
	r.exec = New(Config{
		ID:           "req",
		Endpoint:     ep,
		Registry:     registry,
		AgentsOf:     map[types.AppID][]types.NodeID{"app1": append([]types.NodeID{"req"}, peers...)},
		OrderQuorum:  1,
		Executors:    append([]types.NodeID{"req"}, peers...),
		Store:        r.store,
		Ledger:       r.led,
		Workers:      2,
		StallTimeout: 40 * time.Millisecond,
		Signer:       cryptoutil.NoopSigner{NodeID: "req"},
		Verifier:     cryptoutil.NoopVerifier{},
		Logf:         func(string, ...any) {},
	})
	r.exec.Start()
	t.Cleanup(r.shutdown)
	return r
}

// servePeer attaches a scripted peer: every sync request is counted and
// answered through script; everything else is ignored. The returned
// endpoint lets the test send height announcements from the same
// identity.
func (r *syncPeerRig) servePeer(t *testing.T, id types.NodeID, count *atomic.Uint64,
	script func(*types.StateSyncRequestMsg) *types.StateSyncResponseMsg) transport.Endpoint {
	t.Helper()
	ep, err := r.net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for msg := range ep.Recv() {
			req, ok := msg.Payload.(*types.StateSyncRequestMsg)
			if !ok {
				continue
			}
			count.Add(1)
			resp := script(req)
			resp.Responder = id
			_ = ep.Send(req.Requester, resp)
		}
	}()
	return ep
}

// announce feeds the requester's stall watchdog: a COMMIT for blockNum
// from a peer updates maxSeen even though nothing else about the message
// is usable, which is exactly how a live cluster's chatter tells a
// lagging node it is behind.
func announce(t *testing.T, ep transport.Endpoint, blockNum uint64) {
	t.Helper()
	if err := ep.Send("req", &types.CommitMsg{BlockNum: blockNum, Executor: ep.ID()}); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStateSyncRejectsTamperedDelta: a peer serving records whose delta
// diverges from the results is rejected by verification before anything
// touches the store, and the requester keeps retrying (same rotation,
// backed off) rather than adopting.
func TestStateSyncRejectsTamperedDelta(t *testing.T) {
	chain := buildSyncChain(4)
	rig := newSyncPeerRig(t, []types.NodeID{"evil"})
	var reqs atomic.Uint64
	ep := rig.servePeer(t, "evil", &reqs, func(req *types.StateSyncRequestMsg) *types.StateSyncResponseMsg {
		return chain.response(t, req, func(rec *persist.BlockRecord) {
			rec.Delta[0].Val = []byte{0xFF} // results no longer produce this
		})
	})
	announce(t, ep, uint64(len(chain.records)-1))

	waitFor(t, "two rejected attempts", func() bool {
		return rig.exec.Stats().SyncRejected >= 2 && reqs.Load() >= 2
	})
	rig.shutdown() // quiesce the actor loop before inspecting state
	if h := rig.led.Height(); h != 0 {
		t.Fatalf("requester adopted %d tampered blocks", h)
	}
	if got, want := rig.store.Hash(), state.NewKVStore().Hash(); got != want {
		t.Fatalf("store diverged from genesis: %x != %x", got[:4], want[:4])
	}
}

// TestStateSyncRejectsWrongStateHash: a record whose delta and results
// are self-consistent but whose claimed post-apply state hash lies
// passes the structural checks, is caught at apply time, and the apply
// is rolled back so the store is left bit-identical to before.
func TestStateSyncRejectsWrongStateHash(t *testing.T) {
	chain := buildSyncChain(4)
	rig := newSyncPeerRig(t, []types.NodeID{"evil"})
	var reqs atomic.Uint64
	ep := rig.servePeer(t, "evil", &reqs, func(req *types.StateSyncRequestMsg) *types.StateSyncResponseMsg {
		return chain.response(t, req, func(rec *persist.BlockRecord) {
			rec.StateHash[0] ^= 0x01
		})
	})
	announce(t, ep, uint64(len(chain.records)-1))

	waitFor(t, "two rejected attempts", func() bool {
		return rig.exec.Stats().SyncRejected >= 2 && reqs.Load() >= 2
	})
	rig.shutdown()
	if h := rig.led.Height(); h != 0 {
		t.Fatalf("requester adopted %d blocks with lying state hashes", h)
	}
	if got, want := rig.store.Hash(), state.NewKVStore().Hash(); got != want {
		t.Fatalf("rejected apply was not rolled back: %x != %x", got[:4], want[:4])
	}
}

// TestStateSyncConvergesPastTamperingPeer: with one tampering peer and
// one honest peer in the rotation (random starting point), the
// requester must end bit-identical to the honest chain regardless of
// which peer it asks first.
func TestStateSyncConvergesPastTamperingPeer(t *testing.T) {
	chain := buildSyncChain(6)
	rig := newSyncPeerRig(t, []types.NodeID{"evil", "honest"})
	var evilReqs, honestReqs atomic.Uint64
	rig.servePeer(t, "evil", &evilReqs, func(req *types.StateSyncRequestMsg) *types.StateSyncResponseMsg {
		return chain.response(t, req, func(rec *persist.BlockRecord) {
			rec.Delta[0].Val = []byte{0xFF}
		})
	})
	ep := rig.servePeer(t, "honest", &honestReqs, func(req *types.StateSyncRequestMsg) *types.StateSyncResponseMsg {
		return chain.response(t, req, nil)
	})
	announce(t, ep, uint64(len(chain.records)-1))

	n := uint64(len(chain.records))
	waitFor(t, "convergence on the honest chain", func() bool {
		return rig.led.Height() == n
	})
	rig.shutdown()
	if got := rig.store.Hash(); got != chain.finalHash {
		t.Fatalf("synced store hash %x, honest chain produces %x", got[:4], chain.finalHash[:4])
	}
	if got := rig.led.LastHash(); got != chain.tipHash {
		t.Fatalf("synced chain tip %x, honest tip %x", got[:4], chain.tipHash[:4])
	}
	st := rig.exec.Stats()
	if st.SyncRecordsAdopted != uint64(len(chain.records)) {
		t.Fatalf("SyncRecordsAdopted = %d, want %d", st.SyncRecordsAdopted, len(chain.records))
	}
}

// TestStateSyncReprobesAfterAnsweredProbe: a node whose silence probe was
// answered "nothing missing" is then partitioned while its peers advance,
// and the partition heals into a quiet cluster — no announcement ever
// reaches it. The probe must re-arm on its own, or the node stays behind
// forever.
func TestStateSyncReprobesAfterAnsweredProbe(t *testing.T) {
	chain := buildSyncChain(6)
	rig := newSyncPeerRig(t, []types.NodeID{"honest"})
	var reqs, nothing atomic.Uint64
	var visible atomic.Uint64 // how much of the chain the peer has so far
	visible.Store(3)
	ep := rig.servePeer(t, "honest", &reqs, func(req *types.StateSyncRequestMsg) *types.StateSyncResponseMsg {
		have := &syncChain{records: chain.records[:visible.Load()]}
		resp := have.response(t, req, nil)
		if resp.Kind == types.SyncKindNothing {
			nothing.Add(1)
		}
		return resp
	})
	announce(t, ep, 2)
	waitFor(t, "catch-up to the peer's first three blocks", func() bool {
		return rig.led.Height() == 3
	})
	waitFor(t, "a probe answered with nothing missing", func() bool {
		return nothing.Load() > 0 && !rig.exec.Status().Syncing
	})

	rig.net.Isolate("req", true)
	visible.Store(6)
	rig.net.Isolate("req", false)
	waitFor(t, "convergence after healing into silence", func() bool {
		return rig.led.Height() == 6
	})
	rig.shutdown()
	if got := rig.store.Hash(); got != chain.finalHash {
		t.Fatalf("synced store hash %x, peer's chain produces %x", got[:4], chain.finalHash[:4])
	}
}
