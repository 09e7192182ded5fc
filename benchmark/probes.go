package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/execution"
	"parblockchain/internal/ledger"
	"parblockchain/internal/persist"
	"parblockchain/internal/state"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// Probes time single layers through their public functions, outside the
// cluster, on the blocks the run itself committed. They are short on
// purpose: they locate a layer's cost, they do not gate anything.

// probeBlocks bounds how many committed blocks a probe walks.
const probeBlocks = 256

type probeInput struct {
	entries []ledger.Entry // the observer's ledger, from genesis
	genesis []types.KV
	hashAt  []types.Hash // sequential-replay state hash after each height
	tmpDir  string
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (in probeInput) head(n int) []ledger.Entry {
	if len(in.entries) < n {
		n = len(in.entries)
	}
	return in.entries[:n]
}

// fullest returns up to n of the run's largest blocks, the shape a
// saturated orderer cuts.
func (in probeInput) fullest(n int) []ledger.Entry {
	out := append([]ledger.Entry(nil), in.entries...)
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].Block.Txns) > len(out[j].Block.Txns) })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func rwSets(b *types.Block) []depgraph.RWSet {
	sets := make([]depgraph.RWSet, len(b.Txns))
	for i, tx := range b.Txns {
		sets[i] = depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
	}
	return sets
}

func newBlockMsg(b *types.Block) *types.NewBlockMsg {
	return &types.NewBlockMsg{
		Block:   b,
		Graph:   depgraph.Build(rwSets(b), depgraph.Standard),
		Apps:    b.Apps(),
		Orderer: "o1",
		Sig:     make([]byte, 64), // the size of an ed25519 signature
	}
}

func countTxns(entries []ledger.Entry) int {
	n := 0
	for _, e := range entries {
		n += len(e.Block.Txns)
	}
	return n
}

// netWrites is a block's net state effect: the last write of every key.
func netWrites(results []types.TxResult) []types.KV {
	last := make(map[types.Key]int)
	var out []types.KV
	for i := range results {
		for _, kv := range results[i].Writes {
			if at, ok := last[kv.Key]; ok {
				out[at] = kv
				continue
			}
			last[kv.Key] = len(out)
			out = append(out, kv)
		}
	}
	return out
}

// probeDepgraph rebuilds every committed block's dependency graph and
// reports the build time and the graph's shape. It also checks the
// benchmark's own chain-depth rule against the graph's critical path.
func probeDepgraph(in probeInput, m map[string]float64) error {
	var build time.Duration
	var path, width, blocks float64
	for _, e := range in.head(probeBlocks) {
		sets := rwSets(e.Block)
		start := time.Now()
		g := depgraph.Build(sets, depgraph.Standard)
		build += time.Since(start)
		cp := g.CriticalPathLen()
		if own := newChainDepth().addBlock(e.Block); own != cp {
			return fmt.Errorf("block %d: chain depth %d, depgraph critical path %d", e.Block.Header.Number, own, cp)
		}
		path += float64(cp)
		width += float64(g.MaxWidth())
		blocks++
	}
	if blocks > 0 {
		m["depgraph.build_us_per_block"] = us(build) / blocks
		m["depgraph.critical_path_len"] = path / blocks
		m["depgraph.max_width"] = width / blocks
	}
	return nil
}

// probeTypes times the wire codecs on the run's own transactions and
// fullest blocks.
func probeTypes(in probeInput, m map[string]float64) error {
	blocks := in.fullest(32)
	var txMarshal, txUnmarshal, blkMarshal, blkUnmarshal time.Duration
	txns := 0
	for _, e := range blocks {
		for _, tx := range e.Block.Txns {
			start := time.Now()
			raw := tx.Marshal()
			mid := time.Now()
			if _, err := types.UnmarshalTransaction(raw); err != nil {
				return err
			}
			txMarshal += mid.Sub(start)
			txUnmarshal += time.Since(mid)
			txns++
		}
		msg := newBlockMsg(e.Block)
		start := time.Now()
		raw := msg.Marshal()
		mid := time.Now()
		if _, err := types.UnmarshalNewBlockMsg(raw); err != nil {
			return err
		}
		blkMarshal += mid.Sub(start)
		blkUnmarshal += time.Since(mid)
	}
	if txns > 0 {
		m["types.tx_marshal_ns"] = float64(txMarshal) / float64(txns)
		m["types.tx_unmarshal_ns"] = float64(txUnmarshal) / float64(txns)
		m["types.block_marshal_us"] = us(blkMarshal) / float64(len(blocks))
		m["types.block_unmarshal_us"] = us(blkUnmarshal) / float64(len(blocks))
	}
	return nil
}

// probeCrypto signs and verifies transaction digests with the demo keys
// the TCP deployment uses.
func probeCrypto(in probeInput, m map[string]float64) error {
	key := cryptoutil.DeterministicKeyPair("c1")
	ring := cryptoutil.NewKeyRing()
	ring.Add("c1", key.Public())
	var sign, verify time.Duration
	n := 0
	for _, e := range in.head(2) {
		for _, tx := range e.Block.Txns {
			d := tx.Digest()
			start := time.Now()
			sig := key.Sign(d[:])
			mid := time.Now()
			if err := ring.Verify("c1", d[:], sig); err != nil {
				return err
			}
			sign += mid.Sub(start)
			verify += time.Since(mid)
			n++
		}
	}
	if n > 0 {
		m["cryptoutil.sign_us"] = us(sign) / float64(n)
		m["cryptoutil.verify_us"] = us(verify) / float64(n)
	}
	return nil
}

// probeState applies the run's writes block by block to a fresh store
// and reads them back.
func probeState(in probeInput, m map[string]float64) error {
	store := state.NewKVStore()
	store.Apply(in.genesis)
	entries := in.head(probeBlocks)
	var apply, get time.Duration
	gets := 0
	for _, e := range entries {
		writes := netWrites(e.Results)
		start := time.Now()
		store.Apply(writes)
		apply += time.Since(start)
		start = time.Now()
		for _, kv := range writes {
			if _, ok := store.Get(kv.Key); !ok {
				return fmt.Errorf("state probe: %s missing after apply", kv.Key)
			}
		}
		get += time.Since(start)
		gets += len(writes)
	}
	if got := store.Hash(); got != in.hashAt[len(entries)] {
		return errors.New("state probe: store hash differs from the sequential replay")
	}
	if len(entries) > 0 && gets > 0 {
		m["state.apply_us_per_block"] = us(apply) / float64(len(entries))
		m["state.get_ns"] = float64(get) / float64(gets)
	}
	return nil
}

// probeLedger appends the run's blocks to a fresh ledger (which verifies
// each block's Merkle root).
func probeLedger(in probeInput, m map[string]float64) error {
	led := ledger.New()
	entries := in.head(probeBlocks)
	start := time.Now()
	for _, e := range entries {
		if err := led.Append(e); err != nil {
			return err
		}
	}
	if len(entries) > 0 {
		m["ledger.append_us_per_block"] = us(time.Since(start)) / float64(len(entries))
	}
	return nil
}

// probePersist logs the run's first blocks to a write-ahead log in a
// temp dir, one fsync per block, and then recovers the directory.
func probePersist(in probeInput, m map[string]float64) error {
	dir, err := os.MkdirTemp(in.tmpDir, "persist-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := persist.Config{Dir: dir, Logf: func(string, ...any) {}}
	mgr, rec, err := persist.Open(cfg, in.genesis)
	if err != nil {
		return err
	}
	entries := in.head(64)
	var logTime time.Duration
	var syncs []float64
	for _, e := range entries {
		delta := netWrites(e.Results)
		rec.Store.Apply(delta)
		record := &persist.BlockRecord{Block: e.Block, Results: e.Results, Delta: delta, StateHash: rec.Store.Hash()}
		start := time.Now()
		if err := mgr.LogBlock(record); err != nil {
			mgr.Close()
			return err
		}
		mid := time.Now()
		if err := mgr.Sync(); err != nil {
			mgr.Close()
			return err
		}
		logTime += mid.Sub(start)
		syncs = append(syncs, ms(time.Since(mid)))
	}
	walBytes := dirBytes(filepath.Join(cfg.Dir, "wal"))
	if err := mgr.Close(); err != nil {
		return err
	}
	start := time.Now()
	mgr, rec, err = persist.Open(cfg, nil)
	if err != nil {
		return err
	}
	recoverTime := time.Since(start)
	height, hash := rec.Ledger.Height(), rec.Store.Hash()
	if err := mgr.Close(); err != nil {
		return err
	}
	if height != uint64(len(entries)) || hash != in.hashAt[len(entries)] {
		return fmt.Errorf("persist probe: recovered height %d (want %d) or a different state", height, len(entries))
	}
	if n := countTxns(entries); n > 0 {
		m["persist.log_block_us"] = us(logTime) / float64(len(entries))
		m["persist.fsync_ms"] = median(syncs)
		m["persist.wal_bytes_per_tx"] = float64(walBytes) / float64(n)
		m["persist.recover_s"] = recoverTime.Seconds()
	}
	return nil
}

// replayExecutor feeds the blocks back to back to one standalone
// executor that is the only agent of every application, with no modeled
// contract cost, and returns the transactions finalized per second. It
// checks the final state against the sequential replay.
func replayExecutor(in probeInput, entries []ledger.Entry, procs int) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	execEP, err := net.Endpoint("e1")
	if err != nil {
		return 0, err
	}
	ordererEP, err := net.Endpoint("o1")
	if err != nil {
		return 0, err
	}
	registry := contract.NewRegistry()
	agents := make(map[types.AppID][]types.NodeID)
	for _, app := range appIDs() {
		registry.Install(app, contract.NewAccounting())
		agents[app] = []types.NodeID{"e1"}
	}
	store := state.NewKVStore()
	store.Apply(in.genesis)
	// window bounds the blocks announced ahead of the executor's height:
	// twice its default pipeline depth keeps the pipeline full and stays
	// inside the horizon beyond which announcements are dropped.
	const window = 2 * execution.DefaultPipelineDepth
	commits := make(chan struct{}, window)
	exec := execution.New(execution.Config{
		ID: "e1", Endpoint: execEP, Registry: registry, AgentsOf: agents,
		Executors: []types.NodeID{"e1"}, Store: store, Ledger: ledger.New(),
		Signer: cryptoutil.NoopSigner{NodeID: "e1"}, Verifier: cryptoutil.NoopVerifier{},
		OnCommit: func(*types.Block, []types.TxResult) { commits <- struct{}{} },
		Logf:     func(string, ...any) {},
	})
	msgs := make([]*types.NewBlockMsg, len(entries))
	for i, e := range entries {
		msgs[i] = newBlockMsg(e.Block)
	}
	exec.Start()
	defer exec.Stop()
	timeout := time.After(30 * time.Second)
	start := time.Now()
	sent, done := 0, 0
	for done < len(msgs) {
		for sent < len(msgs) && sent-done < window {
			if err := ordererEP.Send("e1", msgs[sent]); err != nil {
				return 0, err
			}
			sent++
		}
		select {
		case <-commits:
			done++
		case <-timeout:
			return 0, fmt.Errorf("replay probe: executor stuck after %d of %d blocks", done, len(msgs))
		}
	}
	elapsed := time.Since(start)
	if store.Hash() != in.hashAt[len(entries)] {
		return 0, errors.New("replay probe: executor state differs from the sequential replay")
	}
	return float64(countTxns(entries)) / elapsed.Seconds(), nil
}

// probeReplay measures the execution engine alone, on all cores and on
// one.
func probeReplay(in probeInput, m map[string]float64) error {
	entries := in.head(128)
	if len(entries) == 0 {
		return nil
	}
	all, err := replayExecutor(in, entries, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	one, err := replayExecutor(in, entries, 1)
	if err != nil {
		return err
	}
	m["execution.replay_tps"] = all
	m["execution.replay_scaling"] = all / one
	return nil
}

// probeTransport times the two transports in isolation: a send and
// receive on a zero-latency in-process link, and a full NEWBLOCK and a
// stream of COMMITs between two loopback TCP endpoints.
func probeTransport(in probeInput, m map[string]float64) error {
	commit := &types.CommitMsg{BlockNum: 1, Executor: "e1", Sig: make([]byte, 64)}
	var block *types.NewBlockMsg
	if full := in.fullest(1); len(full) > 0 {
		block = newBlockMsg(full[0].Block)
		commit.Results = full[0].Results[:1]
	}

	mem := transport.NewInMemNetwork(transport.InMemConfig{})
	defer mem.Close()
	a, err := mem.Endpoint("a")
	if err != nil {
		return err
	}
	b, err := mem.Endpoint("b")
	if err != nil {
		return err
	}
	const memMsgs = 50000
	start := time.Now()
	go func() {
		for i := 0; i < memMsgs; i++ {
			_ = a.Send("b", commit) // the receive loop below times out if one is lost
		}
	}()
	if err := recvN(b, memMsgs); err != nil {
		return err
	}
	m["transport.inmem_send_ns"] = float64(time.Since(start)) / memMsgs

	x, y, err := tcpPair()
	if err != nil {
		return err
	}
	defer x.Close()
	defer y.Close()
	if block != nil {
		var oneway []float64
		for i := 0; i < 40; i++ {
			start := time.Now()
			if err := x.Send("y", block); err != nil {
				return err
			}
			if err := recvN(y, 1); err != nil {
				return err
			}
			oneway = append(oneway, us(time.Since(start)))
		}
		m["transport.tcp_block_oneway_us"] = median(oneway)
	}
	const tcpMsgs = 20000
	start = time.Now()
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < tcpMsgs; i++ {
			if err := x.Send("y", commit); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	if err := recvN(y, tcpMsgs); err != nil {
		return err
	}
	if err := <-errc; err != nil {
		return err
	}
	m["transport.tcp_msgs_per_s"] = tcpMsgs / time.Since(start).Seconds()
	return nil
}

// probeNotifyTCP times the client-notification hop of a TCP deployment:
// one CommitNotifyMsg from one loopback endpoint to another.
func probeNotifyTCP() (time.Duration, error) {
	x, y, err := tcpPair()
	if err != nil {
		return 0, err
	}
	defer x.Close()
	defer y.Close()
	var oneway []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := x.Send("y", &types.CommitNotifyMsg{TxID: "0123456789abcdef-c1", BlockNum: uint64(i)}); err != nil {
			return 0, err
		}
		if err := recvN(y, 1); err != nil {
			return 0, err
		}
		oneway = append(oneway, float64(time.Since(start)))
	}
	return time.Duration(median(oneway)), nil
}

// tcpPair returns two connected loopback endpoints named x and y.
func tcpPair() (x, y *transport.TCPEndpoint, err error) {
	book := make(map[types.NodeID]string, 2) // filled before the first Send
	x, err = transport.NewTCPEndpoint(transport.TCPConfig{ID: "x", ListenAddr: "127.0.0.1:0", Peers: book})
	if err != nil {
		return nil, nil, err
	}
	y, err = transport.NewTCPEndpoint(transport.TCPConfig{ID: "y", ListenAddr: "127.0.0.1:0", Peers: book})
	if err != nil {
		x.Close()
		return nil, nil, err
	}
	book["x"], book["y"] = x.Addr(), y.Addr()
	return x, y, nil
}

// recvN takes n messages off an endpoint, failing if they stop coming.
func recvN(ep transport.Endpoint, n int) error {
	timeout := time.After(20 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case _, ok := <-ep.Recv():
			if !ok {
				return errors.New("probe: endpoint closed")
			}
		case <-timeout:
			return fmt.Errorf("probe: %d of %d messages arrived", i, n)
		}
	}
	return nil
}

// runProbes runs every probe and stores its metrics in m.
func runProbes(in probeInput, m map[string]float64) error {
	for _, probe := range []func(probeInput, map[string]float64) error{
		probeDepgraph, probeTypes, probeCrypto, probeState, probeLedger,
		probePersist, probeReplay, probeTransport,
	} {
		if err := probe(in, m); err != nil {
			return err
		}
	}
	return nil
}
