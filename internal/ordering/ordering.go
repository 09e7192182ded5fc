// Package ordering implements the orderer node of the OXII paradigm
// (Section IV-B): it authenticates and access-checks client requests,
// feeds them to the pluggable consensus protocol, assembles the agreed
// stream into blocks under three deterministic cut conditions (maximum
// transaction count, maximum byte size, and a timeout marker ordered
// through consensus), generates the block's dependency graph, and
// multicasts the signed NEWBLOCK message to all executors.
package ordering

import (
	"log"
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/consensus"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/persist"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// AccessControl restricts which clients may submit operations for which
// applications. The orderers are the trusted entities that discard
// requests from unauthorized clients. A nil *AccessControl allows all; the
// zero value denies everyone until Allow.
type AccessControl struct {
	mu      sync.RWMutex
	allowed map[types.AppID]map[types.NodeID]bool
}

// Allow grants a client access to an application.
func (a *AccessControl) Allow(app types.AppID, client types.NodeID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.allowed == nil {
		a.allowed = make(map[types.AppID]map[types.NodeID]bool)
	}
	clients, ok := a.allowed[app]
	if !ok {
		clients = make(map[types.NodeID]bool)
		a.allowed[app] = clients
	}
	clients[client] = true
}

// Check reports whether the client may use the application. A nil ACL
// allows everything.
func (a *AccessControl) Check(app types.AppID, client types.NodeID) bool {
	if a == nil {
		return true
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.allowed[app][client]
}

// Config parameterizes one orderer node.
type Config struct {
	// ID is this orderer's identity.
	ID types.NodeID
	// Endpoint is the node's transport attachment. The orderer owns its
	// Recv loop.
	Endpoint transport.Endpoint
	// Consensus is this member's instance of the pluggable ordering
	// protocol. The orderer starts and stops it.
	Consensus consensus.Node
	// Executors lists all executor nodes, the NEWBLOCK multicast targets.
	Executors []types.NodeID
	// Signer signs NEWBLOCK messages.
	Signer cryptoutil.Signer
	// Verifier checks client request signatures.
	Verifier cryptoutil.Verifier
	// VerifyClientSigs enables request signature verification. Disabled
	// configurations model the crypto-free ablation.
	VerifyClientSigs bool
	// ACL restricts client/application pairs; nil allows all.
	ACL *AccessControl
	// MaxBlockTxns cuts a block at this many transactions. Zero means
	// 200, the paper's default for OXII.
	MaxBlockTxns int
	// MaxBlockBytes cuts a block at this many payload bytes. Zero means
	// 2MB.
	MaxBlockBytes int
	// MaxBlockInterval cuts a non-empty block this long after its first
	// transaction arrived, via a cut marker ordered through consensus so
	// every orderer cuts identically. Zero means DefaultMaxBlockInterval.
	MaxBlockInterval time.Duration
	// BuildGraph enables dependency-graph generation. ParBlockchain
	// (OXII) sets it; the OX baseline reuses this orderer with graphs
	// disabled.
	BuildGraph bool
	// Dir enables the durable orderer log: delivered consensus entries
	// and cut decisions are appended to a segmented, CRC-checksummed
	// record log under this directory (see durable.go), and a restarted
	// orderer replays it to resume cutting at the next height instead of
	// block 0. Empty keeps the ordering side in memory.
	Dir string
	// LogSegmentBytes rolls the orderer log to a fresh segment at the
	// next cut once the active one exceeds this size. Zero means
	// persist.DefaultLogSegmentBytes.
	LogSegmentBytes int64
	// RetainBlocks bounds restart replay: log segments whose newest
	// block is this far behind the chain tip are pruned at the next cut.
	// Zero means DefaultRetainBlocks.
	RetainBlocks int
	// ResumeSeq drops live consensus entries at or below the replayed
	// sequence high-water mark. Set it only when the consensus adapter
	// is itself durable (Raft/Kafka persisting through the same layer)
	// and redelivers its committed prefix with stable sequence numbers
	// after a restart; a non-durable adapter restarts its sequence space
	// at 1, which the mark would wrongly swallow.
	ResumeSeq bool
	// Logf receives diagnostic messages; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// DefaultMaxBlockInterval is the timeout cut used when Config leaves
// MaxBlockInterval zero.
const DefaultMaxBlockInterval = 100 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.MaxBlockTxns <= 0 {
		c.MaxBlockTxns = 200
	}
	if c.MaxBlockBytes <= 0 {
		c.MaxBlockBytes = 2 << 20
	}
	if c.MaxBlockInterval <= 0 {
		c.MaxBlockInterval = DefaultMaxBlockInterval
	}
	if c.RetainBlocks <= 0 {
		c.RetainBlocks = DefaultRetainBlocks
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Stats exposes orderer counters for experiments.
type Stats struct {
	// BlocksCut is the number of blocks produced.
	BlocksCut uint64
	// TxnsOrdered is the number of transactions placed into blocks.
	TxnsOrdered uint64
	// RequestsRejected counts requests dropped by signature or ACL checks
	// at intake, plus ordered transactions dropped for non-canonical
	// access sets at delivery.
	RequestsRejected uint64
	// GraphBuildNanos accumulates time spent generating dependency
	// graphs. On the incremental path it is sampled (one append in 16,
	// scaled), so treat it as an estimate.
	GraphBuildNanos uint64
	// DurableHeight is the next block number the orderer log guarantees
	// across a restart: every cut below it is fsynced. Zero without a
	// durable log.
	DurableHeight uint64
	// RecoveredEntries is the number of orderer-log records replayed at
	// the last restart.
	RecoveredEntries uint64
	// LogAppends and LogSyncs count orderer-log record writes and fsyncs
	// since open.
	LogAppends uint64
	LogSyncs   uint64
}

// Orderer is one orderer node.
type Orderer struct {
	cfg Config

	stats struct {
		blocksCut        atomic.Uint64
		txnsOrdered      atomic.Uint64
		requestsRejected atomic.Uint64
		graphBuildNanos  atomic.Uint64
		durableHeight    atomic.Uint64
		recoveredEntries atomic.Uint64
	}

	// Block assembly state, owned by the delivery goroutine.
	pending      []*types.Transaction
	pendingBytes int
	prevHash     types.Hash
	nextNum      uint64
	cutRequested bool // a cut marker for the current block is in flight

	// Dedupe state: IDs already placed in a block, held across two
	// generations so a rotation never forgets the block just cut (a late
	// consensus retry of a recent transaction must still be dropped).
	seenCur  seenGen
	seenPrev seenGen

	// Incremental graph state, owned by the delivery goroutine: the
	// current block's dependency graph, extended as each ordered
	// transaction is delivered — off the cut path. Nil when graphs are
	// disabled.
	graph     *depgraph.Builder
	graphTick uint64 // sampling counter for the build-time stat

	// Durable-log state (durable.go). recovered/anchors are filled by
	// openLog in New; everything else is owned by the delivery goroutine.
	dlog      *persist.RecordLog
	lastSeq   uint64 // highest consensus sequence logged or replayed
	replaying bool   // suppresses log appends while replaying the log
	recovered []logRec
	anchors   []logAnchor

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// seenGen is one dedupe generation: the IDs placed in blocks as a set
// for the duplicate check, and in delivery order for the durable cut
// record, which writes the list as it stands. Delivery follows consensus
// order, so the list is deterministic without a sort at every cut.
type seenGen struct {
	set map[types.TxID]bool
	ids []types.TxID
}

// newSeenGen returns a generation holding ids, which it takes over, with
// its set sized for cap(ids).
func newSeenGen(ids []types.TxID) seenGen {
	g := seenGen{set: make(map[types.TxID]bool, cap(ids)), ids: ids}
	for _, id := range ids {
		g.set[id] = true
	}
	return g
}

func (g *seenGen) add(id types.TxID) {
	g.set[id] = true
	g.ids = append(g.ids, id)
}

// payload type tags for consensus entries.
const (
	payloadTx  = 0x01
	payloadCut = 0x02
)

// canonicalKeys reports whether a declared access set is in canonical
// form: strictly increasing (sorted, duplicate-free). Graph builders on
// every node assume it, and it is covered by the client signature, so
// non-canonical sets are rejected rather than repaired.
func canonicalKeys(keys []types.Key) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return false
		}
	}
	return true
}

// encodeTxPayload wraps a transaction for consensus ordering: one pooled
// encode, one exact-size allocation for the retained payload.
func encodeTxPayload(tx *types.Transaction) []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.Byte(payloadTx)
	tx.MarshalTo(w)
	return w.CloneBytes()
}

// encodeCutPayload builds a cut marker. BlockNum scopes the marker to the
// block it was requested for so that stale markers are ignored.
func encodeCutPayload(blockNum uint64, orderer types.NodeID) []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	w.Byte(payloadCut)
	w.U64(blockNum)
	w.Str(string(orderer))
	return w.CloneBytes()
}

// New creates an orderer node. Call Start before use. With cfg.Dir set,
// the durable orderer log is opened here — recovering a torn tail,
// rejecting a concurrently mounted directory — and its records replay
// when Start's delivery loop begins.
func New(cfg Config) (*Orderer, error) {
	o := &Orderer{
		cfg:     cfg.withDefaults(),
		seenCur: newSeenGen(nil),
		stopCh:  make(chan struct{}),
	}
	// The graph is built as consensus delivers, so it is ready at the cut
	// instead of being built there.
	if o.cfg.BuildGraph {
		o.graph = depgraph.NewBuilder()
	}
	if o.cfg.Dir != "" {
		if err := o.openLog(); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// Start launches the consensus instance, the receive loop, and the
// delivery loop.
func (o *Orderer) Start() {
	o.cfg.Consensus.Start()
	o.wg.Add(2)
	go o.recvLoop()
	go o.deliverLoop()
}

// Stop shuts the orderer down cleanly, syncing and closing the durable
// log.
func (o *Orderer) Stop() {
	o.stopOnce.Do(func() {
		close(o.stopCh)
		o.cfg.Consensus.Stop()
		o.cfg.Endpoint.Close()
	})
	o.wg.Wait()
	if o.dlog != nil {
		if err := o.dlog.Close(); err != nil {
			o.cfg.Logf("orderer %s: close orderer log: %v", o.cfg.ID, err)
		}
	}
}

// Kill stops the orderer simulating a process crash: the orderer log —
// and a durable consensus adapter's storage — drops its unsynced bytes,
// as a power loss drops the page cache, instead of syncing on close.
// Everything already fsynced survives for the next open.
func (o *Orderer) Kill() {
	o.stopOnce.Do(func() {
		close(o.stopCh)
		if c, ok := o.cfg.Consensus.(consensus.Crasher); ok {
			c.Crash()
		} else {
			o.cfg.Consensus.Stop()
		}
		o.cfg.Endpoint.Close()
	})
	o.wg.Wait()
	if o.dlog != nil {
		if err := o.dlog.Crash(); err != nil {
			o.cfg.Logf("orderer %s: crash orderer log: %v", o.cfg.ID, err)
		}
	}
}

// Stats returns a snapshot of the orderer's counters.
func (o *Orderer) Stats() Stats {
	s := Stats{
		BlocksCut:        o.stats.blocksCut.Load(),
		TxnsOrdered:      o.stats.txnsOrdered.Load(),
		RequestsRejected: o.stats.requestsRejected.Load(),
		GraphBuildNanos:  o.stats.graphBuildNanos.Load(),
		DurableHeight:    o.stats.durableHeight.Load(),
		RecoveredEntries: o.stats.recoveredEntries.Load(),
	}
	if o.dlog != nil {
		ls := o.dlog.Stats()
		s.LogAppends = ls.Appends
		s.LogSyncs = ls.Syncs
	}
	return s
}

// recvLoop routes inbound messages: client requests enter consensus,
// consensus messages step the protocol instance.
func (o *Orderer) recvLoop() {
	defer o.wg.Done()
	for msg := range o.cfg.Endpoint.Recv() {
		switch m := msg.Payload.(type) {
		case *types.RequestMsg:
			o.handleRequest(msg.From, m)
		default:
			// Everything else on an orderer's socket is consensus
			// traffic; unknown types are discarded by the instance.
			o.cfg.Consensus.Step(msg.From, msg.Payload)
		}
	}
}

// handleRequest validates a client request (signature, access control)
// and submits it for total ordering, per the paper: "orderers act as
// trusted entities to restrict the processing of requests that are sent
// by unauthorized clients".
func (o *Orderer) handleRequest(from types.NodeID, m *types.RequestMsg) {
	tx := m.Tx
	if tx == nil {
		o.stats.requestsRejected.Add(1)
		return
	}
	if tx.Client != from {
		// The transport authenticates senders; a mismatched client field
		// is a forgery attempt.
		o.stats.requestsRejected.Add(1)
		return
	}
	if !o.cfg.ACL.Check(tx.App, tx.Client) {
		o.stats.requestsRejected.Add(1)
		return
	}
	if o.cfg.VerifyClientSigs {
		digest := tx.Digest()
		if err := o.cfg.Verifier.Verify(string(tx.Client), digest[:], tx.Sig); err != nil {
			o.stats.requestsRejected.Add(1)
			return
		}
	}
	_ = o.cfg.Consensus.Submit(encodeTxPayload(tx))
}

// deliverLoop consumes the totally ordered stream and assembles blocks.
func (o *Orderer) deliverLoop() {
	defer o.wg.Done()
	timer := time.NewTimer(o.cfg.MaxBlockInterval)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	timerArmed := false
	// Replay the durable log before consuming live entries: the retained
	// window is re-processed with multicast live (re-announcing blocks
	// executors may have missed — they drop anything below their height)
	// and delivery resumes where the last fsynced cut left off. A
	// partially assembled block stays pending, so arm the timer for it.
	o.replayLog()
	if len(o.pending) > 0 {
		timer.Reset(o.cfg.MaxBlockInterval)
		timerArmed = true
	}
	for {
		select {
		case <-o.stopCh:
			return
		case entry, ok := <-o.cfg.Consensus.Committed():
			if !ok {
				return
			}
			if o.dlog != nil {
				if o.cfg.ResumeSeq && entry.Seq <= o.lastSeq {
					// A durable adapter redelivering its committed prefix
					// after a restart; the log already replayed these.
					break
				}
				o.logEntry(entry.Seq, entry.Payload)
				if entry.Seq > o.lastSeq {
					o.lastSeq = entry.Seq
				}
			}
			o.handleEntry(entry)
			// Manage the block timer: armed while a partial block is
			// pending, so a lull still cuts a block.
			if len(o.pending) > 0 && !timerArmed {
				timer.Reset(o.cfg.MaxBlockInterval)
				timerArmed = true
			} else if len(o.pending) == 0 && timerArmed {
				if !timer.Stop() {
					<-timer.C
				}
				timerArmed = false
			}
		case <-timer.C:
			timerArmed = false
			// The timeout path must stay deterministic across orderers:
			// rather than cutting locally, order a cut marker; every
			// orderer cuts when the marker is delivered. Any orderer may
			// request the cut; stale or duplicate markers are ignored at
			// delivery.
			if len(o.pending) > 0 && !o.cutRequested {
				o.cutRequested = true
				_ = o.cfg.Consensus.Submit(encodeCutPayload(o.nextNum, o.cfg.ID))
			}
		}
	}
}

// handleEntry processes one ordered payload.
func (o *Orderer) handleEntry(entry consensus.Entry) {
	if len(entry.Payload) == 0 {
		return
	}
	switch entry.Payload[0] {
	case payloadTx:
		tx, err := types.UnmarshalTransaction(entry.Payload[1:])
		if err != nil {
			o.cfg.Logf("orderer %s: dropping malformed ordered payload: %v", o.cfg.ID, err)
			return
		}
		if o.seenCur.set[tx.ID] || o.seenPrev.set[tx.ID] {
			return // duplicate from a consensus retry; exactly-once per ID
		}
		if o.cfg.BuildGraph && (!canonicalKeys(tx.Op.Reads) || !canonicalKeys(tx.Op.Writes)) {
			// Graph generation requires canonical (sorted, duplicate-free)
			// access sets, and the sets are covered by the client signature
			// — they cannot be repaired here without invalidating it.
			// Clients canonicalize before signing (workload.Finalize), so
			// only hostile or buggy submissions reach this branch; the
			// check is deterministic, so every orderer drops identically.
			o.stats.requestsRejected.Add(1)
			o.cfg.Logf("orderer %s: dropping tx %s with non-canonical access sets", o.cfg.ID, tx.ID)
			return
		}
		o.seenCur.add(tx.ID)
		o.pending = append(o.pending, tx)
		o.pendingBytes += tx.ApproxSize()
		if o.graph != nil {
			// Extend the block's dependency graph as the stream is
			// delivered instead of at the cut. The build-time stat samples
			// one append in 16 (scaled back up): per-append clock reads
			// would cost a noticeable fraction of the sub-microsecond
			// append itself on this hot path.
			set := depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
			if o.graphTick&15 == 0 {
				start := time.Now()
				o.graph.Add(set)
				o.stats.graphBuildNanos.Add(16 * uint64(time.Since(start)))
			} else {
				o.graph.Add(set)
			}
			o.graphTick++
		}
		if len(o.pending) >= o.cfg.MaxBlockTxns || o.pendingBytes >= o.cfg.MaxBlockBytes {
			o.cutBlock()
		}
	case payloadCut:
		r := types.NewByteReader(entry.Payload[1:])
		blockNum := r.U64()
		if r.Err() == nil && blockNum == o.nextNum && len(o.pending) > 0 {
			o.cutBlock()
		}
		if blockNum >= o.nextNum {
			o.cutRequested = false
		}
	default:
		o.cfg.Logf("orderer %s: unknown payload tag %d", o.cfg.ID, entry.Payload[0])
	}
}

// cutBlock seals the pending transactions into a block and multicasts
// the signed NEWBLOCK with the graph built as its transactions were
// delivered.
func (o *Orderer) cutBlock() {
	txns := o.pending
	o.pending = nil
	o.pendingBytes = 0
	o.cutRequested = false

	block := types.NewBlock(o.nextNum, o.prevHash, txns)
	o.nextNum++
	o.prevHash = block.Hash()

	var graph *depgraph.Graph
	if o.graph != nil {
		graph = o.graph.Cut()
	}

	// Bound the dedupe set with a two-generation rotation: the IDs of the
	// block just cut always survive at least one more rotation (in
	// seenPrev), so a late consensus retry of a recent transaction can
	// never be re-ordered — unlike a wholesale reset, which forgot them.
	// Rotation happens before the durable cut record is written, so the
	// record captures the post-cut generations a replay must restore.
	if len(o.seenCur.ids) >= 4*o.cfg.MaxBlockTxns {
		o.seenPrev = o.seenCur
		o.seenCur = newSeenGen(make([]types.TxID, 0, 4*o.cfg.MaxBlockTxns))
	}

	// Make the cut durable before any executor can learn of it: append
	// and fsync the cut record ahead of the NEWBLOCK multicast, so a
	// crashed orderer can never have shipped a block it does not
	// remember. Replay re-cuts are already on disk.
	if o.dlog != nil && !o.replaying {
		o.logCut(block.Header.Number, o.prevHash)
	}

	msg := &types.NewBlockMsg{
		Block:   block,
		Graph:   graph,
		Apps:    block.Apps(),
		Orderer: o.cfg.ID,
	}
	digest := msg.Digest()
	msg.Sig = o.cfg.Signer.Sign(digest[:])
	if err := transport.Multicast(o.cfg.Endpoint, o.cfg.Executors, msg); err != nil {
		o.cfg.Logf("orderer %s: multicast block %d: %v", o.cfg.ID, block.Header.Number, err)
	}

	o.stats.blocksCut.Add(1)
	o.stats.txnsOrdered.Add(uint64(len(txns)))
}
