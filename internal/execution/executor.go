// Package execution implements the executor node of the OXII paradigm
// (Section IV-C): validation of NEWBLOCK messages against an orderer
// quorum, dependency-graph-driven parallel execution of the node's own
// applications' transactions (Algorithm 1), lazy multicast of execution
// results in COMMIT messages when another application needs them
// (Algorithm 2), and quorum-checked state updates (Algorithm 3).
//
// The three procedures of the paper run concurrently here as: a worker
// pool executing ready transactions, an actor loop owning all bookkeeping
// (scheduling state, vote counting, flush decisions), and the transport
// receive loop feeding the actor. Algorithm 1's "all Pre(x) in Ce ∪ Xe"
// predicate is implemented as an indegree countdown: a predecessor
// satisfies its successors on the first of {executed locally, committed
// globally}, which is equivalent to the paper's repeated scan but O(V+E)
// per block. Each transaction of an admitted block has one record
// (txState) holding one predecessor list and one successor list over the
// single dependency relation: the block graph's edges first, then the
// cross-block edges below.
//
// # Cross-block pipelining
//
// The paper's executor runs block n to full commitment before touching
// block n+1, a barrier that caps throughput at (block latency x block
// size). Here the executor instead admits up to Config.PipelineDepth
// blocks into a sliding execution window. The conflict index
// (depgraph.Index) that orderers run over one block runs here over the
// whole window and adds ordering edges, in (block, index) order, from an
// admitted block's transactions to conflicting, still-uncommitted
// transactions of earlier in-flight blocks, into the same edge lists as
// the block's own graph edges; each block's overlay chains to its
// predecessor's so reads observe the newest uncommitted write below them. Finalization (ledger append + store apply, Algorithm 3's
// quorum rules) remains strictly in block order, so the ledger and the
// incremental state hash are bit-identical to the barrier version at any
// depth; PipelineDepth=1 restores the barrier exactly (the window never
// holds an earlier block, so the index adds no edge).
//
// # Intake
//
// A block reaches the executor as one signed NEWBLOCK per orderer, each
// carrying the block and its dependency graph. Each NEWBLOCK is that
// orderer's one vote for the block and its one content candidate,
// charged to the orderer's byte budget until the block's content is
// installed. The first digest to gather OrderQuorum votes endorses the
// block, and one install binds the content of an orderer that voted that
// digest, validating header, transaction root and graph once. Content
// that fails validation is rejected and the tally keeps counting. Only
// installed content is admitted into the pipeline window, so nothing
// executes — and no COMMIT vote leaves the node — before a quorum of
// orderers vouches for the block.
//
// # Speculative commit-wait bypass
//
// Algorithm 1 already lets a transaction run as soon as its predecessors
// are in Ce ∪ Xe, so a locally executed predecessor never stalls its
// successors. A predecessor of another application is different: this
// node cannot execute it, so the paper's successor waits for tau(A)
// matching COMMIT votes — a network round-trip on the critical path. The
// executor instead adopts the predecessor's first (pre-quorum) vote
// result as a speculative value, executes dependents against it, and
// re-validates when the predecessor commits: a matching committed digest
// promotes the speculative results in place; a mismatch (or an abort
// flip) revokes the predecessor's overlay writes and cascades
// re-execution through the exact set of transactions that read the
// invalidated value (speculation lineage is recorded per dispatch).
// Speculative results stay internal until validated: the COMMIT multicast
// (and the node's own vote) for a result that read any uncommitted input
// is buffered per transaction and released only once every
// speculated-upon input has committed with the digest the execution read
// — so honest agents never launder a result derived from unconfirmed
// state. Honest agents execute deterministically, so in
// fault-free runs every speculation validates and ledger and state are
// bit-identical to the paper's stall-for-quorum executor.
//
// Speculation is the only commit-wait path, and it costs nothing where
// there is nothing to wait for: at tau(A) = 1 the first vote is the
// quorum, so no vote is ever adopted, and a local result whose inputs
// have all committed commits on this node's own vote before it satisfies
// a single successor — its successors read committed values, register no
// lineage, and no result digest is computed on its behalf.
//
// # Durability
//
// With Config.Persist set, the in-order finalize boundary becomes a
// write-ahead-log append: the pump drains the window's completed prefix
// as one batch, appends every block's finalization record (block, final
// results, state delta, quorum evidence, post-apply state hash) to the
// WAL, fsyncs once for the whole batch (blocks completing within one
// pump pass share the fsync), and only then externalizes any block —
// ledger append, OnCommit hook, client notification. A crash therefore
// loses no externalized block, and a restarted executor resumes
// admission at the recovered ledger height (pump reads its initial
// cursor from the ledger, which persist.Open restores from snapshot +
// WAL tail). With Persist nil, nothing changes: finalization stays
// purely in memory.
//
// # State sync
//
// Nothing in the protocol retransmits a missed NEWBLOCK, so a restarted
// or partitioned executor used to be stranded: the orderers had moved
// on, and the node could never admit the next block.
// With Config.StallTimeout set (node sets it to ten block-cut intervals
// on every executor with a data dir), a pipeline-progress watchdog
// detects the stall (no finalize and no admission for the deadline while
// peers have announced higher blocks) and catches up from peers instead: it
// requests the missing heights one peer at a time (StateSyncRequestMsg /
// StateSyncResponseMsg, with per-response byte budgets, response
// deadlines, and jittered exponential backoff across peers), and peers
// answer from their durable artifacts — finalization records straight
// from the WAL, or snapshot chunks when the requester is below the
// peer's WAL truncation point. Every record is verified before adoption
// (chain linkage, transaction commitment, delta consistency, recomputed
// quorum-evidence digest, endorsement count and signatures, post-apply
// state hash), so a Byzantine peer cannot feed divergent state: its
// response is rejected and the requester retries elsewhere. See
// statesync.go.
package execution

import (
	"fmt"
	"log"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/eventq"
	"parblockchain/internal/ledger"
	"parblockchain/internal/persist"
	"parblockchain/internal/state"
	"parblockchain/internal/telemetry"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// CommitHook observes every finalized block with its final per-transaction
// results, in block order. Benchmarks and clients use it for latency and
// throughput accounting.
type CommitHook func(block *types.Block, results []types.TxResult)

// Config parameterizes one executor node.
type Config struct {
	// ID is this executor's identity.
	ID types.NodeID
	// Endpoint is the node's transport attachment; the executor owns its
	// Recv loop.
	Endpoint transport.Endpoint
	// Registry holds the contracts installed on this node; the node is an
	// agent exactly for the applications present in it.
	Registry *contract.Registry
	// AgentsOf maps every application to its agent set Sigma(A). Used to
	// validate that COMMIT results come from authorized agents.
	AgentsOf map[types.AppID][]types.NodeID
	// Tau maps applications to the required number of matching results
	// tau(A); missing entries default to 1.
	Tau map[types.AppID]int
	// OrderQuorum is the number of distinct orderers that must endorse
	// one digest before the executor acts on a block (f+1 under PBFT).
	// Each orderer endorses once, with its NEWBLOCK.
	OrderQuorum int
	// Executors lists all executor nodes: the COMMIT multicast targets.
	Executors []types.NodeID
	// Store is the node's committed blockchain state.
	Store *state.KVStore
	// Ledger is the node's copy of the block ledger.
	Ledger *ledger.Ledger
	// Workers sizes the execution worker pool. Zero means DefaultWorkers,
	// which every deployment runs; the execution package's own tests and
	// benchmarks vary it.
	Workers int
	// PipelineDepth bounds the sliding window of blocks admitted into
	// execution before the oldest finalizes. Zero means
	// DefaultPipelineDepth, which every deployment runs; 1 restores the
	// strict per-block barrier of the paper, and the execution package's
	// own tests and benchmarks vary it.
	PipelineDepth int
	// StallTimeout arms the pipeline-progress watchdog: when nothing
	// finalizes and nothing admissible arrives for this long while peers
	// have announced blocks beyond the local height, the executor starts
	// requesting the missing heights from peers (state sync), with
	// timeout, retry, and jittered exponential backoff across peers.
	// Zero disables the watchdog — and with it the requester side of
	// state sync. Serving peers needs Persist, so a deployment arms the
	// watchdog exactly when its executors are durable (node does).
	StallTimeout time.Duration
	// Signer signs outbound COMMIT messages.
	Signer cryptoutil.Signer
	// Verifier checks NEWBLOCK and COMMIT signatures.
	Verifier cryptoutil.Verifier
	// VerifySigs enables signature verification on inbound messages.
	VerifySigs bool
	// OnCommit, when non-nil, observes every finalized block.
	OnCommit CommitHook
	// NotifyClients makes this executor send a CommitNotifyMsg to each
	// transaction's client on finalization. Enable it on exactly one
	// executor of a TCP cluster; in-process deployments use OnCommit.
	NotifyClients bool
	// Tracer, when non-nil, records every block's lifecycle span timeline
	// (consensus delivery → admission → first dispatch → execution drain →
	// seal quorum → finalize → WAL fsync → externalize) into per-stage
	// latency histograms and a ring of the slowest traces. Nil disables
	// tracing entirely: blocks carry a nil trace and every mark is a
	// pointer-nil check — no clock reads on the hot path.
	Tracer *telemetry.BlockTracer
	// Persist, when non-nil, makes finalization durable: every block's
	// finalization record is appended to the write-ahead log (and the
	// batch fsynced) before the block's effects are externalized, and
	// periodic snapshots let a restart recover from snapshot + WAL tail.
	// Store and Ledger must be the ones persist.Open recovered. Nil keeps
	// ledger and state in memory.
	Persist *persist.Manager
	// Logf receives diagnostic messages; nil uses log.Printf.
	Logf func(format string, args ...any)

	// newQueue, when non-nil, builds the ready queue in place of the
	// dependents-first readyQueue; tests inject a seeded dispatch order.
	newQueue func() scheduler
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.OrderQuorum <= 0 {
		c.OrderQuorum = 1
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = DefaultPipelineDepth
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// DefaultPipelineDepth is the execution window used when Config leaves
// PipelineDepth zero.
const DefaultPipelineDepth = 4

// DefaultWorkers is the worker pool used when Config leaves Workers
// zero: one worker per vCPU of the 8-vCPU node the paper's evaluation
// runs each executor on.
const DefaultWorkers = 8

// The buffering horizon: NEWBLOCK and COMMIT messages
// for blocks at or beyond height + max(horizonBlocks*PipelineDepth,
// DefaultMinHorizon) are dropped instead of buffered, so a flood of
// far-future messages cannot grow the per-block maps without bound. The
// horizon scales with the pipeline window above a fixed 64-block floor.
// The floor used to be 512: nothing in the protocol retransmitted a
// dropped NEWBLOCK, so the horizon had to swallow every block an honest
// orderer could legitimately cut ahead of a lagging executor — dropping
// one would have stalled the node forever. Peer-served state sync
// removed that constraint (a dropped announcement is recovered from any
// peer's WAL), so the floor now only needs to cover ordinary run-ahead
// jitter, and far-future traffic is cheap to shed.
const (
	horizonBlocks = 4
	// DefaultMinHorizon is the horizon floor in blocks.
	DefaultMinHorizon = 64
)

// maxOrdererStreamBytes bounds the total block content — NEWBLOCK bodies
// — buffered per sending orderer across every in-horizon block until
// that block's content is installed, so a faulty orderer announcing many
// blocks cannot multiply the per-block bound by the horizon width. Per-orderer (not global) so one hostile orderer
// exhausts only its own budget, never an honest peer's. Honest steady
// state is window-depth blocks of at most MaxBlockBytes (~2 MB) each —
// two orders of magnitude below the budget (a var so tests can lower it).
var maxOrdererStreamBytes = 64 << 20

// maxCommitBytesPerSender bounds the COMMIT payload buffered per sending
// executor across every not-yet-applied block. Per-sender and in bytes —
// not a per-block message count — because honest volume varies enormously
// (a COMMIT carries one result or a whole block's), while an honest
// sender's outstanding buffered results are bounded by its own pipeline
// window; a flood exhausts only the flooder's budget. Messages beyond the
// budget are dropped and counted (a var so tests can lower it).
var maxCommitBytesPerSender = 128 << 20

// State-sync transfer budgets (vars so tests can lower them). Responses
// are bounded per message, not per peer-lifetime: a requester asks one
// peer at a time and verifies everything before asking for more, so the
// outstanding unverified payload is one response's worth.
var (
	// maxSyncRespBytes bounds the finalization-record payload of one
	// records response; servers clamp the requester's MaxBytes to it.
	maxSyncRespBytes = 8 << 20
	// maxSyncChunkBytes is the snapshot chunk size servers slice
	// snapshot files into.
	maxSyncChunkBytes = 4 << 20
	// maxSyncSnapshotBytes bounds the reassembled snapshot a requester
	// will buffer, so a hostile peer cannot claim an absurd chunk count
	// and feed chunks forever.
	maxSyncSnapshotBytes = 1 << 30
)

// Adaptive speculation throttle parameters (vars so tests can tighten
// them): once an agent's leading votes have been adopted at least
// specThrottleMinSamples times and the fraction revoked at commit time
// reaches specThrottleMissRate, its leads stop being adopted.
var (
	specThrottleMinSamples = 8
	specThrottleMissRate   = 0.5
)

// Stats exposes executor counters for experiments.
type Stats struct {
	// TxExecuted counts transactions executed locally.
	TxExecuted uint64
	// TxCommitted counts transactions committed (including aborted ones).
	TxCommitted uint64
	// TxAborted counts transactions whose final result is an abort.
	TxAborted uint64
	// CommitMsgsSent counts outbound COMMIT multicasts (per destination
	// set, not per destination).
	CommitMsgsSent uint64
	// BlocksCommitted counts finalized blocks.
	BlocksCommitted uint64
	// MsgsDroppedFuture counts messages dropped by the buffering bounds:
	// block number at or beyond the horizon (height +
	// max(4*PipelineDepth, DefaultMinHorizon); dropped announcements are
	// recovered via peer state sync), or a per-block COMMIT buffer at
	// capacity.
	MsgsDroppedFuture uint64
	// SpecExecuted counts executions dispatched with at least one
	// uncommitted (speculated-upon) input. Always 0 when every tau is 1.
	SpecExecuted uint64
	// SpecHits counts speculative results whose buffered vote was
	// released after every speculated-upon input committed with the
	// digest the execution read.
	SpecHits uint64
	// SpecMisses counts speculation invalidations: a committed digest
	// diverged from the value a dependent read (or from an adopted
	// pre-quorum vote), revoking the speculative result.
	SpecMisses uint64
	// SpecReexecs counts executions re-dispatched by mismatch cascades.
	SpecReexecs uint64
	// SpecThrottled counts leading votes not adopted because the voting
	// agent's adopted-vote miss rate crossed the throttle threshold.
	SpecThrottled uint64
	// SyncRequests counts state-sync requests sent to peers.
	SyncRequests uint64
	// SyncServed counts state-sync responses served to peers.
	SyncServed uint64
	// SyncRecordsAdopted counts finalization records adopted from peers
	// after verification.
	SyncRecordsAdopted uint64
	// SyncSnapshotsAdopted counts peer snapshots adopted after
	// verification.
	SyncSnapshotsAdopted uint64
	// SyncRejected counts state-sync responses (or records within them)
	// rejected by verification — tampered content, broken chain linkage,
	// missing quorum evidence, or a state-hash mismatch.
	SyncRejected uint64
}

type eventKind int

const (
	evMsg eventKind = iota + 1
	evExecDone
	evTick
	evStop
)

type event struct {
	kind   eventKind
	msg    transport.Message
	num    uint64
	idx    int
	epoch  uint32
	result types.TxResult
}

// workItem is one ready transaction handed to the worker pool. It carries
// the transaction pointer itself, so a worker reads no per-transaction
// array of the block state. epoch tags the execution attempt: a
// speculation cascade bumps the transaction's epoch and re-dispatches,
// and the result of a disowned (stale-epoch) attempt is discarded on
// arrival.
type workItem struct {
	bs    *blockState
	idx   int
	tx    *types.Transaction
	epoch uint32
}

// Executor is one executor node.
type Executor struct {
	cfg     Config
	mailbox *eventq.Queue[event]
	work    scheduler

	// State owned by the actor loop.
	blocks         map[uint64]*blockState
	pendingCommits map[uint64][]*types.CommitMsg
	halted         bool

	// Pipeline state owned by the actor loop: the admission cursor, the
	// hash chain over admitted blocks (which may run ahead of the
	// ledger), the in-flight window in block order, and the cross-block
	// conflict index over the window.
	admitInit bool
	nextAdmit uint64
	admitPrev types.Hash
	window    []*blockState
	index     *depgraph.Index

	// streamBytes and commitBytes track, per sender, the uninstalled block
	// content and the COMMIT payload currently buffered across all blocks (the
	// maxOrdererStreamBytes / maxCommitBytesPerSender budgets); owned by
	// the actor loop.
	streamBytes map[types.NodeID]int
	commitBytes map[types.NodeID]int

	// Watchdog and state-sync requester state, owned by the actor loop
	// (statesync.go): when the pipeline makes no progress for
	// Config.StallTimeout while peers have announced blocks beyond the
	// local height, the executor requests the missing heights from peers.
	lastProgress time.Time
	maxSeen      uint64 // one past the highest block number peers announced
	sync         syncState
	nextProbe    time.Time // earliest moment a silent node may probe again
	tickQuit     chan struct{}

	// voterScore tracks, per agent, how many of its leading votes this
	// node adopted speculatively and how many of those adoptions missed
	// (the committed digest diverged). Owned by the actor loop; feeds the
	// adaptive speculation throttle in maybeAdoptVote.
	voterScore map[types.NodeID]*voterScore

	stats struct {
		executed      atomic.Uint64
		committed     atomic.Uint64
		aborted       atomic.Uint64
		commitMsg     atomic.Uint64
		blocks        atomic.Uint64
		droppedFuture atomic.Uint64
		specExec      atomic.Uint64
		specHits      atomic.Uint64
		specMiss      atomic.Uint64
		specReexec    atomic.Uint64
		specThrottled atomic.Uint64
		syncReqs      atomic.Uint64
		syncServed    atomic.Uint64
		syncRecs      atomic.Uint64
		syncSnaps     atomic.Uint64
		syncRejected  atomic.Uint64
	}

	// mirror holds atomic copies of actor-owned values the ops server
	// needs: the actor loop stores on every change, scrapers (Status,
	// Healthy, registered gauges) load without touching actor state.
	mirror struct {
		windowLen    atomic.Int64           // pipeline window occupancy
		haltReason   atomic.Pointer[string] // first haltf reason; nil while running
		syncing      atomic.Bool
		lastProgress atomic.Int64  // unix nanos of the last pipeline progress
		maxSeen      atomic.Uint64 // one past the highest peer-announced block
		streamBytes  atomic.Int64  // buffered uninstalled content, all orderers
		commitBytes  atomic.Int64  // buffered COMMIT payload, all senders
	}

	stopOnce sync.Once
	wg       sync.WaitGroup
}

// vote is one orderer's endorsement of a block: the digest it signed
// over its NEWBLOCK, and the header that digest commits to.
type vote struct {
	digest types.Hash
	sig    []byte
	header types.BlockHeader
}

// candidate is the content of one orderer's NEWBLOCK — its transactions
// and its graph as signed — charged to that orderer's
// maxOrdererStreamBytes budget until the block's content is installed.
type candidate struct {
	txns  []*types.Transaction
	graph *depgraph.Graph
	bytes int // approximate buffered payload size
}

// blockState tracks one in-flight block through intake (one vote tally,
// one install; see the package comment), execution, and commitment.
type blockState struct {
	num uint64

	// trace is the block's lifecycle span timeline; nil unless
	// Config.Tracer is set. Marks use atomic CAS internally, so the
	// fsync batch path may stamp it off the actor loop.
	trace *telemetry.BlockTrace

	// Intake: one vote and at most one candidate per orderer (both maps
	// allocated on first use), and the digests whose endorsed content
	// failed structural validation.
	votes    map[types.NodeID]vote
	cands    map[types.NodeID]*candidate
	rejected []types.Hash

	// ev is the endorsing vote, and evidence every orderer that cast it,
	// with signatures; evidence is nil until a digest reaches quorum. Both
	// go into the durable finalization record unchanged.
	ev       vote
	evidence []persist.Endorsement

	// contentDone reports the block's transaction list and graph are
	// installed from endorsed content: block and graph hold it. Only a
	// contentDone block is admitted into the window.
	contentDone bool
	block       *types.Block
	graph       *depgraph.Graph

	// Execution state (Algorithm 1), sized at admission: txs holds one
	// record per transaction, indexed by block position.
	started    bool
	overlay    *state.BlockOverlay
	txns       []*types.Transaction
	txs        []txState
	localTotal int
	localDone  int

	// Commitment (Algorithm 3). final is kept apart from txs because the
	// ledger, the WAL record and the OnCommit hook keep it.
	final       []types.TxResult
	commitCount int
	complete    bool // every transaction committed; awaiting in-order finalize

	// Algorithm 2 buffer (this node's Xe awaiting multicast).
	outBuf []types.TxResult
}

// txState is one transaction's execution, commitment and speculation
// state in an admitted block.
type txState struct {
	// pred and succ are the transaction's dependency edges: the block
	// graph's edges first, then the conflict index's edges across the
	// in-flight window, in (block, index) order. pred keeps every
	// predecessor that was uncommitted at admission — a satisfied one
	// imposes no wait, but a dispatch must still register lineage on its
	// uncommitted value — and is released when the transaction commits.
	// succ lists the successors whose remaining count this transaction's
	// satisfaction releases.
	pred, succ []txRef
	remaining  int32 // unsatisfied predecessor count
	isLocal    bool
	satisfied  bool // predecessor event fired (Ce ∪ Xe membership)
	inflight   bool
	execLocal  bool // Xe membership
	committed  bool // Ce membership
	tally      voteTally

	// Speculation. epoch tags the current execution attempt (bumped per
	// cascade invalidation, so disowned worker results are discarded);
	// specActive and specDigest describe the uncommitted result currently
	// recorded in the overlay (local execution or an adopted pre-quorum
	// vote); gated holds an executed result whose vote is withheld until
	// its lineage resolves; unresolved counts the speculated-upon inputs
	// of the current execution that have not yet committed; specDeps lists
	// the dependents that registered lineage on the uncommitted value.
	epoch      uint32
	unresolved int32
	specActive bool
	specDigest types.Hash
	gated      *types.TxResult
	specDeps   []specDep
	// specVoter names the agent whose leading vote the current speculative
	// value was adopted from ("" for local executions and unadopted
	// transactions); promoteOrCascade charges a commit-time digest
	// mismatch against it for the adaptive speculation throttle.
	specVoter types.NodeID
}

// txRef addresses one transaction of an in-flight block.
type txRef struct {
	bs  *blockState
	idx int
}

// tx returns the addressed transaction's state.
func (r txRef) tx() *txState { return &r.bs.txs[r.idx] }

// specDep records one dependent's speculation lineage on a transaction's
// uncommitted value: which transaction read it, at which execution epoch,
// and the digest of the result it read (the zero hash when the value was
// revoked or not yet produced at dispatch time — which can never match a
// committed digest, so such a dependent is guaranteed to re-execute).
type specDep struct {
	txRef
	epoch uint32
	seen  types.Hash
}

// maxAgents bounds an application's agent set: a vote tally gives each
// agent one bit of a uint64 and reserves selfBit.
const (
	maxAgents = 63
	selfBit   = 63
)

// voteTally counts one transaction's COMMIT votes (Algorithm 3's "matching
// records in Re(x) >= tau(A)"). voters holds a bit per voter that already
// voted: its index in AgentsOf[app], or selfBit for this node's own vote
// when the configuration does not list it. The first result voted leads
// and is kept inline with its count; results that diverge from it are
// counted in a map allocated on the first divergence, which honest
// agents never cause.
type voteTally struct {
	voters uint64
	count  int // votes matching lead
	lead   types.TxResult
	leadD  types.Hash // lead's digest
	others map[types.Hash]*voteRec
}

type voteRec struct {
	count  int
	result types.TxResult
}

// add counts a vote by the voter holding bit. counted is false for a
// voter that already voted. won is the result that reached tau with this
// vote, if any. d is the vote's digest, computed once per vote and only
// when won is nil: a first vote that reaches tau alone is never hashed.
func (t *voteTally) add(bit uint, r *types.TxResult, tau int) (counted bool, won *types.TxResult, d types.Hash) {
	if t.voters&(1<<bit) != 0 {
		return false, nil, d
	}
	t.voters |= 1 << bit
	if t.count == 0 {
		if tau <= 1 {
			return true, r, d
		}
		t.lead, t.leadD, t.count = *r, r.Digest(), 1
		return true, nil, t.leadD
	}
	d = r.Digest()
	if d == t.leadD {
		if t.count++; t.count >= tau {
			return true, &t.lead, d
		}
		return true, nil, d
	}
	rec := t.others[d]
	if rec == nil {
		if t.others == nil {
			t.others = make(map[types.Hash]*voteRec, 1)
		}
		rec = &voteRec{result: *r}
		t.others[d] = rec
	}
	if rec.count++; rec.count >= tau {
		return true, &rec.result, d
	}
	return true, nil, d
}

// voterScore is one agent's adoption track record: how many of its
// leading votes this node adopted speculatively, and how many of those
// were revoked at commit time. The ratio drives the adaptive throttle —
// an agent whose adopted votes keep missing stops being worth the
// cascade cost, so its leads are ignored (counted, never adopted) once
// the miss rate crosses specThrottleMissRate over at least
// specThrottleMinSamples adoptions. The score never decays: a diverging
// agent is diverging for the rest of the run (honest agents are
// deterministic), and quorum commits are unaffected either way.
type voterScore struct {
	adopted uint64
	missed  uint64
}

// CheckAgents rejects an application with more agents than a vote tally
// has bits for (maxAgents), naming the application.
func CheckAgents(agentsOf map[types.AppID][]types.NodeID) error {
	for app, agents := range agentsOf {
		if len(agents) > maxAgents {
			return fmt.Errorf("execution: application %s has %d agents, at most %d are supported",
				app, len(agents), maxAgents)
		}
	}
	return nil
}

// New creates an executor node. Call Start before use. It panics with
// CheckAgents' error on an application with more than 63 agents.
func New(cfg Config) *Executor {
	if err := CheckAgents(cfg.AgentsOf); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	e := &Executor{
		cfg:            cfg,
		mailbox:        eventq.New[event](),
		blocks:         make(map[uint64]*blockState),
		pendingCommits: make(map[uint64][]*types.CommitMsg),
		index:          depgraph.NewIndex(),
		streamBytes:    make(map[types.NodeID]int),
		commitBytes:    make(map[types.NodeID]int),
		lastProgress:   time.Now(),
		tickQuit:       make(chan struct{}),
		voterScore:     make(map[types.NodeID]*voterScore),
	}
	if cfg.newQueue != nil {
		e.work = cfg.newQueue()
	} else {
		e.work = newReadyQueue()
	}
	e.mirror.lastProgress.Store(e.lastProgress.UnixNano())
	return e
}

// Start launches the receive loop, the actor loop, the worker pool, and
// (when the watchdog is armed) the stall ticker.
func (e *Executor) Start() {
	e.wg.Add(2 + e.cfg.Workers)
	go e.recvLoop()
	go e.actorLoop()
	for i := 0; i < e.cfg.Workers; i++ {
		go e.worker()
	}
	if e.cfg.StallTimeout > 0 {
		e.wg.Add(1)
		go e.ticker()
	}
}

// ticker feeds the actor loop periodic evTick events so the stall
// watchdog and the sync retry/backoff machinery run on the actor's own
// goroutine — the sync state needs no locking.
func (e *Executor) ticker() {
	defer e.wg.Done()
	interval := e.cfg.StallTimeout / 4
	if interval <= 0 {
		interval = e.cfg.StallTimeout
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.mailbox.Push(event{kind: evTick})
		case <-e.tickQuit:
			return
		}
	}
}

// Stop shuts the executor down.
func (e *Executor) Stop() {
	e.stopOnce.Do(func() {
		e.cfg.Endpoint.Close()
		close(e.tickQuit)
		e.mailbox.Push(event{kind: evStop})
		e.work.Close()
	})
	e.wg.Wait()
}

// Stats returns a snapshot of the executor's counters.
func (e *Executor) Stats() Stats {
	return Stats{
		TxExecuted:           e.stats.executed.Load(),
		TxCommitted:          e.stats.committed.Load(),
		TxAborted:            e.stats.aborted.Load(),
		CommitMsgsSent:       e.stats.commitMsg.Load(),
		BlocksCommitted:      e.stats.blocks.Load(),
		MsgsDroppedFuture:    e.stats.droppedFuture.Load(),
		SpecExecuted:         e.stats.specExec.Load(),
		SpecHits:             e.stats.specHits.Load(),
		SpecMisses:           e.stats.specMiss.Load(),
		SpecReexecs:          e.stats.specReexec.Load(),
		SpecThrottled:        e.stats.specThrottled.Load(),
		SyncRequests:         e.stats.syncReqs.Load(),
		SyncServed:           e.stats.syncServed.Load(),
		SyncRecordsAdopted:   e.stats.syncRecs.Load(),
		SyncSnapshotsAdopted: e.stats.syncSnaps.Load(),
		SyncRejected:         e.stats.syncRejected.Load(),
	}
}

// IsAgentFor reports whether this node is an agent of the application.
func (e *Executor) IsAgentFor(app types.AppID) bool {
	_, ok := e.cfg.Registry.Lookup(app)
	return ok
}

func (e *Executor) recvLoop() {
	defer e.wg.Done()
	for msg := range e.cfg.Endpoint.Recv() {
		e.mailbox.Push(event{kind: evMsg, msg: msg})
	}
}

// worker executes ready transactions against the block overlay, through a
// view bounded at the transaction's own block index: writes recorded at or
// above it are invisible, so an execution that lands out of graph order (a
// remote quorum satisfied this transaction's successor early, or a
// speculation cascade re-runs it) still reads exactly the state its
// dependency prefix produced. Reads are zero-copy on both levels: overlay
// hits are a lock-free map lookup and base-store hits take only a
// per-shard read lock, so workers executing non-conflicting transactions
// proceed without contending on shared state.
func (e *Executor) worker() {
	defer e.wg.Done()
	for {
		item, ok := e.work.Pop()
		if !ok {
			return
		}
		tx := item.tx
		result := types.TxResult{TxID: tx.ID, Index: item.idx}
		writes, err := e.cfg.Registry.Execute(tx.App, item.bs.overlay.At(item.idx), tx.Op)
		if err != nil {
			result.Aborted = true
			result.AbortReason = err.Error()
		} else {
			result.Writes = writes
		}
		e.stats.executed.Add(1)
		e.mailbox.Push(event{
			kind: evExecDone, num: item.bs.num, idx: item.idx,
			epoch: item.epoch, result: result,
		})
	}
}

func (e *Executor) actorLoop() {
	defer e.wg.Done()
	for {
		ev, ok := e.mailbox.Pop()
		if !ok {
			return
		}
		switch ev.kind {
		case evStop:
			e.mailbox.Close()
			return
		case evMsg:
			e.handleMsg(ev.msg)
		case evExecDone:
			e.handleExecDone(ev.num, ev.idx, ev.epoch, ev.result)
		case evTick:
			e.handleTick()
		}
	}
}

func (e *Executor) handleMsg(msg transport.Message) {
	if e.halted {
		return
	}
	switch m := msg.Payload.(type) {
	case *types.NewBlockMsg:
		e.handleNewBlock(msg.From, m)
	case *types.CommitMsg:
		e.handleCommitMsg(msg.From, m)
	case *types.StateSyncRequestMsg:
		e.handleSyncRequest(msg.From, m)
	case *types.StateSyncResponseMsg:
		e.handleSyncResponse(msg.From, m)
	default:
		// Unknown payloads are ignored; executors speak NEWBLOCK,
		// COMMIT, and the state-sync pair.
	}
}

// haltf stops the executor's protocol progress after a fault-model
// violation (a quorum endorsed a block that does not extend the local
// chain, or a synced snapshot contradicts its manifest) or a local
// storage failure (WAL, ledger or snapshot adoption). The first reason is
// kept for /statusz and /healthz.
func (e *Executor) haltf(format string, args ...any) {
	reason := fmt.Sprintf(format, args...)
	e.cfg.Logf("executor %s: halting: %s", e.cfg.ID, reason)
	e.halted = true
	e.mirror.haltReason.CompareAndSwap(nil, &reason)
}

// buffers reports whether a message for block num is worth buffering
// state for: the block is not committed yet and lies inside the
// bounded-buffering horizon (a message beyond it is counted as dropped).
// It first records that a peer announced num, feeding the stall
// watchdog's is-anyone-ahead signal — before the horizon drop on purpose:
// far-future traffic this node sheds is exactly the traffic that proves
// it is behind. A fabricated number from a hostile sender costs only
// periodic sync probes that peers answer with what they actually have;
// the capped backoff bounds the probe rate.
func (e *Executor) buffers(num uint64) bool {
	if num+1 > e.maxSeen {
		e.maxSeen = num + 1
		e.mirror.maxSeen.Store(e.maxSeen)
	}
	height := e.cfg.Ledger.Height()
	if num >= height+uint64(max(horizonBlocks*e.cfg.PipelineDepth, DefaultMinHorizon)) {
		e.stats.droppedFuture.Add(1)
		return false
	}
	return num >= height
}

// intakeState returns the state of the block a NEWBLOCK announces, or nil
// when the message has nothing left to contribute: the block is not
// buffered, or its content is already installed.
func (e *Executor) intakeState(num uint64) *blockState {
	if !e.buffers(num) {
		return nil
	}
	if bs := e.getBlockState(num); !bs.contentDone {
		return bs
	}
	return nil
}

// verified checks an inbound signature when verification is on, logging
// a rejection.
func (e *Executor) verified(kind string, from types.NodeID, digest types.Hash, sig []byte) bool {
	if !e.cfg.VerifySigs {
		return true
	}
	if err := e.cfg.Verifier.Verify(string(from), digest[:], sig); err != nil {
		e.cfg.Logf("executor %s: bad %s signature from %s: %v", e.cfg.ID, kind, from, err)
		return false
	}
	return true
}

// handleNewBlock counts an orderer's NEWBLOCK as its one vote and offers
// the block it carries as that orderer's content candidate, then endorses
// the block if the vote completed a quorum, installs whatever content the
// change made available, and pumps the pipeline.
func (e *Executor) handleNewBlock(from types.NodeID, m *types.NewBlockMsg) {
	if m.Block == nil || m.Graph == nil || m.Orderer != from {
		return
	}
	bs := e.intakeState(m.Block.Header.Number)
	if bs == nil {
		return
	}
	if _, dup := bs.votes[from]; dup {
		return
	}
	// Digest (a hash over every edge) only after the cheap early-outs:
	// redundant post-quorum announcements cost nothing.
	digest := m.Digest()
	if !e.verified("NEWBLOCK", from, digest, m.Sig) {
		return
	}
	if size := txBytes(m.Block.Txns); e.streamBytes[from]+size <= maxOrdererStreamBytes {
		if bs.cands == nil {
			bs.cands = make(map[types.NodeID]*candidate, 2)
		}
		bs.cands[from] = &candidate{txns: m.Block.Txns, graph: m.Graph, bytes: size}
		e.streamBytes[from] += size
		e.mirror.streamBytes.Add(int64(size))
	} else {
		e.cfg.Logf("executor %s: NEWBLOCK from %s for block %d exceeds its content budget",
			e.cfg.ID, from, bs.num)
	}
	if bs.votes == nil {
		bs.votes = make(map[types.NodeID]vote, e.cfg.OrderQuorum)
	}
	bs.votes[from] = vote{digest: digest, sig: m.Sig, header: m.Block.Header}
	e.endorse(bs)
	e.install(bs)
	e.pump()
}

// txBytes is the approximate payload size of a transaction list.
func txBytes(txns []*types.Transaction) int {
	n := 0
	for _, tx := range txns {
		if tx != nil {
			n += tx.ApproxSize()
		}
	}
	return n
}

// endorse sets the block's endorsement, if it has none, to the first
// digest not yet rejected that holds OrderQuorum votes. The evidence lists
// every orderer that cast the digest, sorted by node ID so the WAL record
// is deterministic.
func (e *Executor) endorse(bs *blockState) {
	if bs.evidence != nil {
		return
	}
	for _, v := range bs.votes {
		if slices.Contains(bs.rejected, v.digest) {
			continue
		}
		var evidence []persist.Endorsement
		for node, w := range bs.votes {
			if w.digest == v.digest {
				evidence = append(evidence, persist.Endorsement{Node: node, Sig: w.sig})
			}
		}
		if len(evidence) < e.cfg.OrderQuorum {
			continue
		}
		slices.SortFunc(evidence, func(a, b persist.Endorsement) int {
			return strings.Compare(string(a.Node), string(b.Node))
		})
		bs.ev, bs.evidence = v, evidence
		bs.trace.Mark(telemetry.MarkSealed)
		return
	}
}

// install binds endorsed content to the block. It runs whenever the
// endorsement or a candidate changes, tries every candidate whose orderer
// voted the endorsed digest, and validates each once against the endorsed
// header: transaction count, transaction root, graph shape. If every such
// candidate fails, the endorsement is rejected and logged and the next
// quorum digest, if any, takes its place: a wait that a later
// endorsement or state sync ends, never a halt.
func (e *Executor) install(bs *blockState) {
	for bs.evidence != nil && !bs.contentDone {
		tried := false
		for from, c := range bs.cands {
			if bs.votes[from].digest != bs.ev.digest {
				continue
			}
			tried = true
			block := &types.Block{Header: bs.ev.header, Txns: c.txns}
			if block.Header.Count == len(c.txns) && block.VerifyTxRoot() &&
				c.graph.N == len(c.txns) && c.graph.Validate() == nil {
				bs.block, bs.graph, bs.contentDone = block, c.graph, true
				e.releaseCandidates(bs)
				return
			}
		}
		if !tried {
			return // the endorsed content has not arrived yet
		}
		e.cfg.Logf("executor %s: block %d endorsed content failed structural validation", e.cfg.ID, bs.num)
		bs.rejected = append(bs.rejected, bs.ev.digest)
		bs.ev, bs.evidence = vote{}, nil
		e.endorse(bs)
	}
}

// releaseCandidates discards a block's content candidates (its content is
// installed, or the block state is being torn down), returning their
// bytes to every orderer's budget.
func (e *Executor) releaseCandidates(bs *blockState) {
	for from, c := range bs.cands {
		e.streamBytes[from] -= c.bytes
		e.mirror.streamBytes.Add(int64(-c.bytes))
		if e.streamBytes[from] <= 0 {
			delete(e.streamBytes, from)
		}
	}
	bs.cands = nil
}

func (e *Executor) getBlockState(num uint64) *blockState {
	bs, ok := e.blocks[num]
	if !ok {
		bs = &blockState{num: num}
		if e.cfg.Tracer != nil {
			// First consensus delivery for this height: the span starts.
			bs.trace = e.cfg.Tracer.Start(num)
			bs.trace.Mark(telemetry.MarkDelivered)
		}
		e.blocks[num] = bs
	}
	return bs
}

// pump drives the pipeline forward until it reaches a fixed point:
// completed blocks finalize in strict block order (freeing window slots),
// then blocks are admitted into the freed slots. Admission can complete
// a block immediately (empty
// blocks, or blocks whose buffered remote COMMITs already carry every
// result), so the loop repeats until neither step makes progress. Only
// the actor loop calls pump; it must never be invoked from inside
// admit/finalize/commitTx.
func (e *Executor) pump() {
	if !e.admitInit {
		e.nextAdmit = e.cfg.Ledger.Height()
		e.admitPrev = e.cfg.Ledger.LastHash()
		e.admitInit = true
	}
	for !e.halted {
		progress := e.finalizeBatch()
		for !e.halted && len(e.window) < e.cfg.PipelineDepth {
			bs, ok := e.blocks[e.nextAdmit]
			if !ok || bs.started || !e.admit(bs) {
				break
			}
			progress = true
		}
		if !progress {
			return
		}
	}
}

// admit moves the block at the admission cursor into the execution window
// and reports whether it did; only a block whose endorsed content is
// installed enters. Admission chains the block's overlay onto the newest
// in-flight predecessor, seeds Algorithm 1's indegrees (plus the
// cross-block edges the conflict index derives), dispatches the ready
// transactions, and replays COMMIT messages that raced ahead of the block.
func (e *Executor) admit(bs *blockState) bool {
	if !bs.contentDone {
		return false
	}
	if bs.block.Header.PrevHash != e.admitPrev {
		// A quorum of orderers endorsed a block that does not extend this
		// node's chain: beyond the fault assumption. Halt rather than
		// diverge.
		e.haltf("block %d does not extend local chain", bs.num)
		return false
	}
	bs.started = true
	e.admitPrev = bs.block.Hash()
	e.nextAdmit++
	e.lastProgress = time.Now()
	e.mirror.lastProgress.Store(e.lastProgress.UnixNano())
	bs.trace.MarkAt(telemetry.MarkAdmitted, e.lastProgress)
	var base state.Reader = e.cfg.Store
	if len(e.window) > 0 {
		base = e.window[len(e.window)-1].overlay
	}
	bs.overlay = state.NewBlockOverlay(base, bs.block.Txns)
	e.window = append(e.window, bs)
	e.mirror.windowLen.Store(int64(len(e.window)))
	e.schedule(bs)
	e.replayPending(bs)
	e.maybeComplete(bs)
	return true
}

// schedule allocates the admitted block's per-transaction records, takes
// its intra-block edges from the installed graph, stitches cross-block
// conflicts, and dispatches the transactions that are immediately ready.
func (e *Executor) schedule(bs *blockState) {
	txns := bs.block.Txns
	bs.txns = txns
	bs.txs = make([]txState, len(txns))
	bs.final = make([]types.TxResult, len(txns))
	e.linkGraph(bs)
	for j, tx := range txns {
		if bs.txs[j].isLocal = e.IsAgentFor(tx.App); bs.txs[j].isLocal {
			bs.localTotal++
		}
	}
	// Stitch the block into the window: an edge per conflicting,
	// not-yet-satisfied transaction of an earlier in-flight block, in
	// (block, index) order.
	for j, tx := range txns {
		t := &bs.txs[j]
		set := depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
		for _, ref := range e.index.Add(depgraph.TxRef{Block: bs.num, Index: int32(j)}, set) {
			if ref.Block == bs.num {
				continue // intra-block: the block's graph orders it
			}
			pb, ok := e.blocks[ref.Block]
			if !ok || !pb.started {
				continue
			}
			p := &pb.txs[ref.Index]
			if !p.committed {
				t.pred = append(t.pred, txRef{bs: pb, idx: int(ref.Index)})
			}
			if p.satisfied {
				continue
			}
			p.succ = append(p.succ, txRef{bs: bs, idx: j})
			t.remaining++
		}
	}
	// Algorithm 1 seed: transactions with no unsatisfied predecessors.
	for j := range bs.txs {
		if bs.txs[j].remaining == 0 && bs.txs[j].isLocal {
			e.dispatch(bs, j)
		}
	}
}

// linkGraph copies the block graph's edges into the transactions' edge
// lists, all from one backing array, and counts each successor edge into
// its target's remaining count, so every counted edge is released exactly
// once by fireSatisfied. Each list is capped at its graph edges, so a
// cross-block edge appended later moves that one list off the shared array.
func (e *Executor) linkGraph(bs *blockState) {
	g := bs.graph
	n := 0
	for j := range bs.txs {
		n += len(g.Pred[j]) + len(g.Succ[j])
	}
	if n == 0 {
		return
	}
	edges := make([]txRef, 0, n)
	link := func(ids []int32) []txRef {
		start := len(edges)
		for _, id := range ids {
			edges = append(edges, txRef{bs: bs, idx: int(id)})
		}
		return edges[start:len(edges):len(edges)]
	}
	for j := range bs.txs {
		t := &bs.txs[j]
		t.pred, t.succ = link(g.Pred[j]), link(g.Succ[j])
		for _, id := range g.Succ[j] {
			bs.txs[id].remaining++
		}
	}
}

// replayPending applies COMMIT messages that arrived before the block was
// admitted.
func (e *Executor) replayPending(bs *blockState) {
	if buffered := e.pendingCommits[bs.num]; len(buffered) > 0 {
		delete(e.pendingCommits, bs.num)
		for _, m := range buffered {
			e.creditCommitBytes(m)
			e.applyCommitMsg(bs, m)
		}
	}
}

// creditCommitBytes returns a buffered COMMIT's size to its sender's
// budget.
func (e *Executor) creditCommitBytes(m *types.CommitMsg) {
	e.commitBytes[m.Executor] -= m.ApproxSize()
	e.mirror.commitBytes.Add(int64(-m.ApproxSize()))
	if e.commitBytes[m.Executor] <= 0 {
		delete(e.commitBytes, m.Executor)
	}
}

// maybeComplete marks an admitted block complete once every transaction
// committed.
func (e *Executor) maybeComplete(bs *blockState) {
	if !bs.complete && bs.commitCount == len(bs.txns) {
		// Completion and finalization are decoupled under pipelining: a
		// later block can complete while an earlier one is still voting.
		// The pump finalizes completed blocks in strict block order.
		bs.complete = true
	}
}

func (e *Executor) dispatch(bs *blockState, idx int) {
	t := &bs.txs[idx]
	if t.inflight || t.execLocal || t.committed {
		return
	}
	e.registerLineage(bs, idx)
	bs.trace.Mark(telemetry.MarkDispatched) // idempotent: first dispatch wins
	t.inflight = true
	// Dependents first: a transaction another in-window transaction waits
	// on pops ahead of ready work nothing waits on (see scheduler.go).
	e.work.Push(workItem{bs: bs, idx: idx, tx: bs.txns[idx], epoch: t.epoch}, len(t.succ) > 0)
}

// registerLineage records, at dispatch time, which of the transaction's
// predecessors are satisfied but not yet committed — the inputs this
// execution will read speculatively. Each such predecessor gains a
// specDep entry carrying the digest of the value currently backing the
// overlay (the zero hash if the predecessor's value is revoked or not yet
// produced, which can never match a committed digest and so forces a
// re-execution), and the transaction's unresolved count gates its vote.
func (e *Executor) registerLineage(bs *blockState, idx int) {
	t := &bs.txs[idx]
	t.unresolved = 0
	for _, ref := range t.pred {
		if p := ref.tx(); !p.committed {
			p.specDeps = append(p.specDeps, specDep{
				txRef: txRef{bs: bs, idx: idx}, epoch: t.epoch, seen: p.specDigest,
			})
			t.unresolved++
		}
	}
	if t.unresolved > 0 {
		e.stats.specExec.Add(1)
	}
}

// handleExecDone implements the completion half of Algorithm 1 plus the
// multicast decision of Algorithm 2.
func (e *Executor) handleExecDone(num uint64, idx int, epoch uint32, result types.TxResult) {
	bs, ok := e.blocks[num]
	if !ok || !bs.started {
		return // block finalized while the worker ran (remote commit race)
	}
	t := &bs.txs[idx]
	if epoch != t.epoch {
		return // disowned attempt: a cascade re-dispatched this transaction
	}
	t.inflight = false
	if t.execLocal {
		return
	}
	t.execLocal = true
	bs.localDone++
	if bs.localDone == bs.localTotal {
		bs.trace.Mark(telemetry.MarkDrained)
	}
	// Algorithm 2: flush when a successor belongs to another application
	// (its agents need this result to proceed), and always at the end of
	// this node's work on the block so passive nodes and non-agent
	// executors can commit. The successor list outlives satisfaction, so
	// a cascaded re-execution's fresh vote reaches a foreign successor's
	// agents as promptly as the first one did.
	flush := bs.localDone == bs.localTotal || foreignSucc(bs, idx)
	if t.unresolved > 0 || e.tau(bs.txns[idx].App) > 1 {
		// The result stays uncommitted past this event — it waits for
		// other agents' votes, or for its own inputs to commit — so it
		// becomes the transaction's speculative value (Xe) and satisfies
		// successors now. Otherwise the own vote below commits it at once
		// (or a remote quorum already did), and commitTx records and fires.
		e.recordSpecResult(bs, idx, result)
		e.fireSatisfied(bs, idx)
	}
	if t.unresolved > 0 {
		// The execution read at least one uncommitted input: buffer the
		// result. The vote and multicast are released by resolveDep once
		// every speculated-upon input has committed with the digest this
		// execution read, or discarded by a cascade. The flush below
		// still runs — earlier ungated results in outBuf must not
		// wait for this transaction's lineage (peers need them to commit
		// the very inputs this result is gated on).
		held := result
		t.gated = &held
	} else {
		// Stage the result for multicast and vote for it ourselves.
		bs.outBuf = append(bs.outBuf, result)
		e.addVote(bs, idx, result, e.cfg.ID, e.ownBit(bs.txns[idx].App))
	}

	if flush {
		e.flushCommits(bs)
	}
	e.pump()
}

// foreignSucc reports whether a transaction has a successor of another
// application, in its own block or in a later in-flight one.
func foreignSucc(bs *blockState, idx int) bool {
	app := bs.txns[idx].App
	for _, s := range bs.txs[idx].succ {
		if s.bs.txns[s.idx].App != app {
			return true
		}
	}
	return false
}

// flushCommits multicasts the staged results (the paper's "removes all
// the stored results from Xe and puts them in a commit message").
func (e *Executor) flushCommits(bs *blockState) {
	if len(bs.outBuf) == 0 {
		return
	}
	msg := &types.CommitMsg{
		BlockNum: bs.num,
		Results:  bs.outBuf,
		Executor: e.cfg.ID,
	}
	bs.outBuf = nil
	digest := msg.Digest()
	msg.Sig = e.cfg.Signer.Sign(digest[:])
	if err := transport.Multicast(e.cfg.Endpoint, e.cfg.Executors, msg); err != nil {
		e.cfg.Logf("executor %s: commit multicast for block %d: %v", e.cfg.ID, bs.num, err)
	}
	e.stats.commitMsg.Add(1)
}

// handleCommitMsg is the intake of Algorithm 3.
func (e *Executor) handleCommitMsg(from types.NodeID, m *types.CommitMsg) {
	if m.Executor != from || !e.buffers(m.BlockNum) {
		return
	}
	if e.cfg.VerifySigs && !e.verified("COMMIT", from, m.Digest(), m.Sig) {
		return
	}
	bs, ok := e.blocks[m.BlockNum]
	if !ok || !bs.started {
		// The block has not been admitted yet; buffer and replay at
		// admission. The per-sender byte budget sheds
		// floods without ever touching an honest sender, whose
		// outstanding results are bounded by its own pipeline window.
		size := m.ApproxSize()
		if e.commitBytes[from]+size > maxCommitBytesPerSender {
			e.stats.droppedFuture.Add(1)
			return
		}
		e.commitBytes[from] += size
		e.mirror.commitBytes.Add(int64(size))
		e.pendingCommits[m.BlockNum] = append(e.pendingCommits[m.BlockNum], m)
		return
	}
	e.applyCommitMsg(bs, m)
	e.pump()
}

func (e *Executor) applyCommitMsg(bs *blockState, m *types.CommitMsg) {
	n := len(bs.txns)
	for i := range m.Results {
		r := m.Results[i]
		if r.Index < 0 || r.Index >= n {
			continue
		}
		tx := bs.txns[r.Index]
		if tx.ID != r.TxID {
			continue
		}
		// Algorithm 3 accepts a result only from agents of the
		// transaction's application.
		bit := e.agentIndex(tx.App, m.Executor)
		if bit < 0 {
			continue
		}
		// A result writing outside the declared write set is not counted:
		// the dependency graph and the block overlay are built from the
		// declared sets, and honest agents abort such an execution.
		if _, bad := tx.Op.UndeclaredWrite(r.Writes); bad {
			continue
		}
		e.addVote(bs, r.Index, r, m.Executor, uint(bit))
	}
}

// agentIndex returns node's index in AgentsOf[app] — its bit in a vote
// tally — or -1 when node is not an agent of app.
func (e *Executor) agentIndex(app types.AppID, node types.NodeID) int {
	for i, agent := range e.cfg.AgentsOf[app] {
		if agent == node {
			return i
		}
	}
	return -1
}

// ownBit is this node's bit in app's vote tallies: its agent index, or
// the reserved selfBit when the configuration does not list it. Locality
// comes from the Registry, not AgentsOf, so an unlisted node still votes.
func (e *Executor) ownBit(app types.AppID) uint {
	if i := e.agentIndex(app, e.cfg.ID); i >= 0 {
		return uint(i)
	}
	return selfBit
}

// addVote counts one agent's result for a transaction; at tau(A) matching
// results the transaction commits (Algorithm 3's "Matching records in
// Re(x) >= tau(A)").
func (e *Executor) addVote(bs *blockState, idx int, r types.TxResult, voter types.NodeID, bit uint) {
	t := &bs.txs[idx]
	if t.committed {
		return
	}
	counted, won, d := t.tally.add(bit, &r, e.tau(bs.txns[idx].App))
	switch {
	case !counted:
	case won != nil:
		e.commitTx(bs, idx, *won)
	default:
		e.maybeAdoptVote(bs, idx, r, voter, d)
	}
}

// maybeAdoptVote adopts the leading (below-quorum) vote for a non-local
// transaction as a speculative value: the first result any agent reports
// is recorded in the overlay and satisfies successors immediately, taking
// the tau-quorum round-trip off their critical path. The adoption is
// re-validated when the transaction commits (promoteOrCascade); until
// then every dependent's own vote stays buffered, so a wrong leading vote
// can never leak through this node's signature.
//
// A vote that writes outside the transaction's declared write set never
// gets here: applyCommitMsg does not count it, so a fabricated write to
// an undeclared key cannot reach readers that have no edge to this
// transaction. d is the vote's digest, already computed by the tally.
func (e *Executor) maybeAdoptVote(bs *blockState, idx int, r types.TxResult, voter types.NodeID, d types.Hash) {
	t := &bs.txs[idx]
	if !bs.started || t.isLocal || t.specActive || t.committed {
		return
	}
	// Adaptive throttle: an agent whose adopted votes keep getting
	// revoked at commit time (a diverging or hostile agent) costs a
	// cascade per adoption, so once its miss rate crosses the threshold
	// its leads stop being adopted. The vote still counted toward the
	// quorum tally above; only the speculative shortcut is withheld.
	if sc := e.voterScore[voter]; sc != nil && sc.adopted >= uint64(specThrottleMinSamples) &&
		float64(sc.missed) >= specThrottleMissRate*float64(sc.adopted) {
		e.stats.specThrottled.Add(1)
		return
	}
	sc := e.voterScore[voter]
	if sc == nil {
		sc = &voterScore{}
		e.voterScore[voter] = sc
	}
	sc.adopted++
	t.specVoter, t.specDigest, t.specActive = voter, d, true
	if !r.Aborted {
		bs.overlay.Record(idx, r.Writes)
	}
	// Dependents registered against a previously revoked adoption (if any)
	// read something other than this value; cascade them. First adoptions
	// have no dependents yet, and fireSatisfied no-ops if a prior adoption
	// already fired it.
	e.cascadeDeps(bs, idx, d)
	e.fireSatisfied(bs, idx)
}

// recordSpecResult installs a local execution's result as the
// transaction's speculative value and cascades dependents that registered
// against a previous (revoked) value — they read something other than the
// result just produced.
func (e *Executor) recordSpecResult(bs *blockState, idx int, result types.TxResult) {
	t := &bs.txs[idx]
	if t.committed {
		return // a remote quorum already committed; its value rules
	}
	d := result.Digest()
	if !result.Aborted {
		bs.overlay.Record(idx, result.Writes)
	}
	t.specActive, t.specDigest = true, d
	e.cascadeDeps(bs, idx, d)
}

// cascadeDeps invalidates every epoch-valid dependent of a transaction
// whose registered lineage digest differs from keep (the value now
// backing the overlay); matching registrations stay for commit-time
// resolution. The live slice is detached first: invalidation re-dispatches
// dependents, whose lineage re-registration appends fresh entries.
func (e *Executor) cascadeDeps(bs *blockState, idx int, keep types.Hash) {
	t := &bs.txs[idx]
	deps := t.specDeps
	if len(deps) == 0 {
		return
	}
	t.specDeps = nil
	for _, dep := range deps {
		if dep.epoch != dep.tx().epoch {
			continue // stale: the dependent was re-dispatched since
		}
		if dep.seen == keep {
			t.specDeps = append(t.specDeps, dep)
			continue
		}
		e.invalidateSpec(dep.bs, dep.idx)
	}
}

// invalidateSpec revokes one transaction's speculative execution: the
// current attempt is disowned (epoch bump), its overlay writes are
// removed (the multi-version overlay uncovers the newest surviving lower
// write of each key), its buffered vote is discarded (an invalidated
// result must never be multicast), its own dependents cascade, and — for
// a local transaction — a fresh execution is dispatched against the
// repaired view. Committed transactions are immune: their value came
// from a tau quorum, not from this node's speculation.
func (e *Executor) invalidateSpec(bs *blockState, idx int) {
	if e.halted {
		return
	}
	t := &bs.txs[idx]
	if t.committed {
		if t.gated != nil {
			t.gated = nil
			e.stats.specMiss.Add(1)
		}
		return
	}
	e.stats.specMiss.Add(1)
	t.epoch++
	t.inflight = false
	t.gated = nil
	if t.execLocal {
		t.execLocal = false
		bs.localDone--
	}
	if t.specActive {
		t.specActive = false
		t.specDigest = types.Hash{}
		// Revoke the speculative writes; older versions of the affected
		// keys become visible again through the multi-version overlay.
		bs.overlay.PurgeIdx(idx)
	}
	// Everything that read the revoked value re-executes. Dependents whose
	// registered digest is already the zero hash were registered against a
	// revoked value and stay; the re-landing result cascades them if it
	// still differs from what they read.
	e.cascadeDeps(bs, idx, types.Hash{})
	if t.isLocal {
		// Re-dispatch immediately; satisfied stays true (successor counts
		// were already consumed), so ordering against in-cascade
		// predecessors is enforced by lineage re-validation rather than
		// indegrees: an execution that runs before its predecessor
		// re-lands registers the zero digest and is cascaded again.
		e.stats.specReexec.Add(1)
		e.dispatch(bs, idx)
	}
}

// resolveDep marks one speculated-upon input of a dependent as committed
// with the digest the dependent's execution read; when the last input
// resolves, the dependent's buffered vote is released.
func (e *Executor) resolveDep(dep specDep) {
	t := dep.tx()
	if t.unresolved > 0 {
		t.unresolved--
	}
	if t.unresolved == 0 && t.gated != nil {
		e.releaseGated(dep.bs, dep.idx)
	}
}

// releaseGated publishes a buffered speculative result: every
// speculated-upon input has committed with a matching digest, so the
// vote is no longer derived from unconfirmed state. For a transaction a
// remote quorum committed meanwhile, the buffered vote is redundant (the
// quorum's votes reached every executor) and is only counted.
func (e *Executor) releaseGated(bs *blockState, idx int) {
	t := &bs.txs[idx]
	r := t.gated
	t.gated = nil
	if r == nil {
		return
	}
	if t.committed {
		if bs.final[idx].Digest() == r.Digest() {
			e.stats.specHits.Add(1)
		} else {
			e.stats.specMiss.Add(1)
		}
		return
	}
	e.stats.specHits.Add(1)
	bs.outBuf = append(bs.outBuf, *r)
	e.addVote(bs, idx, *r, e.cfg.ID, e.ownBit(bs.txns[idx].App))
	e.flushCommits(bs)
}

// promoteOrCascade settles a transaction's speculative value at commit
// time: a committed digest matching the recorded speculation promotes
// the in-place results (dependents' buffered votes release as their
// remaining inputs commit); a mismatch revokes the speculative writes,
// installs the committed result, and cascades re-execution through every
// dependent that read the invalidated value. A transaction nothing
// speculated on — no recorded value, no registered dependent, as always
// at tau = 1 — just lands its committed writes, unhashed.
func (e *Executor) promoteOrCascade(bs *blockState, idx int, r *types.TxResult) {
	t := &bs.txs[idx]
	var d types.Hash
	if t.specActive || len(t.specDeps) > 0 {
		d = r.Digest()
	}
	switch {
	case t.specActive && t.specDigest == d:
		// Promoted: the speculative writes in the overlay are bit-identical
		// to the committed ones (the digest covers the full write set).
	case t.specActive:
		e.stats.specMiss.Add(1)
		// Charge the miss to the agent whose leading vote was adopted
		// (empty for locally executed values): the adaptive throttle
		// stops adopting from agents that keep missing.
		if voter := t.specVoter; voter != "" {
			if sc := e.voterScore[voter]; sc != nil {
				sc.missed++
			}
		}
		bs.overlay.PurgeIdx(idx)
		if !r.Aborted {
			bs.overlay.Record(idx, r.Writes)
		}
	default:
		if !r.Aborted {
			bs.overlay.Record(idx, r.Writes)
		}
	}
	t.specActive, t.specDigest, t.specVoter = false, d, ""
	// A committed transaction never dispatches again: its lineage edges
	// are done.
	t.pred = nil
	deps := t.specDeps
	t.specDeps = nil
	for _, dep := range deps {
		if dep.epoch != dep.tx().epoch {
			continue
		}
		if dep.seen == d {
			e.resolveDep(dep)
		} else {
			e.invalidateSpec(dep.bs, dep.idx)
		}
	}
}

func (e *Executor) tau(app types.AppID) int {
	if t, ok := e.cfg.Tau[app]; ok && t > 0 {
		return t
	}
	return 1
}

// commitTx marks one transaction committed, reflects its writes in the
// block overlay (promoting a matching speculative value in place, or
// revoking it and cascading), and unblocks dependents.
func (e *Executor) commitTx(bs *blockState, idx int, r types.TxResult) {
	t := &bs.txs[idx]
	t.committed = true
	bs.final[idx] = r
	t.tally = voteTally{}
	e.promoteOrCascade(bs, idx, &bs.final[idx])
	if r.Aborted {
		e.stats.aborted.Add(1)
	}
	bs.commitCount++
	e.stats.committed.Add(1)
	e.fireSatisfied(bs, idx)
	e.maybeComplete(bs)
}

// fireSatisfied propagates "predecessor is in Ce ∪ Xe" to successors —
// both within the block and across the in-flight window — dispatching any
// local transaction whose predecessors are all satisfied. The successor
// list stays: satisfied fires once, and foreignSucc and dispatch's
// dependents-first bit read it again for a cascaded re-execution.
func (e *Executor) fireSatisfied(bs *blockState, idx int) {
	t := &bs.txs[idx]
	if t.satisfied {
		return
	}
	t.satisfied = true
	for _, ref := range t.succ {
		s := ref.tx()
		s.remaining--
		if s.remaining == 0 && s.isLocal {
			e.dispatch(ref.bs, ref.idx)
		}
	}
}

// finalizeBatch drains the window's completed prefix in strict block
// order as one group-committed batch. Phase one applies each block's net
// effect to the committed store and (when durability is on) appends its
// WAL record; then the whole batch is made durable with a single fsync
// (window blocks that complete within one pump pass share it); only
// then does phase two externalize the blocks — ledger append, hooks,
// client notifications — still in block order. A crash between the
// phases loses no externalized block: the records are already durable.
// It reports whether any block finalized.
func (e *Executor) finalizeBatch() bool {
	n := 0
	for n < len(e.window) && e.window[n].complete {
		n++
	}
	if n == 0 || e.halted {
		return false
	}
	batch := e.window[:n:n]
	e.window = e.window[n:]
	e.mirror.windowLen.Store(int64(len(e.window)))
	for _, bs := range batch {
		e.applyFinal(bs)
		if e.halted {
			return true
		}
	}
	if e.cfg.Persist != nil {
		if err := e.cfg.Persist.Sync(); err != nil {
			e.haltf("WAL sync failed: %v", err)
			return true
		}
		if e.cfg.Tracer != nil {
			// One clock read covers the whole group-committed batch.
			now := time.Now()
			for _, bs := range batch {
				bs.trace.MarkAt(telemetry.MarkFsynced, now)
			}
		}
	}
	for _, bs := range batch {
		e.externalize(bs)
		if e.halted {
			return true
		}
	}
	if e.cfg.Persist != nil {
		e.cfg.Persist.MaybeSnapshot(e.cfg.Ledger.Height(), e.cfg.Ledger.LastHash(), e.cfg.Store)
	}
	return true
}

// applyFinal applies one block's net effect to the committed store and
// appends its finalization record to the WAL.
//
// This is the commit boundary of the state ownership contract: the write
// sets reaching the overlay were freshly allocated (by contract execution
// or wire decoding) and are never mutated afterwards, so Final()'s value
// slices transfer to the store (and to the WAL record) without a
// defensive copy.
func (e *Executor) applyFinal(bs *blockState) {
	// Flush any straggler results (e.g. a block whose last local
	// transactions committed via remote votes before local execution).
	e.flushCommits(bs)
	delta := bs.overlay.Final()
	e.cfg.Store.Apply(delta)
	// The successor chained its overlay onto this block's — whether it
	// sits later in this finalize batch or at the head of the trimmed
	// window. Now that the writes are in the store, rebase it there so
	// finalized overlays are released and read chains stay bounded by
	// the window.
	if next := e.successorOf(bs); next != nil {
		next.overlay.Rebase(e.cfg.Store)
	}
	if e.cfg.Persist != nil {
		rec := &persist.BlockRecord{
			Block:          bs.block,
			Results:        bs.final,
			Delta:          delta,
			StateHash:      e.cfg.Store.Hash(),
			EvidenceDigest: bs.ev.digest,
			Endorse:        bs.evidence,
		}
		if err := e.cfg.Persist.LogBlock(rec); err != nil {
			e.haltf("WAL append failed for block %d: %v", bs.num, err)
		}
	}
	bs.trace.Mark(telemetry.MarkFinalized)
}

// externalize performs one finalized block's externally visible effects:
// the ledger append, counters, window bookkeeping, the OnCommit hook,
// and client notifications. With durability on, the pump calls it only
// after the block's WAL record is durable.
func (e *Executor) externalize(bs *blockState) {
	entry := ledger.Entry{Block: bs.block, Results: bs.final}
	if err := e.cfg.Ledger.Append(entry); err != nil {
		e.haltf("ledger append failed for block %d: %v", bs.num, err)
		return
	}
	e.stats.blocks.Add(1)
	e.lastProgress = time.Now()
	e.mirror.lastProgress.Store(e.lastProgress.UnixNano())
	bs.trace.MarkAt(telemetry.MarkExternalized, e.lastProgress)
	e.cfg.Tracer.Finish(bs.trace)
	e.index.Remove(bs.num)
	delete(e.blocks, bs.num)
	for _, m := range e.pendingCommits[bs.num] {
		e.creditCommitBytes(m) // normally drained at replay; covers races
	}
	delete(e.pendingCommits, bs.num)
	if e.cfg.OnCommit != nil {
		e.cfg.OnCommit(bs.block, bs.final)
	}
	if e.cfg.NotifyClients {
		for i, tx := range bs.txns {
			_ = e.cfg.Endpoint.Send(tx.Client, &types.CommitNotifyMsg{
				TxID:        tx.ID,
				BlockNum:    bs.num,
				Aborted:     bs.final[i].Aborted,
				AbortReason: bs.final[i].AbortReason,
			})
		}
	}
}

// successorOf returns the in-flight block numbered bs.num+1, whether it
// still sits in the current finalize batch or at the head of the window.
func (e *Executor) successorOf(bs *blockState) *blockState {
	next, ok := e.blocks[bs.num+1]
	if !ok || !next.started {
		return nil
	}
	return next
}

// String identifies the executor for logs.
func (e *Executor) String() string {
	return fmt.Sprintf("executor(%s)", e.cfg.ID)
}
