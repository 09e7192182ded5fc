package node

import (
	"fmt"

	"parblockchain/internal/depgraph"
	"parblockchain/internal/persist"
)

// Tunables is every performance and durability knob of a deployment,
// declared once. oxii.Config, bench.Options and clustercfg.Config embed
// it, so a knob added here is settable in process, from the benchmark
// harness and from cluster JSON at once, and executorConfig /
// ordererConfig / persistConfig (node.go) are the one place it is mapped
// onto the lower layers. Every zero value means "the layer's default".
type Tunables struct {
	// ExecWorkers sizes each executor's worker pool (default 8).
	ExecWorkers int `json:"execWorkers,omitempty"`
	// PipelineDepth bounds each executor's window of in-flight blocks:
	// blocks stream through execution while earlier blocks are still
	// committing, with cross-block conflicts stitched into the dependency
	// graph. 1 restores the paper's strict per-block barrier; zero means
	// the executor default (4). Finalization order and final state are
	// identical at every depth.
	PipelineDepth int `json:"pipelineDepth,omitempty"`
	// SegmentTxns makes the orderers stream each block to the executors
	// in signed segments of this many transactions (with incrementally
	// generated dependency edges) as consensus delivers them, closed by a
	// small seal message — instead of one monolithic NEWBLOCK at the cut.
	// Executors begin executing a block's early transactions while its
	// tail is still being ordered; finalization still waits for a quorum
	// of matching seals, so ledger and state are identical either way.
	// Zero keeps the monolithic NEWBLOCK wire format (also the right
	// setting for deployments whose observer tooling consumes NEWBLOCK).
	// Every orderer of a cluster must use the same value.
	SegmentTxns int `json:"segmentTxns,omitempty"`
	// Speculate lets executors run dependent transactions against a
	// predecessor's uncommitted result (the first vote any agent reports)
	// instead of stalling for the tau(A) quorum, re-validating at commit
	// and cascading re-execution on a digest mismatch. COMMIT multicasts
	// of speculative results are buffered until every speculated-upon
	// input has committed with a matching digest, so ledger and state are
	// bit-identical to the non-speculative path in fault-free runs. Safe
	// to enable per node: it changes only local scheduling and vote
	// timing, never committed results.
	Speculate bool `json:"speculate,omitempty"`
	// EagerCommit selects Algorithm 2's eager per-transaction multicast.
	EagerCommit bool `json:"eagerCommit,omitempty"`
	// GraphMode selects the dependency rule, "standard" (default) or
	// "multiversion"; orderers and executors of a cluster must agree.
	GraphMode depgraph.Mode `json:"graphMode,omitempty"`
	// MinHorizon sets each executor's minimum future-buffering horizon in
	// blocks; zero uses the executor default. Larger values absorb longer
	// orderer/executor skew before far-future traffic is dropped (state
	// sync recovers whatever the horizon sheds), at the cost of buffered
	// memory on lagging nodes.
	MinHorizon int `json:"minHorizon,omitempty"`
	// SyncStallMs arms each executor's state-sync watchdog: a node that
	// sees peers announce blocks it cannot admit, and makes no pipeline
	// progress for this many milliseconds, requests the missing history
	// from peer executors (serving from their WAL and snapshots when a
	// data dir is set). Zero disables the watchdog; serving peers'
	// requests is always on when durability is.
	SyncStallMs int `json:"syncStallMs,omitempty"`
	// FsyncPolicy selects when log appends reach stable storage: "group"
	// (default: one fsync per finalize batch, so pipelined blocks amortize
	// the durability cost), "always" (one per block), or "never" (page
	// cache only). Requires a data dir.
	FsyncPolicy persist.FsyncPolicy `json:"fsyncPolicy,omitempty"`
	// SnapshotInterval is the number of blocks between state snapshots
	// (and WAL truncations); zero uses the persist default, negative
	// disables snapshots. Requires a data dir.
	SnapshotInterval int `json:"snapshotIntervalBlocks,omitempty"`
	// SegmentBytes is each executor's WAL segment roll threshold; zero
	// uses the persist default. Small values make WAL truncation
	// aggressive, which (with SnapshotInterval) controls how far back
	// peers can serve state-sync records before falling back to
	// snapshots. Ignored without a data dir.
	SegmentBytes int `json:"segmentBytes,omitempty"`
	// StateBackend selects each executor's committed-state store: "" or
	// "memory" for the all-in-RAM KVStore, "tiered" for a byte-budgeted
	// hot cache over disk-resident cold segments (state larger than
	// RAM). With a data dir the cold tier lives under the executor's
	// directory and snapshots become backend-native; without one a tiered
	// store uses a private temp directory, removed when the node stops.
	// Ledger and state are bit-identical across backends, and nodes of
	// one cluster may mix them.
	StateBackend string `json:"stateBackend,omitempty"`
	// HotTierBytes budgets the tiered backend's hot cache per executor;
	// zero uses the state package default. Requires StateBackend "tiered".
	HotTierBytes int64 `json:"hotTierBytes,omitempty"`
	// TraceRing sizes each traced executor's slowest-blocks ring (0 =
	// telemetry default). Tracing itself turns on with Config.Trace or the
	// node's ops server; the ring only bounds the /traces postmortem dump.
	TraceRing int `json:"traceRing,omitempty"`
}

// Validate rejects values no layer can honor. durable says whether the
// deployment has a data dir. The message names a knob by its JSON tag.
func (t Tunables) Validate(durable bool) error {
	for _, knob := range []struct {
		name  string
		value int64
	}{
		{"execWorkers", int64(t.ExecWorkers)},
		{"pipelineDepth", int64(t.PipelineDepth)},
		{"segmentTxns", int64(t.SegmentTxns)},
		{"minHorizon", int64(t.MinHorizon)},
		{"syncStallMs", int64(t.SyncStallMs)},
		{"segmentBytes", int64(t.SegmentBytes)},
		{"hotTierBytes", t.HotTierBytes},
		{"traceRing", int64(t.TraceRing)},
	} {
		if knob.value < 0 {
			return fmt.Errorf("%s must be >= 0", knob.name)
		}
	}
	if _, err := persist.ParseFsyncPolicy(string(t.FsyncPolicy)); err != nil {
		return err
	}
	if !persist.ValidStateBackend(t.StateBackend) {
		return fmt.Errorf("unknown stateBackend %q (want one of %v)", t.StateBackend, persist.StateBackendNames)
	}
	if t.HotTierBytes != 0 && t.StateBackend != "tiered" {
		return fmt.Errorf("hotTierBytes requires stateBackend \"tiered\"")
	}
	if !durable && t.FsyncPolicy != "" {
		return fmt.Errorf("fsyncPolicy requires dataDir")
	}
	if !durable && t.SnapshotInterval != 0 {
		return fmt.Errorf("snapshotIntervalBlocks requires dataDir")
	}
	return nil
}
