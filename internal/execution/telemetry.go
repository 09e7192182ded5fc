package execution

import (
	"fmt"
	"sync/atomic"
	"time"

	"parblockchain/internal/telemetry"
)

// RegisterTelemetry exposes the executor's counters, gauges, and (when
// Config.Tracer is set) per-stage block-lifecycle histograms on reg. The
// labels are merged into every series (clusters use node="<id>").
//
// Everything registered here samples atomics, the mutex-protected
// ledger, or the scheduler's own lock — never actor-owned state — so a
// scrape is safe at any moment of a live pipeline.
func (e *Executor) RegisterTelemetry(reg *telemetry.Registry, labels telemetry.Labels) {
	if reg == nil {
		return
	}
	counter := func(name, help string, v *atomic.Uint64) {
		reg.CounterFunc(name, help, labels, v.Load)
	}
	counter("parblockchain_executor_tx_executed_total",
		"Transactions executed locally (including speculative attempts).", &e.stats.executed)
	counter("parblockchain_executor_tx_committed_total",
		"Transactions committed, including aborted ones.", &e.stats.committed)
	counter("parblockchain_executor_tx_aborted_total",
		"Transactions whose final result is an abort.", &e.stats.aborted)
	counter("parblockchain_executor_blocks_committed_total",
		"Blocks finalized and externalized.", &e.stats.blocks)
	counter("parblockchain_executor_commit_msgs_sent_total",
		"Outbound COMMIT multicasts (per destination set).", &e.stats.commitMsg)
	counter("parblockchain_executor_msgs_dropped_total",
		"Messages shed by the buffering bounds (horizon or per-sender budgets).", &e.stats.droppedFuture)

	spec := func(event string, v *atomic.Uint64) {
		reg.CounterFunc("parblockchain_executor_speculation_total",
			"Speculative execution events past the commit wait.",
			withLabels(labels, "event", event), v.Load)
	}
	spec("executed", &e.stats.specExec)
	spec("hit", &e.stats.specHits)
	spec("miss", &e.stats.specMiss)
	spec("reexec", &e.stats.specReexec)
	spec("throttled", &e.stats.specThrottled)

	sync := func(event string, v *atomic.Uint64) {
		reg.CounterFunc("parblockchain_executor_sync_total",
			"Peer-served state sync progress events.",
			withLabels(labels, "event", event), v.Load)
	}
	sync("requests", &e.stats.syncReqs)
	sync("served", &e.stats.syncServed)
	sync("records_adopted", &e.stats.syncRecs)
	sync("snapshots_adopted", &e.stats.syncSnaps)
	sync("rejected", &e.stats.syncRejected)

	gauge := func(name, help string, fn func() float64) {
		reg.GaugeFunc(name, help, labels, fn)
	}
	gauge("parblockchain_executor_window_depth",
		"Blocks currently admitted into the pipeline window.",
		func() float64 { return float64(e.mirror.windowLen.Load()) })
	gauge("parblockchain_executor_queue_depth",
		"Ready transactions queued between dispatch and the worker pool.",
		func() float64 { return float64(e.work.Len()) })
	gauge("parblockchain_executor_halted",
		"1 after a fault-model violation halted protocol progress.",
		func() float64 { return b2f(e.mirror.haltReason.Load() != nil) })
	gauge("parblockchain_executor_syncing",
		"1 while the state-sync requester is catching up from peers.",
		func() float64 { return b2f(e.mirror.syncing.Load()) })
	gauge("parblockchain_executor_last_progress_seconds",
		"Seconds since the pipeline last admitted or externalized a block.",
		func() float64 { return time.Since(time.Unix(0, e.mirror.lastProgress.Load())).Seconds() })
	gauge("parblockchain_executor_stream_buffer_bytes",
		"Uninstalled block content (NEWBLOCKs) buffered across all orderers (budget: per-orderer).",
		func() float64 { return float64(e.mirror.streamBytes.Load()) })
	gauge("parblockchain_executor_commit_buffer_bytes",
		"COMMIT payload buffered across all senders (budget: per-executor).",
		func() float64 { return float64(e.mirror.commitBytes.Load()) })
	gauge("parblockchain_ledger_height",
		"Blocks in the local ledger.",
		func() float64 { return float64(e.cfg.Ledger.Height()) })

	if e.cfg.Persist != nil {
		e.cfg.Persist.RegisterTelemetry(reg, labels)
	}
	e.cfg.Tracer.Register(reg, "parblockchain_block_stage_seconds",
		"Block lifecycle latency per pipeline stage (delivery to externalize).", labels)
}

// Status is the executor's /statusz payload: a point-in-time view of the
// pipeline assembled entirely from scrape-safe sources.
// StreamBufferBytes is the block content — NEWBLOCK bodies — held for
// blocks whose content is not installed yet, charged per orderer against
// maxOrdererStreamBytes.
type Status struct {
	Height            uint64 `json:"height"`
	TipHash           string `json:"tip_hash"`
	WindowDepth       int    `json:"window_depth"`
	PipelineDepth     int    `json:"pipeline_depth"`
	QueueDepth        int    `json:"queue_depth"`
	Halted            bool   `json:"halted"`
	HaltReason        string `json:"halt_reason,omitempty"`
	Syncing           bool   `json:"syncing"`
	MaxSeen           uint64 `json:"max_seen"`
	LastProgressMs    int64  `json:"last_progress_ms"`
	StreamBufferBytes int64  `json:"stream_buffer_bytes"`
	CommitBufferBytes int64  `json:"commit_buffer_bytes"`
}

// Status snapshots the pipeline for the ops server. Safe to call
// concurrently with a running pipeline.
func (e *Executor) Status() Status {
	st := Status{
		Height:            e.cfg.Ledger.Height(),
		TipHash:           e.cfg.Ledger.LastHash().String(),
		WindowDepth:       int(e.mirror.windowLen.Load()),
		PipelineDepth:     e.cfg.PipelineDepth,
		QueueDepth:        e.work.Len(),
		Syncing:           e.mirror.syncing.Load(),
		MaxSeen:           e.mirror.maxSeen.Load(),
		LastProgressMs:    time.Since(time.Unix(0, e.mirror.lastProgress.Load())).Milliseconds(),
		StreamBufferBytes: e.mirror.streamBytes.Load(),
		CommitBufferBytes: e.mirror.commitBytes.Load(),
	}
	if reason := e.mirror.haltReason.Load(); reason != nil {
		st.Halted, st.HaltReason = true, *reason
	}
	return st
}

// Healthy implements the stall-watchdog-informed /healthz readiness
// probe: not ready when halted, while state sync is replaying peers'
// history, or when the pipeline has been still past the stall deadline
// with peers known to be ahead (the same condition that arms the sync
// requester).
func (e *Executor) Healthy() error {
	if reason := e.mirror.haltReason.Load(); reason != nil {
		return fmt.Errorf("halted: %s", *reason)
	}
	if e.mirror.syncing.Load() {
		return fmt.Errorf("state sync in progress at height %d", e.cfg.Ledger.Height())
	}
	if e.cfg.StallTimeout > 0 {
		idle := time.Since(time.Unix(0, e.mirror.lastProgress.Load()))
		if idle >= e.cfg.StallTimeout && e.mirror.maxSeen.Load() > e.cfg.Ledger.Height() {
			return fmt.Errorf("stalled for %v at height %d with peers at %d",
				idle.Round(time.Millisecond), e.cfg.Ledger.Height(), e.mirror.maxSeen.Load())
		}
	}
	return nil
}

// Tracer returns the configured block tracer (nil when tracing is off),
// for /traces dumps and bench per-stage breakdowns.
func (e *Executor) Tracer() *telemetry.BlockTracer { return e.cfg.Tracer }

func withLabels(base telemetry.Labels, k, v string) telemetry.Labels {
	out := make(telemetry.Labels, len(base)+1)
	for bk, bv := range base {
		out[bk] = bv
	}
	out[k] = v
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
