package ordering

import (
	"fmt"

	"parblockchain/internal/telemetry"
)

// RegisterTelemetry exposes the orderer's counters on reg. All series
// sample atomics, so a scrape never touches the delivery goroutine.
func (o *Orderer) RegisterTelemetry(reg *telemetry.Registry, labels telemetry.Labels) {
	if reg == nil {
		return
	}
	reg.CounterFunc("parblockchain_orderer_blocks_cut_total",
		"Blocks produced by this orderer.", labels, o.stats.blocksCut.Load)
	reg.CounterFunc("parblockchain_orderer_txns_ordered_total",
		"Transactions placed into blocks.", labels, o.stats.txnsOrdered.Load)
	reg.CounterFunc("parblockchain_orderer_requests_rejected_total",
		"Requests dropped by signature/ACL checks or non-canonical access sets.", labels,
		o.stats.requestsRejected.Load)
	reg.CounterFunc("parblockchain_orderer_graph_build_nanos_total",
		"Estimated nanoseconds spent generating dependency graphs (sampled).", labels,
		o.stats.graphBuildNanos.Load)
	if o.dlog != nil {
		reg.GaugeFunc("parblockchain_orderer_durable_height",
			"Next block number covered by a fsynced cut record; a restart resumes cutting here.",
			labels, func() float64 { return float64(o.stats.durableHeight.Load()) })
		reg.CounterFunc("parblockchain_orderer_log_appends_total",
			"Records appended to the orderer's durable log (entries + cuts).", labels,
			func() uint64 { return o.dlog.Stats().Appends })
		reg.CounterFunc("parblockchain_orderer_log_fsyncs_total",
			"fsync batches issued by the orderer's durable log.", labels,
			func() uint64 { return o.dlog.Stats().Syncs })
		reg.CounterFunc("parblockchain_orderer_recovered_entries_total",
			"Consensus entries replayed from the durable log at startup.", labels,
			o.stats.recoveredEntries.Load)
	}
	if c, ok := o.cfg.Consensus.(consensusTelemetry); ok {
		c.RegisterTelemetry(reg, labels)
	}
}

// consensusTelemetry is implemented by consensus instances with counters
// of their own (kafkaorder's batches and log fsyncs).
type consensusTelemetry interface {
	RegisterTelemetry(reg *telemetry.Registry, labels telemetry.Labels)
}

// Status is the orderer's /statusz payload, assembled from the atomic
// counters (the assembly state is owned by the delivery goroutine and
// deliberately not exposed).
type Status struct {
	BlocksCut        uint64 `json:"blocks_cut"`
	TxnsOrdered      uint64 `json:"txns_ordered"`
	RequestsRejected uint64 `json:"requests_rejected"`
	GraphBuildMs     int64  `json:"graph_build_ms"`
	DurableHeight    uint64 `json:"durable_height"`
	RecoveredEntries uint64 `json:"recovered_entries"`
	LogAppends       uint64 `json:"log_appends"`
	LogFsyncs        uint64 `json:"log_fsyncs"`
}

// Status snapshots the orderer for the ops server.
func (o *Orderer) Status() Status {
	s := o.Stats()
	return Status{
		BlocksCut:        s.BlocksCut,
		TxnsOrdered:      s.TxnsOrdered,
		RequestsRejected: s.RequestsRejected,
		GraphBuildMs:     int64(s.GraphBuildNanos / 1e6),
		DurableHeight:    s.DurableHeight,
		RecoveredEntries: s.RecoveredEntries,
		LogAppends:       s.LogAppends,
		LogFsyncs:        s.LogSyncs,
	}
}

// Healthy reports liveness for /healthz: an orderer is healthy while its
// endpoint still accepts work (consensus stalls surface on the executor
// side, where the stall watchdog owns the judgement).
func (o *Orderer) Healthy() error {
	select {
	case <-o.stopCh:
		return fmt.Errorf("orderer stopped")
	default:
		return nil
	}
}
