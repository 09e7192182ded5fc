package persist

import "parblockchain/internal/telemetry"

// RegisterTelemetry exposes the durability counters on reg. All series
// sample atomics; the group-commit amortization is visible as
// wal_syncs_total growing far slower than wal_appends_total at pipeline
// depth > 1.
func (m *Manager) RegisterTelemetry(reg *telemetry.Registry, labels telemetry.Labels) {
	if reg == nil {
		return
	}
	reg.CounterFunc("parblockchain_persist_wal_appends_total",
		"WAL records written.", labels, m.log.appends.Load)
	reg.CounterFunc("parblockchain_persist_wal_syncs_total",
		"Fsyncs issued on WAL segments.", labels, m.log.syncs.Load)
	reg.CounterFunc("parblockchain_persist_snapshots_total",
		"State snapshots durably written.", labels, m.stats.snaps.Load)
	reg.CounterFunc("parblockchain_persist_snapshots_skipped_total",
		"Snapshot points skipped because a previous write was in flight.", labels,
		m.stats.snapSkipped.Load)
}
