package node

import "fmt"

// Tunables is every performance and durability knob of a deployment,
// declared once. oxii.Config, bench.Options and clustercfg.Config embed
// it, so a knob added here is settable in process, from the benchmark
// harness and from cluster JSON at once, and executorConfig /
// ordererConfig / persistConfig (node.go) are the one place it is mapped
// onto the lower layers. Every zero value means "the layer's default".
//
// A field stays only while some caller needs a value other than its
// default (README's configuration reference names each caller). What
// every deployment runs anyway is a fact, not a knob: eight execution
// workers, a four-block execution window, the 64-block buffering-horizon
// floor, the 32-trace ring, the state-sync watchdog on every durable
// executor (stallTimeout), and one sync rule for every durable log
// (appends never sync; a block is externalized, and a cut multicast,
// only after its log's Sync).
type Tunables struct {
	// SnapshotInterval is the number of blocks between state snapshots
	// (and WAL truncations); zero uses the persist default (1024). It
	// cannot be negative, so the WAL stays bounded. Requires a data dir.
	SnapshotInterval int `json:"snapshotIntervalBlocks,omitempty"`
	// SegmentBytes is each executor's WAL segment roll threshold; zero
	// uses the persist default. Small values make WAL truncation
	// aggressive, which (with SnapshotInterval) controls how far back
	// peers can serve state-sync records before falling back to
	// snapshots; the sync suites reach that snapshot path through the
	// two. Ignored without a data dir.
	SegmentBytes int `json:"segmentBytes,omitempty"`
}

// Validate rejects values no layer can honor. durable says whether the
// deployment has a data dir. The message names a knob by its JSON tag.
func (t Tunables) Validate(durable bool) error {
	for _, knob := range []struct {
		name  string
		value int64
	}{
		{"snapshotIntervalBlocks", int64(t.SnapshotInterval)},
		{"segmentBytes", int64(t.SegmentBytes)},
	} {
		if knob.value < 0 {
			return fmt.Errorf("%s must be >= 0", knob.name)
		}
	}
	if !durable && t.SnapshotInterval != 0 {
		return fmt.Errorf("snapshotIntervalBlocks requires dataDir")
	}
	return nil
}
