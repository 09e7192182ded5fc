package node_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"parblockchain/internal/clustercfg"
	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/execution"
	"parblockchain/internal/node"
	"parblockchain/internal/ordering"
	"parblockchain/internal/oxii"
	"parblockchain/internal/persist"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// effective is what one executor and one orderer built from a config
// actually run with.
type effective struct {
	exec    execution.Config
	ord     ordering.Config
	persist persist.Config
	ring    int // slowest-traces ring capacity, observed on the tracer
}

func effectiveOf(x *node.Executor, o *node.Orderer) effective {
	var e effective
	e.exec, e.persist = x.Effective()
	e.ord = o.Effective()
	tr := x.Tracer()
	for h := uint64(0); h < 64; h++ {
		tr.Finish(tr.Start(h))
	}
	e.ring = len(tr.Slowest())
	return e
}

// knobs holds, for every field of node.Tunables, a non-zero value in
// cluster-JSON spelling, whatever other knob that value needs to be
// legal, and where it has to surface in the lower layers' configs as
// (got, want) pairs.
var knobs = map[string]struct {
	json, needs string
	lands       func(e effective) [][2]any
}{
	"ExecWorkers":   {json: `3`, lands: func(e effective) [][2]any { return [][2]any{{e.exec.Workers, 3}} }},
	"PipelineDepth": {json: `3`, lands: func(e effective) [][2]any { return [][2]any{{e.exec.PipelineDepth, 3}} }},
	"MinHorizon":    {json: `3`, lands: func(e effective) [][2]any { return [][2]any{{e.exec.MinHorizon, 3}} }},
	"SyncStallMs":   {json: `3`, lands: func(e effective) [][2]any { return [][2]any{{e.exec.StallTimeout, 3 * time.Millisecond}} }},
	"FsyncPolicy": {json: `"always"`, lands: func(e effective) [][2]any {
		return [][2]any{{e.persist.Fsync, persist.FsyncAlways}, {e.ord.Fsync, persist.FsyncAlways}}
	}},
	"SnapshotInterval": {json: `3`, lands: func(e effective) [][2]any { return [][2]any{{e.persist.SnapshotInterval, 3}} }},
	"SegmentBytes":     {json: `4096`, lands: func(e effective) [][2]any { return [][2]any{{e.persist.SegmentBytes, 4096}} }},
	"StateBackend":     {json: `"tiered"`, lands: func(e effective) [][2]any { return [][2]any{{e.persist.StateBackend, "tiered"}} }},
	"HotTierBytes": {json: `4096`, needs: `"stateBackend": "tiered"`,
		lands: func(e effective) [][2]any { return [][2]any{{e.persist.HotTierBytes, int64(4096)}} }},
	"TraceRing": {json: `3`, lands: func(e effective) [][2]any { return [][2]any{{e.ring, 3}} }},
}

// TestNoKnobSilentlyDropped sets each Tunables field, one at a time, in a
// cluster JSON file and in an oxii.Config, builds an executor and an
// orderer through this package from each, and checks the value reaches
// the execution / ordering / persist config it belongs in. A field added
// to Tunables without a row here, or without a mapping in node.go, fails.
func TestNoKnobSilentlyDropped(t *testing.T) {
	fields := reflect.TypeOf(node.Tunables{})
	if fields.NumField() != len(knobs) {
		t.Errorf("Tunables has %d fields, the knob table %d rows", fields.NumField(), len(knobs))
	}
	for i := 0; i < fields.NumField(); i++ {
		f := fields.Field(i)
		knob, ok := knobs[f.Name]
		if !ok {
			t.Errorf("Tunables.%s has no row in the knob table: say where it lands", f.Name)
			continue
		}
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		setting := fmt.Sprintf("%q: %s", tag, knob.json)
		if knob.needs != "" {
			setting += ", " + knob.needs
		}
		check := func(t *testing.T, x *node.Executor, o *node.Orderer) {
			t.Helper()
			for _, pair := range knob.lands(effectiveOf(x, o)) {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Errorf("%s: a node runs with %v, want %v", setting, pair[0], pair[1])
				}
			}
		}
		t.Run(f.Name+"/clusterJSON", func(t *testing.T) {
			x, o := fromClusterJSON(t, setting)
			check(t, x, o)
		})
		t.Run(f.Name+"/oxii", func(t *testing.T) {
			var cfg oxii.Config
			if err := json.Unmarshal([]byte("{"+setting+"}"), &cfg.Tunables); err != nil {
				t.Fatal(err)
			}
			x, o := fromOXII(t, cfg)
			check(t, x, o)
		})
	}
}

var accounting = map[types.AppID]contract.Contract{"app1": contract.NewAccounting()}

// fromClusterJSON builds e1 and o1 of a durable two-node cluster whose
// file carries the setting, the way parnode does.
func fromClusterJSON(t *testing.T, setting string) (*node.Executor, *node.Orderer) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	file := fmt.Sprintf(`{"orderers": {"o1": "x"}, "executors": {"e1": "y"}, "apps": {"app1": ["e1"]},
		"dataDir": %q, %s}`, filepath.Join(dir, "data"), setting)
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := clustercfg.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	t.Cleanup(net.Close)
	describe := func(id types.NodeID) node.Config {
		nc := cfg.Node(id)
		if nc.Endpoint, err = net.Endpoint(id); err != nil {
			t.Fatal(err)
		}
		nc.Signer, nc.Verifier = cryptoutil.NoopSigner{NodeID: string(id)}, cryptoutil.NoopVerifier{}
		nc.Contracts = accounting
		nc.Trace = true
		nc.Logf = t.Logf
		return nc
	}
	x, err := node.NewExecutor(describe("e1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Stop)
	o, err := node.NewOrderer(describe("o1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Stop)
	return x, o
}

// fromOXII builds the same two nodes as an in-process network.
func fromOXII(t *testing.T, cfg oxii.Config) (*node.Executor, *node.Orderer) {
	t.Helper()
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	t.Cleanup(net.Close)
	cfg.Orderers = []types.NodeID{"o1"}
	cfg.Executors = []types.NodeID{"e1"}
	cfg.Agents = map[types.AppID][]types.NodeID{"app1": {"e1"}}
	cfg.Contracts = accounting
	cfg.DataDir = t.TempDir()
	cfg.Trace = true
	cfg.Net = net
	cfg.Logf = t.Logf
	nw, err := oxii.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Stop)
	return nw.ExecutorNodes[0], nw.OrdererNodes[0]
}
