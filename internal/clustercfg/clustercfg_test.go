package clustercfg

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parblockchain/internal/node"
	"parblockchain/internal/types"
)

func write(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const valid = `{
  "orderers": {"o1": "127.0.0.1:7001", "o2": "127.0.0.1:7002"},
  "executors": {"e2": "127.0.0.1:7102", "e1": "127.0.0.1:7101"},
  "clients": {"c1": "127.0.0.1:7201"},
  "apps": {"app1": ["e1"], "app2": ["e2"]},
  "genesis": {"app1/alice": 1000}
}`

func TestLoadValid(t *testing.T) {
	cfg, err := Load(write(t, valid))
	if err != nil {
		t.Fatal(err)
	}
	// The block cut has one default, the ordering layer's: Load passes
	// unset cut parameters through as zero.
	if cfg.BlockTxns != 0 || cfg.BlockIntervalMs != 0 || cfg.Consensus != "kafka" {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if nc := cfg.Node("e1"); nc.MaxBlockTxns != 0 || nc.MaxBlockInterval != 0 {
		t.Fatalf("unset block cut must reach the node as zero: %+v", nc)
	}
	if cfg.Observer != "e1" {
		t.Fatalf("observer default = %s, want first sorted executor e1", cfg.Observer)
	}
	ids := cfg.OrdererIDs()
	if len(ids) != 2 || ids[0] != "o1" || ids[1] != "o2" {
		t.Fatalf("OrdererIDs = %v", ids)
	}
	// Sorted determinism for executors too.
	eids := cfg.ExecutorIDs()
	if eids[0] != "e1" || eids[1] != "e2" {
		t.Fatalf("ExecutorIDs = %v, want sorted", eids)
	}
	book := cfg.AddrBook()
	if len(book) != 5 || book["c1"] != "127.0.0.1:7201" {
		t.Fatalf("AddrBook = %v", book)
	}
	agents := cfg.AgentsOf()
	if len(agents["app1"]) != 1 || agents["app1"][0] != types.NodeID("e1") {
		t.Fatalf("AgentsOf = %v", agents)
	}
	kvs, err := cfg.GenesisKVs(func(v int64) []byte { return []byte{byte(v % 256)} })
	if err != nil || len(kvs) != 1 || kvs[0].Key != "app1/alice" {
		t.Fatalf("GenesisKVs = %v, %v", kvs, err)
	}
}

// TestLoadLeavesGenesisToExecutors: Load does not decode the genesis
// table — an orderer never reads it — so a malformed balance loads, and
// GenesisKVs, which an executor calls at start, refuses it.
func TestLoadLeavesGenesisToExecutors(t *testing.T) {
	cfg, err := Load(write(t, strings.Replace(valid, `"app1/alice": 1000`, `"app1/alice": 1e3`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Genesis != nil {
		t.Fatalf("Load decoded the genesis table: %v", cfg.Genesis)
	}
	if kvs, err := cfg.GenesisKVs(func(int64) []byte { return nil }); err == nil {
		t.Fatalf("GenesisKVs accepted a non-integer balance: %v", kvs)
	}
}

func TestLoadRejectsUnknownAgent(t *testing.T) {
	bad := `{
  "orderers": {"o1": "x"},
  "executors": {"e1": "y"},
  "apps": {"app1": ["ghost"]}
}`
	if _, err := Load(write(t, bad)); err == nil {
		t.Fatal("unknown agent must be rejected")
	}
}

func TestLoadRejectsEmptyTopology(t *testing.T) {
	if _, err := Load(write(t, `{"orderers": {}, "executors": {"e1": "x"}}`)); err == nil {
		t.Fatal("empty orderers must be rejected")
	}
}

func TestLoadRejectsMalformedJSON(t *testing.T) {
	if _, err := Load(write(t, "{not json")); err == nil {
		t.Fatal("malformed JSON must be rejected")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must be rejected")
	}
}

func TestLoadDurabilityFields(t *testing.T) {
	good := `{
  "orderers": {"o1": "x"},
  "executors": {"e1": "y"},
  "dataDir": "/var/lib/parblockchain",
  "snapshotIntervalBlocks": 256
}`
	cfg, err := Load(write(t, good))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NodeDataDir("e1") != filepath.Join("/var/lib/parblockchain", "e1") {
		t.Fatalf("NodeDataDir = %q", cfg.NodeDataDir("e1"))
	}
	if cfg.SnapshotInterval != 256 {
		t.Fatalf("durability fields not loaded: %+v", cfg)
	}

	// In-memory cluster: NodeDataDir must stay empty.
	inmem := `{"orderers": {"o1": "x"}, "executors": {"e1": "y"}}`
	cfg, err = Load(write(t, inmem))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NodeDataDir("e1") != "" {
		t.Fatalf("in-memory NodeDataDir = %q", cfg.NodeDataDir("e1"))
	}
}

func TestLoadRejectsSnapshotIntervalWithoutDataDir(t *testing.T) {
	bad := `{
  "orderers": {"o1": "x"},
  "executors": {"e1": "y"},
  "snapshotIntervalBlocks": 256
}`
	if _, err := Load(write(t, bad)); err == nil || !strings.Contains(err.Error(), "snapshotIntervalBlocks") {
		t.Fatalf("snapshotIntervalBlocks without dataDir: err = %v, want an error naming it", err)
	}
}

func TestLoadOpsFields(t *testing.T) {
	cfg, err := Load(write(t, `{
  "orderers": {"o1": "127.0.0.1:7001"},
  "executors": {"e1": "127.0.0.1:7101"},
  "opsAddrs": {"o1": "127.0.0.1:9001", "e1": "127.0.0.1:9101"}
}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Node("o1").OpsAddr != "127.0.0.1:9001" || cfg.Node("e1").OpsAddr != "127.0.0.1:9101" {
		t.Fatalf("OpsAddr lookups wrong: %+v", cfg.OpsAddrs)
	}
	if cfg.Node("e2").OpsAddr != "" {
		t.Fatal("unknown node must have no ops address")
	}

	// Ops defaults: absent map means every node runs without telemetry.
	cfg, err = Load(write(t, `{"orderers": {"o1": "x"}, "executors": {"e1": "y"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Node("o1").OpsAddr != "" {
		t.Fatalf("ops defaults wrong: %+v", cfg)
	}
}

func TestLoadRejectsOpsAddrForUnknownNode(t *testing.T) {
	bad := `{
  "orderers": {"o1": "x"},
  "executors": {"e1": "y"},
  "opsAddrs": {"ghost": "127.0.0.1:9999"}
}`
	if _, err := Load(write(t, bad)); err == nil {
		t.Fatal("opsAddrs entry for unknown node must be rejected")
	}
}

// TestLoadRejectsNegativeKnobs sets each integer knob to -1 and expects
// an error naming it.
func TestLoadRejectsNegativeKnobs(t *testing.T) {
	for _, knob := range []string{"snapshotIntervalBlocks", "segmentBytes"} {
		bad := fmt.Sprintf(`{"orderers": {"o1": "x"}, "executors": {"e1": "y"}, %q: -1}`, knob)
		if _, err := Load(write(t, bad)); err == nil || !strings.Contains(err.Error(), knob) {
			t.Errorf("negative %s: err = %v, want an error naming it", knob, err)
		}
	}
}

// TestLoadRejectsRetiredConsensus loads a file naming the retired Raft
// plug (and a misspelled one): Load must fail with an error naming the
// value and the two plugs that remain.
func TestLoadRejectsRetiredConsensus(t *testing.T) {
	for _, kind := range []string{"raft", "kafak"} {
		bad := fmt.Sprintf(`{"orderers": {"o1": "x"}, "executors": {"e1": "y"}, "consensus": %q}`, kind)
		_, err := Load(write(t, bad))
		if err == nil {
			t.Fatalf("consensus %q: loaded, want an error", kind)
		}
		for _, want := range []string{`"` + kind + `"`, `"kafka"`, `"pbft"`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("consensus %q: err = %v, want it to name %s", kind, err, want)
			}
		}
	}
	for _, kind := range []string{"kafka", "pbft"} {
		ok := fmt.Sprintf(`{"orderers": {"o1": "x"}, "executors": {"e1": "y"}, "consensus": %q}`, kind)
		if _, err := Load(write(t, ok)); err != nil {
			t.Errorf("consensus %q: %v", kind, err)
		}
	}
}

// TestLoadRejectsUnknownKeys loads every file under testdata/unknown/,
// each a cluster file that sets one key Config does not declare — a knob
// a past PR removed, or a misspelled one — named after the file. Load
// must fail and name the key instead of running the default silently.
func TestLoadRejectsUnknownKeys(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "unknown", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, path := range files {
		key := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(key, func(t *testing.T) {
			if _, err := Load(path); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
				t.Fatalf("err = %v, want an error naming %q", err, key)
			}
		})
	}
	if _, err := Load(write(t, valid+` {}`)); err == nil {
		t.Fatal("data after the top-level object must be rejected")
	}
}

// TestRoundTrip marshals a Config with every field, every Tunables field
// included, set and loads it back: the path the TCP benchmark takes
// (json.Marshal → parnode -config) must lose and reject nothing.
func TestRoundTrip(t *testing.T) {
	want := Config{
		Orderers:        map[string]string{"o1": "127.0.0.1:7001"},
		Executors:       map[string]string{"e1": "127.0.0.1:7101", "e2": "127.0.0.1:7102"},
		Clients:         map[string]string{"c1": "127.0.0.1:7201"},
		Apps:            map[string][]string{"app1": {"e1", "e2"}},
		Observer:        "e2",
		Consensus:       node.ConsensusPBFT,
		BlockTxns:       64,
		BlockIntervalMs: 20,
		Tunables: node.Tunables{
			SnapshotInterval: 32,
			SegmentBytes:     1 << 20,
		},
		DataDir:  "/var/lib/parblockchain",
		OpsAddrs: map[string]string{"e1": "127.0.0.1:9101"},
		Crypto:   true,
		Genesis:  map[string]int64{"app1/alice": 1000},
	}
	v := reflect.ValueOf(want)
	for i := 0; i < v.NumField(); i++ {
		// Unexported fields are Load's own state, not in the file.
		if v.Type().Field(i).IsExported() && v.Field(i).IsZero() {
			t.Fatalf("Config.%s is zero: set it so the round trip covers it", v.Type().Field(i).Name)
		}
	}
	tv := reflect.ValueOf(want.Tunables)
	for i := 0; i < tv.NumField(); i++ {
		if tv.Field(i).IsZero() {
			t.Fatalf("Tunables.%s is zero: set it so the round trip covers it", tv.Type().Field(i).Name)
		}
	}
	raw, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(write(t, string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Genesis, err = got.genesis(); err != nil {
		t.Fatal(err)
	}
	got.genesisRaw = nil
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", *got, want)
	}
}
