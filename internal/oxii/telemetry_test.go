package oxii

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/types"
)

func opsGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// A network with ops servers configured serves every endpoint, with the
// executor's pipeline and trace state visible after real commits.
func TestOpsServersEndToEnd(t *testing.T) {
	nw, _ := testNetwork(t, func(cfg *Config) {
		cfg.OpsAddrs = map[types.NodeID]string{
			"e1": "127.0.0.1:0",
			"o1": "127.0.0.1:0",
		}
	})
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 1))
		if _, err := client.Do(tx, 5*time.Second); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}

	exeSrv, ordSrv := nw.OpsServer("e1"), nw.OpsServer("o1")
	if exeSrv == nil || ordSrv == nil {
		t.Fatal("configured ops servers did not start")
	}
	if nw.OpsServer("e2") != nil {
		t.Fatal("e2 has no ops address, must have no server")
	}

	// Executor /metrics carries executor families and stage histograms.
	code, body := opsGet(t, exeSrv.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`parblockchain_executor_blocks_committed_total{node="e1"}`,
		`parblockchain_ledger_height{node="e1"}`,
		`parblockchain_block_stage_seconds_count{node="e1",stage="execute"}`,
		`parblockchain_transport_inmem_bytes_sent{node="e1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("executor /metrics missing %s", want)
		}
	}

	// Executor /statusz reflects the committed height.
	code, body = opsGet(t, exeSrv.Addr(), "/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d", code)
	}
	var st struct {
		Height  uint64 `json:"height"`
		TipHash string `json:"tip_hash"`
		Syncing bool   `json:"syncing"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if st.Height == 0 || st.TipHash == "" || st.Syncing {
		t.Fatalf("/statusz = %+v", st)
	}

	if code, body = opsGet(t, exeSrv.Addr(), "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// /traces holds completed block records with stage breakdowns.
	code, body = opsGet(t, exeSrv.Addr(), "/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var traces []struct {
		Height uint64           `json:"height"`
		Stages map[string]int64 `json:"stage_ns"`
	}
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/traces not JSON: %v\n%s", err, body)
	}
	if len(traces) == 0 {
		t.Fatal("/traces empty after commits")
	}
	if _, ok := traces[0].Stages["execute"]; !ok {
		t.Fatalf("trace missing execute stage: %+v", traces[0])
	}

	// Orderer endpoints: metrics with orderer families, statusz, healthz.
	code, body = opsGet(t, ordSrv.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("orderer /metrics status %d", code)
	}
	if !strings.Contains(body, `parblockchain_orderer_blocks_cut_total{node="o1"}`) {
		t.Errorf("orderer /metrics missing blocks_cut:\n%s", body)
	}
	code, body = opsGet(t, ordSrv.Addr(), "/statusz")
	if code != http.StatusOK {
		t.Fatalf("orderer /statusz status %d", code)
	}
	var ost struct {
		BlocksCut uint64 `json:"blocks_cut"`
	}
	if err := json.Unmarshal([]byte(body), &ost); err != nil {
		t.Fatalf("orderer /statusz not JSON: %v", err)
	}
	if ost.BlocksCut == 0 {
		t.Fatal("orderer cut no blocks per /statusz")
	}
	if code, _ = opsGet(t, ordSrv.Addr(), "/healthz"); code != http.StatusOK {
		t.Fatalf("orderer /healthz = %d", code)
	}

	// pprof is mounted.
	if code, _ = opsGet(t, exeSrv.Addr(), "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof = %d", code)
	}
}

// Killing an executor closes its ops server and frees the port; a
// restart brings a fresh server whose registry samples the new
// instance, so metrics resume instead of freezing at the corpse.
func TestOpsServerSurvivesExecutorRestart(t *testing.T) {
	nw, _ := testNetwork(t, func(cfg *Config) {
		cfg.OpsAddrs = map[types.NodeID]string{"e2": "127.0.0.1:0"}
	})
	client, err := nw.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	tx := client.Prepare("app1", contract.TransferOp("app1/alice", "app1/bob", 1))
	if _, err := client.Do(tx, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	srv := nw.OpsServer("e2")
	if srv == nil {
		t.Fatal("no ops server for e2")
	}
	nw.KillExecutor(1)
	if nw.OpsServer("e2") != nil {
		t.Fatal("killed executor's ops server must be gone")
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", srv.Addr())); err == nil {
		t.Fatal("old ops port must be closed after kill")
	}
	if err := nw.RestartExecutor(1); err != nil {
		t.Fatal(err)
	}
	srv = nw.OpsServer("e2")
	if srv == nil {
		t.Fatal("restarted executor must get a fresh ops server")
	}
	code, body := opsGet(t, srv.Addr(), "/metrics")
	if code != http.StatusOK || !strings.Contains(body, `parblockchain_ledger_height{node="e2"}`) {
		t.Fatalf("restarted /metrics = %d:\n%s", code, body)
	}
}
