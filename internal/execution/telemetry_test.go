package execution

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parblockchain/internal/telemetry"
	"parblockchain/internal/types"
)

// Scrape-under-load: Stats, Status, Healthy, and a full Prometheus
// scrape must be safe (and race-free under -race) while the pipeline is
// finalizing blocks. The scrapers hammer continuously while 50 blocks
// stream through; afterwards the scrape output must carry the executor
// families and the tracer must have complete records.
func TestTelemetryScrapeUnderLoad(t *testing.T) {
	tracer := telemetry.NewBlockTracer(8)
	h := newHarness(t, func(cfg *Config) {
		cfg.Tracer = tracer
		cfg.PipelineDepth = 4
	})
	reg := telemetry.NewRegistry()
	h.exec.RegisterTelemetry(reg, telemetry.Labels{"node": "e1"})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = h.exec.Stats()
				st := h.exec.Status()
				if st.PipelineDepth != 4 {
					t.Errorf("Status.PipelineDepth = %d", st.PipelineDepth)
					return
				}
				_ = h.exec.Healthy()
				buf.Reset()
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}

	const blocks = 50
	for i := 0; i < blocks; i++ {
		h.sendBlock([]*types.Transaction{
			kvTx("app1", uint64(2*i+1), types.Key("a"), "x"),
			kvTx("app1", uint64(2*i+2), types.Key("b"), "y"),
		})
	}
	deadline := time.After(20 * time.Second)
	for i := 0; i < blocks; i++ {
		select {
		case <-h.commits:
		case <-deadline:
			t.Fatalf("only %d/%d blocks finalized", i, blocks)
		}
	}
	close(stop)
	wg.Wait()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`parblockchain_executor_blocks_committed_total{node="e1"} 50`,
		`parblockchain_executor_tx_committed_total{node="e1"} 100`,
		`parblockchain_ledger_height{node="e1"} 50`,
		`parblockchain_block_stage_seconds_count{node="e1",stage="execute"} 50`,
		`parblockchain_block_stage_seconds_bucket{node="e1",stage="total",le="+Inf"} 50`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape output missing %q", want)
		}
	}
	if st := h.exec.Status(); st.Height != blocks || st.Halted || st.Syncing {
		t.Fatalf("final status = %+v", st)
	}
	if err := h.exec.Healthy(); err != nil {
		t.Fatalf("Healthy after drain: %v", err)
	}
	slow := tracer.Slowest()
	if len(slow) != 8 {
		t.Fatalf("slowest ring holds %d records, want 8", len(slow))
	}
	for _, rec := range slow {
		if rec.TotalNanos <= 0 {
			t.Fatalf("trace %d has non-positive total %d", rec.Height, rec.TotalNanos)
		}
		for _, stage := range []string{"execute", "finalize", "externalize"} {
			if _, ok := rec.StageNanos[stage]; !ok {
				t.Fatalf("trace %d missing stage %q: %+v", rec.Height, stage, rec.StageNanos)
			}
		}
	}
	stages := tracer.StageSnapshot()
	if stages["total"].Count != blocks {
		t.Fatalf("total stage count = %d, want %d", stages["total"].Count, blocks)
	}
}

// A halted executor names the reason on both ops endpoints: /statusz
// carries halt_reason next to halted, /healthz answers "halted: <reason>".
func TestHaltReasonOnOpsEndpoints(t *testing.T) {
	h := newHarness(t, nil)
	srv := httptest.NewServer(telemetry.NewHandler(telemetry.ServerConfig{
		Status: func() any { return h.exec.Status() },
		Health: h.exec.Healthy,
	}))
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if _, body := get("/statusz"); strings.Contains(body, "halt_reason") {
		t.Fatalf("a running executor must omit halt_reason: %s", body)
	}

	// A quorum-backed block that does not extend the local chain halts.
	h.prevHash = types.Hash{0xbd}
	h.sendBlock([]*types.Transaction{kvTx("app1", 1, "a", "1")})
	const reason = "block 0 does not extend local chain"
	deadline := time.Now().Add(5 * time.Second)
	for !h.exec.Status().Halted {
		if time.Now().After(deadline) {
			t.Fatal("executor did not halt")
		}
		time.Sleep(time.Millisecond)
	}

	code, body := get("/statusz")
	var st struct {
		Halted     bool   `json:"halted"`
		HaltReason string `json:"halt_reason"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil || code != http.StatusOK {
		t.Fatalf("/statusz = %d %q: %v", code, body, err)
	}
	if !st.Halted || st.HaltReason != reason {
		t.Fatalf("/statusz halted=%v halt_reason=%q, want true %q", st.Halted, st.HaltReason, reason)
	}
	code, body = get("/healthz")
	if code != http.StatusServiceUnavailable || strings.TrimSpace(body) != "halted: "+reason {
		t.Fatalf("/healthz = %d %q, want 503 %q", code, body, "halted: "+reason)
	}
}

// A scrape on an idle executor with no tracer must still work: zeroed
// gauges, no histogram families, healthy status.
func TestTelemetryScrapeIdleNoTracer(t *testing.T) {
	h := newHarness(t, nil)
	reg := telemetry.NewRegistry()
	h.exec.RegisterTelemetry(reg, nil)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "parblockchain_executor_window_depth 0") {
		t.Errorf("idle scrape missing zero window depth:\n%s", out)
	}
	if strings.Contains(out, "parblockchain_block_stage_seconds") {
		t.Error("tracer families must not register when tracing is off")
	}
	if h.exec.Tracer() != nil {
		t.Error("Tracer() must be nil when unset")
	}
	if err := h.exec.Healthy(); err != nil {
		t.Fatalf("idle executor unhealthy: %v", err)
	}
}
