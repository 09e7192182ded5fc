package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"parblockchain/internal/telemetry"
)

// metricDef names one metric. BENCHMARK.json lists the same names and
// units; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the metrics a user of the system sees; they gate later
// PRs with the bounds in BENCHMARK.json.
var endToEndDefs = []metricDef{
	{"throughput_tps", "tx/s", "higher"},
	{"commit_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerDefs are the single-layer metrics of the traced pass, named
// layer.metric after the repo's packages. They are reported, not gated.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"loadgen.late_p99_ms", "ms", "lower"},
		{"process.cpu_us_per_tx", "us", "lower"},
		{"process.alloc_bytes_per_tx", "B", "lower"},
		{"process.gc_pause_ms", "ms", "lower"},
		{"process.peak_rss_mb", "MB", "lower"},
		{"process.build_s", "s", "lower"},
		{"oxii.submit_us", "us", "lower"},
		{"oxii.notify_us_p50", "us", "lower"},
		{"oxii.commit_p95_ms", "ms", "lower"},
		{"oxii.commit_p99_ms", "ms", "lower"},
		{"ordering.order_ms_p50", "ms", "lower"},
		{"ordering.txns_per_block", "count", "higher"},
		{"ordering.graph_build_us_per_block", "us", "lower"},
		{"ordering.log_syncs_per_block", "count", "lower"},
		{"consensus.msgs_per_tx", "count", "lower"},
		{"transport.msgs_per_tx", "count", "lower"},
		{"transport.bytes_per_tx", "B", "lower"},
		{"transport.inmem_send_ns", "ns", "lower"},
		{"transport.tcp_block_oneway_us", "us", "lower"},
		{"transport.tcp_msgs_per_s", "1/s", "higher"},
		{"types.tx_marshal_ns", "ns", "lower"},
		{"types.tx_unmarshal_ns", "ns", "lower"},
		{"types.block_marshal_us", "us", "lower"},
		{"types.block_unmarshal_us", "us", "lower"},
		{"cryptoutil.sign_us", "us", "lower"},
		{"cryptoutil.verify_us", "us", "lower"},
		{"depgraph.build_us_per_block", "us", "lower"},
		{"depgraph.critical_path_len", "count", "lower"},
		{"depgraph.max_width", "count", "higher"},
		{"execution.deliver_to_externalize_ms_p50", "ms", "lower"},
	}
	for _, stage := range telemetry.StageNames {
		defs = append(defs, metricDef{"execution.stage_" + stage + "_ms_p50", "ms", "lower"})
	}
	return append(defs,
		metricDef{"execution.stage_residual_ms", "ms", "lower"},
		metricDef{"execution.hop_ms", "ms", "lower"},
		metricDef{"execution.parallel_efficiency", "ratio", "higher"},
		metricDef{"execution.commit_msgs_per_block", "count", "lower"},
		metricDef{"execution.reexec_share", "ratio", "lower"},
		metricDef{"execution.msgs_dropped_future", "count", "lower"},
		metricDef{"execution.replay_tps", "tx/s", "higher"},
		metricDef{"execution.replay_scaling", "ratio", "higher"},
		metricDef{"state.apply_us_per_block", "us", "lower"},
		metricDef{"state.get_ns", "ns", "lower"},
		metricDef{"persist.log_block_us", "us", "lower"},
		metricDef{"persist.fsync_ms", "ms", "lower"},
		metricDef{"persist.syncs_per_block", "count", "lower"},
		metricDef{"persist.wal_bytes_per_tx", "B", "lower"},
		metricDef{"persist.recover_s", "s", "lower"},
		metricDef{"ledger.append_us_per_block", "us", "lower"},
		metricDef{"telemetry.trace_overhead_share", "ratio", "lower"},
	)
}()

// runResult is what one run of one workload measured.
type runResult struct {
	workload  string
	attempted int
	failed    int
	samples   int // rate-phase latency samples behind the percentiles
	traced    bool
	metrics   map[string]float64
}

func (r *runResult) defs() []metricDef {
	if r.traced {
		return perLayerDefs
	}
	return endToEndDefs
}

// print writes every metric by name and unit, with the operation counts
// beside them.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: ops_attempted=%d ops_failed=%d failed_share=%g latency_samples=%d (supports p%g)\n",
		r.workload, r.attempted, r.failed, float64(r.failed)/float64(r.attempted), r.samples, 100*highestSupported(r.samples))
	for _, d := range r.defs() {
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", d.name, r.metrics[d.name], d.unit)
	}
}

// driverLine is the one-line JSON object the driver reads from the end
// of standard output.
func (r *runResult) driverLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value)}
	for _, d := range r.defs() {
		out.Metrics[d.name] = value{r.metrics[d.name], d.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(raw)
}

// environment is recorded with every stored result.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	TempFS     string `json:"temp_fs"`
}

func readEnvironment(tmpDir string) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		TempFS:     fsType(tmpDir),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	return env
}
