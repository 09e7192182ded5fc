#!/bin/sh
# ops_smoke.sh — end-to-end smoke test of the per-node ops servers: build
# parnode, boot a minimal one-orderer/one-executor TCP cluster with
# opsAddrs configured, then curl every ops endpoint on both roles and
# grep the Prometheus exposition for the parblockchain_ metric families.
# Exits nonzero if any endpoint is missing, malformed, or unhealthy.
#
# Usage: scripts/ops_smoke.sh [workdir]
set -eu

dir="${1:-$(mktemp -d)}"
bin="$dir/parnode"
cfg="$dir/cluster.json"

go build -o "$bin" ./cmd/parnode

cat >"$cfg" <<'EOF'
{
  "orderers":  {"o1": "127.0.0.1:19701"},
  "executors": {"e1": "127.0.0.1:19702"},
  "apps": {"app1": ["e1"]},
  "opsAddrs": {"o1": "127.0.0.1:19801", "e1": "127.0.0.1:19802"},
  "blockTxns": 16,
  "blockIntervalMs": 50,
  "genesis": {"app1/alice": 1000, "app1/bob": 1000}
}
EOF

"$bin" -config "$cfg" -id o1 &
o_pid=$!
"$bin" -config "$cfg" -id e1 &
e_pid=$!
cleanup() {
	kill "$o_pid" "$e_pid" 2>/dev/null || true
	wait "$o_pid" "$e_pid" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

# fetch URL PATTERN — curl with startup retries, fail if the body never
# matches the pattern.
fetch() {
	url="$1"; pattern="$2"
	for _ in $(seq 1 50); do
		if body=$(curl -sf --max-time 2 "$url" 2>/dev/null) &&
			printf '%s' "$body" | grep -q "$pattern"; then
			return 0
		fi
		sleep 0.2
	done
	echo "FAIL: $url never matched '$pattern'" >&2
	echo "last body: ${body:-<none>}" >&2
	return 1
}

# Executor ops endpoints.
fetch http://127.0.0.1:19802/healthz '^ok$'
fetch http://127.0.0.1:19802/statusz '"height"'
fetch http://127.0.0.1:19802/statusz '"tip_hash"'
fetch http://127.0.0.1:19802/traces  '\[' # empty array before traffic
fetch http://127.0.0.1:19802/metrics 'parblockchain_executor_blocks_committed_total'
fetch http://127.0.0.1:19802/metrics 'parblockchain_ledger_height'
fetch http://127.0.0.1:19802/metrics 'parblockchain_transport_frames_sent_total'
fetch http://127.0.0.1:19802/debug/pprof/cmdline 'parnode'

# Orderer ops endpoints.
fetch http://127.0.0.1:19801/healthz '^ok$'
fetch http://127.0.0.1:19801/statusz '"blocks_cut"'
fetch http://127.0.0.1:19801/metrics 'parblockchain_orderer_blocks_cut_total'
fetch http://127.0.0.1:19801/metrics 'parblockchain_transport_bytes_sent_total'

# Exposition hygiene: every parblockchain_ family carries HELP and TYPE.
metrics=$(curl -sf http://127.0.0.1:19802/metrics)
families=$(printf '%s\n' "$metrics" | grep -c '^# TYPE parblockchain_' || true)
helps=$(printf '%s\n' "$metrics" | grep -c '^# HELP parblockchain_' || true)
if [ "$families" -lt 10 ] || [ "$families" != "$helps" ]; then
	echo "FAIL: exposition families=$families helps=$helps" >&2
	exit 1
fi

echo "ops smoke OK: $families metric families on the executor"
