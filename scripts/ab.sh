#!/usr/bin/env bash
# Paired A/B runs of the repo's benchmark: a parent commit against the
# working tree. The gate's bound is 0.25 because this class of host drifts
# for minutes at a time; alternating pairs on the same seed cancel the
# drift, so a gain (or a "flat") smaller than the gate can carry a number.
#
#   scripts/ab.sh [--pairs N] [--seed S] [--trace 0|1] [--metrics a,b,…] <parent-ref> [workload…]
#
# The parent is checked out with `git worktree add --detach` under the
# git-ignored .bench_build/ab/ and removed again on exit. Each pair runs
# the unmodified
#
#   bash benchmark/run.sh --workload W --seed S --seconds 26 --trace T
#
# once in each tree with the same seed (pair k uses seed S+k-1), and the
# side that runs first alternates from pair to pair. Every run's final
# JSON line is parsed; per workload and metric the summary prints both
# sides' median and quartiles, the median of the paired ratios new/parent,
# and the sign count (pairs, wins of the new side, ties). With --trace 0
# (default) the metrics are the gated end-to-end ones; with --trace 1 they
# are the per-layer ones, all of them or those named by --metrics.
#
# Every run made is appended to .bench_build/ab/runs-<parent>-<time>.tsv.
# Exits non-zero outside a git checkout, when a run fails, or when a run's
# correctness gate does not print "correct":true.
set -euo pipefail

die() {
	echo "scripts/ab.sh: $*" >&2
	exit 1
}

pairs=10 seed=1 trace=0 metrics="" args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--pairs) pairs="${2:?--pairs needs a count}" && shift 2 ;;
	--seed) seed="${2:?--seed needs a number}" && shift 2 ;;
	--trace) trace="${2:?--trace needs 0 or 1}" && shift 2 ;;
	--metrics) metrics="${2:?--metrics needs a comma-separated list}" && shift 2 ;;
	-h | --help) sed -n '2,27s/^# \{0,1\}//p' "$0" && exit 0 ;;
	-*) die "unknown option $1" ;;
	*) args+=("$1") && shift ;;
	esac
done
set -- ${args[@]+"${args[@]}"}
[ $# -ge 1 ] || die "usage: scripts/ab.sh [--pairs N] [--seed S] [--trace 0|1] [--metrics a,b] <parent-ref> [workload…]"
case "$pairs$seed" in *[!0-9]*) die "--pairs and --seed take non-negative integers" ;; esac
[ "$pairs" -ge 1 ] || die "--pairs must be at least 1"
case "$trace" in 0 | 1) ;; *) die "--trace takes 0 or 1" ;; esac
ref="$1" && shift

root=$(git rev-parse --show-toplevel 2>/dev/null) || die "not inside a git checkout: the parent side is a git worktree of <parent-ref>"
cd "$root"
[ -f BENCHMARK.json ] && [ -f benchmark/run.sh ] || die "no BENCHMARK.json and benchmark/run.sh at $root"
sha=$(git rev-parse --verify --quiet "$ref^{commit}") || die "unknown parent ref '$ref'"

# Workloads default to every one BENCHMARK.json names.
if [ $# -eq 0 ]; then
	set -- $(awk '/"workloads"/ {w = 1} /"end_to_end"/ {w = 0} w && /"name"/ {gsub(/[",]/, "", $2); print $2}' BENCHMARK.json)
fi

ab="$root/.bench_build/ab"
parent="$ab/parent-$(git rev-parse --short "$sha")"
runs="$ab/runs-$(git rev-parse --short "$sha")-$(date +%Y%m%dT%H%M%S).tsv"
mkdir -p "$ab"
drop_parent() {
	git worktree remove --force "$parent" 2>/dev/null || rm -rf "$parent"
	git worktree prune
}
drop_parent # left behind by an interrupted run
git worktree add --quiet --detach "$parent" "$sha" || die "git worktree add $parent failed"
trap drop_parent EXIT

# run_side <side> <tree> <workload> <pair> <seed> <first|second>: one
# benchmark run.
run_side() {
	local side=$1 tree=$2 w=$3 pair=$4 s=$5 turn=$6 out line t0 wall
	out="$ab/last-$side.out"
	t0=$(date +%s)
	if ! (cd "$tree" && bash benchmark/run.sh --workload "$w" --seed "$s" --seconds 26 --trace "$trace") >"$out" 2>"$ab/last-$side.err"; then
		tail -n 20 "$ab/last-$side.err" >&2
		die "$side run failed: workload $w seed $s (output kept in $ab/last-$side.out and .err)"
	fi
	wall=$(($(date +%s) - t0))
	line=$(awk 'NF {last = $0} END {print last}' "$out")
	case "$line" in
	*'"correct":true'*) ;;
	*) die "$side run did not pass its correctness gate: workload $w seed $s, final line: $line" ;;
	esac
	# One row per metric into $runs, and the run on one line as it is made.
	printf '%s\n' "$line" | awk -v w="$w" -v pair="$pair" -v s="$s" -v side="$side" -v turn="$turn" -v wall="$wall" -v want="$metrics" -v runs="$runs" '
		function row(name, v) {
			print w, pair, s, side, turn, wall, name, v >>runs
			printf " %s=%s", name, v
		}
		BEGIN { OFS = "\t"; n = split(want, names, ","); for (i = 1; i <= n; i++) keep[names[i]] = 1 }
		{
			printf "%s pair %s seed %s %-6s (%s, %ss):", w, pair, s, side, turn, wall
			failed = $0; sub(/.*"failed":/, "", failed); sub(/[^0-9].*/, "", failed)
			row("failed", failed)
			rest = $0
			while (match(rest, /"[A-Za-z0-9_.]+":\{"value":[-+0-9.eE]+/)) {
				kv = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
				name = kv; sub(/^"/, "", name); sub(/".*/, "", name)
				sub(/.*:/, "", kv)
				if (n == 0 || name in keep) row(name, kv)
			}
			print ""
		}'
}

echo "parent $(git rev-parse --short "$sha") vs working tree at $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +uncommitted); $pairs pairs per workload, seeds $seed..$((seed + pairs - 1)), --trace $trace"
for w in "$@"; do
	for pair in $(seq 1 "$pairs"); do
		s=$((seed + pair - 1))
		if [ $((pair % 2)) -eq 1 ]; then
			run_side parent "$parent" "$w" "$pair" "$s" first
			run_side new "$root" "$w" "$pair" "$s" second
		else
			run_side new "$root" "$w" "$pair" "$s" first
			run_side parent "$parent" "$w" "$pair" "$s" second
		fi
	done
done

# Summary: BENCHMARK.json says which direction is better for each metric.
awk -F'\t' '
	function quantile(a, n, q,    pos, lo) {
		pos = (n - 1) * q; lo = int(pos)
		return lo + 1 >= n ? a[n] : a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
	}
	function sorted(src, n, dst,    i, j, v) {
		for (i = 1; i <= n; i++) {
			v = src[i] + 0
			for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
			dst[j + 1] = v
		}
	}
	function spread(key, n,    i, a, b) {
		for (i = 1; i <= n; i++) a[i] = val[key, i]
		sorted(a, n, b)
		return sprintf("%.6g [%.6g, %.6g]", quantile(b, n, 0.5), quantile(b, n, 0.25), quantile(b, n, 0.75))
	}
	FNR == NR {
		if ($0 ~ /"name"/) { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name) }
		if ($0 ~ /"better"/) better[name] = ($0 ~ /higher/) ? 1 : -1
		next
	}
	{
		if (!(($1, $7) in seen)) { seen[$1, $7] = 1; order[++rows] = $1 SUBSEP $7 }
		val[$1, $7, $4, $2] = $8
		if ($2 + 0 > npairs[$1]) npairs[$1] = $2 + 0
	}
	END {
		printf "\n%-16s %-40s %-32s %-32s %-17s %s\n", "workload", "metric", "parent median [q1, q3]", "new median [q1, q3]", "ratio new/parent", "pairs wins ties"
		for (r = 1; r <= rows; r++) {
			split(order[r], k, SUBSEP); w = k[1]; m = k[2]; n = npairs[w]
			wins = ties = nr = 0
			for (p = 1; p <= n; p++) {
				a = val[w, m, "parent", p] + 0; b = val[w, m, "new", p] + 0
				if (a == b) ties++
				else if (m in better && (b - a) * better[m] > 0) wins++
				if (a != 0) ratios[++nr] = b / a
			}
			ratio = "-"
			if (nr) { sorted(ratios, nr, rs); ratio = sprintf("x%.3f", quantile(rs, nr, 0.5)) }
			verdict = (m in better) ? sprintf("%d %d %d", n, wins, ties) : sprintf("%d - %d", n, ties)
			printf "%-16s %-40s %-32s %-32s %-17s %s\n", w, m, spread(w SUBSEP m SUBSEP "parent", n), spread(w SUBSEP m SUBSEP "new", n), ratio, verdict
		}
	}' BENCHMARK.json "$runs"
echo "runs: ${runs#"$root"/}"
