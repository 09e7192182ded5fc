#!/usr/bin/env bash
# Prints the number ROADMAP's north star tracks: non-test Go lines outside
# benchmark/ and .bench_build/, in total and per package directory.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -- '*.go' | grep -v -e '_test\.go$' -e '^benchmark/' -e '^\.bench_build/' |
	xargs wc -l | awk '
		$2 == "total" { next }
		{
			dir = $2
			if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
			lines[dir] += $1
			total += $1
		}
		END {
			for (dir in lines) printf "%7d  %s\n", lines[dir], dir | "sort -k2"
			close("sort -k2")
			printf "%7d  total (non-test *.go outside benchmark/)\n", total
		}'
