#!/usr/bin/env bash
# Checks that every `go test -run` alternative and `-fuzz` target in the
# CI workflow names at least one test, benchmark or fuzz target in the
# packages its command lists (`go test -list`). A pattern left behind by
# a deleted test still passes in CI with "no tests to run", so a named
# gating step would silently check nothing.
#
#   scripts/ci_patterns.sh [workflow.yml]   (default .github/workflows/ci.yml)
#
# A -run pattern is split into alternatives at every `|`; each must match
# some listed name (grep -E, unanchored, as go test matches). '^$' — run
# nothing, used beside -fuzz — is skipped.
set -euo pipefail
cd "$(dirname "$0")/.."
workflow="${1:-.github/workflows/ci.yml}"

declare -A listed # package -> newline-separated test names
list_pkg() {
	local pkg="$1"
	[[ -z "${listed[$pkg]+set}" ]] || return 0
	listed[$pkg]="$(go test -list '.*' "$pkg" | grep -E '^(Test|Benchmark|Fuzz|Example)')" || {
		echo "ci_patterns: go test -list failed for $pkg" >&2
		exit 1
	}
}

missing=0
checked=0
while IFS= read -r line; do
	line="${line#"${line%%[![:space:]]*}"}"
	line="${line#run: }"
	# One line may chain several commands; check each go test on its own.
	while IFS= read -r cmd; do
		[[ "$cmd" =~ go\ test ]] || continue
		pkgs=$(grep -oE '\./[^[:space:]]*' <<<"$cmd" || true)
		[[ -n "$pkgs" ]] || continue
		for flag in -run -fuzz; do
			pattern=$(sed -nE "s/.*[[:space:]]$flag[[:space:]]+'([^']*)'.*/\1/p" <<<"$cmd")
			[[ -n "$pattern" && "$pattern" != '^$' ]] || continue
			IFS='|' read -ra alts <<<"$pattern"
			for alt in "${alts[@]}"; do
				checked=$((checked + 1))
				found=0
				for pkg in $pkgs; do
					list_pkg "$pkg"
					if grep -qE -- "$alt" <<<"${listed[$pkg]}"; then
						found=1
						break
					fi
				done
				if [[ $found == 0 ]]; then
					echo "ci_patterns: $flag alternative '$alt' matches nothing in" $pkgs >&2
					missing=$((missing + 1))
				fi
			done
		done
	done < <(sed 's/&&/\n/g' <<<"$line")
done < <(grep -E 'go test .*-(run|fuzz) ' "$workflow")

echo "ci_patterns: $checked alternatives checked, $missing missing"
[[ $missing == 0 ]]
