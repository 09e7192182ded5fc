#!/usr/bin/env bash
# Lists exported package-level identifiers under internal/ (funcs, types,
# vars, consts) that nothing references outside their own package's
# _test.go files: deletion candidates for ROADMAP direction 5. A name
# counts as referenced when its own package's non-test code uses it, or
# when any other package's code or tests name it as pkg.Name. Methods and
# struct fields are not checked: interfaces use them without naming them.
# Textual (go list + awk), so it can miss a reference or see a false one;
# review each line before deleting anything.
#
#   scripts/unreferenced.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

# Every Go file of every package (tests included), tagged with the
# package's directory and name.
go list -f '{{$d := .Dir}}{{$n := .Name}}{{range .GoFiles}}{{$d}} {{$n}} {{$d}}/{{.}}
{{end}}{{range .TestGoFiles}}{{$d}} {{$n}} {{$d}}/{{.}}
{{end}}{{range .XTestGoFiles}}{{$d}} {{$n}} {{$d}}/{{.}}
{{end}}' ./... | awk -v root="$root/" '
	NF == 3 {
		dir = $1; sub("^" root, "", dir)
		path = $3
		test = path ~ /_test\.go$/
		while ((getline line < path) > 0) {
			sub(/\/\/.*/, "", line)                  # comments
			gsub(/"([^"\\]|\\.)*"|`[^`]*`/, "", line) # one-line string literals
			if (!test && dir ~ /^internal\// && block == "" && match(line, /^(func|type|var|const) [A-Z][A-Za-z0-9_]*/)) {
				name = substr(line, RSTART, RLENGTH); sub(/^[a-z]+ /, "", name)
				decl(dir, $2, name)
			} else if (!test && dir ~ /^internal\// && block != "" && match(line, /^\t[A-Z][A-Za-z0-9_]*/)) {
				decl(dir, $2, substr(line, 2, RLENGTH - 1))
			}
			if (line ~ /^(type|var|const) \($/) block = "open"
			else if (line ~ /^\)/) block = ""
			sub(/^func \([^)]*\)/, "func", line) # a receiver is not a use
			while (match(line, /[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?/)) {
				tok = substr(line, RSTART, RLENGTH)
				line = substr(line, RSTART + RLENGTH)
				if (tok ~ /\./) {
					if (!((tok, dir) in seen)) { seen[tok, dir] = 1; quals[tok] = quals[tok] SUBSEP dir }
				} else if (!test) {
					bare[dir, tok]++
				}
			}
		}
		close(path)
	}
	function decl(d, pkg, name) {
		if (!((d, name) in decls)) order[++n] = d SUBSEP pkg SUBSEP name
		decls[d, name]++
	}
	END {
		for (i = 1; i <= n; i++) {
			split(order[i], f, SUBSEP)
			d = f[1]; pkg = f[2]; name = f[3]
			if (bare[d, name] > decls[d, name]) continue
			used = 0
			k = split(quals[pkg "." name], ds, SUBSEP)
			for (j = 2; j <= k; j++) if (ds[j] != d) { used = 1; break }
			if (!used) { printf "%s.%s\n", d, name; count++ }
		}
		printf "%d exported identifiers under internal/ referenced only by their own package tests (or nowhere)\n", count > "/dev/stderr"
	}' | sort
