#!/bin/sh
# Refreshes BENCH_code.json: Go source lines per package directory, split
# into production (non-_test.go) and test lines, plus module totals. The
# perfbench module, testdata fixtures and the .bench_build scratch tree are
# not counted. Production line count is tracked like speed: a change that
# keeps behaviour while shrinking "non_test" is a simplification.
set -e
cd "$(dirname "$0")/.."
find . -name '*.go' \
	-not -path './.git/*' -not -path './perfbench/*' \
	-not -path './.bench_build/*' -not -path '*/testdata/*' |
	LC_ALL=C sort |
	while read -r f; do
		printf '%s %s\n' "$f" "$(wc -l <"$f")"
	done |
	awk '
	{
		dir = $1
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		if (!(dir in seen)) { seen[dir] = 1; order[++k] = dir }
		if ($1 ~ /_test\.go$/) { test[dir] += $2; T += $2 } else { prod[dir] += $2; P += $2 }
	}
	END {
		printf "{\n  \"packages\": {\n"
		for (i = 1; i <= k; i++) {
			d = order[i]
			printf "    \"%s\": {\"non_test\": %d, \"test\": %d}%s\n", d, prod[d], test[d], (i < k ? "," : "")
		}
		printf "  },\n  \"total\": {\"non_test\": %d, \"test\": %d}\n}\n", P, T
	}' >BENCH_code.json
cat BENCH_code.json
