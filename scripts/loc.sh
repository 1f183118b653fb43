#!/usr/bin/env bash
# Prints the non-test Go lines of every package under internal/ and
# cmd/, then srdf.go, then their total. Run from anywhere in the repo:
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
counts=$(
	{
		find internal cmd -name '*.go' ! -name '*_test.go' -print0 | xargs -0 wc -l | grep -v ' total$'
		wc -l srdf.go
	} | awk '{
		dir = $2
		if (dir ~ /\//) sub(/\/[^\/]*$/, "", dir)
		lines[dir] += $1
	}
	END { for (d in lines) printf "%7d  %s\n", lines[d], d }' | sort -k2
)
echo "$counts"
echo "$counts" | awk '{ t += $1 } END { printf "%7d  total\n", t }'
