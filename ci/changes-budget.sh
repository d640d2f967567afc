#!/usr/bin/env bash
# Fails when a CHANGES.md entry numbered 32 or above exceeds 1,536 bytes:
# ROADMAP item 3's doc budget (entries ≤ 1.5 KB; older entries predate it).
# An entry is a line that starts "PR <n>" and any lines after it up to the
# next such line; its size is their bytes, newlines excluded.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
LC_ALL=C awk -v limit=1536 -v from=32 '
function flush() {
	if (n < from) return
	if (size > max) { max = size; maxpr = n }
	if (size > limit) {
		printf "CHANGES.md: the PR %d entry is %d bytes, over the %d-byte budget\n", n, size, limit > "/dev/stderr"
		bad = 1
	}
}
/^PR [0-9]+/ { flush(); n = $2 + 0; size = 0 }
{ size += length($0) }
END {
	flush()
	printf "CHANGES.md: largest entry since PR %d is PR %d at %d bytes (budget %d)\n", from, maxpr, max, limit
	exit bad
}' CHANGES.md
