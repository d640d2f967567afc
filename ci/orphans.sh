#!/usr/bin/env bash
# Fails when a package under internal/ has no non-test importer in the
# root module. ROADMAP north-star point 2: packages nothing imports go —
# a package only its own tests use is dead code with a test suite.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
imported=$(go list -f '{{join .Imports "\n"}}' ./... | sort -u)
orphans=$(go list ./internal/... | grep -vxF -f <(printf '%s\n' "$imported") || true)
if [ -n "$orphans" ]; then
	echo "packages under internal/ that no non-test code imports:" >&2
	echo "$orphans" >&2
	exit 1
fi
echo "every internal package has a non-test importer"
