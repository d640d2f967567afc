#!/usr/bin/env bash
# spitz-cli against `spitz-server -shards 2`: every subcommand dials the
# one client, which learns the shard map — so a verified range scan merges
# both shards' proven rows and each getv verifies against the owning
# shard's digest. (Before the client collapse `range` was refused here.)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
tmp=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
go build -o "$tmp/spitz-server" ./cmd/spitz-server
go build -o "$tmp/spitz-cli" ./cmd/spitz-cli
addr=127.0.0.1:$((20000 + RANDOM % 20000))
"$tmp/spitz-server" -addr "$addr" -shards 2 -inverted >"$tmp/server.log" 2>&1 &
pid=$!
cli() { "$tmp/spitz-cli" -addr "$addr" "$@"; }
for _ in $(seq 50); do cli digest >/dev/null 2>&1 && break; sleep 0.1; done

for i in 0 1 2 3 4 5 6 7; do cli put t c "pk$i" "value-$i" >/dev/null; done
expect() { # expect PATTERN CMD...: the command's output must contain PATTERN
	local want=$1 out
	shift
	out=$(cli "$@")
	grep -q -- "$want" <<<"$out" || { echo "spitz-cli $*: want /$want/, got:" >&2; echo "$out" >&2; exit 1; }
}
expect '^8 rows, verified$' range t c pk0 pk9
for i in 0 1 2 3 4 5 6 7; do
	expect "^value-$i	(verified against digest height [1-9]" getv t c "pk$i"
done
expect '(verified: absent)' getv t c nobody
expect '^value-3$' get t c pk3
expect 'value-5$' hist t c pk5
expect '^8	(verified)$' query "SELECT COUNT(c) FROM t WHERE pk BETWEEN 'pk0' AND 'pk7'"
expect '^shard 1: height=' stats
expect '^combined root: ' digest
echo "cli sharded smoke: put/get/getv/range/hist/query/stats/digest all served by a 2-shard server"
