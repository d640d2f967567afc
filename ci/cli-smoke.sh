#!/usr/bin/env bash
# spitz-cli against every serving configuration of spitz-server: a single
# in-memory engine (1×0), a durable single engine killed with -9 and
# restarted on its `-data-dir`, a one-shard cluster (`-shards 0`),
# `-shards 2`, and a `-replicate-from` replica of a durable
# `-shards 2 -data-dir` primary. Every subcommand
# dials the one client, which learns the shard map, and every server is
# the one shard router — so the same read expectations hold on all of
# them, and the replica refuses writes.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
tmp=$(mktemp -d)
pids=()
trap 'kill "${pids[@]}" 2>/dev/null || true; rm -rf "$tmp"' EXIT
go build -o "$tmp/spitz-server" ./cmd/spitz-server
go build -o "$tmp/spitz-cli" ./cmd/spitz-cli

cli() { "$tmp/spitz-cli" -addr "$1" "${@:2}"; }
fail() { echo "$1" >&2; echo "$2" >&2; exit 1; }
start() { # start NAME FLAGS...: run a server on a fresh port and set $addr
	local name=$1
	shift
	addr=127.0.0.1:$((20000 + RANDOM % 20000))
	"$tmp/spitz-server" -addr "$addr" "$@" >"$tmp/$name.log" 2>&1 &
	pids+=($!)
	for _ in $(seq 50); do cli "$addr" digest >/dev/null 2>&1 && return; sleep 0.1; done
	fail "$name never answered:" "$(cat "$tmp/$name.log")"
}
expect() { # expect ADDR PATTERN CMD...: the command succeeds and prints PATTERN
	local at=$1 want=$2 out
	shift 2
	out=$(cli "$at" "$@" 2>&1) || fail "spitz-cli $* failed:" "$out"
	grep -q -- "$want" <<<"$out" || fail "spitz-cli $*: want /$want/, got:" "$out"
}
refuse() { # refuse ADDR PATTERN CMD...: the command fails and prints PATTERN
	local at=$1 want=$2 out
	shift 2
	if out=$(cli "$at" "$@" 2>&1); then fail "spitz-cli $* succeeded, want a refusal:" "$out"; fi
	grep -q -- "$want" <<<"$out" || fail "spitz-cli $*: want /$want/, got:" "$out"
}
writes() { # writes ADDR ACK: eight puts, the i-th acked as ACK with @ read as i
	for i in 0 1 2 3 4 5 6 7; do expect "$1" "${2//@/$i}" put t c "pk$i" "value-$i"; done
}
block='^committed block @ (version [0-9]*)$'     # one engine's ack names its block
anyblock='^committed block [0-9]* (version [0-9]*)$' # so does a shard's, at its own height
reads() {
	expect "$1" '^8 rows, verified$' range t c pk0 pk9
	for i in 0 1 2 3 4 5 6 7; do
		expect "$1" "^value-$i	(verified against digest height [1-9]" get t c "pk$i"
	done
	expect "$1" '(verified: absent)' get t c nobody
	expect "$1" 'value-5$' hist t c pk5
	expect "$1" '^1 versions, verified$' hist t c pk5
	expect "$1" '^8	(verified)$' query "SELECT COUNT(c) FROM t WHERE pk BETWEEN 'pk0' AND 'pk7'"
	expect "$1" 'height=[1-9]' stats
	expect "$1" 'root[=:]' digest
}

start single -inverted
writes "$addr" "$block"
reads "$addr"

start durable -inverted -data-dir "$tmp/durable"
writes "$addr" "$block"
expect "$addr" '^saved ' digest save "$tmp/durable.digest"
{ kill -9 "${pids[-1]}" && wait "${pids[-1]}"; } 2>/dev/null || true
start durable-restarted -inverted -data-dir "$tmp/durable"
grep -q 'recovered 8 blocks' "$tmp/durable-restarted.log" ||
	fail "restart did not recover 8 blocks:" "$(cat "$tmp/durable-restarted.log")"
expect "$addr" 'OK — saved height 8 is a verified prefix' digest check "$tmp/durable.digest"
reads "$addr"

start one-shard -shards 0 -inverted
writes "$addr" "$block"
reads "$addr"

start sharded -shards 2 -inverted
writes "$addr" "$anyblock"
reads "$addr"
expect "$addr" '^shard 1: height=' stats
expect "$addr" '^combined root: ' digest

start primary -shards 2 -inverted -data-dir "$tmp/primary"
primary=$addr
writes "$primary" "$anyblock"
start replica -replicate-from "$primary" -inverted
for _ in $(seq 100); do
	[ "$(cli "$addr" range t c pk0 pk9 2>/dev/null | tail -1)" = "8 rows, verified" ] && break
	sleep 0.1
done
reads "$addr"
expect "$addr" '^shard 1: replica: connected' stats
refuse "$addr" 'read-only' put t c pk8 value-8
echo "cli smoke: put (acked by its block)/get/range/hist/query/stats/digest served by a single engine, a durable single engine after kill -9 and restart (saved digest a verified prefix), a one-shard cluster, a 2-shard server and a replica of a durable 2-shard server; the replica refuses put"
