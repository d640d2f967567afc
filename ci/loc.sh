#!/usr/bin/env bash
# Prints the root module's size — Go lines outside benchmark/, non-test and
# test — and fails when the non-test count exceeds ci/loc-ceiling.txt.
# ROADMAP north-star point 2 says that number falls; the ceiling is the
# last PR's result, so raising it is a decision a PR must state.
#
# It also prints the trusted computing base: the non-test lines of every
# package internal/proof (the verifier) links, the packages
# ci/tcb-deps.txt lists, and fails above ci/tcb-loc-ceiling.txt.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
count() {
	find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' "$@" -print0 | xargs -0 cat | wc -l
}
nontest=$(count -not -name '*_test.go')
ceiling=$(cat ci/loc-ceiling.txt)
echo "non-test $nontest (ceiling $ceiling)"
echo "test $(count -name '*_test.go')"
tcb=$(go list -deps ./internal/proof | grep '^spitz/' | sed 's#^spitz/#./#' |
	xargs -I{} find {} -maxdepth 1 -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l)
tcbceiling=$(cat ci/tcb-loc-ceiling.txt)
echo "trusted computing base (internal/proof and its imports) non-test $tcb (ceiling $tcbceiling)"
if [ "$nontest" -gt "$ceiling" ]; then
	echo "non-test Go lines exceed ci/loc-ceiling.txt: delete, or raise the ceiling and say why" >&2
	exit 1
fi
if [ "$tcb" -gt "$tcbceiling" ]; then
	echo "the verifier's non-test Go lines exceed ci/tcb-loc-ceiling.txt: delete, or raise the ceiling and say why" >&2
	exit 1
fi
