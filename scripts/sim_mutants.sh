#!/usr/bin/env bash
# Engine mutation check: every patch under scripts/sim_mutants/ plants one
# small bug in the device engine or the warp scheduler (internal/sim). Each
# is applied in turn to a temporary copy of the tree, and `go test
# ./internal/sim` must fail on it. The script prints, per mutant, the
# top-level tests that killed it, and exits non-zero if a mutant survives,
# no longer applies, or breaks the build.
#
# Usage: scripts/sim_mutants.sh [mutant-dir]   (default: scripts/sim_mutants)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
dir=$(cd "${1:-$root/scripts/sim_mutants}" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tree=$tmp/tree
mkdir -p "$tree"
(cd "$root" && tar --exclude=.git --exclude=.bench_build -cf - .) | (cd "$tree" && tar -xf -)

shopt -s nullglob
patches=("$dir"/*.patch)
if [ ${#patches[@]} -eq 0 ]; then
	echo "no mutants under $dir" >&2
	exit 1
fi

failed=0
for p in "${patches[@]}"; do
	name=$(basename "$p" .patch)
	if ! patch -s -p1 -d "$tree" --dry-run -F0 <"$p" >/dev/null 2>&1; then
		echo "FAIL    $name: no longer applies"
		failed=1
		continue
	fi
	patch -s -p1 -d "$tree" -F0 <"$p"
	set +e
	out=$(cd "$tree" && go test -count=1 ./internal/sim 2>&1)
	status=$?
	set -e
	patch -s -R -p1 -d "$tree" -F0 <"$p"
	killers=$(printf '%s\n' "$out" | sed -n 's/^--- FAIL: \([^ ]*\).*/\1/p' | tr '\n' ' ')
	if [ $status -eq 0 ]; then
		echo "SURVIVE $name"
		failed=1
	elif [ -z "$killers" ]; then
		echo "FAIL    $name: go test failed without a failing test (build error?)"
		printf '%s\n' "$out" | head -20
		failed=1
	else
		echo "killed  $name: $killers"
	fi
done
exit $failed
