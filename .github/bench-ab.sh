#!/usr/bin/env bash
# Same-runner A/B of the simulator's speed. Checks BASE_REV out in a
# git worktree and runs greenbench's end-to-end reps there, then runs
# them on the checked-out tree with -compare against the base report,
# at 15 s of timed batches per workload as bench/README.md compares
# commits. It does this twice, base first each time, so the two trees
# take turns on the same host:
#
#   bash .github/bench-ab.sh BASE_REV
#
# It fails when the same (workload, metric) reads worse in both pairs,
# or when a head run's summary line is not "correct":true with
# "failed":0. A one-off slow spell on the host can make one pair read
# worse; a regression reads worse in both. A pair reads worse where
# greenbench's verdict is "worse", and also where it is "unresolved"
# (a side's quartile spread is wider than the bound) but even the
# head's best quartile is worse than the base's worst by more than the
# bound: on a noisy host a 2x slower fleet-city reads unresolved.
# A changed digest (the simulated output differs from the base's) is
# printed as a warning: the tier-1 golden tests pin output.
#
# The reports and printed output of every run stay in .bench_build/ab/
# next to greenbench's own build output.
set -euo pipefail

base=${1:?usage: bash .github/bench-ab.sh BASE_REV}
head=$(git rev-parse --show-toplevel)
cd "$head"
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
	echo "bench-ab: base revision $base is not in this clone (fetch full history)" >&2
	exit 2
fi
out=$head/.bench_build/ab
rm -rf "$out"
mkdir -p "$out"
tmp=$(mktemp -d)
tree=$tmp/base
git worktree add --detach --quiet "$tree" "$base"
trap 'git -C "$head" worktree remove --force "$tree"; rm -rf "$tmp"' EXIT
echo "bench-ab: base $(git rev-parse --short "$base"), head the working tree at $(git rev-parse --short HEAD), output in $out"

# worse FILE lists the (workload, metric) rows of a comparison that
# read worse; BENCHMARK.json says which direction is better.
better=$(jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json)
worse() {
	awk -v better="$better" '
		BEGIN { n = split(better, l, "\n"); for (i = 1; i <= n; i++) { split(l[i], f, " "); dir[f[1]] = f[2] } }
		$NF == "worse" { print $1, $2 }
		$NF == "unresolved" && ($2 in dir) {
			bound = $7 / 100; split($4, b, /\.\./); split($6, h, /\.\./)
			if (dir[$2] == "lower" ? h[1] > b[2] * (1 + bound) : h[2] < b[1] * (1 - bound)) print $1, $2
		}' "$1" | sort -u
}

status=0
for pair in 1 2; do
	echo "bench-ab: pair $pair, base"
	(cd "$tree" && bash bench/run.sh --seconds 15 --trace 0 -out "$out/base$pair.json" >"$out/base$pair.txt")
	echo "bench-ab: pair $pair, head"
	bash bench/run.sh --seconds 15 --trace 0 -compare "$out/base$pair.json" >"$out/head$pair.txt"
	cat "$out/head$pair.txt"
	worse "$out/head$pair.txt" >"$out/worse$pair.txt"
	summary=$(tail -n 1 "$out/head$pair.txt")
	if [[ $summary != *'"correct":true'* ]] || ! [[ $summary =~ \"failed\":0[,}] ]]; then
		echo "bench-ab: pair $pair: the head run failed its output checks: $summary" >&2
		status=1
	fi
done

grep -h 'DIGEST CHANGED' "$out/head1.txt" "$out/head2.txt" | sort -u | sed 's/^/::warning::/' || true
both=$(comm -12 "$out/worse1.txt" "$out/worse2.txt")
if [[ -n $both ]]; then
	echo "bench-ab: worse than the base in both pairs:" >&2
	echo "$both" >&2
	status=1
fi
exit $status
