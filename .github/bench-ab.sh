#!/usr/bin/env bash
# Same-runner A/B of the simulator's speed. Checks BASE_REV out in a
# git worktree and runs greenbench's end-to-end reps on it and on the
# checked-out tree, at 15 s of timed batches per workload as
# bench/README.md compares commits. It does this twice, and the trees
# take turns going first, so a host that slows down during a pair
# weighs on each side once:
#
#   bash .github/bench-ab.sh BASE_REV
#
# Pair 1 runs the base with -out and then the head with -compare
# against the base's report. Pair 2 runs the head with -out and then
# the base with -compare against the head's report, so its comparison
# rows carry the head in the base columns; worse() reads them swapped.
#
# It fails when the same (workload, metric) reads worse in both pairs,
# or when a head run's summary line is not "correct":true with
# "failed":0. A one-off slow spell on the host can make one pair read
# worse; a regression reads worse in both. A pair reads worse where
# the head's median is worse than the base's by more than the bound
# with both quartile spreads within it (greenbench's "worse"), and
# also where a spread is wider than the bound ("unresolved") but even
# the head's best quartile is worse than the base's worst by more than
# the bound: on a noisy host a 2x slower fleet-city reads unresolved.
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

# worse FILE SWAP lists the (workload, metric) rows of a comparison
# that read worse for the head; BENCHMARK.json says which direction is
# better. With SWAP=1 the head is in the comparison's base columns.
better=$(jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json)
worse() {
	awk -v better="$better" -v swap="$2" '
		BEGIN { n = split(better, l, "\n"); for (i = 1; i <= n; i++) { split(l[i], f, " "); dir[f[1]] = f[2] } }
		($2 in dir) && $NF ~ /^(worse|better|same|unresolved)$/ {
			bound = $7 / 100
			if (swap) { bm = $5; hm = $3; split($6, b, /\.\./); split($4, h, /\.\./) }
			else { bm = $3; hm = $5; split($4, b, /\.\./); split($6, h, /\.\./) }
			if ($NF == "unresolved") {
				if (dir[$2] == "lower" ? h[1] > b[2] * (1 + bound) : h[2] < b[1] * (1 - bound)) print $1, $2
			} else if (!swap) {
				if ($NF == "worse") print $1, $2
			} else {
				rel = (hm - bm) / bm
				if (dir[$2] == "higher") rel = -rel
				if (rel > bound) print $1, $2
			}
		}' "$1" | sort -u
}

run() { # run TREE NAME ARGS...: one greenbench run, printed output to NAME.txt
	local tree=$1 name=$2
	shift 2
	(cd "$tree" && bash bench/run.sh --seconds 15 --trace 0 "$@" >"$out/$name.txt")
}

status=0
for pair in 1 2; do
	if [[ $pair == 1 ]]; then
		echo "bench-ab: pair 1, base first"
		run "$tree" base1 -out "$out/base1.json"
		run "$head" head1 -compare "$out/base1.json"
		cmp=$out/head1.txt
	else
		echo "bench-ab: pair 2, head first"
		run "$head" head2 -out "$out/head2.json"
		run "$tree" base2 -compare "$out/head2.json"
		cmp=$out/base2.txt
	fi
	cat "$cmp"
	worse "$cmp" $((pair - 1)) >"$out/worse$pair.txt"
	summary=$(tail -n 1 "$out/head$pair.txt")
	if [[ $summary != *'"correct":true'* ]] || ! [[ $summary =~ \"failed\":0[,}] ]]; then
		echo "bench-ab: pair $pair: the head run failed its output checks: $summary" >&2
		status=1
	fi
done

grep -h 'DIGEST CHANGED' "$out/head1.txt" "$out/base2.txt" | sort -u | sed 's/^/::warning::/' || true
both=$(comm -12 "$out/worse1.txt" "$out/worse2.txt")
if [[ -n $both ]]; then
	echo "bench-ab: worse than the base in both pairs:" >&2
	echo "$both" >&2
	status=1
fi
exit $status
