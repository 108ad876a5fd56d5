#!/usr/bin/env bash
# bench_ab.sh — same-host A/B of the checked-out tree (head) against
# BASE_REV (base) on the benchmark's report-epc256 workload. BASE_REV is
# checked out with `git worktree` under .bench_build/; five cold pairs
# of hostbench/run.sh follow, one run in each tree per pair, alternating
# which side goes first.
#
#   scripts/bench_ab.sh BASE_REV
#
# Exits non-zero when any run is incorrect or failed an operation, or
# when head's median wall_s is more than 20% above base's. Only wall_s
# gates: setup_s on this workload is a sub-microsecond timing that noise
# alone moves by a quarter. The last stdout line is one JSON object with
# the median, quartiles and pairs won of wall_s, setup_s and peak_rss_mb
# for each side.
set -euo pipefail

readonly workload=report-epc256 pairs=5 tolerance=0.20
if [[ $# -ne 1 ]]; then
	echo "usage: scripts/bench_ab.sh BASE_REV" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
out=$root/.bench_build/ab
tree=$out/base
git worktree remove --force "$tree" 2>/dev/null || git worktree prune
rm -rf "$out"
mkdir -p "$out"
git worktree add --detach "$tree" "$1" >&2
trap 'git worktree remove --force "$tree"' EXIT

# run SIDE DIR: one cold run in DIR, its result line kept under SIDE.
run() {
	local line
	line=$(cd "$2" && bash hostbench/run.sh --workload "$workload" --seconds 1 --trace 0 | tail -n 1)
	echo "$1 $line"
	echo "$line" >>"$out/$1.jsonl"
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then run base "$tree"; run head "$root"; else run head "$root"; run base "$tree"; fi
done

summary=$(jq -cn --slurpfile base "$out/base.jsonl" --slurpfile head "$out/head.jsonl" \
	--arg workload "$workload" --argjson tolerance "$tolerance" '
	def q($p): sort as $s | ((($s | length) - 1) * $p) as $h | ($h | floor) as $lo
		| $s[$lo] + ($h - $lo) * ($s[[$lo + 1, ($s | length) - 1] | min] - $s[$lo]);
	def metric($me; $other; $m): [$me[].metrics[$m].value] as $v | [$other[].metrics[$m].value] as $o
		| {median: ($v | q(0.5)), q1: ($v | q(0.25)), q3: ($v | q(0.75)),
		   won: ([range($v | length) | select($v[.] < $o[.])] | length)};
	def side($me; $other): reduce ("wall_s", "setup_s", "peak_rss_mb") as $m ({}; .[$m] = metric($me; $other; $m));
	{workload: $workload, pairs: ($base | length), tolerance: $tolerance,
	 correct: all($base[], $head[]; .correct and .failed == 0),
	 base: side($base; $head), head: side($head; $base)}
	| .wall_ratio = .head.wall_s.median / .base.wall_s.median
	| .pass = (.correct and .wall_ratio <= 1 + $tolerance)')
echo "$summary"
[[ $(jq -r .pass <<<"$summary") == true ]]
