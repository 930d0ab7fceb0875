#!/usr/bin/env bash
# Paired benchmark runs of a parent revision against a change:
#
#   bash tools/benchpairs.sh PARENT [PAIRS]
#
# Unpacks PARENT and HEAD with `git archive` into a temp dir, and for every
# workload in $WORKLOADS (default: the three gated ones of BENCHMARK.json)
# runs
#
#   bash bench/run.sh --workload W --seed 1 --seconds 36 --trace 0
#
# PAIRS times in each tree, alternating which side runs first. Each tree
# builds the benchmark once into its own .bench_build. It then prints, per
# workload and gated end-to-end metric, each side's median and quartiles,
# how many pairs the change won (ties count for neither side), each side's
# failed operations over those attempted, and whether the gain rule holds:
# the change fails no larger share of its operations, and its output check
# on no more runs, than the parent, wins at least nine pairs in ten, and its
# median beats the parent's by more than the parent's interquartile range.
# It exits 1 when a run failed its output check.
# The result lines and build logs of every run stay in the temp dir, whose
# path it prints; the two trees are removed once every run is in. Needs git,
# jq and awk.
set -euo pipefail
cd "$(dirname "$0")/.."
parent=${1:?usage: benchpairs.sh PARENT [PAIRS]}
pairs=${2:-10}
workloads=${WORKLOADS:-$(jq -r '.workloads[].name' BENCHMARK.json)}
seconds=$(jq -r '.run_seconds' BENCHMARK.json)

dir=$(mktemp -d)
echo "benchpairs: $parent vs HEAD, $pairs pairs, results in $dir" >&2
mkdir "$dir/parent" "$dir/change"
git archive "$parent" | tar -x -C "$dir/parent"
git archive HEAD | tar -x -C "$dir/change"

# run SIDE WORKLOAD appends the result line of one run to SIDE-WORKLOAD.jsonl.
run() {
	(cd "$dir/$1" && bash bench/run.sh --workload "$2" --seed 1 --seconds "$seconds" --trace 0 2>>"$dir/$1-$2.log") |
		tail -n 1 >>"$dir/$1-$2.jsonl"
}

for w in $workloads; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$w"; run change "$w"
		else
			run change "$w"; run parent "$w"
		fi
		echo "benchpairs: $w pair $i/$pairs done" >&2
	done
done

# failures FILE prints a side's failed and attempted operations, summed over
# its runs, and how many of its runs failed their output check.
failures() {
	jq -sr '"\(map(.failed) | add) \(map(.attempted) | add) \(map(select(.correct != true)) | length)"' "$1"
}

printf '%-22s %-19s %11s %11s %11s %11s %11s %11s %6s %-23s %s\n' \
	workload metric "parent med" "parent q1" "parent q3" "change med" "change q1" "change q3" wins "failed parent/change" "gain rule"
for w in $workloads; do
	read -r pf pa pbad < <(failures "$dir/parent-$w.jsonl")
	read -r cf ca cbad < <(failures "$dir/change-$w.jsonl")
	jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json | while read -r m better; do
		paste -d ' ' \
			<(jq -r --arg m "$m" '.metrics[$m].value' "$dir/parent-$w.jsonl") \
			<(jq -r --arg m "$m" '.metrics[$m].value' "$dir/change-$w.jsonl") |
			awk -v w="$w" -v m="$m" -v better="$better" \
				-v pf="$pf" -v pa="$pa" -v pbad="$pbad" -v cf="$cf" -v ca="$ca" -v cbad="$cbad" '
				function q(a, n, p,   h, i) { h = (n - 1) * p; i = int(h); return i + 1 < n ? a[i] + (h - i) * (a[i + 1] - a[i]) : a[i] }
				function sorted(src, dst, n,   i, j, t) {
					for (i = 0; i < n; i++) dst[i] = src[i]
					for (i = 1; i < n; i++) for (j = i; j > 0 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
				}
				BEGIN { n = 0; wins = 0 }
				{ p[n] = $1 + 0; c[n] = $2 + 0; n++
				  if (better == "lower" ? $2 < $1 : $2 > $1) wins++ }
				END {
					sorted(p, ps, n); sorted(c, cs, n)
					pm = q(ps, n, 0.5); cm = q(cs, n, 0.5); iqr = q(ps, n, 0.75) - q(ps, n, 0.25)
					gain = (better == "lower" ? pm - cm : cm - pm)
					# The change may fail no larger share of its operations, and
					# fail its output check on no more runs, than the parent.
					worse = cf * pa > pf * ca || cbad > pbad
					rule = (!worse && 10 * wins >= 9 * n && gain > iqr) ? "met" : "not met"
					printf "%-22s %-19s %11.6g %11.6g %11.6g %11.6g %11.6g %11.6g %3d/%-2d %-23s %s (gain %.6g, parent IQR %.6g%s)\n",
						w, m, pm, q(ps, n, 0.25), q(ps, n, 0.75), cm, q(cs, n, 0.25), q(cs, n, 0.75), wins, n,
						pf "/" pa " " cf "/" ca, rule, gain, iqr, (worse ? ", change fails more" : "")
				}'
	done
done
rm -rf "$dir/parent" "$dir/change"
echo "benchpairs: result lines and logs in $dir" >&2
for f in "$dir"/*.jsonl; do
	if ! jq -se 'all(.[]; .correct == true)' "$f" >/dev/null; then
		echo "benchpairs: a run in $f failed its output check" >&2
		exit 1
	fi
done
