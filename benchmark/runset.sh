#!/usr/bin/env bash
# Records one complete set of end-to-end runs: every workload on COUNT
# seeds starting at FIRST, each run its own process, appended to OUT as
# one JSON object per line. Two such files are what -compare takes:
#   benchmark/runset.sh a.jsonl 1 10 && benchmark/runset.sh b.jsonl 11 10
#   bash benchmark/run.sh -compare a.jsonl b.jsonl
set -euo pipefail
out="${1:?usage: runset.sh OUT [FIRST_SEED] [COUNT] [TRACE]}"
first="${2:-1}"
count="${3:-10}"
trace="${4:-0}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for ((seed = first; seed < first + count; seed++)); do
	for w in lookup_prepared adhoc_text scan_agg_inproc join_repartition_tcp; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --trace "$trace" --record "$out" | tail -n 1 | cut -c1-200
	done
done
