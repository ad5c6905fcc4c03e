#!/usr/bin/env bash
# Drive every surface of the simulator once, for the reachability audit.
#
#   .github/reachability_runs.sh COV_BUILD COV_BENCH_BUILD
#
# COV_BUILD is a `--coverage` build of the top-level project holding
# bench/rif, the three micro-benches and the seven examples;
# COV_BENCH_BUILD is a `--coverage` build of rifbench/ holding the
# rifbench driver. Every run below adds to the trees' .gcda counts;
# afterwards `.github/reachability.py COV_BUILD COV_BENCH_BUILD` lists
# what none of them entered. EXPERIMENTS.md ("Deletion audit, round
# two") gives the build commands.
#
# The list covers everything that carries a figure, a golden or a
# benchmark number (every scenario, the examples, the rifbench
# workloads, the micro-benches) plus each command-line surface of `rif`.
# Runs that only switch a surface on use --scale 0.02. A run that ends
# in fatal() leaves through std::_Exit and writes no counts, so the
# failing bad-input runs below only check their exit status.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 COV_BUILD COV_BENCH_BUILD" >&2
    exit 2
fi
cov=$(cd "$1" && pwd)
bench=$(cd "$2" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)
rif="$cov/bench/rif"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$root" # the sample traces are named relative to the checkout

quiet() { "$@" > /dev/null; }

# Must fail: a bad input ends the process with a non-zero status.
fails() {
    if "$@" > /dev/null 2>&1; then
        echo "reachability_runs: expected a failure from: $*" >&2
        exit 1
    fi
}

tiny=(--scale 0.02)

# Every scenario, the examples and the benchmark workloads.
quiet "$rif" run --all --quick --no-cache
for e in cloud_storage_study design_space_exploration multi_tenant_qos \
         odear_pipeline_demo quickstart tail_latency_study trace_replay; do
    (cd "$tmp" && quiet "$cov/examples/$e")
done
for w in drive_write_gc fleet_poisson mc_decode; do
    quiet "$bench/rifbench" --workload "$w" --seed 1 --seconds 3
done
for m in micro_ldpc micro_sim micro_fleet; do
    quiet "$cov/bench/$m" --benchmark_min_time=0.01
done

# The listing and help commands.
quiet "$rif" list
quiet "$rif" help
quiet "$rif" help set

# The artifact cache's disk layer, cold then warm, over every
# disk-cacheable artifact kind, and the scenario scheduler.
cached=(fig03_ldpc_capability fig04_retention fig11_14_rp_accuracy
        ablation_tpred table01_config trace_replay fleet_open_loop)
quiet "$rif" run "${cached[@]}" "${tiny[@]}" --cache-dir "$tmp/cache"
quiet "$rif" run "${cached[@]}" "${tiny[@]}" --cache-dir "$tmp/cache"

# The CSV and JSONL sinks, to stdout and to a file.
quiet "$rif" run table01_config fig07_timeline "${tiny[@]}" --format=csv
quiet "$rif" run table01_config fig07_timeline "${tiny[@]}" \
    --format jsonl --out "$tmp/out.jsonl"

# Both forms of --metrics, --trace in both formats, and `rif metrics`.
quiet "$rif" run fig18_channel_usage "${tiny[@]}" --metrics
quiet "$rif" run fig18_channel_usage fleet_p99 "${tiny[@]}" \
    --metrics="$tmp/metrics.json" --trace="$tmp/trace.json"
quiet "$rif" run fleet_open_loop "${tiny[@]}" --trace "$tmp/trace.jsonl"
quiet "$rif" metrics fig19_latency_cdf "${tiny[@]}"
quiet "$rif" metrics fleet_p99 "${tiny[@]}" --format=csv

# --set on the trace, fleet and NAND keys, and both sample dialects.
quiet "$rif" run trace_replay "${tiny[@]}" \
    --set workload.trace=tests/traces/sample_msr.csv
quiet "$rif" run trace_replay "${tiny[@]}" \
    --set workload.trace=tests/traces/sample_alibaba.csv \
    --set workload.format=alibaba
quiet "$rif" run fleet_p99 "${tiny[@]}" --set fleet.drives=2 \
    --set fleet.placement=replicated --set fleet.replicas=2 \
    --set fleet.linkUs=2 --set fleet.linkGBps=4
quiet "$rif" run qlc_retry "${tiny[@]}" --set nand.cellType=qlc \
    --set nand.slcBlockFraction=0.25 --set nand.slcRberFactor=0.1
quiet "$rif" run trace_replay "${tiny[@]}" --set workload.arrival=poisson \
    --set workload.rateKiops=50 --set workload.queueCap=64 \
    --set workload.arrivalSeed=5
quiet "$rif" run fig19_latency_cdf "${tiny[@]}" --workload Ali124 \
    --set ssd.policy=CONV --set ssd.seed=7 --set ssd.queueDepth=16 \
    --set timing.tR=45 --set run.requests=2000 --set run.seed=3

# Bad inputs: an invalid RIF_THREADS warns and falls back to the
# hardware thread count; a missing command and an unknown format fail.
quiet env RIF_THREADS=junk "$rif" run fig04_retention "${tiny[@]}" \
    2> /dev/null
fails "$rif"
fails "$rif" run fig07_timeline --format yaml
