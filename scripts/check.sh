#!/bin/sh
# Full local check: configure, build, test, and smoke-run every bench
# at a reduced budget. Mirrors what CI would run.
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure
for b in build/bench/*; do
    case "$b" in
        *perf_predictors) "$b" --benchmark_min_time=0.05s ;;
        *serve_load) ;; # has its own dedicated step below
        *) "$b" --instructions=200000 --warmup=40000 ;;
    esac
done
# Cached replay must beat single-record regeneration by >= 3x, or the
# trace cache has lost its reason to exist.
./build/bench/trace_replay_throughput \
    --instructions=500000 --warmup=0 --require-speedup=3
# Trace format v3 gates: stride-dominant kernels must compress >= 4x
# over raw v2, and decoding the compressed format must not fall
# behind the raw v2 read path on those same kernels.
./build/bench/trace_compress --instructions=500000 \
    --require-ratio=4 --require-decode=1.0 \
    --json=build/BENCH_trace_v3.json
# Persistent trace cache: a second process sweeping over the same
# cache dir must regenerate nothing (serve every trace from disk)
# and produce bit-identical results.
rm -rf build/check_trace_cache build/warm1.jsonl build/warm2.jsonl
./build/examples/gdiffrun \
    --grid 'workload=mcf,gzip;predictor=stride,gdiff' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --deterministic --no-table --out build/warm1.jsonl \
    --trace-cache-dir build/check_trace_cache
./build/examples/gdiffrun \
    --grid 'workload=mcf,gzip;predictor=stride,gdiff' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --deterministic --no-table --out build/warm2.jsonl \
    --trace-cache-dir build/check_trace_cache 2> build/warm2.log
grep -q 'trace cache: 0 generated' build/warm2.log || {
    echo "trace cache: warm restart regenerated traces"
    cat build/warm2.log; exit 1; }
sort build/warm1.jsonl > build/warm1.sorted
sort build/warm2.jsonl > build/warm2.sorted
cmp build/warm1.sorted build/warm2.sorted || {
    echo "trace cache: disk-replayed sweep differs from cold run"
    exit 1; }
# Batch-vs-scalar prediction gate: the fused batch protocol must hold
# >= 2x records/sec on the gated families (stride, fcm, gdiff), with
# per-trial checksum identity between the two paths.
./build/bench/perf_predictors --require-batch-speedup=2 \
    --json=build/BENCH_batch_predictors.json
# Batch identity fuzz: scalar-vs-batch differ over every production
# family, under both kernel sets (forced-scalar first).
GDIFF_SIMD=scalar ./build/examples/gdifffuzz --cases=1500 --seed=5 \
    --batch --no-pipeline
./build/examples/gdifffuzz --cases=1500 --seed=5 --batch --no-pipeline
# The golden-number suite pins Table 2 / Fig. 18 / Fig. 19 against
# tests/golden/; any model drift fails here with a value diff
# (regenerate deliberately with: test_paper_golden --update-golden).
./build/tests/test_paper_golden
# Observability must stay near-free: enabled collection within 3% of
# disabled on the instrumented profile loop...
./build/bench/obs_overhead \
    --instructions=400000 --warmup=40000 --require-overhead=3
# ...and a parallel sweep's Chrome trace must validate structurally.
./build/examples/gdiffrun \
    --grid 'workload=mcf,parser;predictor=stride,gdiff' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --no-table --trace-out=build/obs_trace.json
./build/examples/tracecheck build/obs_trace.json --min-spans=4
# Smoke sweep through the parallel runner: thread pool, structured
# sinks, and manifest resume (the rerun must skip every job).
rm -f build/smoke.jsonl build/smoke.csv build/smoke.manifest
./build/examples/gdiffrun \
    --grid 'workload=mcf,parser,gzip;predictor=stride,dfcm,gdiff;order=4,8' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --out build/smoke.jsonl --csv build/smoke.csv \
    --manifest build/smoke.manifest
[ "$(wc -l < build/smoke.jsonl)" -eq 18 ] || {
    echo "smoke sweep: expected 18 jsonl lines"; exit 1; }
./build/examples/gdiffrun \
    --grid 'workload=mcf,parser,gzip;predictor=stride,dfcm,gdiff;order=4,8' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --out build/smoke.jsonl --manifest build/smoke.manifest \
    --no-table 2>&1 | grep -q 'ran 0 jobs (18 resumed/skipped)' || {
    echo "smoke sweep: resume did not skip completed jobs"; exit 1; }
# Differential fuzz smoke: oracles vs production predictors, pipeline
# invariants, and the mutation-sanity self-test.
./build/examples/gdifffuzz --cases=1000 --seed=1
rm -rf build/fuzz-repros && mkdir -p build/fuzz-repros
./build/examples/gdifffuzz --cases=1000 --seed=1 --mutate \
    --out-dir=build/fuzz-repros --no-pipeline
# Serving smoke: a daemon-fed sweep must be bit-identical to the same
# grid run in-process, and SIGTERM must drain cleanly (exit 0).
SOCK=build/check_gdiffd.sock
rm -f "$SOCK" build/check_daemon.jsonl build/check_local.jsonl
./build/examples/gdiffd --socket "$SOCK" --workers 4 &
DAEMON=$!
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
./build/examples/gdiffctl --socket "$SOCK" ping
./build/examples/gdiffctl --socket "$SOCK" submit \
    --grid 'workload=mcf,parser;predictor=stride,dfcm,gdiff' \
    --instructions=100000 --warmup=20000 \
    --deterministic --no-table --out build/check_daemon.jsonl
./build/examples/gdiffrun \
    --grid 'workload=mcf,parser;predictor=stride,dfcm,gdiff' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --deterministic --no-table --out build/check_local.jsonl
sort build/check_daemon.jsonl > build/check_daemon.sorted
sort build/check_local.jsonl > build/check_local.sorted
cmp build/check_daemon.sorted build/check_local.sorted || {
    echo "serving smoke: daemon results differ from in-process run"
    kill "$DAEMON" 2>/dev/null; exit 1; }
kill -TERM "$DAEMON"
wait "$DAEMON" || { echo "serving smoke: daemon drain failed"; exit 1; }
# Serving load: concurrent clients, shared-cache warm wave, latency
# percentiles from the obs histograms.
./build/bench/serve_load --clients=4 --instructions=200000 \
    --warmup=20000 --json=build/BENCH_serve.json
# Blind-spot mining smoke: both documented default pairs must find,
# shrink, and cluster at least one disagreement, and the full report
# (table, digests, JSONL, artifacts) must be bit-identical across a
# rerun and across thread counts.
rm -rf build/mine-artifacts && mkdir -p build/mine-artifacts
./build/examples/gdiffmine --records=1024 --rounds=6 --restarts=4 \
    --seed=1 --threads=1 --jsonl=build/mine1.jsonl \
    --artifacts=build/mine-artifacts > build/mine1.txt
./build/examples/gdiffmine --records=1024 --rounds=6 --restarts=4 \
    --seed=1 --threads=4 --jsonl=build/mine2.jsonl > build/mine2.txt
grep 'report digest:' build/mine1.txt > build/mine1.digests
grep 'report digest:' build/mine2.txt > build/mine2.digests
cmp build/mine1.digests build/mine2.digests || {
    echo "gdiffmine: report digests differ across thread counts"
    diff build/mine1.digests build/mine2.digests; exit 1; }
cmp build/mine1.jsonl build/mine2.jsonl || {
    echo "gdiffmine: cluster JSONL differs across thread counts"
    exit 1; }
ls build/mine-artifacts/*.gdtr > /dev/null || {
    echo "gdiffmine: no replayable cluster artifacts written"
    exit 1; }
# Metric-surface snapshot gate: freeze a sweep, self-diff (must be
# empty, exit 0), then inject a 1e-6 ipc perturbation and require the
# differ to report exactly that metric (exit 1).
./build/examples/gdiffrun \
    --grid 'workload=mcf,parser;scheme=baseline,hgvq' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --deterministic --no-table --snapshot=build/surface.snap
./build/examples/gdiffcmp build/surface.snap build/surface.snap || {
    echo "gdiffcmp: self-diff reported differences"; exit 1; }
./build/examples/gdiffcmp --perturb=ipc=1e-6 \
    build/surface.snap build/surface_perturbed.snap
if ./build/examples/gdiffcmp build/surface.snap \
    build/surface_perturbed.snap > build/snapdiff.txt; then
    echo "gdiffcmp: missed an injected 1e-6 ipc perturbation"
    exit 1
fi
grep -q '! metric ipc' build/snapdiff.txt || {
    echo "gdiffcmp: perturbation diff did not name ipc"
    cat build/snapdiff.txt; exit 1; }
# Sampled-simulation gate: on both kernels the stratified sampler
# must cut wall clock >= 10x against a full run of the same spec,
# and the full run's IPC must land inside the (1.5x-widened) sampled
# confidence interval — speed that buys a wrong answer fails here.
./build/bench/sampled_vs_full --instructions=8000000 \
    --warmup=400000 --budget=40960 --sample-threads=4 \
    --require-speedup=10 --require-ci \
    --json=build/BENCH_sampled.json
echo "all checks passed"
