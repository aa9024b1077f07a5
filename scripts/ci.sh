#!/usr/bin/env bash
# Tier-1 gate + sanitized fuzz pass.
#
#   scripts/ci.sh            # full: tier-1 build/test, perfbench build
#                            #   and one short analytics pass, bench
#                            #   smoke, ASan/UBSan fuzz, TSan concurrency
#                            #   stage
#   scripts/ci.sh --fast     # tier-1 only
#
# Tier-1 is the contract every change must keep green: configure, build,
# and the full ctest suite of the default build. The sanitizer stage
# rebuilds only what the differential fuzz harness needs under
# ASan+UBSan and re-runs the fuzz label — the cheapest way to turn the
# 200-seed differential sweep into a memory-safety sweep as well.

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
SAN_BUILD_DIR=${SAN_BUILD_DIR:-build-asan}
TSAN_BUILD_DIR=${TSAN_BUILD_DIR:-build-tsan}
PERFBENCH_BUILD_DIR=${PERFBENCH_BUILD_DIR:-build-perfbench}
JOBS=${JOBS:-$(nproc)}

echo "==> tier-1: configure + build (${BUILD_DIR})"
cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "==> tier-1: ctest"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" -L 'unit|fuzz|stress'

if [[ "${1:-}" == "--fast" ]]; then
  echo "==> done (fast mode: sanitizers and bench smoke skipped)"
  exit 0
fi

echo "==> perfbench: configure + build (${PERFBENCH_BUILD_DIR})"
# perfbench reads the knob getters and DeviceStats fields by name, and the
# benchmark runs build it from scratch: build it here so a rename fails CI
# rather than the benchmark run.
cmake -B "${PERFBENCH_BUILD_DIR}" -S perfbench >/dev/null
cmake --build "${PERFBENCH_BUILD_DIR}" -j "${JOBS}"

echo "==> perfbench: one short analytics pass"
# The pass compares every GpuSim result with Sequential bit for bit and
# checks that the per-call and per-layer sums add up to the makespan; the
# last line of its output is a JSON object whose "correct" must be true.
ANALYTICS_TRACE_DIR=$(mktemp -d)
ANALYTICS_LAST=$("${PERFBENCH_BUILD_DIR}/perfbench" --workload analytics \
  --seed 1 --seconds 0.1 --trace 1 --trace-dir "${ANALYTICS_TRACE_DIR}" |
  tail -n 1)
rm -rf "${ANALYTICS_TRACE_DIR}"
if ! grep -q '"correct": true' <<<"${ANALYTICS_LAST}"; then
  echo "perfbench analytics pass is not correct: ${ANALYTICS_LAST}" >&2
  exit 1
fi

echo "==> bench smoke"
# One filtered small-scale pass each through the SpMV benches, the BFS
# direction engine, and PageRank (smallest scale, Iterations(1));
# registration lives in bench/CMakeLists.txt.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L bench-smoke

echo "==> pool leak check"
# gtest_discover_tests gives every test its own process, which makes the
# device-heap leak invariant vacuous. Run the full fuzz binary in ONE
# process so its final ZPoolLeak test sees the heap after the whole sweep:
# bytes_in_use must be back to zero and Context::trim() must return every
# cached pool block.
"${BUILD_DIR}/tests/test_differential_fuzz" --gtest_brief=1

echo "==> sanitizers: ASan/UBSan fuzz config (${SAN_BUILD_DIR})"
cmake -B "${SAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  >/dev/null
cmake --build "${SAN_BUILD_DIR}" -j "${JOBS}" --target test_differential_fuzz \
  --target test_matrix_mask_sweep --target test_oracles \
  --target test_cpupar_determinism --target test_delta_overlay \
  --target test_sharding
ctest --test-dir "${SAN_BUILD_DIR}" --output-on-failure -j "${JOBS}" -L fuzz

echo "==> sanitizers: GpuShard delegated matrix ops"
# GpuShard runs its matrix ops (mxm, eWise, apply, transpose, extract,
# assign, kronecker, select) by handing mutable_home() to the GpuSim body
# under a ScopedDevice for the home context, then re-syncing the host CSR.
# test_sharding runs each of them at 1, 2 and 4 shards and multiplies every
# result through the sharded mxv: a dangling home view fires here, and a
# stale shard slice fails the memcmp against Sequential.
"${SAN_BUILD_DIR}/tests/test_sharding" --gtest_brief=1

echo "==> sanitizers: shared CPU op bodies and overlay validation"
# CpuPar runs the Sequential op bodies under the pool policy, so every
# op's chunk range arithmetic is shared code; the determinism suite drives
# each borrowed op across several chunks. The overlay ops index their
# buffers by the overlay's rows and columns unchecked once the frontend has
# validated them, and test_delta_overlay feeds every malformed shape to all
# three backends. An off-by-one in either place is a heap overflow here.
for t in test_cpupar_determinism test_delta_overlay; do
  "${SAN_BUILD_DIR}/tests/${t}" --gtest_brief=1
done

echo "==> sanitizers: masked-mxm and select sweeps"
# The CPU backends' mask-seeded Gustavson indexes its flag and accumulator
# arrays by column, and the device matrix select compacts its flags by
# entry. The matrix mask sweep (every mask kind x accum x Merge/Replace,
# valued masks with stored falses, CpuPar at 1 and 4 workers) and the
# oracles' triangle counts drive both; replay them plain, hash-pinned, and
# with the word path forced on the all-one triangle operands.
for env in "" GBTL_SPGEMM_MODE=hash GBTL_BIT_MODE=force; do
  for t in test_matrix_mask_sweep test_oracles; do
    env ${env} "${SAN_BUILD_DIR}/tests/${t}" --gtest_brief=1
  done
done

echo "==> sanitizers: PageRank formulation pin across fusion modes"
# PageRank scales the rank vector by 1/out-degree instead of building D⁻¹A,
# and test_oracles' PageRankPin suite memcmps every entry point against the
# transition-matrix formulation on every backend. The iteration order sets
# where composite-launch chains begin and end, so replay the pin with
# fusion off and forced on too (the plain run above covers Auto): the bits
# must not depend on the mode.
for mode in off fuse; do
  GBTL_FUSION_MODE=${mode} "${SAN_BUILD_DIR}/tests/test_oracles" \
    --gtest_brief=1 --gtest_filter='PageRankPin.*'
done

echo "==> sanitizers: fusion-forced fuzz sweep"
# The fuzz harness zips fusion modes across its GPU legs, but the Auto
# default size-gates small cases the same as Fuse. Force GBTL_FUSION_MODE
# =fuse for the whole binary so every legal pair of ops joins a
# composite-launch chain under ASan/UBSan: the join path and the in-place
# `apply` body a joining op takes run only there. (Env must reach the
# process directly; ctest shards would not inherit a per-test override.)
GBTL_FUSION_MODE=fuse "${SAN_BUILD_DIR}/tests/test_differential_fuzz" \
  --gtest_brief=1

echo "==> sanitizers: sharded fuzz sweep"
# The fuzz harness zips shard counts {1,2,4} over its GpuShard legs; pin
# GBTL_SHARDS=4 so EVERY seeded mxv/vxm case runs the widest fan-out —
# halo staging buffers, cross-context upload/download pairs, and the
# shard-order merge all under ASan/UBSan. (Env reaches the binary
# directly; ctest shards would not inherit it.)
GBTL_SHARDS=4 "${SAN_BUILD_DIR}/tests/test_differential_fuzz" \
  --gtest_brief=1 \
  --gtest_filter='Seeds/DifferentialFuzz.Mxv/*:Seeds/DifferentialFuzz.Vxm/*:ZPoolLeak.*'

echo "==> sanitizers: hash-forced SpGEMM sweep"
# The Auto selector keeps fuzz-sized multiplies on the ESC pipeline, so pin
# the hash-Gustavson path explicitly and replay the mxm sweep under
# ASan/UBSan — open-addressing probe loops and per-row table offsets are
# exactly the code a sanitizer should stress.
GBTL_SPGEMM_MODE=hash "${SAN_BUILD_DIR}/tests/test_differential_fuzz" \
  --gtest_brief=1 --gtest_filter='Seeds/DifferentialFuzz.Mxm/*:ZPoolLeak.*'

echo "==> sanitizers: bit-forced traversal sweep"
# The BitTraversal leg forces the word-format engine itself, but Force mode
# also reroutes every OTHER logical-semiring traversal and every
# all-one-valued masked mxm in the binary through the bit gates. Run the
# traversal and mxm sweeps with GBTL_BIT_MODE=force under ASan/UBSan: the
# word-row pointer arithmetic, tail masks, and the popcount CSR emit are
# where an off-by-one-word would hide. (Env reaches the binary directly;
# ctest shards would not inherit it.)
GBTL_BIT_MODE=force "${SAN_BUILD_DIR}/tests/test_differential_fuzz" \
  --gtest_brief=1 \
  --gtest_filter='Seeds/DifferentialFuzz.BitTraversal/*:Seeds/DifferentialFuzz.Mxv/*:Seeds/DifferentialFuzz.Vxm/*:Seeds/DifferentialFuzz.Mxm/*:Seeds/DifferentialFuzz.Traversal/*:ZPoolLeak.*'

echo "==> sanitizers: TSan concurrency config (${TSAN_BUILD_DIR})"
# Concurrency lives in two places now: the serving layer (worker contexts,
# graph store, admission queue, stats block) and the CpuPar backend's
# chunked parallel loops. Rebuild the thread-pool substrate test, the
# executor stress test (which drives mixed CpuPar/GpuSim workloads), the
# CpuPar determinism regression, and the differential fuzz harness under
# ThreadSanitizer and run them in-process.
cmake -B "${TSAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  >/dev/null
cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" \
  --target test_thread_pool --target test_service_stress \
  --target test_cpupar_determinism --target test_differential_fuzz
"${TSAN_BUILD_DIR}/tests/test_thread_pool" --gtest_brief=1
"${TSAN_BUILD_DIR}/tests/test_service_stress" --gtest_brief=1
# Re-run the executor stress with fusion forced on: each worker's ops
# chain on its own context, whose last-op record sits under the context's
# mutex, so a race here would mean chain state leaked across workers.
GBTL_FUSION_MODE=fuse "${TSAN_BUILD_DIR}/tests/test_service_stress" \
  --gtest_brief=1
# Multi-context sharded serving under TSan: the oversized-graph stress test
# gives each worker a 4-context placement, so concurrent queries exercise
# parallel halo exchanges into per-worker context sets — any cross-worker
# sharing of a context, staging buffer, or the stats block fires as a race.
"${TSAN_BUILD_DIR}/tests/test_service_stress" --gtest_brief=1 \
  --gtest_filter='*OversizedGraphServedThroughShards*'
# Streaming mutations under TSan: mutator threads publish delta-CSR
# versions (apply_edges + compaction) while query clients bit-check every
# result against a serial oracle on its stamped version. The store's
# epoch counter, the executor-wide result cache (replay + warm-start
# lineage), and the worker-side retired-entry sweep all cross threads
# here (docs/streaming.md); run eager and fusion-forced.
"${TSAN_BUILD_DIR}/tests/test_service_stress" --gtest_brief=1 \
  --gtest_filter='*MutateUnderQuery*:*Incremental*'
GBTL_FUSION_MODE=fuse "${TSAN_BUILD_DIR}/tests/test_service_stress" \
  --gtest_brief=1 --gtest_filter='*MutateUnderQuery*:*Incremental*'

echo "==> sanitizers: TSan CpuPar stage"
# The CpuPar backend's whole safety story is "chunks own disjoint output
# ranges": replay the determinism regression with a wide pool and a slice
# of the three-way differential sweep (whose CpuPar legs run on a 3-worker
# pool) so any cross-chunk write — e.g. two chunks sharing a word of a
# bit-packed vector<bool> — fires as a race, not as silent corruption.
GBTL_CPUPAR_THREADS=4 "${TSAN_BUILD_DIR}/tests/test_cpupar_determinism" \
  --gtest_brief=1
"${TSAN_BUILD_DIR}/tests/test_differential_fuzz" --gtest_brief=1 \
  --gtest_filter='Seeds/DifferentialFuzz.Mxv/1*:Seeds/DifferentialFuzz.Mxm/1*:ZPoolLeak.*'

echo "==> all green"
