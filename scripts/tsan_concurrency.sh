#!/usr/bin/env bash
# Build and run the concurrency test suite under ThreadSanitizer.
#
# This is the FUNNEL_SANITIZE=thread ctest job: it configures a dedicated
# build tree with -DFUNNEL_SANITIZE=thread and runs the tests that exercise
# shared state across threads — the group-commit queue behind the ingest
# dispatcher, the sharded store, the thread pool, the parallel assessment
# engine (including the SST hot path: per-slot warm-started scorers reset
# between KPI streams), the online
# assessor, the telemetry registry, the tracer's cross-thread span
# propagation, the chaos fault grid (dirty feeds through both pipelines,
# docs/ROBUSTNESS.md), and the warm-start differential suite (stateful
# scorer lifecycle + Hankel kernel), the verdict journal (appenders on
# several threads committing under its mutex), the persistent
# segment store (producers committing to one WAL, compacting checkpoints,
# crash-replay recovery — docs/STORAGE.md), and the live telemetry plane
# (HTTP worker pool serving Registry snapshots while hot-path recorders run —
# docs/OBSERVABILITY.md "Live endpoints"), and the
# multi-tenant service plane (HTTP workers racing ingest/changes/report
# against per-tenant locks, quotas and quarantine — docs/SERVICE.md).
# docs/CONCURRENCY.md describes the model these tests pin down; a TSan
# report here means that model has been violated.
#
# Usage: scripts/tsan_concurrency.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

TARGETS=(
  common_group_commit_queue_test
  tsdb_sharded_store_test
  common_thread_pool_test
  funnel_parallel_test
  funnel_online_test
  obs_registry_test
  obs_trace_test
  funnel_trace_test
  funnel_chaos_test
  detect_sst_warmstart_test
  funnel_journal_test
  tsdb_persist_test
  funnel_persist_replay_test
  obs_server_test
  service_test
)

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFUNNEL_SANITIZE=thread
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${TARGETS[@]}"

# halt_on_error: a single race fails the job instead of scrolling past.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
FILTER="$(IFS='|'; echo "${TARGETS[*]}")"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -R "^(${FILTER})$"

echo "tsan concurrency suite: OK"
