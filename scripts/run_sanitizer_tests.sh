#!/usr/bin/env bash
# Build with a sanitizer and run the concurrency-sensitive tests: the
# engine, the codec and checksum kernels (hand-written SIMD loads and
# stores), the block, stream and constant-block codec suites (the block
# loop writes records through a raw cursor), the simulator's sub-stage
# executor, pipeline-program and wafer parameter suites (simulator tasks
# write their records through the same cursor), the stream fuzz and wafer
# mapper suites (hostile containers must never read out of bounds), the
# fault-injection chaos suite, the observability
# registry/tracer suite, the network service suite (reader/worker
# threads, BufferPool, shutdown paths), the network chaos suite
# (ChaosProxy relay threads, client retry loop, drain), the tenant
# coordinator suite (mutex-guarded lease bookkeeping racing
# the server's reader threads), and the parallel-simulator differential
# suite (WaferSimulator row bands on shared thread pools).
#
#   scripts/run_sanitizer_tests.sh thread  [build-dir]   # ThreadSanitizer
#   scripts/run_sanitizer_tests.sh address [build-dir]   # AddressSanitizer
#
# Default build dir: build-<mode>.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-}"
case "$MODE" in
  thread|address) ;;
  *)
    echo "usage: $0 thread|address [build-dir]" >&2
    exit 2
    ;;
esac
BUILD_DIR="${2:-build-$MODE}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCERESZ_SANITIZE="$MODE" \
  -DCERESZ_BUILD_BENCH=OFF \
  -DCERESZ_BUILD_EXAMPLES=OFF

cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target test_engine test_kernels test_checksum test_fault_injection \
  test_obs test_service test_chaos test_tenant test_wafer_sim \
  test_block_codec test_stream_codec test_constant_blocks test_robustness \
  test_wafer_mapper test_block_work test_pipeline_program test_wafer_params

cd "$BUILD_DIR"
if [ "$MODE" = "thread" ]; then
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
else
  export ASAN_OPTIONS="halt_on_error=1 detect_stack_use_after_return=1"
fi
ctest --output-on-failure \
  -R '^test_(engine|kernels|checksum|fault_injection|obs|service|chaos|tenant|wafer_sim|block_codec|stream_codec|constant_blocks|robustness|wafer_mapper|block_work|pipeline_program|wafer_params)$'
echo "${MODE} sanitizer tests passed."
