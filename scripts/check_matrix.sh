#!/usr/bin/env bash
# The CI build/test matrix: every enforcement layer in its strongest
# configuration, failing on the first red leg. Legs:
#
#   release-lint  Release build with HANA_LINT=ON (-Werror=unused-result
#                 and, under Clang, -Werror=thread-safety) plus the full
#                 test suite including the lint-labeled script/fixture/
#                 negative-compile tests. Proves the annotations and
#                 lint rules hold where the optimizer is on and the
#                 runtime validator is compiled out.
#   tsan          -fsanitize=thread over the concurrency-labeled tests
#                 (task pool, parallel executor, online merge, parallel
#                 joins, txn stress, MVCC snapshot isolation, HTAP
#                 mixed workload). The runtime lock-order validator
#                 is also on in this leg (RelWithDebInfo default).
#   asan-ubsan    -fsanitize=address,undefined over the full suite.
#   validator     Default (RelWithDebInfo) GCC build with the runtime
#                 lock-order validator compiled in and HANA_LOCK_ORDER=
#                 fatal for every test: any rank inversion anywhere in
#                 the suite aborts the offending test.
#   kernels       The kernels-labeled bit-identity tests (codec fuzzing,
#                 scalar-vs-dispatched query matrix) run twice: once
#                 with HANA_CPU=scalar (reference table pinned) and once
#                 with HANA_CPU=native (best verified ISA level). Proves
#                 the dispatch layer is bit-identical end to end under
#                 both process-level bindings, lock-order fatal.
#   perfbench     Release configure of perfbench/ (which builds the
#                 engine from this checkout), building perfbench and
#                 perfbench_test and running perfbench_test: an engine
#                 API change that breaks the benchmark's build fails
#                 here, not only when the benchmark runs.
#
# Each leg builds into its own build-matrix-<leg> directory so cached
# configurations never leak options across legs. Pass leg names to run
# a subset: scripts/check_matrix.sh tsan validator
set -uo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

run_leg() {
  local name="$1"
  shift
  local dir="build-matrix-${name}"
  echo "=== matrix leg: ${name} ==="
  local cmake_args=()
  while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
    cmake_args+=("$1")
    shift
  done
  shift  # --
  cmake -B "${dir}" "${cmake_args[@]}" || return 1
  cmake --build "${dir}" -j "${JOBS}" || return 1
  (cd "${dir}" && "$@") || return 1
  echo "=== matrix leg: ${name} OK ==="
}

leg_release_lint() {
  run_leg release-lint \
    -DCMAKE_BUILD_TYPE=Release -DHANA_LINT=ON \
    -- ctest --output-on-failure
}

leg_tsan() {
  run_leg tsan \
    -DHANA_SANITIZE=thread \
    -- ctest -L concurrency --output-on-failure
}

leg_asan_ubsan() {
  run_leg asan-ubsan \
    -DHANA_SANITIZE=address,undefined \
    -- ctest --output-on-failure
}

leg_validator() {
  HANA_LOCK_ORDER=fatal run_leg validator \
    -DHANA_LOCK_ORDER_CHECKS=ON \
    -- ctest --output-on-failure
}

leg_kernels() {
  HANA_CPU=scalar HANA_LOCK_ORDER=fatal run_leg kernels \
    -DHANA_LOCK_ORDER_CHECKS=ON \
    -- ctest -L kernels --output-on-failure || return 1
  echo "=== matrix leg: kernels (HANA_CPU=native) ==="
  (cd build-matrix-kernels &&
    HANA_CPU=native HANA_LOCK_ORDER=fatal \
      ctest -L kernels --output-on-failure) || return 1
  echo "=== matrix leg: kernels (HANA_CPU=native) OK ==="
}

leg_perfbench() {
  run_leg perfbench \
    -S perfbench -DCMAKE_BUILD_TYPE=Release \
    -- ./perfbench_test
}

legs=("$@")
if [ "${#legs[@]}" -eq 0 ]; then
  legs=(release-lint tsan asan-ubsan validator kernels perfbench)
fi

for leg in "${legs[@]}"; do
  case "${leg}" in
    release-lint) leg_release_lint ;;
    tsan) leg_tsan ;;
    asan-ubsan) leg_asan_ubsan ;;
    validator) leg_validator ;;
    kernels) leg_kernels ;;
    perfbench) leg_perfbench ;;
    *)
      echo "unknown matrix leg: ${leg}" >&2
      exit 2
      ;;
  esac || {
    echo "check_matrix: leg '${leg}' FAILED" >&2
    exit 1
  }
done
echo "check_matrix: all legs green"
