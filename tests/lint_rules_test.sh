#!/usr/bin/env bash
# Self-test for scripts/lint.sh: points HANA_LINT_SRC at fixture trees
# and asserts every rule stays quiet on the good fixtures and fires on
# each bad one. Registered as a lint-labeled ctest.
set -u

cd "$(dirname "$0")/.."

fail=0

expect() {
  local desc="$1"
  shift
  if "$@"; then
    echo "ok: $desc"
  else
    echo "FAIL: $desc"
    fail=1
  fi
}

good_out="$(HANA_LINT_SRC=tests/lint_fixtures/good scripts/lint.sh 2>&1)"
good_rc=$?
expect "good fixtures pass (block-comment regression included)" \
  test "$good_rc" -eq 0
echo "$good_out" | grep -q 'SKIP clang-tidy: HANA_LINT_SRC override' \
  || { echo "FAIL: override did not skip clang-tidy"; fail=1; }

bad_out="$(HANA_LINT_SRC=tests/lint_fixtures/bad scripts/lint.sh 2>&1)"
bad_rc=$?
expect "bad fixtures fail overall" test "$bad_rc" -ne 0

check_fires() {
  local rule="$1" file="$2"
  if echo "$bad_out" | grep -q "$rule" \
      && echo "$bad_out" | grep -q "$file"; then
    echo "ok: rule fires: $rule ($file)"
  else
    echo "FAIL: rule did not fire: $rule ($file)"
    fail=1
  fi
}

check_fires "naked standard-library locking" "naked_locking.cc"
check_fires "naked standard-library locking" "hidden_by_line_comment.cc"
check_fires "Mutex member without any GUARDED_BY" "unguarded_mutex.cc"
check_fires "default-constructed hana::Mutex member" "unnamed_mutex.cc"
check_fires "std::atomic without an ordering justification" \
  "unjustified_atomic.cc"
check_fires "IgnoreStatus without justification" \
  "unjustified_ignore_status.cc"
check_fires "raw SIMD intrinsics outside src/common/cpu_dispatch" \
  "raw_intrinsics.cc"
check_fires "bench result line that is not JSON" "text_header.json"
check_fires "aggregate-kind switch outside src/plan and src/exec" \
  "agg_switch_copy.cc"
check_fires "per-row EvalExpr outside the vectorized evaluator" \
  "per_row_eval.cc"
check_fires "boxed chunk rows in the executor" "exec/boxed_rows.cc"

# The good fixture's block comment mentions every rule's trigger; if any
# of them leaked into the good run, stripping regressed.
if echo "$good_out" | grep -q "clean.h"; then
  echo "FAIL: good fixture flagged — comment stripping regressed"
  echo "$good_out"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "lint_rules_test: FAILED"
  exit 1
fi
echo "lint_rules_test: OK"
