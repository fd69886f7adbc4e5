#!/usr/bin/env bash
# Project-invariant lint pass. Enforces the conventions the compiler
# cannot (or that only Clang can), so they hold on every toolchain:
#
#   1. No naked std::mutex / std::lock_guard / std::unique_lock /
#      std::scoped_lock / std::condition_variable outside
#      src/common/sync.{h,cc}. All locking goes through the annotated
#      Mutex/MutexLock/CondVar wrappers so Clang -Wthread-safety and the
#      runtime lock-order validator see every acquisition. (sync.cc is
#      the validator itself: instrumenting the instrument would recurse.)
#   2. No `throw` across API boundaries: src/ code reports failure via
#      Status/Result. (std::rethrow_exception for ParallelFor's
#      caller-side propagation does not trip the check.)
#   3. Every const_cast / reinterpret_cast must carry a justification:
#      a `lint: <cast> allowed` comment on the same or preceding line.
#   4. No hand-rolled operator pull loops outside src/exec: a ->Next()
#      loop or a DrainToTable-style helper bypasses the pipeline
#      executor (and its stats, scheduling and determinism guarantees).
#      Other layers run plans through exec::ExecutePlan[WithStats].
#   5. A file that declares a hana::Mutex member must GUARDED_BY-annotate
#      at least one field with it — a mutex protecting nothing nameable
#      is either dead or hiding an unannotated invariant.
#   6. Every std::atomic declaration carries an `atomic:` comment
#      justifying its memory ordering (same line or the lines above).
#   7. Every IgnoreStatus() call site carries a `lint: IgnoreStatus
#      allowed` justification; unjustified drops must propagate instead.
#   8. No raw SIMD intrinsics (_mm_/_mm256_/_mm512_ calls, vector
#      register types) outside src/common/cpu_dispatch.{h,cc}. Kernels
#      live behind the runtime dispatch table so every call site keeps
#      the scalar-identical guarantee and the HANA_CPU override works;
#      a stray intrinsic elsewhere silently forks the ISA story.
#   9. No default-constructed hana::Mutex members: every Mutex must be
#      brace-initialized with a name and a lock rank (`Mutex mu_{"who",
#      lock_rank::kX};`) so the runtime lock-order validator can report
#      and rank-check it. An unnamed mutex shows up in deadlock reports
#      as an anonymous address and is exempt from rank checking.
#
# When clang-tidy is on PATH and a compile database exists, it also
# runs the .clang-tidy profile over the checked sources. Missing tools
# skip with a message instead of failing, so GCC-only environments
# still pass.
#
# HANA_LINT_SRC overrides the scanned tree (default: src). The lint
# rule tests point it at fixture directories to prove each rule still
# fires/stays quiet; overriding skips the clang-tidy pass.
#
# Run from the repo root (the lint CMake target and the lint-labeled
# ctest both do): scripts/lint.sh
set -u

cd "$(dirname "$0")/.."

SRC_DIR="${HANA_LINT_SRC:-src}"
fail=0

# Prints $1 with /* ... */ block comments and // line comments removed,
# preserving the line count so reported line numbers stay correct.
strip_comments() {
  perl -0777 -pe \
    's{/\*.*?\*/}{(my $c = $&) =~ s/[^\n]//g; $c}ges; s{//[^\n]*}{}g' "$1"
}

# Prints file:line:text for comment-stripped lines matching the pattern,
# excluding files matching $2 (optional grep -E pattern on the path).
find_violations() {
  local pattern="$1" exclude="${2:-^$}"
  local f
  while IFS= read -r f; do
    echo "$f" | grep -Eq "$exclude" && continue
    strip_comments "$f" | grep -nE "$pattern" | sed "s%^%$f:%"
  done < <(find "$SRC_DIR" \( -name '*.h' -o -name '*.cc' \) | sort)
}

# Filters find_violations output, keeping only hits without a
# justification comment matching $1 on the hit line or the three lines
# above it (checked against the raw file: justifications are comments).
without_justification() {
  local justification="$1" hit f rest line start
  while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    f="${hit%%:*}" rest="${hit#*:}" line="${rest%%:*}"
    start=$((line - 3)); [ "$start" -lt 1 ] && start=1
    if ! sed -n "${start},${line}p" "$f" | grep -q "$justification"; then
      printf '%s\n' "$hit"
    fi
  done
}

check() {
  local title="$1" out="$2"
  if [ -n "$out" ]; then
    echo "LINT FAIL: $title"
    echo "$out" | sed 's/^/  /'
    echo
    fail=1
  fi
}

check "naked standard-library locking outside src/common/sync.{h,cc} \
(use hana::Mutex / MutexLock / CondVar from common/sync.h)" \
  "$(find_violations \
     'std::(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable)' \
     '^src/common/sync\.(h|cc)$')"

check "throw across an API boundary (report errors via Status/Result)" \
  "$(find_violations '(^|[^_[:alnum:]])throw([^_[:alnum:]]|$)')"

check "direct operator pull loop outside src/exec \
(run plans through exec::ExecutePlan[WithStats], not ->Next()/DrainToTable)" \
  "$(find_violations '\->Next\(\)|DrainToTable' '^src/exec/')"

check "unjustified const_cast/reinterpret_cast \
(annotate with '// lint: <cast> allowed — why')" \
  "$(find_violations '(const_cast|reinterpret_cast)[[:space:]]*<' \
     | without_justification 'lint:.*allowed')"

# Rule 5: a Mutex member declaration without a single GUARDED_BY in the
# same file. The declaration pattern requires whitespace after "Mutex",
# so MutexLock instantiations and Mutex& parameters don't match.
mutex_guard_violations=""
while IFS= read -r f; do
  echo "$f" | grep -Eq '^src/common/sync\.(h|cc)$' && continue
  if strip_comments "$f" \
      | grep -qE '(^|[[:space:](])(mutable[[:space:]]+)?Mutex[[:space:]]+[A-Za-z_]' \
      && ! grep -q 'GUARDED_BY' "$f"; then
    mutex_guard_violations="${mutex_guard_violations}${f}"$'\n'
  fi
done < <(find "$SRC_DIR" \( -name '*.h' -o -name '*.cc' \) | sort)
check "hana::Mutex member without any GUARDED_BY field in the file \
(annotate what the mutex protects)" "$mutex_guard_violations"

# Rule 9: a Mutex member declared without a brace initializer (name +
# rank). The pattern requires whitespace after "Mutex" and a direct
# trailing ';', so references, parameters and initialized members don't
# match.
check "default-constructed hana::Mutex member \
(brace-initialize with a name and lock rank: Mutex mu_{\"who\", lock_rank::kX})" \
  "$(find_violations \
     '(^|[[:space:](])(mutable[[:space:]]+)?Mutex[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*;' \
     '^src/common/sync\.(h|cc)$')"

check "std::atomic without an ordering justification \
(comment '// atomic: <ordering rationale>' on or above the declaration)" \
  "$(find_violations 'std::atomic[[:space:]]*<' \
     | without_justification 'atomic:')"

check "raw SIMD intrinsics outside src/common/cpu_dispatch.{h,cc} \
(add kernels to the dispatch table; call sites use Kernels())" \
  "$(find_violations '(^|[^_[:alnum:]])(_mm(256|512)?_[a-z0-9_]+[[:space:]]*\(|__m(64|128|256|512)[id]?([^_[:alnum:]]|$)|_mm_malloc)' \
     '^src/common/cpu_dispatch\.(h|cc)$')"

check "IgnoreStatus without justification \
(annotate with '// lint: IgnoreStatus allowed — why', or propagate)" \
  "$(find_violations 'IgnoreStatus[[:space:]]*\(' \
     '^src/common/status\.h$' \
     | without_justification 'lint: IgnoreStatus allowed')"

# clang-tidy profile (.clang-tidy) when the tool and a compile database
# are available. Skipped when scanning a fixture tree.
if [ -n "${HANA_LINT_SRC:-}" ]; then
  echo "SKIP clang-tidy: HANA_LINT_SRC override active"
elif command -v clang-tidy > /dev/null 2>&1; then
  db=""
  for d in build build-lint; do
    [ -f "$d/compile_commands.json" ] && db="$d" && break
  done
  if [ -n "$db" ]; then
    echo "Running clang-tidy (compile database: $db) ..."
    if ! find src -name '*.cc' | sort \
        | xargs clang-tidy -p "$db" --quiet --warnings-as-errors='*'; then
      echo "LINT FAIL: clang-tidy reported findings"
      fail=1
    fi
  else
    echo "SKIP clang-tidy: no compile_commands.json" \
         "(configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)"
  fi
else
  echo "SKIP clang-tidy: not installed"
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK"
