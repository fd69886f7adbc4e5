// Fixture: patterns that must NOT trip any lint rule. The lint rules
// test points HANA_LINT_SRC here and expects scripts/lint.sh to pass.
#ifndef HANA_TESTS_LINT_FIXTURES_GOOD_CLEAN_H_
#define HANA_TESTS_LINT_FIXTURES_GOOD_CLEAN_H_

namespace hana::lintfix {

/* Regression: rule patterns inside block comments must be ignored —
   find_violations once stripped only // comments, so this std::mutex
   mention (and this std::lock_guard one, and this throw keyword, and
   this IgnoreStatus( call, this std::atomic<int> declaration, and this
   _mm256_loadu_si256( intrinsic with its __m256i register type, this
   plan::AggKind::kSum case label, and this EvalExpr(e, chunk, r) call)
   used to require an exclusion instead of a fix. */

// Multi-line block comments on one line are stripped too:
/* std::condition_variable */ struct Harmless {};

struct GuardedState {
  // A named Mutex member with a GUARDED_BY field in the same file.
  mutable Mutex mu{"fixture.example", 10};
  int protected_value GUARDED_BY(mu) = 0;

  // atomic: relaxed counter; the fixture only needs the comment shape.
  std::atomic<int> counter{0};
};

inline void JustifiedDrops() {
  // lint: IgnoreStatus allowed — fixture exercise of the justification
  // comment shape; real call sites explain the semantics.
  IgnoreStatus(DoSomething());
  // lint: const_cast allowed — fixture exercise of the cast rule.
  const_cast<int&>(SomeRef());
}

// "throwaway" must not match the throw keyword rule.
inline int throwaway_counter = 0;

// Identifiers merely containing "mm_" must not match the intrinsics
// rule, and neither must dispatch-table call sites.
inline int comm_mm_link(int x) { return x; }
inline void UseDispatched() { Kernels().bit_unpack; }

// The column and boxed-row evaluators are not the per-row EvalExpr.
inline void UseEvaluators() {
  EvalExprColumn(expr, chunk);
  EvalExprRow(expr, row);
}

}  // namespace hana::lintfix

#endif  // HANA_TESTS_LINT_FIXTURES_GOOD_CLEAN_H_
