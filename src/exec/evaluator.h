#ifndef HANA_EXEC_EVALUATOR_H_
#define HANA_EXEC_EVALUATOR_H_

#include <optional>

#include "common/result.h"
#include "plan/bound_expr.h"
#include "storage/column_vector.h"

namespace hana::exec {

/// Evaluates a bound expression against row `row` of `chunk`.
/// SQL three-valued logic: comparisons involving NULL yield NULL; AND/OR
/// follow Kleene semantics; a filter keeps a row only when the predicate
/// evaluates to TRUE.
[[nodiscard]] Result<Value> EvalExpr(const plan::BoundExpr& expr,
                       const storage::Chunk& chunk, size_t row);

/// Evaluates against a boxed row (used by hash-join probe output and the
/// ESP engine).
[[nodiscard]] Result<Value> EvalExprRow(const plan::BoundExpr& expr,
                          const std::vector<Value>& row);

/// True when `v` is a non-null TRUE (or non-zero numeric).
bool IsTruthy(const Value& v);

/// The type of every non-null value EvalExpr returns for the operator
/// node `expr` (unary, binary, function, CAST, IN or IS NULL) whose
/// first two operands (child0 / child1, or args[0] / args[1]) hold
/// non-null values of types `a` and `b` (nullopt: not known). nullopt
/// when the rule needs an unknown operand type, or when the node has
/// no single result type (COALESCE, unknown functions). The scalar
/// evaluator picks its DATE, int64 or double lane from this rule, and
/// the vectorized evaluator types its kernels with it.
std::optional<DataType> ResultType(const plan::BoundExpr& expr,
                                   std::optional<DataType> a,
                                   std::optional<DataType> b);

/// The error of an int64 `+ - *`, negation, ABS or DATE shift that
/// leaves the int64 range, and of FLOOR/CEIL outside it (or of NaN).
Status NumericOverflow();

/// `a % b` for b != 0; `x % -1` is 0 (INT64_MIN % -1 traps in hardware).
inline int64_t CheckedMod(int64_t a, int64_t b) {
  return b == -1 ? 0 : a % b;
}

}  // namespace hana::exec

#endif  // HANA_EXEC_EVALUATOR_H_
