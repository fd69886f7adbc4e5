#ifndef HANA_EXEC_VECTOR_EVAL_H_
#define HANA_EXEC_VECTOR_EVAL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "plan/bound_expr.h"
#include "storage/column_vector.h"

namespace hana::exec {

// ---------------------------------------------------------------------
// Vectorized expression evaluation: a bound expression runs over a
// whole chunk as typed kernels. Predicates produce Kleene truth masks
// (AND / OR / NOT over masks), values produce typed column vectors, and
// each child is evaluated only on the rows its parent still needs (a
// selection vector): AND's right side where the left is TRUE or NULL,
// OR's where it is FALSE or NULL, a THEN branch where its WHEN is TRUE.
// Nodes without a kernel are evaluated per row by the scalar EvalExpr
// into a vector, and the kernels above them still apply.
//
// Results and errors are the scalar evaluator's, bit for bit. A kernel
// evaluates a child on a superset of the rows the scalar evaluator
// would, so it sees every error the scalar evaluator would hit; when
// anything fails, the whole chunk is replayed through EvalExpr, which
// returns the scalar Status (and SelectRows' mask prefix).
// ---------------------------------------------------------------------

/// Selection mask: sets `(*mask)[r]` to 1 where `predicate` is TRUE on
/// row r of `in` and to 0 where it is FALSE or NULL. On error, `mask`
/// holds the verdicts of the rows before the first failing one. Used by
/// filter stages and join residuals.
[[nodiscard]] Status SelectRows(const plan::BoundExpr& predicate,
                                const storage::Chunk& in,
                                std::vector<uint8_t>* mask);

/// SelectRows without the replay, for callers that replay failures
/// themselves (join residual batches): on error `mask` is undefined and
/// the error may come from a row the scalar evaluator never reaches.
/// With `keep_unknown`, a NULL verdict selects the row too (the
/// residual of a null-aware anti join, where unknown rejects like a
/// match).
[[nodiscard]] Status KernelSelectRows(const plan::BoundExpr& predicate,
                                      const storage::Chunk& in,
                                      std::vector<uint8_t>* mask,
                                      bool keep_unknown = false);

/// Whether `predicate` is TRUE (or, with `keep_unknown`, NULL) on row
/// `row` of `in`, through the boxed EvalExpr (counted in scalar_rows):
/// the replay step of the callers of KernelSelectRows.
[[nodiscard]] Result<bool> SelectRow(const plan::BoundExpr& predicate,
                                     const storage::Chunk& in, size_t row,
                                     bool keep_unknown = false);

/// Evaluates `expr` for every row of `chunk` into one vector typed by
/// expr.type. A bare column reference returns the chunk's vector
/// unchanged (zero-copy). Aggregate inputs, group keys and join keys.
[[nodiscard]] Result<storage::ColumnVectorPtr> EvalExprColumn(
    const plan::BoundExpr& expr, const storage::Chunk& chunk);

/// Evaluates `expr` for every row of `chunk` into a vector of `type`,
/// coercing each value the way ColumnVector::Append does (projections
/// into their output schema). May return a vector of the chunk itself.
[[nodiscard]] Result<storage::ColumnVectorPtr> EvalExprColumnAs(
    const plan::BoundExpr& expr, const storage::Chunk& chunk, DataType type);

/// While alive, adds the number of rows the vectorized evaluator hands
/// to the boxed EvalExpr fallback on this thread (per-row nodes and
/// error replays) to `*sink`. Scopes nest; the innermost one counts.
class ScalarRowScope {
 public:
  explicit ScalarRowScope(uint64_t* sink);
  ~ScalarRowScope();
  ScalarRowScope(const ScalarRowScope&) = delete;
  ScalarRowScope& operator=(const ScalarRowScope&) = delete;

 private:
  uint64_t* previous_;
};

}  // namespace hana::exec

#endif  // HANA_EXEC_VECTOR_EVAL_H_
