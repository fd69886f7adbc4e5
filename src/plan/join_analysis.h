#ifndef HANA_PLAN_JOIN_ANALYSIS_H_
#define HANA_PLAN_JOIN_ANALYSIS_H_

#include <vector>

#include "plan/bound_expr.h"

namespace hana::plan {

/// One equi-join key pair. `left` indexes the left child's schema;
/// `right` indexes the right child's schema (already shifted down).
struct EquiKey {
  BoundExprPtr left;
  BoundExprPtr right;
};

/// Decomposition of a join condition into hashable equi-key pairs and a
/// residual predicate (still indexed over the concatenated schema).
struct JoinConditionParts {
  std::vector<EquiKey> equi_keys;
  BoundExprPtr residual;  // Null when fully covered by equi keys.
};

/// Splits `condition` (over the concatenated left++right schema, where
/// the left side spans [0, left_arity)) into equi keys usable by a hash
/// join plus a residual. Returns empty equi_keys when the condition has
/// no usable conjunct.
JoinConditionParts AnalyzeJoinCondition(const BoundExpr& condition,
                                        size_t left_arity);

/// True if every column referenced lies in [begin, end).
bool ColumnsWithin(const BoundExpr& expr, size_t begin, size_t end);

}  // namespace hana::plan

#endif  // HANA_PLAN_JOIN_ANALYSIS_H_
