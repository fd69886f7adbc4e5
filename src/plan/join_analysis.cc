#include "plan/join_analysis.h"

#include "sql/ast.h"

namespace hana::plan {

namespace {

void SplitAnd(const BoundExpr& e, std::vector<const BoundExpr*>* out) {
  if (e.kind == BoundKind::kBinary &&
      e.binary_op == static_cast<int>(sql::BinaryOp::kAnd)) {
    SplitAnd(*e.child0, out);
    SplitAnd(*e.child1, out);
    return;
  }
  out->push_back(&e);
}

BoundExprPtr AndTogether(std::vector<BoundExprPtr> parts) {
  BoundExprPtr result;
  for (auto& p : parts) {
    result = result == nullptr
                 ? std::move(p)
                 : BoundExpr::Binary(static_cast<int>(sql::BinaryOp::kAnd),
                                     DataType::kBool, std::move(result),
                                     std::move(p));
  }
  return result;
}

}  // namespace

bool ColumnsWithin(const BoundExpr& expr, size_t begin, size_t end) {
  std::vector<size_t> cols;
  expr.CollectColumns(&cols);
  for (size_t c : cols) {
    if (c < begin || c >= end) return false;
  }
  return true;
}

JoinConditionParts AnalyzeJoinCondition(const BoundExpr& condition,
                                        size_t left_arity) {
  std::vector<const BoundExpr*> conjuncts;
  SplitAnd(condition, &conjuncts);

  JoinConditionParts parts;
  std::vector<BoundExprPtr> residual;
  constexpr size_t kMax = static_cast<size_t>(-1);
  for (const BoundExpr* c : conjuncts) {
    bool used = false;
    if (c->kind == BoundKind::kBinary &&
        c->binary_op == static_cast<int>(sql::BinaryOp::kEq)) {
      const BoundExpr& a = *c->child0;
      const BoundExpr& b = *c->child1;
      if (ColumnsWithin(a, 0, left_arity) &&
          ColumnsWithin(b, left_arity, kMax) && !b.IsConstant()) {
        EquiKey key;
        key.left = a.Clone();
        key.right = b.Clone();
        ShiftColumns(key.right.get(), 0);  // No-op; clarity.
        // Re-base the right side to the right child's local indexes.
        std::vector<size_t> cols;
        key.right->CollectColumns(&cols);
        std::vector<int> mapping;
        // Build identity-minus-offset mapping lazily below.
        size_t max_col = 0;
        for (size_t col : cols) max_col = std::max(max_col, col);
        mapping.assign(max_col + 1, -1);
        for (size_t col : cols) {
          mapping[col] = static_cast<int>(col - left_arity);
        }
        (void)RemapColumns(key.right.get(), mapping, false);
        parts.equi_keys.push_back(std::move(key));
        used = true;
      } else if (ColumnsWithin(b, 0, left_arity) &&
                 ColumnsWithin(a, left_arity, kMax) && !a.IsConstant()) {
        EquiKey key;
        key.left = b.Clone();
        key.right = a.Clone();
        std::vector<size_t> cols;
        key.right->CollectColumns(&cols);
        size_t max_col = 0;
        for (size_t col : cols) max_col = std::max(max_col, col);
        std::vector<int> mapping(max_col + 1, -1);
        for (size_t col : cols) {
          mapping[col] = static_cast<int>(col - left_arity);
        }
        (void)RemapColumns(key.right.get(), mapping, false);
        parts.equi_keys.push_back(std::move(key));
        used = true;
      }
    }
    if (!used) residual.push_back(c->Clone());
  }
  parts.residual = AndTogether(std::move(residual));
  return parts;
}

}  // namespace hana::plan
