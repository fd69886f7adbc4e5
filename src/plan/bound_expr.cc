#include "plan/bound_expr.h"

#include "common/strings.h"
#include "sql/ast.h"

namespace hana::plan {

const char* AggName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kCountStar:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
  }
  return "?";
}

DataType AggResultType(AggKind kind, DataType arg) {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kCountStar:
      return DataType::kInt64;
    case AggKind::kSum:
      return arg == DataType::kDouble ? DataType::kDouble : DataType::kInt64;
    case AggKind::kAvg:
      return DataType::kDouble;
    case AggKind::kMin:
    case AggKind::kMax:
      return arg;
  }
  return DataType::kNull;
}

BoundExprPtr BoundExpr::Literal(Value v, DataType type) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kLiteral;
  e->type = type;
  e->literal = std::move(v);
  return e;
}

BoundExprPtr BoundExpr::Column(size_t index, DataType type,
                               std::string name) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kColumn;
  e->type = type;
  e->column_index = index;
  e->column_name = std::move(name);
  return e;
}

BoundExprPtr BoundExpr::Unary(int op, BoundExprPtr operand) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kUnary;
  e->type = op == static_cast<int>(sql::UnaryOp::kNot) ? DataType::kBool
                                                       : operand->type;
  e->unary_op = op;
  e->child0 = std::move(operand);
  return e;
}

BoundExprPtr BoundExpr::Binary(int op, DataType type, BoundExprPtr lhs,
                               BoundExprPtr rhs) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kBinary;
  e->type = type;
  e->binary_op = op;
  e->child0 = std::move(lhs);
  e->child1 = std::move(rhs);
  return e;
}

BoundExprPtr BoundExpr::Clone() const {
  auto e = std::make_unique<BoundExpr>();
  e->kind = kind;
  e->type = type;
  e->literal = literal;
  e->column_index = column_index;
  e->column_name = column_name;
  e->unary_op = unary_op;
  e->binary_op = binary_op;
  if (child0) e->child0 = child0->Clone();
  if (child1) e->child1 = child1->Clone();
  e->function_name = function_name;
  for (const auto& a : args) e->args.push_back(a->Clone());
  e->agg_kind = agg_kind;
  e->distinct = distinct;
  for (const auto& [w, t] : when_clauses) {
    e->when_clauses.emplace_back(w->Clone(), t->Clone());
  }
  for (const auto& i : in_list) e->in_list.push_back(i->Clone());
  e->negated = negated;
  return e;
}

std::string BoundExpr::ToString() const {
  switch (kind) {
    case BoundKind::kLiteral:
      return literal.type() == DataType::kString
                 ? "'" + literal.ToString() + "'"
                 : literal.ToString();
    case BoundKind::kColumn:
      return column_name.empty() ? StrFormat("#%zu", column_index)
                                 : column_name;
    case BoundKind::kUnary:
      return (unary_op == static_cast<int>(sql::UnaryOp::kNot) ? "NOT "
                                                               : "-") +
             child0->ToString();
    case BoundKind::kBinary:
      return "(" + child0->ToString() + " " +
             sql::BinaryOpName(static_cast<sql::BinaryOp>(binary_op)) + " " +
             child1->ToString() + ")";
    case BoundKind::kFunction: {
      std::vector<std::string> parts;
      for (const auto& a : args) parts.push_back(a->ToString());
      return function_name + "(" + Join(parts, ", ") + ")";
    }
    case BoundKind::kAggregate: {
      std::string arg = agg_kind == AggKind::kCountStar
                            ? "*"
                            : (distinct ? "DISTINCT " : "") +
                                  (child0 ? child0->ToString() : "?");
      return std::string(AggName(agg_kind)) + "(" + arg + ")";
    }
    case BoundKind::kCase: {
      std::string out = "CASE";
      for (const auto& [w, t] : when_clauses) {
        out += " WHEN " + w->ToString() + " THEN " + t->ToString();
      }
      if (child1) out += " ELSE " + child1->ToString();
      return out + " END";
    }
    case BoundKind::kCast:
      return "CAST(" + child0->ToString() + " AS " + DataTypeName(type) + ")";
    case BoundKind::kInList: {
      std::vector<std::string> parts;
      for (const auto& i : in_list) parts.push_back(i->ToString());
      return child0->ToString() + (negated ? " NOT IN (" : " IN (") +
             Join(parts, ", ") + ")";
    }
    case BoundKind::kIsNull:
      return child0->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
  }
  return "?";
}

bool BoundExpr::IsConstant() const {
  if (kind == BoundKind::kColumn || kind == BoundKind::kAggregate) {
    return false;
  }
  if (child0 && !child0->IsConstant()) return false;
  if (child1 && !child1->IsConstant()) return false;
  for (const auto& a : args) {
    if (!a->IsConstant()) return false;
  }
  for (const auto& [w, t] : when_clauses) {
    if (!w->IsConstant() || !t->IsConstant()) return false;
  }
  for (const auto& i : in_list) {
    if (!i->IsConstant()) return false;
  }
  return true;
}

void BoundExpr::CollectColumns(std::vector<size_t>* out) const {
  if (kind == BoundKind::kColumn) out->push_back(column_index);
  if (child0) child0->CollectColumns(out);
  if (child1) child1->CollectColumns(out);
  for (const auto& a : args) a->CollectColumns(out);
  for (const auto& [w, t] : when_clauses) {
    w->CollectColumns(out);
    t->CollectColumns(out);
  }
  for (const auto& i : in_list) i->CollectColumns(out);
}

Status RemapColumns(BoundExpr* expr, const std::vector<int>& mapping,
                    bool strict) {
  if (expr->kind == BoundKind::kColumn) {
    if (expr->column_index < mapping.size() &&
        mapping[expr->column_index] >= 0) {
      expr->column_index = static_cast<size_t>(mapping[expr->column_index]);
    } else if (strict) {
      return Status::Internal("column " + expr->column_name +
                              " not available after remap");
    }
  }
  if (expr->child0) HANA_RETURN_IF_ERROR(RemapColumns(expr->child0.get(), mapping, strict));
  if (expr->child1) HANA_RETURN_IF_ERROR(RemapColumns(expr->child1.get(), mapping, strict));
  for (auto& a : expr->args) HANA_RETURN_IF_ERROR(RemapColumns(a.get(), mapping, strict));
  for (auto& [w, t] : expr->when_clauses) {
    HANA_RETURN_IF_ERROR(RemapColumns(w.get(), mapping, strict));
    HANA_RETURN_IF_ERROR(RemapColumns(t.get(), mapping, strict));
  }
  for (auto& i : expr->in_list) HANA_RETURN_IF_ERROR(RemapColumns(i.get(), mapping, strict));
  return Status::OK();
}

void ShiftColumns(BoundExpr* expr, size_t offset) {
  if (expr->kind == BoundKind::kColumn) expr->column_index += offset;
  if (expr->child0) ShiftColumns(expr->child0.get(), offset);
  if (expr->child1) ShiftColumns(expr->child1.get(), offset);
  for (auto& a : expr->args) ShiftColumns(a.get(), offset);
  for (auto& [w, t] : expr->when_clauses) {
    ShiftColumns(w.get(), offset);
    ShiftColumns(t.get(), offset);
  }
  for (auto& i : expr->in_list) ShiftColumns(i.get(), offset);
}

}  // namespace hana::plan
