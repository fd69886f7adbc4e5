#include "plan/binder.h"

#include <algorithm>

#include "common/strings.h"
#include "plan/join_analysis.h"

namespace hana::plan {

namespace {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;
using sql::TableRef;
using sql::TableRefKind;
using sql::UnaryOp;

bool IsAggregateName(const std::string& name) {
  return name == "COUNT" || name == "SUM" || name == "AVG" ||
         name == "MIN" || name == "MAX";
}

std::string BaseName(const std::string& name) {
  auto pos = name.rfind('.');
  return pos == std::string::npos ? name : name.substr(pos + 1);
}

/// Splits an AND tree into its conjuncts.
void SplitConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd) {
    SplitConjuncts(*e.child0, out);
    SplitConjuncts(*e.child1, out);
    return;
  }
  out->push_back(&e);
}

/// Numeric type promotion for binary arithmetic.
DataType PromoteNumeric(DataType a, DataType b) {
  if (a == DataType::kDouble || b == DataType::kDouble) return DataType::kDouble;
  if (a == DataType::kNull) return b;
  if (b == DataType::kNull) return a;
  return DataType::kInt64;
}

/// Tracks aggregate planning for one SELECT level.
struct AggContext {
  std::vector<std::string> group_keys;      // Canonical ToSql of GROUP BY.
  std::vector<DataType> group_types;
  std::vector<std::string> group_names;
  std::vector<BoundExprPtr>* aggregates;    // Registered aggregate exprs.
  std::vector<std::string> agg_keys;        // Dedup keys.
};

class NullCatalog : public BinderCatalog {
 public:
  Result<TableBinding> ResolveTable(const std::string& name) const override {
    return Status::NotFound("no table " + name);
  }
  Result<TableFunctionBinding> ResolveTableFunction(
      const std::string& name) const override {
    return Status::NotFound("no function " + name);
  }
};

class Binder {
 public:
  explicit Binder(const BinderCatalog& catalog) : catalog_(catalog) {}

  Result<LogicalOpPtr> BindSelect(const SelectStmt& stmt);
  Result<BoundExprPtr> BindExpr(const Expr& e, const Scope& scope,
                                AggContext* agg);
  /// Binds one aggregate call (its argument against `scope`) into a
  /// typed kAggregate node.
  Result<BoundExprPtr> BindAggregateCall(const Expr& e, const Scope& scope);

 private:
  Result<LogicalOpPtr> BindTableRef(const TableRef& ref);
  Result<BoundExprPtr> BindFunction(const Expr& e, const Scope& scope,
                                    AggContext* agg);
  Result<BoundExprPtr> RegisterAggregate(const Expr& e, const Scope& scope,
                                         AggContext* agg);
  Result<LogicalOpPtr> UnnestSubqueryConjunct(LogicalOpPtr plan,
                                              const Scope& scope,
                                              const Expr& conjunct,
                                              bool negate);

  const BinderCatalog& catalog_;
};

Result<LogicalOpPtr> Binder::BindTableRef(const TableRef& ref) {
  switch (ref.kind) {
    case TableRefKind::kBaseTable: {
      HANA_ASSIGN_OR_RETURN(TableBinding binding,
                            catalog_.ResolveTable(ref.name));
      auto op = std::make_unique<LogicalOp>();
      op->kind = LogicalKind::kScan;
      op->table = binding;
      op->alias = ref.alias.empty() ? BaseName(ref.name) : ref.alias;
      auto schema = std::make_shared<Schema>();
      for (const auto& col : binding.schema->columns()) {
        op->scan_columns.push_back(schema->num_columns());
        schema->AddColumn({op->alias + "." + col.name, col.type, col.nullable});
      }
      op->schema = std::move(schema);
      return LogicalOpPtr(std::move(op));
    }
    case TableRefKind::kSubquery: {
      HANA_ASSIGN_OR_RETURN(LogicalOpPtr child, BindSelect(*ref.subquery));
      auto renamed = std::make_shared<Schema>();
      for (const auto& col : child->schema->columns()) {
        renamed->AddColumn(
            {ref.alias + "." + BaseName(col.name), col.type, col.nullable});
      }
      child->schema = std::move(renamed);
      return child;
    }
    case TableRefKind::kTableFunction: {
      HANA_ASSIGN_OR_RETURN(TableFunctionBinding binding,
                            catalog_.ResolveTableFunction(ref.name));
      auto op = std::make_unique<LogicalOp>();
      op->kind = LogicalKind::kTableFunctionScan;
      op->function = binding;
      op->alias = ref.alias.empty() ? BaseName(ref.name) : ref.alias;
      Scope empty_scope{std::make_shared<Schema>(), nullptr};
      for (const auto& arg : ref.args) {
        HANA_ASSIGN_OR_RETURN(BoundExprPtr bound,
                              BindExpr(*arg, empty_scope, nullptr));
        if (!bound->IsConstant()) {
          return Status::BindError(
              "table function arguments must be constant");
        }
        op->exprs.push_back(std::move(bound));
      }
      auto schema = std::make_shared<Schema>();
      for (const auto& col : binding.schema->columns()) {
        schema->AddColumn({op->alias + "." + col.name, col.type, col.nullable});
      }
      op->schema = std::move(schema);
      return LogicalOpPtr(std::move(op));
    }
    case TableRefKind::kJoin: {
      HANA_ASSIGN_OR_RETURN(LogicalOpPtr left, BindTableRef(*ref.left));
      HANA_ASSIGN_OR_RETURN(LogicalOpPtr right, BindTableRef(*ref.right));
      auto op = std::make_unique<LogicalOp>();
      op->kind = LogicalKind::kJoin;
      switch (ref.join_type) {
        case sql::JoinType::kInner:
          op->join_kind = JoinKind::kInner;
          break;
        case sql::JoinType::kLeft:
          op->join_kind = JoinKind::kLeft;
          break;
        case sql::JoinType::kCross:
          op->join_kind = JoinKind::kCross;
          break;
      }
      auto combined = std::make_shared<Schema>();
      for (const auto& col : left->schema->columns()) combined->AddColumn(col);
      for (const auto& col : right->schema->columns()) {
        ColumnDef def = col;
        if (op->join_kind == JoinKind::kLeft) def.nullable = true;
        combined->AddColumn(def);
      }
      op->schema = combined;
      op->children.push_back(std::move(left));
      op->children.push_back(std::move(right));
      if (ref.condition) {
        Scope scope{combined, nullptr};
        HANA_ASSIGN_OR_RETURN(op->condition,
                              BindExpr(*ref.condition, scope, nullptr));
      }
      return LogicalOpPtr(std::move(op));
    }
  }
  return Status::Internal("unknown table ref kind");
}

Result<BoundExprPtr> Binder::BindAggregateCall(const Expr& e,
                                               const Scope& scope) {
  auto bound = std::make_unique<BoundExpr>();
  bound->kind = BoundKind::kAggregate;
  bound->distinct = e.distinct;
  const std::string& name = e.function_name;
  bool star_arg = e.args.size() == 1 && e.args[0]->kind == ExprKind::kStar;
  if (name == "COUNT" && (e.args.empty() || star_arg)) {
    bound->agg_kind = AggKind::kCountStar;
    bound->type = AggResultType(AggKind::kCountStar, DataType::kNull);
    return bound;
  }
  if (e.args.size() != 1) {
    return Status::BindError("aggregate " + name +
                             " expects exactly one argument");
  }
  HANA_ASSIGN_OR_RETURN(bound->child0, BindExpr(*e.args[0], scope, nullptr));
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                       AggKind::kMin, AggKind::kMax}) {
    if (name == AggName(kind)) {
      bound->agg_kind = kind;
      bound->type = AggResultType(kind, bound->child0->type);
      return bound;
    }
  }
  return Status::BindError("unknown aggregate " + name);
}

Result<BoundExprPtr> Binder::RegisterAggregate(const Expr& e,
                                               const Scope& scope,
                                               AggContext* agg) {
  std::string key = ToUpper(e.ToSql());
  for (size_t i = 0; i < agg->agg_keys.size(); ++i) {
    if (agg->agg_keys[i] == key) {
      size_t index = agg->group_keys.size() + i;
      return BoundExpr::Column(index, (*agg->aggregates)[i]->type,
                               (*agg->aggregates)[i]->ToString());
    }
  }
  HANA_ASSIGN_OR_RETURN(BoundExprPtr bound, BindAggregateCall(e, scope));
  size_t index = agg->group_keys.size() + agg->aggregates->size();
  DataType type = bound->type;
  std::string text = bound->ToString();
  agg->aggregates->push_back(std::move(bound));
  agg->agg_keys.push_back(key);
  return BoundExpr::Column(index, type, text);
}

Result<BoundExprPtr> Binder::BindFunction(const Expr& e, const Scope& scope,
                                          AggContext* agg) {
  const std::string& name = e.function_name;
  std::vector<BoundExprPtr> args;
  for (const auto& a : e.args) {
    HANA_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(*a, scope, agg));
    args.push_back(std::move(bound));
  }
  auto make = [&](DataType type) {
    auto f = std::make_unique<BoundExpr>();
    f->kind = BoundKind::kFunction;
    f->type = type;
    f->function_name = name;
    f->args = std::move(args);
    return f;
  };
  auto require_args = [&](size_t lo, size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return Status::BindError(name + ": wrong number of arguments");
    }
    return Status::OK();
  };
  if (name == "UPPER" || name == "LOWER" || name == "TRIM") {
    HANA_RETURN_IF_ERROR(require_args(1, 1));
    return make(DataType::kString);
  }
  if (name == "SUBSTR" || name == "SUBSTRING") {
    HANA_RETURN_IF_ERROR(require_args(2, 3));
    return make(DataType::kString);
  }
  if (name == "CONCAT") {
    HANA_RETURN_IF_ERROR(require_args(2, 2));
    return make(DataType::kString);
  }
  if (name == "LENGTH") {
    HANA_RETURN_IF_ERROR(require_args(1, 1));
    return make(DataType::kInt64);
  }
  if (name == "ABS") {
    HANA_RETURN_IF_ERROR(require_args(1, 1));
    return make(args[0]->type);
  }
  if (name == "ROUND") {
    HANA_RETURN_IF_ERROR(require_args(1, 2));
    return make(DataType::kDouble);
  }
  if (name == "FLOOR" || name == "CEIL" || name == "CEILING") {
    HANA_RETURN_IF_ERROR(require_args(1, 1));
    return make(DataType::kInt64);
  }
  if (name == "YEAR" || name == "MONTH" || name == "DAYOFMONTH") {
    HANA_RETURN_IF_ERROR(require_args(1, 1));
    return make(DataType::kInt64);
  }
  if (name == "COALESCE" || name == "IFNULL") {
    HANA_RETURN_IF_ERROR(require_args(1, 8));
    DataType type = DataType::kNull;
    for (const auto& a : args) {
      type = type == DataType::kNull ? a->type : PromoteNumeric(type, a->type);
      if (a->type == DataType::kString) type = DataType::kString;
      if (a->type == DataType::kDate) type = DataType::kDate;
    }
    return make(type);
  }
  if (name == "MOD") {
    HANA_RETURN_IF_ERROR(require_args(2, 2));
    return make(DataType::kInt64);
  }
  if (IsAggregateName(name)) {
    return Status::BindError("aggregate " + name +
                             " not allowed in this context");
  }
  return Status::BindError("unknown function " + name);
}

Result<BoundExprPtr> Binder::BindExpr(const Expr& e, const Scope& scope,
                                      AggContext* agg) {
  if (agg != nullptr) {
    // Post-aggregate scope: GROUP BY expressions and aggregate calls
    // resolve to columns of the aggregate output.
    std::string key = ToUpper(e.ToSql());
    for (size_t i = 0; i < agg->group_keys.size(); ++i) {
      if (agg->group_keys[i] == key) {
        return BoundExpr::Column(i, agg->group_types[i],
                                 agg->group_names[i]);
      }
    }
    if (e.kind == ExprKind::kFunction && IsAggregateName(e.function_name)) {
      return RegisterAggregate(e, scope, agg);
    }
    if (e.kind == ExprKind::kColumnRef || e.kind == ExprKind::kStar) {
      return Status::BindError("column " + e.ToSql() +
                               " must appear in GROUP BY or in an aggregate");
    }
  }

  switch (e.kind) {
    case ExprKind::kLiteral:
      return BoundExpr::Literal(e.literal, e.literal.type());
    case ExprKind::kColumnRef: {
      std::string name =
          e.table.empty() ? e.column : e.table + "." + e.column;
      // With an outer scope, columns bind into the outer++inner layout
      // of a semi/anti join condition; inner names shadow outer ones.
      auto bind = [&](const Schema& schema, int idx, size_t offset) {
        const ColumnDef& col = schema.column(static_cast<size_t>(idx));
        return BoundExpr::Column(static_cast<size_t>(idx) + offset, col.type,
                                 col.name);
      };
      if (int idx = scope.schema->FindColumn(name); idx >= 0) {
        return bind(*scope.schema, idx,
                    scope.outer != nullptr
                        ? scope.outer->schema->num_columns()
                        : 0);
      }
      if (scope.outer != nullptr) {
        if (int idx = scope.outer->schema->FindColumn(name); idx >= 0) {
          return bind(*scope.outer->schema, idx, 0);
        }
      }
      return Status::BindError("column not found or ambiguous: " + name);
    }
    case ExprKind::kStar:
      return Status::BindError("'*' is not valid in this context");
    case ExprKind::kUnary: {
      HANA_ASSIGN_OR_RETURN(BoundExprPtr operand,
                            BindExpr(*e.child0, scope, agg));
      return BoundExpr::Unary(static_cast<int>(e.unary_op),
                              std::move(operand));
    }
    case ExprKind::kBinary: {
      HANA_ASSIGN_OR_RETURN(BoundExprPtr lhs, BindExpr(*e.child0, scope, agg));
      HANA_ASSIGN_OR_RETURN(BoundExprPtr rhs, BindExpr(*e.child1, scope, agg));
      // Implicit casts: string literal vs. date column.
      auto coerce_date = [](BoundExprPtr& a, BoundExprPtr& b) {
        if (a->type == DataType::kDate && b->type == DataType::kString) {
          auto cast = std::make_unique<BoundExpr>();
          cast->kind = BoundKind::kCast;
          cast->type = DataType::kDate;
          cast->child0 = std::move(b);
          b = std::move(cast);
        }
      };
      coerce_date(lhs, rhs);
      coerce_date(rhs, lhs);
      DataType type;
      switch (e.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
          if (lhs->type == DataType::kDate || rhs->type == DataType::kDate) {
            // date - date = int days; date +/- int = date.
            type = (lhs->type == DataType::kDate &&
                    rhs->type == DataType::kDate)
                       ? DataType::kInt64
                       : DataType::kDate;
          } else {
            type = PromoteNumeric(lhs->type, rhs->type);
          }
          break;
        case BinaryOp::kMul:
          type = PromoteNumeric(lhs->type, rhs->type);
          break;
        case BinaryOp::kDiv:
          type = DataType::kDouble;
          break;
        case BinaryOp::kMod:
          type = DataType::kInt64;
          break;
        case BinaryOp::kConcat:
          type = DataType::kString;
          break;
        default:
          type = DataType::kBool;
          break;
      }
      return BoundExpr::Binary(static_cast<int>(e.binary_op), type,
                               std::move(lhs), std::move(rhs));
    }
    case ExprKind::kFunction:
      return BindFunction(e, scope, agg);
    case ExprKind::kCase: {
      auto bound = std::make_unique<BoundExpr>();
      bound->kind = BoundKind::kCase;
      DataType type = DataType::kNull;
      for (const auto& [when, then] : e.when_clauses) {
        BoundExprPtr cond;
        if (e.child0 != nullptr) {
          // Simple CASE x WHEN v: rewrite condition as x = v.
          auto eq = Expr::Binary(BinaryOp::kEq, e.child0->Clone(),
                                 when->Clone());
          HANA_ASSIGN_OR_RETURN(cond, BindExpr(*eq, scope, agg));
        } else {
          HANA_ASSIGN_OR_RETURN(cond, BindExpr(*when, scope, agg));
        }
        HANA_ASSIGN_OR_RETURN(BoundExprPtr result,
                              BindExpr(*then, scope, agg));
        type = type == DataType::kNull
                   ? result->type
                   : (result->type == DataType::kString
                          ? DataType::kString
                          : PromoteNumeric(type, result->type));
        bound->when_clauses.emplace_back(std::move(cond), std::move(result));
      }
      if (e.child1 != nullptr) {
        HANA_ASSIGN_OR_RETURN(bound->child1, BindExpr(*e.child1, scope, agg));
        type = bound->child1->type == DataType::kString
                   ? DataType::kString
                   : PromoteNumeric(type, bound->child1->type);
      }
      bound->type = type;
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kCast: {
      auto bound = std::make_unique<BoundExpr>();
      bound->kind = BoundKind::kCast;
      bound->type = e.cast_type;
      HANA_ASSIGN_OR_RETURN(bound->child0, BindExpr(*e.child0, scope, agg));
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kIn: {
      if (e.subquery != nullptr) {
        return Status::BindError(
            "IN (subquery) is only supported as a top-level WHERE conjunct");
      }
      auto bound = std::make_unique<BoundExpr>();
      bound->kind = BoundKind::kInList;
      bound->type = DataType::kBool;
      bound->negated = e.negated;
      HANA_ASSIGN_OR_RETURN(bound->child0, BindExpr(*e.child0, scope, agg));
      for (const auto& item : e.in_list) {
        HANA_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*item, scope, agg));
        bound->in_list.push_back(std::move(b));
      }
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kExists:
      return Status::BindError(
          "EXISTS is only supported as a top-level WHERE conjunct");
    case ExprKind::kSubquery:
      return Status::BindError("scalar subqueries are not supported");
    case ExprKind::kIsNull: {
      auto bound = std::make_unique<BoundExpr>();
      bound->kind = BoundKind::kIsNull;
      bound->type = DataType::kBool;
      bound->negated = e.negated;
      HANA_ASSIGN_OR_RETURN(bound->child0, BindExpr(*e.child0, scope, agg));
      return BoundExprPtr(std::move(bound));
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<LogicalOpPtr> Binder::UnnestSubqueryConjunct(LogicalOpPtr plan,
                                                    const Scope& scope,
                                                    const Expr& conjunct,
                                                    bool negate) {
  size_t left_arity = plan->schema->num_columns();
  bool negated = conjunct.negated != negate;

  if (conjunct.kind == ExprKind::kIn) {
    // expr [NOT] IN (SELECT col FROM ...): uncorrelated only. NOT IN is
    // a null-aware anti join (see LogicalOp::null_aware).
    HANA_ASSIGN_OR_RETURN(BoundExprPtr outer_expr,
                          BindExpr(*conjunct.child0, scope, nullptr));
    HANA_ASSIGN_OR_RETURN(LogicalOpPtr sub, BindSelect(*conjunct.subquery));
    if (sub->schema->num_columns() != 1) {
      return Status::BindError("IN subquery must produce exactly one column");
    }
    auto join = std::make_unique<LogicalOp>();
    join->kind = LogicalKind::kJoin;
    join->join_kind = negated ? JoinKind::kAnti : JoinKind::kSemi;
    join->null_aware = negated;
    join->schema = plan->schema;
    BoundExprPtr inner_col = BoundExpr::Column(
        left_arity, sub->schema->column(0).type, sub->schema->column(0).name);
    join->condition =
        BoundExpr::Binary(static_cast<int>(BinaryOp::kEq), DataType::kBool,
                          std::move(outer_expr), std::move(inner_col));
    join->children.push_back(std::move(plan));
    join->children.push_back(std::move(sub));
    return LogicalOpPtr(std::move(join));
  }

  // [NOT] EXISTS (SELECT ... WHERE inner.x = outer.y AND locals...):
  // conjuncts over the subquery alone filter it; the correlated ones
  // form the join condition, whose equalities become hash keys and the
  // rest its residual.
  const SelectStmt& sub = *conjunct.subquery;
  if (sub.from == nullptr) {
    return Status::BindError("EXISTS subquery requires a FROM clause");
  }
  HANA_ASSIGN_OR_RETURN(LogicalOpPtr inner_plan, BindTableRef(*sub.from));
  Scope inner_scope{inner_plan->schema, nullptr};
  Scope correlated_scope{inner_plan->schema, &scope};

  std::vector<BoundExprPtr> inner_filters;
  BoundExprPtr join_condition;
  if (sub.where != nullptr) {
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(*sub.where, &conjuncts);
    for (const Expr* c : conjuncts) {
      Result<BoundExprPtr> local = BindExpr(*c, inner_scope, nullptr);
      if (local.ok()) {
        inner_filters.push_back(std::move(*local));
        continue;
      }
      Result<BoundExprPtr> correlated =
          BindExpr(*c, correlated_scope, nullptr);
      if (!correlated.ok()) {
        return Status::BindError(
            "unsupported correlated predicate in EXISTS: " + c->ToSql());
      }
      join_condition =
          join_condition == nullptr
              ? std::move(*correlated)
              : BoundExpr::Binary(static_cast<int>(BinaryOp::kAnd),
                                  DataType::kBool, std::move(join_condition),
                                  std::move(*correlated));
    }
  }
  for (auto& f : inner_filters) {
    inner_plan = MakeFilter(std::move(inner_plan), std::move(f));
  }
  if (join_condition == nullptr ||
      AnalyzeJoinCondition(*join_condition, left_arity).equi_keys.empty()) {
    return Status::BindError(
        "EXISTS without a correlated equality predicate is not supported");
  }
  auto join = std::make_unique<LogicalOp>();
  join->kind = LogicalKind::kJoin;
  join->join_kind = negated ? JoinKind::kAnti : JoinKind::kSemi;
  join->schema = plan->schema;
  join->condition = std::move(join_condition);
  join->children.push_back(std::move(plan));
  join->children.push_back(std::move(inner_plan));
  return LogicalOpPtr(std::move(join));
}

Result<LogicalOpPtr> Binder::BindSelect(const SelectStmt& stmt) {
  LogicalOpPtr plan;
  if (stmt.from != nullptr) {
    HANA_ASSIGN_OR_RETURN(plan, BindTableRef(*stmt.from));
  } else {
    // Table-less SELECT: a Project with no child emits exactly one row.
    // It carries one dummy column so chunk row counting works.
    auto op = std::make_unique<LogicalOp>();
    op->kind = LogicalKind::kProject;
    op->schema = std::make_shared<Schema>(std::vector<ColumnDef>{
        {"__dual", DataType::kInt64, false}});
    op->exprs.push_back(
        BoundExpr::Literal(Value::Int(0), DataType::kInt64));
    plan = std::move(op);
  }
  Scope scope{plan->schema, nullptr};

  // WHERE: plain conjuncts become filters; subquery conjuncts unnest.
  if (stmt.where != nullptr) {
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(*stmt.where, &conjuncts);
    for (const Expr* c : conjuncts) {
      // Peel NOT wrappers so "NOT EXISTS"/"NOT (x IN ...)" unnest too.
      bool negate = false;
      while (c->kind == ExprKind::kUnary && c->unary_op == UnaryOp::kNot &&
             c->child0 != nullptr &&
             (c->child0->kind == ExprKind::kExists ||
              (c->child0->kind == ExprKind::kIn &&
               c->child0->subquery != nullptr))) {
        negate = !negate;
        c = c->child0.get();
      }
      bool is_subquery_conjunct =
          c->kind == ExprKind::kExists ||
          (c->kind == ExprKind::kIn && c->subquery != nullptr);
      if (is_subquery_conjunct) {
        HANA_ASSIGN_OR_RETURN(
            plan, UnnestSubqueryConjunct(std::move(plan), scope, *c, negate));
      } else {
        HANA_ASSIGN_OR_RETURN(BoundExprPtr pred, BindExpr(*c, scope, nullptr));
        plan = MakeFilter(std::move(plan), std::move(pred));
      }
    }
    scope.schema = plan->schema;
  }

  // Detect aggregation.
  bool has_agg = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (item.expr->kind != ExprKind::kStar &&
        ContainsAggregate(*item.expr)) {
      has_agg = true;
    }
  }
  if (stmt.having != nullptr) has_agg = true;

  std::vector<BoundExprPtr> project_exprs;
  auto project_schema = std::make_shared<Schema>();
  AggContext agg_ctx;
  std::vector<BoundExprPtr> aggregates;
  agg_ctx.aggregates = &aggregates;
  BoundExprPtr having_bound;

  auto item_name = [](const sql::SelectItem& item) -> std::string {
    if (!item.alias.empty()) return item.alias;
    if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column;
    return item.expr->ToSql();
  };

  if (has_agg) {
    std::vector<BoundExprPtr> group_bound;
    for (const auto& g : stmt.group_by) {
      HANA_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(*g, scope, nullptr));
      agg_ctx.group_keys.push_back(ToUpper(g->ToSql()));
      agg_ctx.group_types.push_back(bound->type);
      agg_ctx.group_names.push_back(bound->ToString());
      group_bound.push_back(std::move(bound));
    }
    // Bind select items and HAVING against the aggregate output.
    for (const auto& item : stmt.items) {
      if (item.expr->kind == ExprKind::kStar) {
        return Status::BindError("SELECT * is invalid with GROUP BY");
      }
      HANA_ASSIGN_OR_RETURN(BoundExprPtr bound,
                            BindExpr(*item.expr, scope, &agg_ctx));
      project_schema->AddColumn({item_name(item), bound->type, true});
      project_exprs.push_back(std::move(bound));
    }
    if (stmt.having != nullptr) {
      HANA_ASSIGN_OR_RETURN(having_bound,
                            BindExpr(*stmt.having, scope, &agg_ctx));
    }
    auto agg_op = std::make_unique<LogicalOp>();
    agg_op->kind = LogicalKind::kAggregate;
    auto agg_schema = std::make_shared<Schema>();
    for (size_t i = 0; i < group_bound.size(); ++i) {
      agg_schema->AddColumn(
          {agg_ctx.group_names[i], agg_ctx.group_types[i], true});
    }
    for (const auto& a : aggregates) {
      agg_schema->AddColumn({a->ToString(), a->type, true});
    }
    agg_op->schema = agg_schema;
    agg_op->group_by = std::move(group_bound);
    agg_op->aggregates = std::move(aggregates);
    agg_op->children.push_back(std::move(plan));
    plan = std::move(agg_op);
    if (having_bound != nullptr) {
      plan = MakeFilter(std::move(plan), std::move(having_bound));
    }
  } else {
    for (const auto& item : stmt.items) {
      if (item.expr->kind == ExprKind::kStar) {
        // Expand * / t.* over the scope.
        const std::string& qualifier = item.expr->table;
        bool matched = false;
        for (size_t i = 0; i < scope.schema->num_columns(); ++i) {
          const ColumnDef& col = scope.schema->column(i);
          if (!qualifier.empty()) {
            std::string prefix = qualifier + ".";
            if (!EqualsIgnoreCase(col.name.substr(
                    0, std::min(col.name.size(), prefix.size())), prefix)) {
              continue;
            }
          }
          matched = true;
          project_exprs.push_back(
              BoundExpr::Column(i, col.type, col.name));
          project_schema->AddColumn({BaseName(col.name), col.type,
                                     col.nullable});
        }
        if (!matched) {
          return Status::BindError("no columns match " + item.expr->ToSql());
        }
        continue;
      }
      HANA_ASSIGN_OR_RETURN(BoundExprPtr bound,
                            BindExpr(*item.expr, scope, nullptr));
      project_schema->AddColumn({item_name(item), bound->type, true});
      project_exprs.push_back(std::move(bound));
    }
  }

  plan = MakeProject(std::move(plan), std::move(project_exprs),
                     project_schema);

  // DISTINCT: aggregate over all output columns.
  if (stmt.distinct) {
    auto agg_op = std::make_unique<LogicalOp>();
    agg_op->kind = LogicalKind::kAggregate;
    agg_op->schema = plan->schema;
    for (size_t i = 0; i < plan->schema->num_columns(); ++i) {
      agg_op->group_by.push_back(BoundExpr::Column(
          i, plan->schema->column(i).type, plan->schema->column(i).name));
    }
    agg_op->children.push_back(std::move(plan));
    plan = std::move(agg_op);
  }

  // ORDER BY: resolve against output columns (aliases, positions) or
  // bindable expressions appended as hidden sort columns.
  if (!stmt.order_by.empty()) {
    auto sort_op = std::make_unique<LogicalOp>();
    sort_op->kind = LogicalKind::kSort;
    sort_op->schema = plan->schema;
    size_t visible = plan->schema->num_columns();
    std::vector<BoundExprPtr> hidden;
    for (const auto& o : stmt.order_by) {
      SortKey key;
      key.ascending = o.ascending;
      if (o.expr->kind == ExprKind::kLiteral &&
          o.expr->literal.type() == DataType::kInt64) {
        int64_t pos = o.expr->literal.int_value();
        if (pos < 1 || pos > static_cast<int64_t>(visible)) {
          return Status::BindError("ORDER BY position out of range");
        }
        key.expr = BoundExpr::Column(
            static_cast<size_t>(pos - 1),
            plan->schema->column(static_cast<size_t>(pos - 1)).type,
            plan->schema->column(static_cast<size_t>(pos - 1)).name);
        sort_op->sort_keys.push_back(std::move(key));
        continue;
      }
      std::string name = o.expr->kind == ExprKind::kColumnRef
                             ? (o.expr->table.empty()
                                    ? o.expr->column
                                    : o.expr->table + "." + o.expr->column)
                             : o.expr->ToSql();
      int idx = plan->schema->FindColumn(name);
      if (idx >= 0) {
        key.expr = BoundExpr::Column(static_cast<size_t>(idx),
                                     plan->schema->column(idx).type,
                                     plan->schema->column(idx).name);
        sort_op->sort_keys.push_back(std::move(key));
        continue;
      }
      // Hidden sort column: bind in the pre-projection scope.
      BoundExprPtr bound;
      if (has_agg) {
        HANA_ASSIGN_OR_RETURN(bound, BindExpr(*o.expr, scope, &agg_ctx));
        if (!agg_ctx.aggregates->empty()) {
          return Status::BindError(
              "ORDER BY aggregate expressions must appear in SELECT list");
        }
      } else {
        HANA_ASSIGN_OR_RETURN(bound, BindExpr(*o.expr, scope, nullptr));
      }
      key.expr = BoundExpr::Column(visible + hidden.size(), bound->type,
                                   "__sort" + std::to_string(hidden.size()));
      hidden.push_back(std::move(bound));
      sort_op->sort_keys.push_back(std::move(key));
    }
    if (!hidden.empty()) {
      // Extend the projection with hidden columns, sort, then strip.
      LogicalOp* project = plan.get();
      if (project->kind != LogicalKind::kProject) {
        return Status::Internal("expected projection below sort");
      }
      auto extended = std::make_shared<Schema>(project->schema->columns());
      for (size_t i = 0; i < hidden.size(); ++i) {
        extended->AddColumn({"__sort" + std::to_string(i), hidden[i]->type,
                             true});
        project->exprs.push_back(std::move(hidden[i]));
      }
      project->schema = extended;
      sort_op->schema = extended;
      sort_op->children.push_back(std::move(plan));
      plan = std::move(sort_op);
      // Strip hidden columns.
      std::vector<BoundExprPtr> strip;
      auto stripped = std::make_shared<Schema>();
      for (size_t i = 0; i < visible; ++i) {
        strip.push_back(BoundExpr::Column(i, extended->column(i).type,
                                          extended->column(i).name));
        stripped->AddColumn(extended->column(i));
      }
      plan = MakeProject(std::move(plan), std::move(strip), stripped);
    } else {
      sort_op->children.push_back(std::move(plan));
      plan = std::move(sort_op);
    }
  }

  if (stmt.limit >= 0) plan = MakeLimit(std::move(plan), stmt.limit);
  return plan;
}

}  // namespace

bool ContainsAggregate(const sql::Expr& expr) {
  if (expr.kind == ExprKind::kFunction &&
      IsAggregateName(expr.function_name)) {
    return true;
  }
  if (expr.child0 && ContainsAggregate(*expr.child0)) return true;
  if (expr.child1 && ContainsAggregate(*expr.child1)) return true;
  for (const auto& a : expr.args) {
    if (ContainsAggregate(*a)) return true;
  }
  for (const auto& [w, t] : expr.when_clauses) {
    if (ContainsAggregate(*w) || ContainsAggregate(*t)) return true;
  }
  for (const auto& i : expr.in_list) {
    if (ContainsAggregate(*i)) return true;
  }
  return false;
}

Result<LogicalOpPtr> BindSelectStatement(const BinderCatalog& catalog,
                                         const sql::SelectStmt& stmt) {
  Binder binder(catalog);
  return binder.BindSelect(stmt);
}

Result<BoundExprPtr> BindScalarExpr(const sql::Expr& expr,
                                    const Schema& schema) {
  NullCatalog null_catalog;
  Binder binder(null_catalog);
  Scope scope{std::make_shared<Schema>(schema.columns()), nullptr};
  return binder.BindExpr(expr, scope, nullptr);
}

Result<BoundExprPtr> BindAggregateCall(const sql::Expr& expr,
                                       const Schema& schema) {
  if (expr.kind != ExprKind::kFunction ||
      !IsAggregateName(expr.function_name)) {
    return Status::BindError("not an aggregate: " + expr.ToSql());
  }
  NullCatalog null_catalog;
  Binder binder(null_catalog);
  Scope scope{std::make_shared<Schema>(schema.columns()), nullptr};
  return binder.BindAggregateCall(expr, scope);
}

}  // namespace hana::plan
