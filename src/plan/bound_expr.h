#ifndef HANA_PLAN_BOUND_EXPR_H_
#define HANA_PLAN_BOUND_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/value.h"

namespace hana::plan {

/// Expression node kinds after binding. Subqueries and stars are gone:
/// the binder unnests IN/EXISTS subqueries into semi/anti joins, inlines
/// scalar subqueries as literals, and expands stars.
enum class BoundKind {
  kLiteral,
  kColumn,    // Index into the input row.
  kUnary,
  kBinary,
  kFunction,  // Scalar function (aggregates never appear here at runtime).
  kAggregate, // Only below an Aggregate operator.
  kCase,
  kCast,
  kInList,
  kIsNull,
};

enum class AggKind { kCount, kCountStar, kSum, kAvg, kMin, kMax };

/// The SQL function name of an aggregate ("COUNT" for COUNT(*) too).
const char* AggName(AggKind kind);

/// The result type of an aggregate over an argument of type `arg`: COUNT
/// is BIGINT, SUM is DOUBLE iff its argument is, AVG is DOUBLE, MIN and
/// MAX take the argument's type. Every engine types aggregates by this.
DataType AggResultType(AggKind kind, DataType arg);

struct BoundExpr;
using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// A typed, index-resolved expression evaluated by the execution engine.
struct BoundExpr {
  BoundKind kind;
  DataType type = DataType::kNull;

  Value literal;             // kLiteral
  size_t column_index = 0;   // kColumn
  std::string column_name;   // kColumn: qualified name (for plan printing
                             // and remote SQL reconstruction).

  int unary_op = 0;   // sql::UnaryOp
  int binary_op = 0;  // sql::BinaryOp
  BoundExprPtr child0;
  BoundExprPtr child1;

  std::string function_name;  // kFunction
  std::vector<BoundExprPtr> args;

  AggKind agg_kind = AggKind::kCount;  // kAggregate
  bool distinct = false;

  std::vector<std::pair<BoundExprPtr, BoundExprPtr>> when_clauses;  // kCase
  std::vector<BoundExprPtr> in_list;  // kInList
  bool negated = false;               // kInList / kIsNull

  static BoundExprPtr Literal(Value v, DataType type);
  static BoundExprPtr Column(size_t index, DataType type, std::string name);
  static BoundExprPtr Unary(int op, BoundExprPtr operand);
  static BoundExprPtr Binary(int op, DataType type, BoundExprPtr lhs,
                             BoundExprPtr rhs);

  BoundExprPtr Clone() const;
  std::string ToString() const;

  /// True if the expression (and its children) reference no columns.
  bool IsConstant() const;

  /// Collects all referenced column indexes.
  void CollectColumns(std::vector<size_t>* out) const;
};

/// Remaps every kColumn index through `mapping` (old index -> new index);
/// indexes absent from the mapping are left untouched when `strict` is
/// false and reported as an error otherwise.
[[nodiscard]] Status RemapColumns(BoundExpr* expr,
                    const std::vector<int>& mapping, bool strict = true);

/// Shifts every kColumn index by `offset` (used when concatenating the
/// two sides of a join).
void ShiftColumns(BoundExpr* expr, size_t offset);

}  // namespace hana::plan

#endif  // HANA_PLAN_BOUND_EXPR_H_
