#ifndef HANA_PLAN_BINDER_H_
#define HANA_PLAN_BINDER_H_

#include <memory>

#include "common/result.h"
#include "plan/logical.h"
#include "sql/ast.h"

namespace hana::plan {

/// Name-resolution scope: the (qualified) columns visible at one query
/// level. `outer` is the enclosing query of a correlated EXISTS: names
/// not found here resolve there, and columns bind into the outer++inner
/// layout of the semi/anti join condition (outer columns first).
struct Scope {
  std::shared_ptr<Schema> schema;
  const Scope* outer = nullptr;
};

/// Binds an AST SELECT into a logical plan:
///  * resolves table / virtual-table / table-function names through the
///    catalog interface,
///  * resolves and types all expressions,
///  * unnests [NOT] IN (subquery) and [NOT] EXISTS into semi/anti joins
///    (NOT IN null-aware; an EXISTS needs one correlated equality, and
///    its other correlated conjuncts become the join's residual),
///  * plans GROUP BY / aggregates / HAVING / DISTINCT / ORDER BY / LIMIT.
[[nodiscard]] Result<LogicalOpPtr> BindSelectStatement(const BinderCatalog& catalog,
                                         const sql::SelectStmt& stmt);

/// Binds a standalone scalar expression against a schema (used for
/// aging predicates, ESP filters and tests).
[[nodiscard]] Result<BoundExprPtr> BindScalarExpr(const sql::Expr& expr,
                                    const Schema& schema);

/// Binds one aggregate call ("SUM(x)", "COUNT(DISTINCT k)", "COUNT(*)")
/// against a schema into a typed kAggregate node, exactly as the SELECT
/// binder binds it (used for ESP window aggregates).
[[nodiscard]] Result<BoundExprPtr> BindAggregateCall(const sql::Expr& expr,
                                                     const Schema& schema);

/// True if the AST contains an aggregate function call (at this level;
/// subqueries are not inspected).
bool ContainsAggregate(const sql::Expr& expr);

}  // namespace hana::plan

#endif  // HANA_PLAN_BINDER_H_
