#ifndef HANA_PLAN_REWRITES_H_
#define HANA_PLAN_REWRITES_H_

#include "plan/logical.h"

namespace hana::plan {

/// Splits conjunctive filters and pushes each conjunct as far down the
/// plan as its column references allow:
///  * through inner/cross joins to the referencing side,
///  * through the left side of LEFT/SEMI/ANTI joins,
///  * through unions into every branch.
/// Filters that straddle both join sides become (or remain) part of a
/// filter directly above the join. Join conditions are placed the same
/// way: an ON conjunct reading one side only becomes a filter on that
/// input — either side of inner, cross and semi joins, the right side of
/// LEFT and anti joins — and sinks from there; equi keys and other
/// conjuncts over both sides stay (a null-aware anti join keeps its
/// whole condition). An inner join left without a condition becomes a
/// cross join.
[[nodiscard]] Status PushDownFilters(LogicalOpPtr* plan);

/// Moves every semi and anti join down to the input that owns its key,
/// so it drops outer rows before they reach other joins:
///  * through inner and cross joins, into the child that supplies every
///    outer column of its condition,
///  * into the preserved (left) side of LEFT joins and the left side of
///    other semi/anti joins,
///  * through filters and projects that pass its outer columns through
///    as plain columns.
/// It never moves through unions, aggregates, sorts or limits, nor into
/// a null-supplying side. Federation guard: it does not move onto a
/// subtree reading one remote source only unless its subquery reads
/// that same source, so shipped subtrees stay whole.
[[nodiscard]] Status PushDownSemiJoins(LogicalOpPtr* plan);

/// Moves filter conjuncts that reference both sides of an inner/cross
/// join below them into the join condition (turning cross joins into
/// inner joins). Run after PushDownFilters, which leaves exactly these
/// straddling conjuncts directly above their join.
void PullFiltersIntoJoins(LogicalOpPtr* plan);

/// For every Filter directly above a Scan, extracts simple
/// `column <cmp> literal` conjuncts into ScanRange bounds on the scan
/// (the filter stays in place; pruning is conservative).
void PushScanRanges(LogicalOp* plan);

/// Extracts per-column inclusive bounds from a predicate (columns are
/// indexes of the schema the predicate is bound against).
std::vector<ScanRange> ExtractRanges(const BoundExpr& predicate);

/// Eager aggregation through UNION ALL: every Aggregate(Union(b1..bn))
/// becomes Final(Union(Partial(b1)..Partial(bn))), so each branch (a
/// cold partition, a remote source) can ship or run a narrow GROUP BY.
/// The partials group by the original keys and compute the original
/// aggregates, except that AVG becomes a SUM and a COUNT. The final
/// groups by the partial key columns and combines COUNT and COUNT(*) as
/// SUM, and SUM, MIN and MAX as themselves; a Project above it divides
/// each AVG's SUM by its COUNT (NULL when the count is 0, as
/// exec::FinalizeAgg does). The final keeps the original output layout.
/// DOUBLE sums re-associate: the final adds the partials in union branch
/// order, each partial in morsel order, so results are deterministic at
/// any thread count. Aggregates with a DISTINCT argument stay whole.
[[nodiscard]] Status SplitAggregateOverUnion(LogicalOpPtr* plan);

/// Column pruning. Computes top-down which columns every node must
/// produce — the root all of its outputs; filter, sort, limit and union
/// their parent's needs plus their own expression columns; a join its
/// parent's needs plus its condition's, split at the left arity;
/// project and aggregate only what their expressions reference — then
/// narrows each scan to those columns (LogicalOp::scan_columns, table
/// order, at least one: the cheapest type to decode when nothing is
/// referenced), rebuilds the pass-through schemas and remaps every
/// column index above a narrowed child. A filter that feeds a join and
/// reads columns the join does not need gets a column-only Project
/// above it that drops them. Project and aggregate outputs,
/// table functions and remote queries keep every column. ScanRange
/// bounds stay in table-column space.
[[nodiscard]] Status PruneColumns(LogicalOp* plan);

}  // namespace hana::plan

#endif  // HANA_PLAN_REWRITES_H_
