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
/// filter directly above the join.
[[nodiscard]] Status PushDownFilters(LogicalOpPtr* plan);

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

/// Column pruning. Computes top-down which columns every node must
/// produce — the root all of its outputs; filter, sort, limit and union
/// their parent's needs plus their own expression columns; a join its
/// parent's needs plus its condition's, split at the left arity;
/// project and aggregate only what their expressions reference — then
/// narrows each scan to those columns (LogicalOp::scan_columns, table
/// order, at least one: the cheapest type to decode when nothing is
/// referenced), rebuilds the pass-through schemas and remaps every
/// column index above a narrowed child. Project and aggregate outputs,
/// table functions and remote queries (with their relocated children)
/// keep every column. ScanRange bounds stay in table-column space.
[[nodiscard]] Status PruneColumns(LogicalOp* plan);

}  // namespace hana::plan

#endif  // HANA_PLAN_REWRITES_H_
