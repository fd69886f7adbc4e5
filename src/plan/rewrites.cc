#include "plan/rewrites.h"

#include <algorithm>
#include <map>
#include <string>

#include "plan/join_analysis.h"
#include "sql/ast.h"

namespace hana::plan {

namespace {

using sql::BinaryOp;

void SplitAnd(BoundExprPtr expr, std::vector<BoundExprPtr>* out) {
  if (expr->kind == BoundKind::kBinary &&
      expr->binary_op == static_cast<int>(BinaryOp::kAnd)) {
    SplitAnd(std::move(expr->child0), out);
    SplitAnd(std::move(expr->child1), out);
    return;
  }
  out->push_back(std::move(expr));
}

/// Pushes one conjunct into `plan` if possible; returns true on success
/// (ownership taken), false if the caller must keep it.
bool TryPush(LogicalOpPtr* plan, BoundExprPtr* conjunct);

void SplitOrRefs(const BoundExpr& e, std::vector<const BoundExpr*>* out) {
  if (e.kind == BoundKind::kBinary &&
      e.binary_op == static_cast<int>(BinaryOp::kOr)) {
    SplitOrRefs(*e.child0, out);
    SplitOrRefs(*e.child1, out);
    return;
  }
  out->push_back(&e);
}

void SplitAndRefs(const BoundExpr& e, std::vector<const BoundExpr*>* out) {
  if (e.kind == BoundKind::kBinary &&
      e.binary_op == static_cast<int>(BinaryOp::kAnd)) {
    SplitAndRefs(*e.child0, out);
    SplitAndRefs(*e.child1, out);
    return;
  }
  out->push_back(&e);
}

/// Predicate derivation: conjuncts shared by every branch of an OR are
/// implied by the whole disjunction and can be pushed independently
/// (e.g. TPC-H Q19's repeated shipmode/shipinstruct terms).
void DeriveCommonConjuncts(const BoundExpr& conjunct,
                           std::vector<BoundExprPtr>* extra) {
  if (conjunct.kind != BoundKind::kBinary ||
      conjunct.binary_op != static_cast<int>(BinaryOp::kOr)) {
    return;
  }
  std::vector<const BoundExpr*> branches;
  SplitOrRefs(conjunct, &branches);
  if (branches.size() < 2) return;
  std::map<std::string, const BoundExpr*> common;
  {
    std::vector<const BoundExpr*> parts;
    SplitAndRefs(*branches[0], &parts);
    for (const BoundExpr* p : parts) common[p->ToString()] = p;
  }
  for (size_t b = 1; b < branches.size() && !common.empty(); ++b) {
    std::vector<const BoundExpr*> parts;
    SplitAndRefs(*branches[b], &parts);
    std::map<std::string, const BoundExpr*> seen;
    for (const BoundExpr* p : parts) seen[p->ToString()] = p;
    for (auto it = common.begin(); it != common.end();) {
      it = seen.count(it->first) > 0 ? std::next(it) : common.erase(it);
    }
  }
  for (const auto& [key, expr] : common) extra->push_back(expr->Clone());
}

/// Wraps plan in a filter holding `pred`.
void AddFilter(LogicalOpPtr* plan, BoundExprPtr pred) {
  *plan = MakeFilter(std::move(*plan), std::move(pred));
}

/// The conjunction of `parts`; null when there are none.
BoundExprPtr AndAll(std::vector<BoundExprPtr> parts) {
  BoundExprPtr out;
  for (auto& p : parts) {
    out = out == nullptr
              ? std::move(p)
              : BoundExpr::Binary(static_cast<int>(BinaryOp::kAnd),
                                  DataType::kBool, std::move(out),
                                  std::move(p));
  }
  return out;
}

/// Rebases an expression over a join's left++right layout, reading only
/// right-side columns, onto the right child's own layout.
Status RebaseToRight(BoundExpr* expr, size_t left_arity) {
  std::vector<size_t> cols;
  expr->CollectColumns(&cols);
  size_t max_col = 0;
  for (size_t c : cols) max_col = std::max(max_col, c);
  std::vector<int> mapping(max_col + 1, -1);
  for (size_t c : cols) mapping[c] = static_cast<int>(c - left_arity);
  return RemapColumns(expr, mapping);
}

bool TryPush(LogicalOpPtr* plan, BoundExprPtr* conjunct) {
  LogicalOp* op = plan->get();
  switch (op->kind) {
    case LogicalKind::kFilter:
      // Push below the existing filter (both stay above the same child).
      if (TryPush(&op->children[0], conjunct)) return true;
      // Keep it at this level: chain another filter on top of our child.
      AddFilter(&op->children[0], std::move(*conjunct));
      return true;
    case LogicalKind::kJoin: {
      size_t left_arity = op->children[0]->schema->num_columns();
      bool left_ok = ColumnsWithin(**conjunct, 0, left_arity);
      bool right_pushable = op->join_kind == JoinKind::kInner ||
                            op->join_kind == JoinKind::kCross;
      if (left_ok) {
        if (!TryPush(&op->children[0], conjunct)) {
          AddFilter(&op->children[0], std::move(*conjunct));
        }
        return true;
      }
      if (right_pushable &&
          ColumnsWithin(**conjunct, left_arity, static_cast<size_t>(-1))) {
        if (!RebaseToRight(conjunct->get(), left_arity).ok()) return false;
        if (!TryPush(&op->children[1], conjunct)) {
          AddFilter(&op->children[1], std::move(*conjunct));
        }
        return true;
      }
      return false;
    }
    case LogicalKind::kUnion: {
      for (auto& child : op->children) {
        BoundExprPtr copy = (*conjunct)->Clone();
        if (!TryPush(&child, &copy)) {
          AddFilter(&child, std::move(copy));
        }
      }
      return true;
    }
    case LogicalKind::kProject: {
      if (op->children.empty()) return false;
      // Push through when every referenced output column is a plain
      // column projection (remap output index -> input index).
      std::vector<size_t> cols;
      (*conjunct)->CollectColumns(&cols);
      size_t max_col = 0;
      for (size_t c : cols) max_col = std::max(max_col, c);
      std::vector<int> mapping(max_col + 1, -1);
      for (size_t c : cols) {
        if (c >= op->exprs.size() ||
            op->exprs[c]->kind != BoundKind::kColumn) {
          return false;
        }
        mapping[c] = static_cast<int>(op->exprs[c]->column_index);
      }
      if (!RemapColumns(conjunct->get(), mapping).ok()) return false;
      if (!TryPush(&op->children[0], conjunct)) {
        AddFilter(&op->children[0], std::move(*conjunct));
      }
      return true;
    }
    case LogicalKind::kScan:
    case LogicalKind::kTableFunctionScan:
    case LogicalKind::kRemoteQuery:
    default:
      return false;
  }
}

/// Join-condition placement: each conjunct of a join's ON condition that
/// reads one side only becomes a filter on that side's input where this
/// keeps the join's result — either side of inner, cross and semi
/// joins, the right (null-supplying or subquery) side of left and anti
/// joins. Equi keys and other conjuncts over both sides stay. A
/// null-aware anti join keeps its condition whole: NOT IN compares
/// against every subquery row, NULLs included.
Status PlaceJoinConjuncts(LogicalOp* op) {
  if (op->kind != LogicalKind::kJoin || op->condition == nullptr ||
      op->null_aware) {
    return Status::OK();
  }
  const JoinKind kind = op->join_kind;
  const bool left_ok = kind == JoinKind::kInner ||
                       kind == JoinKind::kCross || kind == JoinKind::kSemi;
  const size_t left_arity = op->children[0]->schema->num_columns();
  std::vector<BoundExprPtr> conjuncts, kept;
  SplitAnd(std::move(op->condition), &conjuncts);
  for (BoundExprPtr& c : conjuncts) {
    if (left_ok && ColumnsWithin(*c, 0, left_arity)) {
      AddFilter(&op->children[0], std::move(c));
    } else if (ColumnsWithin(*c, left_arity, static_cast<size_t>(-1))) {
      HANA_RETURN_IF_ERROR(RebaseToRight(c.get(), left_arity));
      AddFilter(&op->children[1], std::move(c));
    } else {
      kept.push_back(std::move(c));
    }
  }
  op->condition = AndAll(std::move(kept));
  if (op->condition == nullptr && kind == JoinKind::kInner) {
    op->join_kind = JoinKind::kCross;
  }
  return Status::OK();
}

Status PushDownFiltersImpl(LogicalOpPtr* plan) {
  // Hoist the entire stack of filters at this position, then push each
  // conjunct as deep as it goes; what cannot move re-stacks here.
  std::vector<BoundExprPtr> conjuncts;
  while (plan->get()->kind == LogicalKind::kFilter) {
    SplitAnd(std::move(plan->get()->predicate), &conjuncts);
    LogicalOpPtr child = std::move(plan->get()->children[0]);
    *plan = std::move(child);
  }
  // Redundant implied conjuncts derived from OR terms are pushed when
  // they can move somewhere useful and dropped otherwise.
  std::vector<BoundExprPtr> derived;
  for (const auto& c : conjuncts) DeriveCommonConjuncts(*c, &derived);
  for (auto& d : derived) {
    (void)TryPush(plan, &d);
  }
  std::vector<BoundExprPtr> kept;
  for (auto& c : conjuncts) {
    if (!TryPush(plan, &c)) kept.push_back(std::move(c));
  }
  HANA_RETURN_IF_ERROR(PlaceJoinConjuncts(plan->get()));
  for (auto& child : plan->get()->children) {
    HANA_RETURN_IF_ERROR(PushDownFiltersImpl(&child));
  }
  // Re-add the immovable conjuncts as one combined filter.
  BoundExprPtr rest = AndAll(std::move(kept));
  if (rest != nullptr) AddFilter(plan, std::move(rest));
  return Status::OK();
}

}  // namespace

Status PushDownFilters(LogicalOpPtr* plan) {
  return PushDownFiltersImpl(plan);
}

void PullFiltersIntoJoins(LogicalOpPtr* plan) {
  // Absorb the whole filter chain at this position.
  std::vector<BoundExprPtr> conjuncts;
  while (plan->get()->kind == LogicalKind::kFilter) {
    SplitAnd(std::move(plan->get()->predicate), &conjuncts);
    LogicalOpPtr child = std::move(plan->get()->children[0]);
    *plan = std::move(child);
  }
  LogicalOp* op = plan->get();
  std::vector<BoundExprPtr> keep;
  if (op->kind == LogicalKind::kJoin &&
      (op->join_kind == JoinKind::kInner ||
       op->join_kind == JoinKind::kCross)) {
    size_t left_arity = op->children[0]->schema->num_columns();
    for (auto& c : conjuncts) {
      bool left_only = ColumnsWithin(*c, 0, left_arity);
      bool right_only =
          ColumnsWithin(*c, left_arity, static_cast<size_t>(-1));
      if (left_only || right_only) {
        keep.push_back(std::move(c));
        continue;
      }
      op->condition =
          op->condition == nullptr
              ? std::move(c)
              : BoundExpr::Binary(static_cast<int>(sql::BinaryOp::kAnd),
                                  DataType::kBool, std::move(op->condition),
                                  std::move(c));
      op->join_kind = JoinKind::kInner;
    }
  } else {
    keep = std::move(conjuncts);
  }
  for (auto& child : plan->get()->children) PullFiltersIntoJoins(&child);
  BoundExprPtr rest = AndAll(std::move(keep));
  if (rest != nullptr) AddFilter(plan, std::move(rest));
}

namespace {

/// The source every scan under `op` reads when that is one remote or
/// extended source; "" for subtrees touching local data, several
/// sources, table functions or no table at all.
std::string RemoteSource(const LogicalOp& op) {
  switch (op.kind) {
    case LogicalKind::kScan:
      return op.table.location == TableLocation::kRemote ||
                     op.table.location == TableLocation::kExtended
                 ? op.table.source
                 : "";
    case LogicalKind::kTableFunctionScan:
    case LogicalKind::kRemoteQuery:
    case LogicalKind::kUnion:  // Ships branch by branch.
      return "";
    default:
      break;
  }
  if (op.children.empty()) return "";
  std::string source = RemoteSource(*op.children[0]);
  for (const LogicalOpPtr& child : op.children) {
    if (RemoteSource(*child) != source) return "";
  }
  return source;
}

/// Moves the semi or anti join in *slot below its left child while that
/// is legal (see PushDownSemiJoins). Its left child C is replaced by C's
/// child G that supplies every outer column of the condition; the join
/// then sits on G and C on the join, so C's schema stays as it was.
Status SinkExistenceJoin(LogicalOpPtr* slot) {
  while (true) {
    LogicalOp* join = slot->get();
    LogicalOp* child = join->children[0].get();
    const size_t arity = child->schema->num_columns();
    std::vector<size_t> cols;
    if (join->condition != nullptr) join->condition->CollectColumns(&cols);
    std::vector<size_t> outer;
    for (size_t c : cols) {
      if (c < arity) outer.push_back(c);
    }
    // Target child of C, and where each outer column lands in it.
    size_t target = 0;
    std::vector<int> mapping(arity, -1);
    switch (child->kind) {
      case LogicalKind::kFilter:
        for (size_t c : outer) mapping[c] = static_cast<int>(c);
        break;
      case LogicalKind::kProject:
        if (child->children.empty()) return Status::OK();
        for (size_t c : outer) {
          if (child->exprs[c]->kind != BoundKind::kColumn) {
            return Status::OK();
          }
          mapping[c] = static_cast<int>(child->exprs[c]->column_index);
        }
        break;
      case LogicalKind::kJoin: {
        const size_t split = child->children[0]->schema->num_columns();
        const bool in_left = std::all_of(outer.begin(), outer.end(),
                                         [&](size_t c) { return c < split; });
        const bool in_right =
            std::all_of(outer.begin(), outer.end(),
                        [&](size_t c) { return c >= split; });
        const bool either = child->join_kind == JoinKind::kInner ||
                            child->join_kind == JoinKind::kCross;
        if (in_left) {
          target = 0;
        } else if (either && in_right) {
          target = 1;
        } else {
          return Status::OK();
        }
        const size_t base = target == 0 ? 0 : split;
        for (size_t c : outer) mapping[c] = static_cast<int>(c - base);
        break;
      }
      default:
        return Status::OK();
    }
    LogicalOpPtr& grand = child->children[target];
    const std::string source = RemoteSource(*grand);
    if (!source.empty() && source != RemoteSource(*join->children[1])) {
      return Status::OK();  // Would split a subtree shipped to `source`.
    }
    // Subquery columns follow the new left side.
    const size_t new_arity = grand->schema->num_columns();
    for (size_t c : cols) {
      if (c < arity) continue;
      if (mapping.size() <= c) mapping.resize(c + 1, -1);
      mapping[c] = static_cast<int>(c - arity + new_arity);
    }
    if (join->condition != nullptr) {
      HANA_RETURN_IF_ERROR(RemapColumns(join->condition.get(), mapping));
    }
    LogicalOpPtr moved = std::move(*slot);
    LogicalOpPtr parent = std::move(moved->children[0]);
    moved->children[0] = std::move(grand);
    moved->schema = moved->children[0]->schema;
    grand = std::move(moved);
    *slot = std::move(parent);
    slot = &grand;
  }
}

}  // namespace

Status PushDownSemiJoins(LogicalOpPtr* plan) {
  for (LogicalOpPtr& child : (*plan)->children) {
    HANA_RETURN_IF_ERROR(PushDownSemiJoins(&child));
  }
  const LogicalOp& op = **plan;
  if (op.kind == LogicalKind::kJoin &&
      (op.join_kind == JoinKind::kSemi || op.join_kind == JoinKind::kAnti)) {
    return SinkExistenceJoin(plan);
  }
  return Status::OK();
}

std::vector<ScanRange> ExtractRanges(const BoundExpr& predicate) {
  std::vector<ScanRange> ranges;
  std::vector<const BoundExpr*> stack = {&predicate};
  std::vector<const BoundExpr*> conjuncts;
  while (!stack.empty()) {
    const BoundExpr* e = stack.back();
    stack.pop_back();
    if (e->kind == BoundKind::kBinary &&
        e->binary_op == static_cast<int>(BinaryOp::kAnd)) {
      stack.push_back(e->child0.get());
      stack.push_back(e->child1.get());
    } else {
      conjuncts.push_back(e);
    }
  }
  for (const BoundExpr* c : conjuncts) {
    if (c->kind != BoundKind::kBinary) continue;
    BinaryOp op = static_cast<BinaryOp>(c->binary_op);
    const BoundExpr* lhs = c->child0.get();
    const BoundExpr* rhs = c->child1.get();
    // Normalize to column <op> literal.
    bool swapped = false;
    if (lhs->kind != BoundKind::kColumn) {
      std::swap(lhs, rhs);
      swapped = true;
    }
    if (lhs->kind != BoundKind::kColumn || rhs->kind != BoundKind::kLiteral) {
      // Allow literal behind a cast (e.g. DATE casts inserted by binder).
      if (rhs->kind == BoundKind::kCast &&
          rhs->child0->kind == BoundKind::kLiteral) {
        Result<Value> cast = rhs->child0->literal.CastTo(rhs->type);
        if (!cast.ok()) continue;
        ScanRange range;
        range.column = lhs->column_index;
        BinaryOp eff = op;
        if (swapped) {
          eff = op == BinaryOp::kLt   ? BinaryOp::kGt
                : op == BinaryOp::kLe ? BinaryOp::kGe
                : op == BinaryOp::kGt ? BinaryOp::kLt
                : op == BinaryOp::kGe ? BinaryOp::kLe
                                      : op;
        }
        switch (eff) {
          case BinaryOp::kEq:
            range.lower = range.upper = *cast;
            break;
          case BinaryOp::kLt:
          case BinaryOp::kLe:
            range.upper = *cast;
            break;
          case BinaryOp::kGt:
          case BinaryOp::kGe:
            range.lower = *cast;
            break;
          default:
            continue;
        }
        ranges.push_back(std::move(range));
      }
      continue;
    }
    ScanRange range;
    range.column = lhs->column_index;
    BinaryOp eff = op;
    if (swapped) {
      eff = op == BinaryOp::kLt   ? BinaryOp::kGt
            : op == BinaryOp::kLe ? BinaryOp::kGe
            : op == BinaryOp::kGt ? BinaryOp::kLt
            : op == BinaryOp::kGe ? BinaryOp::kLe
                                  : op;
    }
    switch (eff) {
      case BinaryOp::kEq:
        range.lower = range.upper = rhs->literal;
        break;
      case BinaryOp::kLt:
      case BinaryOp::kLe:
        // Conservative: treat strict bounds as inclusive.
        range.upper = rhs->literal;
        break;
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        range.lower = rhs->literal;
        break;
      default:
        continue;
    }
    ranges.push_back(std::move(range));
  }
  return ranges;
}

void PushScanRanges(LogicalOp* plan) {
  if (plan->kind == LogicalKind::kFilter &&
      plan->children[0]->kind == LogicalKind::kScan) {
    std::vector<ScanRange> ranges = ExtractRanges(*plan->predicate);
    LogicalOp* scan = plan->children[0].get();
    for (auto& r : ranges) scan->scan_ranges.push_back(std::move(r));
  }
  for (auto& child : plan->children) PushScanRanges(child.get());
}

Status SplitAggregateOverUnion(LogicalOpPtr* plan) {
  for (LogicalOpPtr& child : (*plan)->children) {
    HANA_RETURN_IF_ERROR(SplitAggregateOverUnion(&child));
  }
  LogicalOp* agg = plan->get();
  if (agg->kind != LogicalKind::kAggregate ||
      agg->agg_phase != AggPhase::kSingle ||
      agg->children[0]->kind != LogicalKind::kUnion ||
      std::any_of(agg->aggregates.begin(), agg->aggregates.end(),
                  [](const BoundExprPtr& a) { return a->distinct; })) {
    return Status::OK();
  }
  const size_t keys = agg->group_by.size();
  const size_t aggs = agg->aggregates.size();

  // Partial layout: keys, one column per aggregate (an AVG's SUM), then
  // one COUNT per AVG. The final aggregate has the same layout.
  auto partial_schema = std::make_shared<Schema>();
  for (size_t i = 0; i < keys; ++i) {
    partial_schema->AddColumn(agg->schema->column(i));
  }
  std::vector<BoundExprPtr> partials;
  std::vector<size_t> avgs;  // Positions in `aggregates` of each AVG.
  for (size_t a = 0; a < aggs; ++a) {
    BoundExprPtr p = agg->aggregates[a]->Clone();
    if (p->agg_kind == AggKind::kAvg) {
      p->agg_kind = AggKind::kSum;
      p->type = AggResultType(AggKind::kSum, p->child0->type);
      avgs.push_back(a);
    }
    partials.push_back(std::move(p));
  }
  for (size_t a : avgs) {
    BoundExprPtr count = agg->aggregates[a]->Clone();
    count->agg_kind = AggKind::kCount;
    count->type = AggResultType(AggKind::kCount, count->child0->type);
    partials.push_back(std::move(count));
  }
  for (const BoundExprPtr& p : partials) {
    partial_schema->AddColumn({p->ToString(), p->type, true});
  }

  LogicalOp* union_op = agg->children[0].get();
  for (LogicalOpPtr& branch : union_op->children) {
    auto partial = std::make_unique<LogicalOp>();
    partial->kind = LogicalKind::kAggregate;
    partial->agg_phase = AggPhase::kPartial;
    partial->schema = partial_schema;
    for (const BoundExprPtr& g : agg->group_by) {
      partial->group_by.push_back(g->Clone());
    }
    for (const BoundExprPtr& p : partials) {
      partial->aggregates.push_back(p->Clone());
    }
    partial->children.push_back(std::move(branch));
    branch = std::move(partial);
  }
  union_op->schema = partial_schema;

  // The final aggregate: COUNT partials add up, the rest fold as
  // themselves.
  agg->group_by.clear();
  agg->aggregates.clear();
  for (size_t i = 0; i < partial_schema->num_columns(); ++i) {
    const ColumnDef& col = partial_schema->column(i);
    BoundExprPtr input = BoundExpr::Column(i, col.type, col.name);
    if (i < keys) {
      agg->group_by.push_back(std::move(input));
      continue;
    }
    const BoundExpr& p = *partials[i - keys];
    auto combine = std::make_unique<BoundExpr>();
    combine->kind = BoundKind::kAggregate;
    combine->type = p.type;
    combine->agg_kind = p.agg_kind == AggKind::kCount ||
                                p.agg_kind == AggKind::kCountStar
                            ? AggKind::kSum
                            : p.agg_kind;
    combine->child0 = std::move(input);
    agg->aggregates.push_back(std::move(combine));
  }
  agg->agg_phase = AggPhase::kFinal;
  if (avgs.empty()) return Status::OK();

  // AVG = SUM / COUNT; kDiv yields NULL on a zero count, as FinalizeAgg.
  std::shared_ptr<Schema> output = agg->schema;
  agg->schema = partial_schema;
  std::vector<BoundExprPtr> exprs;
  for (size_t i = 0; i < output->num_columns(); ++i) {
    const ColumnDef& col = partial_schema->column(i);
    exprs.push_back(BoundExpr::Column(i, col.type, col.name));
  }
  for (size_t k = 0; k < avgs.size(); ++k) {
    const size_t sum = keys + avgs[k];
    const size_t count = keys + aggs + k;
    exprs[sum] = BoundExpr::Binary(
        static_cast<int>(BinaryOp::kDiv), DataType::kDouble,
        std::move(exprs[sum]),
        BoundExpr::Column(count, DataType::kInt64,
                          partial_schema->column(count).name));
  }
  *plan = MakeProject(std::move(*plan), std::move(exprs), std::move(output));
  return Status::OK();
}

namespace {

/// Output columns of one node, by position.
using ColumnSet = std::vector<bool>;

ColumnSet AllColumns(const LogicalOp& op) {
  return ColumnSet(op.schema->num_columns(), true);
}

void MarkColumns(const BoundExpr& expr, ColumnSet* set) {
  std::vector<size_t> cols;
  expr.CollectColumns(&cols);
  for (size_t c : cols) {
    if (c < set->size()) (*set)[c] = true;
  }
}

/// Old position -> new position of the columns `kept` retains.
std::vector<int> KeptMapping(const ColumnSet& kept) {
  std::vector<int> mapping(kept.size(), -1);
  int next = 0;
  for (size_t i = 0; i < kept.size(); ++i) {
    if (kept[i]) mapping[i] = next++;
  }
  return mapping;
}

std::shared_ptr<Schema> KeptSchema(const std::shared_ptr<Schema>& schema,
                                   const ColumnSet& kept) {
  if (std::all_of(kept.begin(), kept.end(), [](bool k) { return k; })) {
    return schema;
  }
  auto out = std::make_shared<Schema>();
  for (size_t i = 0; i < kept.size(); ++i) {
    if (kept[i]) out->AddColumn(schema->column(i));
  }
  return out;
}

/// Decode-cost rank of a column type: fixed-width integers (including
/// bool, date, timestamp) first, then doubles, then strings.
int DecodeCost(DataType type) {
  switch (type) {
    case DataType::kDouble:
      return 1;
    case DataType::kString:
      return 2;
    default:
      return 0;
  }
}

/// The column a scan keeps when its parent references none: row counts
/// come from the chunk's first column, so a scan never goes empty.
size_t CheapestColumn(const Schema& schema) {
  size_t best = 0;
  for (size_t i = 1; i < schema.num_columns(); ++i) {
    if (DecodeCost(schema.column(i).type) <
        DecodeCost(schema.column(best).type)) {
      best = i;
    }
  }
  return best;
}

/// Returns the columns `op` outputs once pruned for a parent that needs
/// `needs` (always a superset of `needs`). With `apply` the subtree is
/// narrowed to exactly those columns; without, nothing changes (unions
/// probe their branches this way before committing to one layout).
Result<ColumnSet> Prune(LogicalOp* op, ColumnSet needs, bool apply);

/// Filter, sort and limit: the child's columns flow through unchanged.
Result<ColumnSet> PrunePassThrough(LogicalOp* op, ColumnSet needs,
                                   bool apply,
                                   const std::vector<BoundExpr*>& exprs) {
  for (const BoundExpr* e : exprs) MarkColumns(*e, &needs);
  HANA_ASSIGN_OR_RETURN(ColumnSet kept,
                        Prune(op->children[0].get(), std::move(needs), apply));
  if (apply) {
    std::vector<int> mapping = KeptMapping(kept);
    for (BoundExpr* e : exprs) HANA_RETURN_IF_ERROR(RemapColumns(e, mapping));
    op->schema = KeptSchema(op->schema, kept);
  }
  return kept;
}

/// Project and aggregate: outputs stay whole; the child keeps only what
/// the expressions reference.
Result<ColumnSet> PruneBelow(LogicalOp* op, bool apply,
                             const std::vector<BoundExpr*>& exprs) {
  if (op->children.empty()) return AllColumns(*op);  // Constant row.
  LogicalOp* child = op->children[0].get();
  ColumnSet needs(child->schema->num_columns(), false);
  for (const BoundExpr* e : exprs) MarkColumns(*e, &needs);
  HANA_ASSIGN_OR_RETURN(ColumnSet kept, Prune(child, std::move(needs), apply));
  if (apply) {
    std::vector<int> mapping = KeptMapping(kept);
    for (BoundExpr* e : exprs) HANA_RETURN_IF_ERROR(RemapColumns(e, mapping));
  }
  return AllColumns(*op);
}

/// One join input pruned for `needs`. A filter input also keeps the
/// columns only its predicate reads; a Project above it drops them
/// again, so the join neither stages nor copies them (TPC-H Q13's
/// o_comment).
Result<ColumnSet> PruneJoinInput(LogicalOpPtr* input, ColumnSet needs,
                                 bool apply) {
  HANA_ASSIGN_OR_RETURN(ColumnSet kept, Prune(input->get(), needs, apply));
  if ((*input)->kind != LogicalKind::kFilter || kept == needs ||
      std::none_of(needs.begin(), needs.end(), [](bool n) { return n; })) {
    return kept;
  }
  if (apply) {
    const std::vector<int> mapping = KeptMapping(kept);
    const Schema& in = *(*input)->schema;
    auto schema = std::make_shared<Schema>();
    std::vector<BoundExprPtr> exprs;
    for (size_t i = 0; i < needs.size(); ++i) {
      if (!needs[i]) continue;
      const ColumnDef& col = in.column(static_cast<size_t>(mapping[i]));
      exprs.push_back(BoundExpr::Column(static_cast<size_t>(mapping[i]),
                                        col.type, col.name));
      schema->AddColumn(col);
    }
    *input = MakeProject(std::move(*input), std::move(exprs), std::move(schema));
  }
  return needs;
}

Result<ColumnSet> Prune(LogicalOp* op, ColumnSet needs, bool apply) {
  switch (op->kind) {
    case LogicalKind::kScan: {
      if (std::none_of(needs.begin(), needs.end(), [](bool n) { return n; })) {
        needs[CheapestColumn(*op->schema)] = true;
      }
      if (apply) {
        std::vector<size_t> ids;
        for (size_t i = 0; i < needs.size(); ++i) {
          if (needs[i]) ids.push_back(op->scan_columns[i]);
        }
        op->scan_columns = std::move(ids);
        op->schema = KeptSchema(op->schema, needs);
      }
      return needs;
    }
    case LogicalKind::kFilter:
      return PrunePassThrough(op, std::move(needs), apply,
                              {op->predicate.get()});
    case LogicalKind::kSort: {
      std::vector<BoundExpr*> keys;
      for (SortKey& k : op->sort_keys) keys.push_back(k.expr.get());
      return PrunePassThrough(op, std::move(needs), apply, keys);
    }
    case LogicalKind::kLimit:
      return PrunePassThrough(op, std::move(needs), apply, {});
    case LogicalKind::kUnion: {
      // Every branch must produce the same layout: grow the kept set
      // until no branch adds a column (filter columns of one branch,
      // the whole row of an opaque one).
      ColumnSet kept = std::move(needs);
      while (true) {
        ColumnSet grown = kept;
        for (auto& child : op->children) {
          HANA_ASSIGN_OR_RETURN(ColumnSet branch,
                                Prune(child.get(), kept, false));
          for (size_t i = 0; i < grown.size(); ++i) {
            grown[i] = grown[i] || branch[i];
          }
        }
        if (grown == kept) break;
        kept = std::move(grown);
      }
      if (apply) {
        for (auto& child : op->children) {
          HANA_ASSIGN_OR_RETURN(ColumnSet branch,
                                Prune(child.get(), kept, true));
          if (branch != kept) {
            return Status::Internal("union branches pruned unevenly");
          }
        }
        op->schema = KeptSchema(op->schema, kept);
      }
      return kept;
    }
    case LogicalKind::kJoin: {
      const size_t left_arity = op->children[0]->schema->num_columns();
      const size_t right_arity = op->children[1]->schema->num_columns();
      const bool existence = op->join_kind == JoinKind::kSemi ||
                             op->join_kind == JoinKind::kAnti;
      // Needs over left++right: semi and anti joins output the left
      // side only, so their right side needs just the condition.
      ColumnSet both(left_arity + right_arity, false);
      std::copy(needs.begin(), needs.end(), both.begin());
      if (op->condition != nullptr) MarkColumns(*op->condition, &both);
      HANA_ASSIGN_OR_RETURN(
          ColumnSet left,
          PruneJoinInput(&op->children[0],
                         ColumnSet(both.begin(), both.begin() + left_arity),
                         apply));
      HANA_ASSIGN_OR_RETURN(
          ColumnSet right,
          PruneJoinInput(&op->children[1],
                         ColumnSet(both.begin() + left_arity, both.end()),
                         apply));
      ColumnSet concat = left;
      concat.insert(concat.end(), right.begin(), right.end());
      ColumnSet kept = existence ? std::move(left) : concat;
      if (apply) {
        if (op->condition != nullptr) {
          HANA_RETURN_IF_ERROR(
              RemapColumns(op->condition.get(), KeptMapping(concat)));
        }
        op->schema = KeptSchema(op->schema, kept);
      }
      return kept;
    }
    case LogicalKind::kProject: {
      std::vector<BoundExpr*> exprs;
      for (BoundExprPtr& e : op->exprs) exprs.push_back(e.get());
      return PruneBelow(op, apply, exprs);
    }
    case LogicalKind::kAggregate: {
      std::vector<BoundExpr*> exprs;
      for (BoundExprPtr& e : op->group_by) exprs.push_back(e.get());
      for (BoundExprPtr& e : op->aggregates) exprs.push_back(e.get());
      return PruneBelow(op, apply, exprs);
    }
    case LogicalKind::kRemoteQuery:
    case LogicalKind::kTableFunctionScan:
      // Opaque. The optimizer prunes before the federation split, so a
      // remote query only appears here in a plan built by hand.
      return AllColumns(*op);
  }
  return Status::Internal("unknown plan node in column pruning");
}

}  // namespace

Status PruneColumns(LogicalOp* plan) {
  return Prune(plan, AllColumns(*plan), true).status();
}

}  // namespace hana::plan
