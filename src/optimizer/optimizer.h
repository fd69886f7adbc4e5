#ifndef HANA_OPTIMIZER_OPTIMIZER_H_
#define HANA_OPTIMIZER_OPTIMIZER_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "federation/sda.h"
#include "plan/logical.h"

namespace hana::optimizer {

/// Federated-plan strategy control (Section 3.1 lists the alternatives
/// the optimizer considers: Remote Scan, Semijoin, Table Relocation,
/// Union Plan). kAuto picks cost-based; the others force one strategy
/// for ablation experiments.
enum class FederationStrategy {
  kAuto,
  kRemoteScanOnly,
  kSemijoin,
  kRelocation,
};

struct OptimizerOptions {
  bool enable_federation = true;
  FederationStrategy strategy = FederationStrategy::kAuto;
  /// Maximum distinct keys shipped as a semijoin IN-list.
  size_t semijoin_max_keys = 1024;
  /// Maximum local rows uploaded by the Table Relocation strategy.
  size_t relocation_max_rows = 100000;
  /// WITH HINT (USE_REMOTE_CACHE) present on the statement.
  bool use_remote_cache = false;
};

struct OptimizeContext {
  const catalog::Catalog* catalog = nullptr;  // For partition metadata.
  const federation::SdaRuntime* sda = nullptr;
  OptimizerOptions options;
};

/// Runs the full rewrite pipeline:
///  1. predicate pushdown + join-condition recovery,
///  2. hybrid-table partition expansion (Union Plan) + pruning,
///  3. zone-map range extraction,
///  4. eager aggregation through UNION ALL
///     (plan::SplitAggregateOverUnion): each branch gets a partial,
///  5. column pruning (plan::PruneColumns): scans decode only the
///     columns the plan references,
///  6. federation split: maximal remote subtrees become shipped
///     kRemoteQuery nodes (capability-checked per adapter), with
///     cost-based Semijoin / Table Relocation handling at local-remote
///     join boundaries. Shipped SQL is rendered from the pruned
///     subtrees, so it names only used columns,
///  7. hash-join build sides, perfect-hash nomination and aggregate
///     partition counts (stats looked up through each scan's
///     scan_columns).
[[nodiscard]] Status Optimize(plan::LogicalOpPtr* plan, const OptimizeContext& ctx);

/// Heuristic output-cardinality estimate for costing.
double EstimateRows(const plan::LogicalOp& op);

/// Renders the executor's pipeline decomposition for EXPLAIN output:
/// one line per pipeline with its dependencies and stage chain. Empty
/// input (serial execution) renders as an empty string.
std::string FormatPipelines(const std::vector<plan::PipelineSummary>& pipelines);

}  // namespace hana::optimizer

#endif  // HANA_OPTIMIZER_OPTIMIZER_H_
