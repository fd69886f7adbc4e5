#ifndef HANA_EXEC_EXECUTOR_H_
#define HANA_EXEC_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "exec/operators.h"
#include "plan/logical.h"

namespace hana::exec {

/// The table layout a join build pipeline finalized.
enum class JoinLayout {
  kNone,         // Not a join build.
  kRadix,        // Radix partitions of hashed bucket chains.
  kPerfectHash,  // One direct-address array over a dense int64 key.
  kNestedLoop,   // No keys: one chain of every build row.
};

/// Per-pipeline execution counters collected by the pipeline executor
/// (surfaced by the platform as `last_pipeline_stats()` for EXPLAIN and
/// benchmarking). Counters never influence results.
struct PipelineStats {
  size_t id = 0;
  std::string label;     // "scan lineitem -> probe -> aggregate".
  size_t morsels = 0;    // Morsels the pipeline's source decomposed into.
  uint64_t rows = 0;     // Rows the pipeline's sink emitted (or staged,
                         // for join builds).
  double wall_ms = 0.0;  // Launch-to-finish wall time.
  /// CPU time of the pipeline's morsels, summed over workers: each
  /// morsel is timed on its worker's thread CPU clock, so time a morsel
  /// spends blocked or descheduled does not count.
  double cpu_ms = 0.0;
  size_t agg_partitions = 0;  // kGroups: radix partitions merged in
                              // phase 2 (0 for non-aggregate sinks).
  uint64_t agg_groups = 0;    // kGroups: groups the sink emitted.
  JoinLayout join_layout = JoinLayout::kNone;  // kJoinBuild sinks.
  /// Rows the vectorized evaluator handed to the boxed EvalExpr
  /// fallback (per-row nodes and error replays, join residuals
  /// included). 0 when every expression ran on kernels.
  uint64_t scalar_rows = 0;
  /// Rows converted from dictionary codes to owned strings (a vector
  /// flattened because a delta, remote or computed string met main
  /// codes, or codes of another dictionary). 0 when every string stayed
  /// in the dictionary form of its main.
  uint64_t dict_flattened_rows = 0;
};

/// ExecutePlan plus per-pipeline stats.
[[nodiscard]] Result<storage::Table> ExecutePlanWithStats(
    const plan::LogicalOp& logical, ExecContext* ctx,
    std::vector<PipelineStats>* stats);

/// Stamps every node of `root` with the pipeline id the executor's
/// decomposition assigns it (rendered by LogicalOp::ToString as a
/// "[P<n>]" suffix) and returns one summary per pipeline for EXPLAIN.
/// Purely structural — nothing executes and no counters move.
std::vector<plan::PipelineSummary> AnnotatePipelines(plan::LogicalOp* root);

}  // namespace hana::exec

#endif  // HANA_EXEC_EXECUTOR_H_
