#ifndef HANA_EXEC_PIPELINE_H_
#define HANA_EXEC_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/util.h"
#include "exec/operators.h"
#include "exec/radix_join.h"
#include "exec/vector_eval.h"
#include "plan/join_analysis.h"
#include "plan/logical.h"
#include "storage/column_table.h"

namespace hana::exec {

// ---------------------------------------------------------------------
// Chunk-at-a-time operator kernels of the pipeline executor.
// ---------------------------------------------------------------------

inline size_t HashKey(const std::vector<Value>& key) {
  size_t h = 0x12345;
  for (const Value& v : key) h = HashCombine(h, v.Hash());
  return h;
}

/// Chunk-at-a-time filter: keeps rows whose predicate is TRUE
/// (SelectRows), gathered column at a time. With `project` (a
/// column-only Project over the filter's output, IsColumnOnlyProject),
/// the result is the projected chunk and only the columns the Project
/// keeps are gathered.
[[nodiscard]] Result<storage::Chunk> FilterChunk(
    const plan::BoundExpr& predicate, const storage::Chunk& in,
    const plan::LogicalOp* project = nullptr);

/// True when every expression of `project` is a bare column of `in`
/// with the output column's type: the projection only picks vectors.
bool IsColumnOnlyProject(const plan::LogicalOp& project,
                         const storage::Chunk& in);

/// Chunk-at-a-time projection into the project node's schema: bare
/// columns pass through, computed ones run on the vectorized evaluator.
[[nodiscard]] Result<storage::Chunk> ProjectChunk(const plan::LogicalOp& project,
                                                  const storage::Chunk& in);

/// Boxed side state of one (group, aggregate) pair: MIN/MAX extrema
/// and the DISTINCT value set. Split out of AggState and allocated
/// lazily on the first extremum/distinct value so the flat state
/// arrays of high-cardinality COUNT/SUM/AVG group-bys construct and
/// destroy millions of states without touching a Value (whose variant
/// makes arrays of them expensive to grow).
struct AggStateBox {
  Value min_v;
  Value max_v;
  std::unordered_set<Value, storage::ValueHash> distinct;
};

/// Aggregation state for one (group, aggregate) pair — the one
/// definition every engine aggregates with: the pipeline's group
/// tables, Hive reducers and ESP windows. The inline fields cover
/// COUNT/SUM/AVG; MIN/MAX/DISTINCT go through `box`. An update fills
/// only the sum FinalizeAgg reads: `sum_i` for an integer SUM, `sum_d`
/// for a DOUBLE SUM and for AVG.
struct AggState {
  int64_t count = 0;
  double sum_d = 0.0;
  int64_t sum_i = 0;
  bool any = false;
  /// Sticky: an integer SUM add overflowed (FinalizeAgg reports it).
  bool overflow = false;
  std::unique_ptr<AggStateBox> box;
};

/// Folds one non-null evaluated argument value of `agg` into `st`
/// (COUNT(*) counts rows without an argument; callers bump `count`).
void UpdateAggState(const plan::BoundExpr& agg, AggState& st, Value v);

/// Row-at-a-time accumulate of one boxed row into `states` (states[a]
/// belongs to aggregates[a]): evaluates every aggregate's argument
/// first, then updates the states, so a row whose argument fails to
/// evaluate leaves every state untouched. For the engines that hold
/// rows rather than chunks (Hive reducers, ESP windows).
[[nodiscard]] Status AccumulateRow(
    const std::vector<plan::BoundExprPtr>& aggregates,
    const std::vector<Value>& row, AggState* states);

/// The aggregate's value, typed as plan::AggResultType says. An integer
/// SUM whose adds overflowed fails with OutOfRange.
[[nodiscard]] Result<Value> FinalizeAgg(const plan::BoundExpr& agg,
                                        const AggState& st);

/// Folds `src` into `dst`. DISTINCT aggregates re-accumulate the source
/// set element by element so values seen by both partials are not
/// double-counted.
void MergeAggState(const plan::BoundExpr& agg, AggState& dst, AggState& src);

/// Process-wide counters for which implementation aggregations actually
/// run through, so silent fallbacks off the fast paths are observable
/// (tests assert on them; bench_agg reports the allocation ablation).
struct AggExecStats {
  /// kGroups sinks merged through the radix-partitioned two-phase path.
  // atomic: relaxed counter; observers only need eventual totals.
  std::atomic<uint64_t> partitioned_aggs{0};
  /// Chunks accumulated through the vectorized column-wise key path.
  // atomic: relaxed counter; observers only need eventual totals.
  std::atomic<uint64_t> vectorized_chunks{0};
  /// Rows accumulated through the boxed row-at-a-time fallback.
  // atomic: relaxed counter; observers only need eventual totals.
  std::atomic<uint64_t> boxed_rows{0};
  /// Boxed group-key vectors materialized (one per group created by the
  /// boxed-key fallback).
  // atomic: relaxed counter; observers only need eventual totals.
  std::atomic<uint64_t> key_allocs{0};
  /// Per-partition phase-2 merge tasks run by the executor.
  // atomic: relaxed counter; observers only need eventual totals.
  std::atomic<uint64_t> partition_merges{0};
};

AggExecStats& GlobalAggExecStats();
void ResetAggExecStats();

/// Column-wise group keys of one chunk: the evaluated key columns plus
/// one hash per row, reproducing HashKey (seed 0x12345 folded over
/// Value::Hash) exactly — a NULL cell contributes Value::Hash's null
/// image — so the vectorized and boxed paths agree on partition and
/// bucket placement. A single int64/date/timestamp key column goes
/// through the CPU-dispatched `hash_i64` batch kernel. Scratch object:
/// reuse one instance across chunks to avoid re-allocating the hash
/// array per chunk.
class AggKeyBlock {
 public:
  /// True when every group-by expression has a concrete column type the
  /// cell hash/equality helpers cover (group keys may be NULL, unlike
  /// join keys, so nullability does not disqualify).
  static bool Vectorizable(const std::vector<plan::BoundExprPtr>& group_by);

  [[nodiscard]] Status Compute(
      const std::vector<plan::BoundExprPtr>& group_by,
      const storage::Chunk& chunk);

  const std::vector<storage::ColumnVectorPtr>& cols() const { return cols_; }
  const std::vector<uint64_t>& hashes() const { return hashes_; }

 private:
  /// One key column's cell hash per dictionary code, computed on the
  /// code's first row (dictionary-form key columns whose dictionary is
  /// no larger than the chunk). Holding the dictionary pins it, so a
  /// cached entry never outlives the dictionary it describes.
  struct CodeHashes {
    storage::StringDictionaryPtr dict;
    std::vector<uint64_t> hash;
    std::vector<uint8_t> known;
  };

  std::vector<storage::ColumnVectorPtr> cols_;
  std::vector<uint64_t> hashes_;
  std::vector<CodeHashes> code_hashes_;
};

/// Hash table mapping group keys to per-aggregate states; groups keep
/// first-seen order. The per-morsel partials and the merged result of
/// the pipeline executor's aggregate sink.
///
/// Two key layouts, fixed at construction. Vectorized tables store one
/// typed ColumnVector cell per key column per group (hashed and
/// compared column-wise, no boxing), index groups through an
/// open-addressing slot array (group index + 1, 0 = empty) over the
/// stored per-group hashes, and keep every group's aggregate states in
/// one flat group-major array — no per-group heap allocation on the
/// hot path. Boxed tables are the fallback for key types the cell
/// helpers do not cover (a kNull-typed key such as `GROUP BY k, NULL`):
/// Value key rows, a chained hash->group multimap index and a per-group
/// state vector.
///
/// Group-by semantics: NULL == NULL (one NULL group), unlike join keys.
///
/// Each group also records a 64-bit rank — (first morsel << 32) | first
/// row within that morsel, assigned by PartitionedGroupTable — which is
/// the group's position in the serial first-seen order. Morsels are
/// bounded well below 2^32 and a morsel's rows below 2^32 (the scan
/// decomposition caps morsel_rows; single-morsel sources would
/// need 4G+ rows to wrap, the radix join's same bound).
class GroupTable {
 public:
  GroupTable(const std::vector<plan::BoundExprPtr>* group_by,
             const std::vector<plan::BoundExprPtr>* aggregates);

  size_t num_groups() const { return hashes_.size(); }
  bool vectorized() const { return vectorized_; }
  uint64_t rank(size_t g) const { return ranks_[g]; }

  /// Row-at-a-time accumulate of one row whose boxed key (and its
  /// HashKey hash) the caller already evaluated — the boxed-key
  /// fallback. The caller evaluates the hash first because it routes
  /// the row to a partition by it.
  [[nodiscard]] Status AccumulateValues(const std::vector<Value>& key,
                                        uint64_t hash,
                                        const storage::Chunk& chunk,
                                        size_t row, uint64_t rank);

  /// Folds `src` into this table, visiting src groups in their
  /// first-seen order. Merging morsel partials in ascending morsel
  /// order therefore reproduces the exact group order (and floating
  /// point sums, morsel by morsel) of any other run with the same
  /// morsel decomposition — the thread count never matters. Newly
  /// created groups inherit the source group's rank.
  void MergeFrom(GroupTable& src);

  /// A global aggregate over an empty input still emits one row.
  void EnsureGlobalGroup();

  /// Boxes group g as an output row: key values then finalized
  /// aggregates.
  [[nodiscard]] Result<std::vector<Value>> EmitRow(size_t g) const;

 private:
  /// Boxed-layout lookup of `key`, creating the group with `rank` if
  /// absent.
  size_t FindOrCreateBoxed(const std::vector<Value>& key, uint64_t hash,
                           uint64_t rank);
  /// Vectorized-layout lookup of `keys` row `row`.
  size_t FindOrCreateVec(const AggKeyBlock& keys, size_t row, uint64_t hash,
                         uint64_t rank);
  /// Lookup/copy of group g of a same-layout peer table (merge path).
  size_t FindOrCreatePeer(const GroupTable& src, size_t g);
  /// Registers group index `group` under `hash` after its storage rows
  /// are appended, growing (and re-probing) the slot array at 50% load.
  /// Vectorized layout only.
  void InsertSlot(uint64_t hash, size_t group);
  void ReserveOnFirstGrowth();
  /// Vectorized layout only: grows the flat state array to cover every
  /// created group (geometric reserve). Group creation defers state
  /// growth to this batched call — one resize per (chunk, partition) or
  /// per merged partial instead of one per group, which profiling shows
  /// otherwise dominates high-cardinality aggregation.
  void EnsureStates();

  /// The vectorized chunk accumulate drives FindOrCreateVec/StatesOf
  /// directly so it can split group resolution and per-aggregate state
  /// updates into separate column-at-a-time passes.
  friend class PartitionedGroupTable;

  /// First aggregate state of group g (stride = aggregates_->size()).
  AggState* StatesOf(size_t g) {
    return vectorized_ ? vstates_.data() + g * aggregates_->size()
                       : bstates_[g].data();
  }
  const AggState* StatesOf(size_t g) const {
    return vectorized_ ? vstates_.data() + g * aggregates_->size()
                       : bstates_[g].data();
  }

  const std::vector<plan::BoundExprPtr>* group_by_;
  const std::vector<plan::BoundExprPtr>* aggregates_;
  bool vectorized_;
  /// Vectorized layout: one vector per key column, row g = group g.
  std::vector<storage::ColumnVectorPtr> key_cols_;
  std::vector<std::vector<Value>> keys_;  // Boxed layout.
  std::vector<uint64_t> hashes_;          // Per group.
  std::vector<uint64_t> ranks_;           // Per group.
  /// Vectorized layout: flat group-major states, group g's aggregate a
  /// at [g * aggregates_->size() + a] — one growable allocation instead
  /// of one heap vector per group.
  std::vector<AggState> vstates_;
  /// Boxed layout: per-group state vectors.
  std::vector<std::vector<AggState>> bstates_;
  /// Vectorized layout: open-addressing slot array (power of two,
  /// linear probe): group index + 1, 0 = empty.
  std::vector<uint32_t> slots_;
  /// Boxed layout: chained hash -> group index multimap.
  std::unordered_multimap<uint64_t, size_t> groups_;
  std::vector<uint32_t> merge_scratch_;  // MergeFrom's group map, reused.
};

/// Radix-partitioned aggregation table: routes each row by the top bits
/// of its key hash into one of `partitions` sub-GroupTables, so
/// per-morsel partials can later merge partition-by-partition in
/// parallel (phase 2) while ascending-morsel merge order per partition
/// keeps every partition's fold deterministic.
///
/// Usage, phase 1 (one instance per morsel, single-threaded):
///   BeginMorsel(m); AccumulateChunk(chunk) per chunk.
/// Phase 2 (one merged instance): MergePartition(p, partials) for every
/// p — disjoint partitions, safe to fan out — then EnsureGlobalGroup()
/// and EmitInOrder.
///
/// Determinism: a group's rank is (first morsel, first row) of its
/// first appearance, which is exactly its position in the serial
/// first-seen group order. Within one merged partition, groups come out
/// rank-sorted (morsel partials are scanned in ascending morsel order
/// and each partial's groups are rank-ascending), so EmitInOrder's
/// rank-ordered k-way merge across partitions reproduces the serial
/// emit order bit-identically at any thread or partition count.
class PartitionedGroupTable {
 public:
  /// Partition counts are clamped to [1, kMaxPartitions] powers of two.
  static constexpr size_t kMaxPartitions = 64;

  PartitionedGroupTable(const std::vector<plan::BoundExprPtr>* group_by,
                        const std::vector<plan::BoundExprPtr>* aggregates,
                        size_t partitions);

  size_t num_partitions() const { return parts_.size(); }
  GroupTable& partition(size_t p) { return *parts_[p]; }
  const GroupTable& partition(size_t p) const { return *parts_[p]; }
  bool vectorized() const { return vectorized_; }
  size_t num_groups() const;

  /// Sets the morsel index stamped into the ranks of subsequently
  /// accumulated rows (resets the in-morsel row counter).
  void BeginMorsel(uint32_t morsel);

  /// Accumulates every row of `chunk`. Vectorized tables evaluate key
  /// columns + hashes and aggregate input columns once per chunk, then
  /// run column-at-a-time passes: one pass resolving each row's group
  /// in its hash partition (groups are created in row order, keeping
  /// serial first-seen ranks), then one pass per aggregate over its
  /// input column with the aggregate-kind and column-type dispatch
  /// hoisted out of the row loop. Boxed tables take the row-at-a-time
  /// path with the same partition routing.
  [[nodiscard]] Status AccumulateChunk(const storage::Chunk& chunk);

  /// Phase 2: folds partition p of every source, in ascending source
  /// (= morsel) order, into this table's partition p. Distinct
  /// partitions touch disjoint state — safe to call concurrently for
  /// distinct p.
  void MergePartition(
      size_t p,
      const std::vector<std::unique_ptr<PartitionedGroupTable>>& sources);

  /// A global aggregate over an empty input still emits one row (in the
  /// empty key's hash partition).
  void EnsureGlobalGroup();

  /// Visits every group as (partition, group index) in ascending rank
  /// order — the serial first-seen emit order.
  void EmitInOrder(
      const std::function<void(const GroupTable&, size_t)>& fn) const;

 private:
  size_t PartitionOf(uint64_t hash) const {
    return bits_ == 0 ? 0 : (hash >> (64 - bits_));
  }

  const std::vector<plan::BoundExprPtr>* group_by_;
  const std::vector<plan::BoundExprPtr>* aggregates_;
  size_t bits_ = 0;  // log2(num_partitions()).
  bool vectorized_;
  uint32_t morsel_ = 0;
  uint64_t row_in_morsel_ = 0;
  AggKeyBlock keys_;  // Scratch, reused across chunks.
  std::vector<storage::ColumnVectorPtr> agg_cols_;  // Scratch.
  std::vector<Value> boxed_key_;                    // Scratch.
  /// Scratch, reused across chunks: each row's resolved (partition
  /// table, group index), and the group's aggregate-state base pointer
  /// (stable once the resolve pass created every group of the chunk).
  std::vector<std::pair<GroupTable*, uint32_t>> row_group_;
  std::vector<AggState*> row_states_;
  std::vector<std::unique_ptr<GroupTable>> parts_;
};

/// The partition count the executor uses when the optimizer did not
/// stamp one on the aggregate node (hand-built plans): every partition
/// for grouped aggregates, one for global aggregates (a single group
/// gains nothing from fan-out).
size_t DefaultAggPartitions(const std::vector<plan::BoundExprPtr>& group_by);

// ---------------------------------------------------------------------
// Pipeline decomposition: a plan split at its breakers.
// ---------------------------------------------------------------------

/// Shared state of one join breaker: the build pipeline fills and
/// finalizes the build side; the probe pipeline (a dependent) probes it.
struct JoinBuildState {
  const plan::LogicalOp* join = nullptr;  // The kJoin node.
  const plan::LogicalOp* build = nullptr;  // Build-side subtree root.
  /// True when the optimizer marked the LEFT child as the build side
  /// (inner hash joins only); the probe chain is then the right child.
  bool build_is_left = false;
  /// No usable equi key (or a cross join): the build side is kept as
  /// boxed rows and every probe row is tested against each of them.
  bool nested_loop = false;
  plan::JoinConditionParts parts;
  /// Hash joins with a residual: the residual rebound to a compact chunk
  /// holding only the columns it reads, in `residual_cols` order, each
  /// taken from the probe chunk or the build payload. ProbeJoinChunk
  /// gathers those columns for batches of candidate pairs.
  struct ResidualColumn {
    bool build = false;
    size_t column = 0;
  };
  plan::BoundExprPtr residual;
  std::vector<ResidualColumn> residual_cols;
  std::vector<const plan::BoundExpr*> build_key_exprs;
  std::vector<const plan::BoundExpr*> probe_key_exprs;
  /// Hash joins: created at build-pipeline prepare time, finalized when
  /// the build pipeline finishes, read-only to the probe pipeline
  /// afterwards.
  std::unique_ptr<RadixJoinTable> table;
  /// Nested-loop joins: the build rows in (morsel, chunk) order.
  std::vector<std::vector<Value>> rows;
};

/// Probes one chunk against a finalized join table, emitting joined
/// rows in probe-row order with matches per probe row in ascending
/// build-row order. Output columns keep the join's left++right layout
/// regardless of which side built. A residual is evaluated on batches
/// of at most kDefaultChunkRows candidate (probe row, build row) pairs,
/// one mask per batch; existence joins stop collecting a probe row's
/// candidates once a batch found its first match. `scratch` is
/// per-worker-slot key scratch, never shared between concurrent
/// workers. A null-aware anti join (NOT IN) emits nothing once the build
/// saw a NULL key, and counts a NULL probe key as a match against any
/// non-empty build.
[[nodiscard]] Result<storage::Chunk> ProbeJoinChunk(
    const JoinBuildState& state, const storage::Chunk& probe,
    RadixJoinTable::ProbeKeys* scratch);

/// Nested-loop probe of one (left-side) chunk against the materialized
/// build rows: probe rows in order, and for each the build rows in
/// order, evaluating the whole join condition on the combined row. A
/// null-aware anti join counts an unknown (NULL) condition as a match.
[[nodiscard]] Result<storage::Chunk> NestedLoopProbeChunk(
    const JoinBuildState& state, const storage::Chunk& probe);

/// One streaming stage of a pipeline (runs inside every morsel task).
struct PipelineStage {
  enum class Kind { kFilter, kProject, kJoinProbe, kNestedLoopProbe };
  Kind kind;
  const plan::LogicalOp* op = nullptr;  // The filter / project / join node.
  JoinBuildState* build = nullptr;      // Probe kinds: the build to probe.
};

/// One pipeline: a source feeding a stage chain into a breaker sink.
/// Pipelines are stored in topological order (every dependency has a
/// smaller id), and the last pipeline produces the plan's result.
struct Pipeline {
  size_t id = 0;
  std::vector<size_t> deps;  // Pipeline ids that must finish first.

  enum class SourceKind {
    kScan,           // Base-table scan; morsel-partitioned when the
                     // context supports it, else one streamed morsel.
    kRemoteQuery,    // Shipped remote query, one morsel.
    kTableFunction,  // Virtual (map-reduce) table function, one morsel.
    kConstant,       // One row of constants (table-less SELECT).
    kUpstream,       // Output chunks of upstream pipelines, in order, as
                     // one morsel (union branches; nested breaker
                     // outputs; the collected left side of a semijoin
                     // pushdown).
  };
  SourceKind source = SourceKind::kUpstream;
  /// The scan, remote query, table function or table-less project node.
  const plan::LogicalOp* source_op = nullptr;
  /// kUpstream: producers in child order. kRemoteQuery: at most one
  /// producer — the relocated local child, or (with `pushdown`) the
  /// semijoin's left side whose keys form the IN-list.
  std::vector<size_t> upstream;
  /// kRemoteQuery as the build side of a semijoin pushdown: the join
  /// whose first probe key, evaluated over upstream[0]'s output, gives
  /// the IN-list values.
  const JoinBuildState* pushdown = nullptr;
  /// Schema chunks carry when they enter the stage chain (upstream
  /// chunks are restamped with it).
  std::shared_ptr<Schema> source_schema;

  std::vector<PipelineStage> stages;  // In execution order.

  enum class SinkKind {
    kCollect,    // Chunks merged in (morsel, chunk) order.
    kGroups,     // Per-morsel partial GroupTables merged in morsel order.
    kJoinBuild,  // Radix staging per morsel, finalize on finish (or the
                 // boxed build rows of a nested-loop join).
    kSort,       // Rows concatenated in morsel order, stable-sorted.
  };
  SinkKind sink = SinkKind::kCollect;
  /// kGroups / kSort node, or the kLimit node a kCollect sink applies.
  const plan::LogicalOp* sink_op = nullptr;
  /// kCollect: keep only the first `limit` rows in (morsel, chunk)
  /// order; -1 keeps everything.
  int64_t limit = -1;
  JoinBuildState* build_target = nullptr;     // kJoinBuild.
  std::shared_ptr<Schema> output_schema;      // Schema of emitted chunks.
  std::string label;                          // For stats and EXPLAIN.
};

/// A decomposed plan: the pipeline DAG plus the join-build states the
/// pipelines share. Holds pointers into the logical plan, which must
/// outlive execution.
struct PipelinePlan {
  std::vector<Pipeline> pipelines;
  std::vector<std::unique_ptr<JoinBuildState>> builds;
  /// Which pipeline each visited logical node was assigned to (EXPLAIN
  /// annotation). Nodes not listed inherit their parent's pipeline.
  std::unordered_map<const plan::LogicalOp*, size_t> op_pipeline;

  const Pipeline& root() const { return pipelines.back(); }
};

/// Splits `root` at its pipeline breakers (join build, aggregate, sort,
/// limit, union, and the inputs a remote query ships) into a dependency
/// DAG of pipelines. Every plan node becomes a source, stage or sink.
/// Purely structural — never a function of the degree of parallelism
/// or the scan targets — so a query decomposes identically at every
/// thread count.
PipelinePlan DecomposePlan(const plan::LogicalOp& root);

}  // namespace hana::exec

#endif  // HANA_EXEC_PIPELINE_H_
