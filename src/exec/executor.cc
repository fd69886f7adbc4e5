#include "exec/executor.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/sync.h"
#include "common/task_pool.h"
#include "common/util.h"
#include "exec/evaluator.h"
#include "exec/pipeline.h"
#include "exec/radix_join.h"
#include "storage/column_table.h"

namespace hana::exec {

namespace {

using plan::LogicalOp;

constexpr size_t kNoCutoff = std::numeric_limits<size_t>::max();

/// CPU time the calling thread has consumed, in microseconds: time the
/// thread spent descheduled or blocked does not count.
int64_t ThreadCpuMicros() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

size_t ProbeStageCount(const Pipeline& p) {
  size_t n = 0;
  for (const PipelineStage& s : p.stages) {
    if (s.kind == PipelineStage::Kind::kJoinProbe) ++n;
  }
  return n;
}

/// Radix partition count of a kGroups sink: the knob override wins,
/// then the optimizer's stamp from group-cardinality stats, then the
/// default. Purely a function of the plan and the policy — never of the
/// thread count — and the partition count itself never changes results
/// (the rank-ordered emit is partition-agnostic), only scheduling.
size_t AggPartitionCount(const Pipeline& p, const ParallelPolicy& policy) {
  if (policy.agg_partitions > 0) return policy.agg_partitions;
  if (p.sink_op->agg_partitions > 0) {
    return static_cast<size_t>(p.sink_op->agg_partitions);
  }
  return DefaultAggPartitions(p.sink_op->group_by);
}

/// Runtime state of one pipeline. Morsel-indexed members are sized at
/// Prepare() and each index is touched by exactly one worker; the
/// completion counter publishes them to whichever thread merges.
struct PipelineRun {
  const Pipeline* p = nullptr;

  std::optional<PartitionSource> partition;  // kScan, when partitionable.
  size_t num_morsels = 0;
  // atomic: relaxed morsel counter — fetch_add hands out disjoint
  // indices; morsel results are published by workers_remaining below.
  std::atomic<size_t> next_morsel{0};
  // atomic: acq_rel completion counter — the final decrement's
  // release pairs with the merging thread's acquire load, publishing
  // every per-morsel slot write.
  std::atomic<size_t> workers_remaining{0};
  std::vector<Status> statuses;               // Per morsel.
  /// kCollect / kSort, with the row count per morsel.
  std::vector<std::vector<Chunk>> collected;
  std::vector<uint64_t> collected_rows;
  /// LIMIT sinks: rows morsel m collected once it finished (-1 while it
  /// has not), and the cutoff — the smallest k such that morsels [0, k)
  /// all finished and together hold the limit. Morsels from the cutoff
  /// on are never needed: they are skipped or stop early.
  // atomic: release store when a morsel finishes, acquire loads while
  // scanning the finished prefix.
  std::unique_ptr<std::atomic<int64_t>[]> finished_rows;
  // atomic: only ever lowered (CAS); acquire loads pair with the
  // release CAS so a skipped morsel sees the prefix that justified it.
  std::atomic<size_t> cutoff{kNoCutoff};
  /// kGroups: per-morsel radix-partitioned partials (phase 1).
  std::vector<std::unique_ptr<PartitionedGroupTable>> partials;
  size_t agg_partitions = 0;  // kGroups: phase-2 partition count.
  uint64_t agg_groups = 0;    // kGroups: groups emitted.
  JoinLayout join_layout = JoinLayout::kNone;  // kJoinBuild.

  /// Merged result chunks (consumed by dependents or the caller).
  std::vector<Chunk> output;
  Status final_status;

  Stopwatch wall;
  double wall_ms = 0.0;
  // atomic: relaxed stats counters; read only after the pipeline's
  // completion counter has synchronized, or for approximate progress.
  std::atomic<uint64_t> rows{0};
  // atomic: relaxed stats counter, same publication rule as rows.
  std::atomic<int64_t> cpu_us{0};
  // atomic: relaxed stats counter, same publication rule as rows.
  std::atomic<uint64_t> scalar_rows{0};
  // atomic: relaxed stats counter, same publication rule as rows.
  std::atomic<uint64_t> dict_flattened_rows{0};
};

/// Drives one decomposed plan to completion. Both schedules share the
/// same morsel decomposition and the same morsel-order merges, so their
/// results are bit-identical; only the wall-clock overlap differs:
///   sequential — pipelines in id (topological) order, the morsels of
///                each on the pool (inline with dop = 1 or no pool).
///   concurrent — with a pool, dop > 1 and several pipelines: every
///                dependency-free pipeline scheduled on the pool at
///                once; a dynamic SDA bracket (opened when the number
///                of in-flight pipelines reaches 2, closed when it
///                drops back to 1) charges concurrently dispatched
///                federation branches max instead of sum.
///
/// Lock order: mu_ may be held while entering the SDA dispatch bracket
/// (mu_ -> sda dispatch_mu_); tasks are never submitted and
/// TryRunOneTask is never called while holding mu_ (TaskPool::mu_ is a
/// leaf and a popped task may itself lock mu_ on completion).
class PipelineExecutor {
 public:
  PipelineExecutor(PipelinePlan* plan, ExecContext* ctx, ParallelPolicy policy,
                   const mvcc::ReadView& view)
      : plan_(plan),
        ctx_(ctx),
        policy_(policy),
        view_(view),
        runs_(plan->pipelines.size()),
        dependents_(plan->pipelines.size()),
        pending_(plan->pipelines.size(), 0),
        done_(plan->pipelines.size(), 0) {
    for (size_t i = 0; i < runs_.size(); ++i) {
      runs_[i].p = &plan_->pipelines[i];
    }
    for (const Pipeline& p : plan_->pipelines) {
      for (size_t d : p.deps) dependents_[d].push_back(p.id);
    }
  }

  /// Runs every pipeline, returning the root pipeline's output chunks.
  /// The reported error is deterministic: within a pipeline the first
  /// failing morsel in morsel order wins, across pipelines the lowest
  /// failed pipeline id wins, and dependents of a failed pipeline are
  /// skipped (inheriting its status) rather than run.
  [[nodiscard]] Result<std::vector<Chunk>> Run(
      std::vector<PipelineStats>* stats) {
    bool concurrent =
        policy_.pool != nullptr && policy_.dop > 1 && runs_.size() > 1;
    if (concurrent) {
      RunConcurrent();
    } else {
      RunSequential();
    }
    if (stats != nullptr) {
      for (const PipelineRun& run : runs_) {
        PipelineStats st;
        st.id = run.p->id;
        st.label = run.p->label;
        st.morsels = run.num_morsels;
        st.rows = run.rows.load(std::memory_order_relaxed);
        st.wall_ms = run.wall_ms;
        st.cpu_ms =
            static_cast<double>(run.cpu_us.load(std::memory_order_relaxed)) /
            1000.0;
        st.agg_partitions = run.agg_partitions;
        st.agg_groups = run.agg_groups;
        st.join_layout = run.join_layout;
        st.scalar_rows = run.scalar_rows.load(std::memory_order_relaxed);
        st.dict_flattened_rows =
            run.dict_flattened_rows.load(std::memory_order_relaxed);
        stats->push_back(std::move(st));
      }
    }
    for (PipelineRun& run : runs_) {
      HANA_RETURN_IF_ERROR(run.final_status);
    }
    return std::move(runs_.back().output);
  }

 private:
  /// First failed dependency (lowest pipeline id) of `run`, or OK.
  Status DepsStatus(const PipelineRun& run) const {
    size_t best = runs_.size();
    for (size_t d : run.p->deps) {
      if (!runs_[d].final_status.ok() && d < best) best = d;
    }
    return best < runs_.size() ? runs_[best].final_status : Status::OK();
  }

  void RunSequential() {
    for (PipelineRun& run : runs_) {
      Status dep = DepsStatus(run);
      if (!dep.ok()) {
        run.final_status = std::move(dep);
        continue;
      }
      run.wall.Reset();
      Status st = Prepare(run);
      if (st.ok()) {
        size_t n = run.num_morsels;
        size_t probes = ProbeStageCount(*run.p);
        if (policy_.pool != nullptr && policy_.dop > 1 && n > 1) {
          size_t slots = policy_.pool->WorkerSlots(n, policy_.dop);
          std::vector<std::vector<RadixJoinTable::ProbeKeys>> scratch(
              slots, std::vector<RadixJoinTable::ProbeKeys>(probes));
          policy_.pool->ParallelForWorker(
              n,
              [&](size_t worker, size_t m) {
                RunMorsel(run, m, &scratch[worker]);
              },
              policy_.dop);
        } else {
          std::vector<RadixJoinTable::ProbeKeys> scratch(probes);
          for (size_t m = 0; m < n; ++m) RunMorsel(run, m, &scratch);
        }
        st = Finish(run);
      }
      run.final_status = std::move(st);
      run.wall_ms = run.wall.ElapsedMillis();
    }
  }

  void RunConcurrent() {
    {
      MutexLock lock(mu_);
      for (size_t i = 0; i < runs_.size(); ++i) {
        pending_[i] = runs_[i].p->deps.size();
        if (pending_[i] == 0) ready_.push_back(i);
      }
    }
    while (true) {
      std::vector<size_t> batch;
      {
        MutexLock lock(mu_);
        if (done_count_ == runs_.size()) break;
        batch.swap(ready_);
        if (!batch.empty()) {
          // Open the SDA bracket BEFORE the batch's tasks can dispatch
          // remote branches, so overlapping federation latencies charge
          // max instead of sum (Union Plan execution, Section 5). The
          // bracket call stays under mu_ (lock order mu_ -> SDA
          // dispatch_mu_) so Begin/End reach the SDA in the same order
          // as the region_open_ transitions; issued outside the lock, a
          // racing completion's End could run first, no-op at depth
          // zero, and leave the region depth unbalanced across
          // statements.
          if (in_flight_ + batch.size() >= 2 && !region_open_) {
            region_open_ = true;
            ctx_->BeginConcurrentRemoteDispatch();
          }
          in_flight_ += batch.size();
        }
      }
      if (!batch.empty()) {
        std::sort(batch.begin(), batch.end());  // Launch order: id order.
        for (size_t id : batch) Launch(runs_[id]);
        continue;
      }
      // Nothing ready: help drain the pool, then sleep until a
      // completion changes the schedule. TryRunOneTask drains FIFO, so
      // this thread eventually runs its own queued tasks — the untimed
      // wait below can always be satisfied.
      if (policy_.pool->TryRunOneTask()) continue;
      MutexLock lock(mu_);
      if (ready_.empty() && done_count_ < runs_.size()) cv_.Wait(mu_);
    }
    {
      MutexLock lock(mu_);
      if (region_open_) {
        region_open_ = false;
        ctx_->EndConcurrentRemoteDispatch();
      }
    }
  }

  /// Prepares and schedules one pipeline's morsel tasks on the pool.
  void Launch(PipelineRun& run) {
    run.wall.Reset();
    Status st = Prepare(run);
    if (!st.ok()) {
      CompleteLaunched(run, std::move(st));
      return;
    }
    size_t n = run.num_morsels;
    if (n == 0) {
      // Empty source (zero-morsel table): nothing to schedule, merge
      // directly — kGroups still emits the global-aggregate row.
      CompleteLaunched(run, Finish(run));
      return;
    }
    size_t probes = ProbeStageCount(*run.p);
    size_t k = std::min(policy_.dop, n);
    run.workers_remaining.store(k, std::memory_order_relaxed);
    for (size_t t = 0; t < k; ++t) {
      policy_.pool->Submit([this, &run, probes] {
        std::vector<RadixJoinTable::ProbeKeys> scratch(probes);
        while (true) {
          size_t m = run.next_morsel.fetch_add(1, std::memory_order_relaxed);
          if (m >= run.num_morsels) break;
          RunMorsel(run, m, &scratch);
        }
        if (run.workers_remaining.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          // Last worker out merges and completes the pipeline.
          CompleteLaunched(run, Finish(run));
        }
      });
    }
  }

  /// Completion of a pipeline counted in in_flight_ (concurrent mode).
  void CompleteLaunched(PipelineRun& run, Status st) EXCLUDES(mu_) {
    run.final_status = std::move(st);
    run.wall_ms = run.wall.ElapsedMillis();
    {
      MutexLock lock(mu_);
      MarkDone(run.p->id);
      --in_flight_;
      // The region stays open until no pipeline runs: a branch whose
      // dispatch queued on the serialized SDA mutex behind its siblings
      // still overlapped them.
      if (region_open_ && in_flight_ == 0) {
        region_open_ = false;
        ctx_->EndConcurrentRemoteDispatch();
      }
      cv_.NotifyAll();
    }
  }

  /// Marks a pipeline done and cascades: dependents whose dependencies
  /// all succeeded become ready; dependents of a failure are marked
  /// done immediately with the failed dependency's status.
  void MarkDone(size_t id) REQUIRES(mu_) {
    done_[id] = 1;
    ++done_count_;
    for (size_t d : dependents_[id]) {
      if (--pending_[d] != 0) continue;
      Status dep = DepsStatus(runs_[d]);
      if (dep.ok()) {
        ready_.push_back(d);
      } else {
        runs_[d].final_status = std::move(dep);
        MarkDone(d);
      }
    }
  }

  /// Resolves the source into a morsel count and creates the pipeline's
  /// join build table when it feeds one.
  [[nodiscard]] Status Prepare(PipelineRun& run) {
    const Pipeline& p = *run.p;
    run.num_morsels = 1;
    run.partition.reset();
    if (p.source == Pipeline::SourceKind::kScan) {
      HANA_ASSIGN_OR_RETURN(
          run.partition,
          ctx_->OpenPartitionedScan(*p.source_op, policy_.morsel_rows, view_));
      if (run.partition.has_value()) {
        run.num_morsels = run.partition->num_morsels;
      }
      // Non-partitionable scan targets (extended, remote, hybrid) run
      // as a single morsel streaming through OpenScan.
    }
    JoinBuildState* b = p.build_target;
    if (b != nullptr) {
      if (b->nested_loop && b->join->condition != nullptr &&
          b->join->join_kind != plan::JoinKind::kCross) {
        // A conditioned join with no usable equi key tests every pair —
        // worth noticing (join_layout reports it too).
        HANA_LOG(LogLevel::kDebug,
                 "join fell back to nested-loop: no equi key in " +
                     b->join->condition->ToString());
      }
      b->table = std::make_unique<RadixJoinTable>(
          b->build->schema, b->build_key_exprs, b->join->perfect_hash);
      b->table->SetNumMorsels(run.num_morsels);
    }
    run.statuses.assign(run.num_morsels, Status::OK());
    if (p.sink == Pipeline::SinkKind::kGroups) {
      run.partials.clear();
      run.partials.resize(run.num_morsels);
    } else {
      run.collected.assign(run.num_morsels, {});
      run.collected_rows.assign(run.num_morsels, 0);
    }
    if (p.limit >= 0) {
      // atomic: orderings documented at PipelineRun::finished_rows.
      run.finished_rows =
          std::make_unique<std::atomic<int64_t>[]>(run.num_morsels);
      for (size_t m = 0; m < run.num_morsels; ++m) {
        run.finished_rows[m].store(-1, std::memory_order_relaxed);
      }
      run.cutoff.store(kNoCutoff, std::memory_order_relaxed);
    }
    run.next_morsel.store(0, std::memory_order_relaxed);
    run.output.clear();
    return Status::OK();
  }

  /// Whether morsel m of a LIMIT pipeline has nothing left to add: it
  /// holds the limit itself, or an earlier finished prefix does.
  static bool LimitReached(const PipelineRun& run, size_t m) {
    const int64_t limit = run.p->limit;
    return limit >= 0 &&
           (run.collected_rows[m] >= static_cast<uint64_t>(limit) ||
            m >= run.cutoff.load(std::memory_order_acquire));
  }

  /// Records that LIMIT morsel m finished and lowers the cutoff to the
  /// end of the shortest finished prefix holding the limit.
  static void NoteLimitMorselDone(PipelineRun& run, size_t m) {
    run.finished_rows[m].store(static_cast<int64_t>(run.collected_rows[m]),
                               std::memory_order_release);
    uint64_t rows = 0;
    for (size_t k = 0; k < run.num_morsels; ++k) {
      int64_t done = run.finished_rows[k].load(std::memory_order_acquire);
      if (done < 0) return;
      rows += static_cast<uint64_t>(done);
      if (rows < static_cast<uint64_t>(run.p->limit)) continue;
      size_t cut = run.cutoff.load(std::memory_order_acquire);
      while (k + 1 < cut && !run.cutoff.compare_exchange_weak(
                                cut, k + 1, std::memory_order_acq_rel)) {
      }
      return;
    }
  }

  /// Runs one morsel (unless a LIMIT no longer needs it), timing it
  /// into the pipeline's summed CPU time.
  void RunMorsel(PipelineRun& run, size_t m,
                 std::vector<RadixJoinTable::ProbeKeys>* scratch) {
    if (run.p->limit < 0 || m < run.cutoff.load(std::memory_order_acquire)) {
      const int64_t cpu_start = ThreadCpuMicros();
      uint64_t scalar_rows = 0;
      uint64_t flattened = 0;
      {
        ScalarRowScope scope(&scalar_rows);
        storage::DictFlattenScope flatten_scope(&flattened);
        run.statuses[m] = ProcessMorsel(run, m, scratch);
      }
      run.cpu_us.fetch_add(ThreadCpuMicros() - cpu_start,
                           std::memory_order_relaxed);
      run.scalar_rows.fetch_add(scalar_rows, std::memory_order_relaxed);
      run.dict_flattened_rows.fetch_add(flattened, std::memory_order_relaxed);
    }
    if (run.p->limit >= 0) NoteLimitMorselDone(run, m);
  }

  /// Streams morsel m's chunks from the source through the stage chain
  /// into the sink. Per-morsel state depends only on the morsel index.
  [[nodiscard]] Status ProcessMorsel(
      PipelineRun& run, size_t m,
      std::vector<RadixJoinTable::ProbeKeys>* scratch) {
    const Pipeline& p = *run.p;
    PartitionedGroupTable* partial = nullptr;
    if (p.sink == Pipeline::SinkKind::kGroups) {
      // Phase 1: each morsel accumulates into its own partitioned
      // partial (thread-local by construction — one worker per morsel).
      run.partials[m] = std::make_unique<PartitionedGroupTable>(
          &p.sink_op->group_by, &p.sink_op->aggregates,
          AggPartitionCount(p, policy_));
      run.partials[m]->BeginMorsel(static_cast<uint32_t>(m));
      partial = run.partials[m].get();
    }
    Status inner = Status::OK();
    ChunkSink sink = [&](const Chunk& in) {
      inner = ProcessChunk(run, m, in, partial, scratch);
      return inner.ok() && !LimitReached(run, m);
    };
    Status source = Status::OK();
    switch (p.source) {
      case Pipeline::SourceKind::kScan: {
        if (run.partition.has_value()) {
          source = run.partition->scan_morsel(m, sink);
          break;
        }
        HANA_ASSIGN_OR_RETURN(ChunkSource scan,
                              ctx_->OpenScan(*p.source_op, view_));
        source = scan(sink);
        break;
      }
      case Pipeline::SourceKind::kRemoteQuery:
        source = RemoteQuery(p, sink);
        break;
      case Pipeline::SourceKind::kTableFunction: {
        HANA_ASSIGN_OR_RETURN(ChunkSource fn,
                              ctx_->OpenTableFunction(*p.source_op));
        source = fn(sink);
        break;
      }
      case Pipeline::SourceKind::kConstant: {
        Chunk row = Chunk::Empty(p.source_schema);
        for (size_t c = 0; c < p.source_op->exprs.size(); ++c) {
          HANA_ASSIGN_OR_RETURN(Value v,
                                EvalExprRow(*p.source_op->exprs[c], {}));
          row.columns[c]->Append(v);
        }
        sink(row);
        break;
      }
      case Pipeline::SourceKind::kUpstream: {
        // Upstream outputs, in listed (child) order, as one morsel. The
        // producer finished before this pipeline launched, so its
        // chunks can be consumed destructively (single consumer).
        bool more = true;
        for (size_t uid : p.upstream) {
          for (Chunk& chunk : runs_[uid].output) {
            if (!more) break;
            chunk.schema = p.source_schema;  // This plan node's names.
            more = sink(chunk);
          }
          runs_[uid].output.clear();
        }
        break;
      }
    }
    HANA_RETURN_IF_ERROR(inner);
    return source;
  }

  /// Opens a remote-query source: a relocated upstream becomes the
  /// uploaded table; under a semijoin pushdown the upstream (the join's
  /// collected left side, left intact for the probe pipeline) yields
  /// the IN-list — its distinct non-null first join keys, first-seen
  /// order.
  [[nodiscard]] Status RemoteQuery(const Pipeline& p, const ChunkSink& sink) {
    PushdownInList in_list;
    storage::Table relocated;
    const PushdownInList* keys = nullptr;
    const storage::Table* rows = nullptr;
    if (!p.upstream.empty()) {
      PipelineRun& producer = runs_[p.upstream[0]];
      if (p.pushdown != nullptr) {
        in_list.column = p.pushdown->join->pushdown_remote_column;
        std::unordered_set<Value, storage::ValueHash> seen;
        for (const Chunk& chunk : producer.output) {
          HANA_ASSIGN_OR_RETURN(
              storage::ColumnVectorPtr col,
              EvalExprColumn(*p.pushdown->pushdown_key, chunk));
          for (size_t r = 0; r < chunk.num_rows(); ++r) {
            if (col->IsNull(r)) continue;
            Value v = col->GetValue(r);
            if (seen.insert(v).second) in_list.values.push_back(std::move(v));
          }
        }
        keys = &in_list;
      } else {
        relocated = storage::Table(producer.p->output_schema);
        for (Chunk& chunk : producer.output) {
          relocated.AppendChunk(std::move(chunk));
        }
        producer.output.clear();
        rows = &relocated;
      }
    }
    HANA_ASSIGN_OR_RETURN(ChunkSource remote,
                          ctx_->OpenRemoteQuery(*p.source_op, keys, rows));
    return remote(sink);
  }

  /// Runs the stage chain over one chunk, then feeds the sink.
  [[nodiscard]] Status ProcessChunk(
      PipelineRun& run, size_t m, const Chunk& in,
      PartitionedGroupTable* partial,
      std::vector<RadixJoinTable::ProbeKeys>* scratch) {
    const Pipeline& p = *run.p;
    Chunk owned;
    const Chunk* stage = &in;
    size_t probe_idx = 0;
    for (size_t i = 0; i < p.stages.size(); ++i) {
      const PipelineStage& s = p.stages[i];
      switch (s.kind) {
        case PipelineStage::Kind::kFilter: {
          // A column-only Project right after the filter: gather only
          // the columns it keeps, and skip the Project stage.
          const PipelineStage* next =
              i + 1 < p.stages.size() ? &p.stages[i + 1] : nullptr;
          const plan::LogicalOp* project =
              next != nullptr && next->kind == PipelineStage::Kind::kProject &&
                      IsColumnOnlyProject(*next->op, *stage)
                  ? next->op
                  : nullptr;
          HANA_ASSIGN_OR_RETURN(owned,
                                FilterChunk(*s.op->predicate, *stage, project));
          if (project != nullptr) ++i;
          break;
        }
        case PipelineStage::Kind::kProject: {
          HANA_ASSIGN_OR_RETURN(owned, ProjectChunk(*s.op, *stage));
          break;
        }
        case PipelineStage::Kind::kJoinProbe: {
          HANA_ASSIGN_OR_RETURN(owned, ProbeJoinChunk(*s.build, *stage,
                                                      &(*scratch)[probe_idx]));
          ++probe_idx;
          break;
        }
      }
      stage = &owned;
    }
    switch (p.sink) {
      case Pipeline::SinkKind::kGroups:
        return partial->AccumulateChunk(*stage);
      case Pipeline::SinkKind::kJoinBuild:
        run.rows.fetch_add(stage->num_rows(), std::memory_order_relaxed);
        return p.build_target->table->AddBuildChunk(m, *stage);
      case Pipeline::SinkKind::kCollect:
      case Pipeline::SinkKind::kSort: {
        if (stage->num_rows() == 0) return Status::OK();
        Chunk out = stage == &in ? in : std::move(owned);
        out.schema = p.output_schema;
        run.collected_rows[m] += out.num_rows();
        run.collected[m].push_back(std::move(out));
        return Status::OK();
      }
    }
    return Status::Internal("unknown pipeline sink");
  }

  /// Finishes the sink (FinishSink), counting the rows it flattened
  /// from dictionary codes into the pipeline's stats.
  [[nodiscard]] Status Finish(PipelineRun& run) {
    uint64_t flattened = 0;
    Status st;
    {
      storage::DictFlattenScope scope(&flattened);
      st = FinishSink(run);
    }
    run.dict_flattened_rows.fetch_add(flattened, std::memory_order_relaxed);
    return st;
  }

  /// Merges per-morsel results in ascending morsel order — the step
  /// that makes every schedule (and thread count) bit-identical.
  [[nodiscard]] Status FinishSink(PipelineRun& run) {
    const Pipeline& p = *run.p;
    // First failure in morsel order wins (deterministic error too);
    // morsels past a LIMIT cutoff never count.
    const size_t needed = std::min(
        run.statuses.size(), run.cutoff.load(std::memory_order_acquire));
    for (size_t m = 0; m < needed; ++m) HANA_RETURN_IF_ERROR(run.statuses[m]);
    switch (p.sink) {
      case Pipeline::SinkKind::kCollect: {
        uint64_t rows = 0;
        const uint64_t limit = p.limit < 0 ? std::numeric_limits<uint64_t>::max()
                                           : static_cast<uint64_t>(p.limit);
        for (size_t m = 0; m < needed && rows < limit; ++m) {
          for (Chunk& chunk : run.collected[m]) {
            if (rows == limit) break;
            if (rows + chunk.num_rows() > limit) {
              // The prefix ends inside this chunk: keep its head only.
              Chunk head = Chunk::Empty(chunk.schema);
              for (size_t r = 0; rows < limit; ++r, ++rows) {
                head.AppendRowFrom(chunk, r);
              }
              run.output.push_back(std::move(head));
              break;
            }
            rows += chunk.num_rows();
            run.output.push_back(std::move(chunk));
          }
        }
        run.collected.clear();
        run.rows.fetch_add(rows, std::memory_order_relaxed);
        return Status::OK();
      }
      case Pipeline::SinkKind::kGroups: {
        // Phase 2: per-partition merges of the morsel partials, fanned
        // out on the pool — partitions touch disjoint sub-tables, so no
        // locks are needed, and each partition still folds its partials
        // in ascending morsel order (determinism).
        PartitionedGroupTable merged(&p.sink_op->group_by,
                                     &p.sink_op->aggregates,
                                     AggPartitionCount(p, policy_));
        size_t parts = merged.num_partitions();
        bool fan_out =
            policy_.pool != nullptr && parts > 1 && policy_.dop > 1;
        if (fan_out) {
          // ParallelFor from within a pool task is safe (caller
          // participation — same pattern as RadixJoinTable::Finalize).
          // Workers count flattened rows into their partition's slot;
          // the sum lands in this thread's scope.
          std::vector<uint64_t> flattened(parts, 0);
          policy_.pool->ParallelFor(
              parts,
              [&](size_t part) {
                storage::DictFlattenScope scope(&flattened[part]);
                merged.MergePartition(part, run.partials);
              },
              policy_.dop);
          for (uint64_t f : flattened) storage::CountDictFlattenedRows(f);
        } else {
          for (size_t part = 0; part < parts; ++part) {
            merged.MergePartition(part, run.partials);
          }
        }
        run.partials.clear();
        merged.EnsureGlobalGroup();
        // Rank-ordered emit across partitions reproduces the serial
        // first-seen group order bit-identically.
        Chunk out = Chunk::Empty(p.output_schema);
        Status emitted;
        merged.EmitInOrder([&](const GroupTable& t, size_t g) {
          if (!emitted.ok()) return;
          emitted = t.AppendGroup(g, &out);
          if (out.num_rows() >= storage::kDefaultChunkRows) {
            run.output.push_back(std::move(out));
            out = Chunk::Empty(p.output_schema);
          }
        });
        HANA_RETURN_IF_ERROR(emitted);
        if (out.num_rows() > 0) run.output.push_back(std::move(out));
        run.agg_partitions = parts;
        run.agg_groups = merged.num_groups();
        run.rows.store(merged.num_groups(), std::memory_order_relaxed);
        return Status::OK();
      }
      case Pipeline::SinkKind::kJoinBuild: {
        const JoinBuildState& b = *p.build_target;
        HANA_RETURN_IF_ERROR(b.table->Finalize(policy_.pool, policy_.dop));
        run.join_layout = b.nested_loop      ? JoinLayout::kNestedLoop
                          : b.table->perfect() ? JoinLayout::kPerfectHash
                                               : JoinLayout::kRadix;
        return Status::OK();
      }
      case Pipeline::SinkKind::kSort: {
        std::vector<Chunk> in;
        uint64_t rows = 0;
        for (std::vector<Chunk>& morsel : run.collected) {
          for (Chunk& chunk : morsel) {
            rows += chunk.num_rows();
            in.push_back(std::move(chunk));
          }
        }
        run.collected.clear();
        HANA_ASSIGN_OR_RETURN(
            run.output, SortChunks(p.sink_op->sort_keys, in, p.output_schema));
        run.rows.store(rows, std::memory_order_relaxed);
        return Status::OK();
      }
    }
    return Status::Internal("unknown pipeline sink");
  }

  PipelinePlan* plan_;
  ExecContext* ctx_;
  ParallelPolicy policy_;
  mvcc::ReadView view_;  // Every scan of the statement reads here.
  std::vector<PipelineRun> runs_;
  std::vector<std::vector<size_t>> dependents_;  // Immutable after ctor.

  /// Guards the schedule. Acquired before the SDA dispatch bracket
  /// (rank 40 < sda.dispatch 50); never held across TaskPool calls
  /// (Submit / TryRunOneTask).
  Mutex mu_{"executor.schedule", lock_rank::kExecutorSchedule};
  CondVar cv_;
  std::vector<size_t> pending_ GUARDED_BY(mu_);  // Unfinished dep counts.
  std::vector<size_t> ready_ GUARDED_BY(mu_);
  std::vector<char> done_ GUARDED_BY(mu_);
  size_t done_count_ GUARDED_BY(mu_) = 0;
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool region_open_ GUARDED_BY(mu_) = false;
};

void AnnotateNode(LogicalOp* op, const PipelinePlan& plan, int inherited) {
  auto it = plan.op_pipeline.find(op);
  int id = it != plan.op_pipeline.end() ? static_cast<int>(it->second)
                                        : inherited;
  op->pipeline_id = id;
  for (const auto& child : op->children) AnnotateNode(child.get(), plan, id);
}

}  // namespace

Result<storage::Table> ExecutePlanWithStats(const plan::LogicalOp& logical,
                                            ExecContext* ctx,
                                            std::vector<PipelineStats>* stats) {
  if (stats != nullptr) stats->clear();
  // One read lease per statement: every scan the plan opens — across
  // pipelines and morsels — resolves against the same MVCC view, and
  // the lease's snapshot registration holds the merge watermark back
  // until the statement finishes (RAII on return).
  ExecContext::ReadLease lease = ctx->AcquireReadLease();
  PipelinePlan plan = DecomposePlan(logical);
  PipelineExecutor executor(&plan, ctx, ctx->parallel_policy(), lease.view);
  HANA_ASSIGN_OR_RETURN(std::vector<Chunk> chunks, executor.Run(stats));
  storage::Table table(logical.schema);
  for (Chunk& chunk : chunks) table.AppendChunk(std::move(chunk));
  return table;
}

Result<storage::Table> ExecutePlan(const plan::LogicalOp& logical,
                                   ExecContext* ctx) {
  return ExecutePlanWithStats(logical, ctx, nullptr);
}

std::vector<plan::PipelineSummary> AnnotatePipelines(plan::LogicalOp* root) {
  std::vector<plan::PipelineSummary> out;
  PipelinePlan plan = DecomposePlan(*root);
  AnnotateNode(root, plan, static_cast<int>(plan.root().id));
  for (const Pipeline& p : plan.pipelines) {
    plan::PipelineSummary summary;
    summary.id = static_cast<int>(p.id);
    for (size_t d : p.deps) summary.deps.push_back(static_cast<int>(d));
    summary.description = p.label;
    out.push_back(std::move(summary));
  }
  return out;
}

}  // namespace hana::exec
