#include "runner.h"

#include <cstdio>

#include "common/util.h"
#include "exec/operators.h"
#include "optimizer/optimizer.h"
#include "plan/binder.h"
#include "sql/parser.h"
#include "table_hash.h"

namespace perfbench {

namespace {

constexpr size_t kMaxProblems = 8;  // Printed and kept for the run record.

}  // namespace

void Runner::Run(const Statement& s, bool timed) {
  ++attempted_;
  if (!trace_) {
    RunExecute(s, timed);
  } else if (s.select) {
    RunTracedSelect(s, timed);
  } else {
    RunTracedDml(s, timed);
  }
}

double Runner::VirtualNowMs() {
  double now = db_->clock().now_ms();
  if (db_->iq() != nullptr) now += db_->iq()->store()->clock().now_ms();
  return now;
}

hana::extended::ExtendedStoreMetrics Runner::ExtendedNow() {
  if (db_->iq() == nullptr) return {};
  return db_->iq()->store()->metrics();
}

void Runner::AddExtended(const hana::extended::ExtendedStoreMetrics& before) {
  hana::extended::ExtendedStoreMetrics now = ExtendedNow();
  extended.blocks_read += now.blocks_read - before.blocks_read;
  extended.cache_hits += now.cache_hits - before.cache_hits;
  extended.bytes_read += now.bytes_read - before.bytes_read;
  extended.simulated_io_ms += now.simulated_io_ms - before.simulated_io_ms;
}

Runner::Outcome Runner::Describe(const hana::storage::Table& table) {
  Outcome out;
  out.rows = static_cast<int64_t>(table.num_rows());
  out.hash = TableHash(table);
  int n = table.schema()->FindColumn("n");
  if (n >= 0) {
    out.count = 0;
    for (const auto& row : table.rows()) {
      out.count += row[static_cast<size_t>(n)].AsInt();
    }
  }
  return out;
}

void Runner::AddProblem(const std::string& message) {
  if (problems_.size() < kMaxProblems) {
    std::fprintf(stderr, "perfbench: %s\n", message.c_str());
    problems_.push_back(message);
  }
  ++problem_count_;
}

void Runner::Problem(const Statement& s, const std::string& what) {
  AddProblem(s.kind + ": " + what);
}

void Runner::Check(const Statement& s, const Outcome& out) {
  if (s.expect_rows >= 0 && out.rows != s.expect_rows) {
    Problem(s, "rows " + std::to_string(out.rows) + ", expected " +
                   std::to_string(s.expect_rows));
  }
  if (s.expect_count >= 0 && out.count != s.expect_count) {
    Problem(s, "count " + std::to_string(out.count) + ", expected " +
                   std::to_string(s.expect_count));
  }
  if (s.expect_cache_hit && !out.cache_hit) {
    Problem(s, "hinted statement did not report remote_cache_hit");
  }
  if (s.expect_key.empty()) return;
  observed_[s.expect_key] = {out.rows, out.hash};
  const ExpectedResult* want = nullptr;
  if (expected_ != nullptr) {
    auto it = expected_->find(s.expect_key);
    if (it != expected_->end()) want = &it->second;
  }
  if (want == nullptr) {
    Problem(s, "no stored expectation (rows " + std::to_string(out.rows) +
                   ", hash " + std::to_string(out.hash) + ")");
  } else if (want->rows != out.rows || want->hash != out.hash) {
    Problem(s, "result rows " + std::to_string(out.rows) + " hash " +
                   std::to_string(out.hash) + " differ from stored rows " +
                   std::to_string(want->rows) + " hash " +
                   std::to_string(want->hash));
  }
}

void Runner::RunExecute(const Statement& s, bool timed) {
  hana::Stopwatch watch;
  auto result = db_->Execute(s.sql);
  double ms = watch.ElapsedMillis();
  if (!result.ok()) {
    ++failed_;
    Problem(s, "failed: " + result.status().ToString());
    return;
  }
  Outcome out;
  if (s.select) {
    out = Describe(result->table);
    out.cache_hit = result->metrics.remote_cache_hit;
  } else {
    out.rows = static_cast<int64_t>(result->metrics.rows);
  }
  Check(s, out);
  if (!timed) return;
  latency_ms.Add(s.kind, ms);
  simulated_ms.Add(s.kind, result->metrics.simulated_remote_ms);
}

void Runner::RunTracedSelect(const Statement& s, bool timed) {
  auto fail = [&](const hana::Status& status) {
    ++failed_;
    Problem(s, "failed: " + status.ToString());
  };
  hana::Stopwatch watch;
  auto parsed = hana::sql::ParseStatement(s.sql);
  double parse = watch.ElapsedMillis();
  if (!parsed.ok()) return fail(parsed.status());
  if ((*parsed)->kind() != hana::sql::StmtKind::kSelect) {
    return fail(hana::Status::InvalidArgument("not a SELECT"));
  }
  const auto& stmt = static_cast<const hana::sql::SelectStmt&>(**parsed);

  watch.Reset();
  auto logical = hana::plan::BindSelectStatement(db_->catalog(), stmt);
  double bind = watch.ElapsedMillis();
  if (!logical.ok()) return fail(logical.status());

  // The same hint handling as Platform::PlanSelect.
  hana::optimizer::OptimizeContext ctx;
  ctx.catalog = &db_->catalog();
  ctx.sda = &db_->sda();
  ctx.options = db_->optimizer_options();
  ctx.options.use_remote_cache = false;
  for (const std::string& hint : stmt.hints) {
    if (hint == "USE_REMOTE_CACHE") ctx.options.use_remote_cache = true;
    if (hint == "NO_FEDERATION") ctx.options.enable_federation = false;
  }
  watch.Reset();
  hana::Status optimized = hana::optimizer::Optimize(&*logical, ctx);
  double optimize = watch.ElapsedMillis();
  if (!optimized.ok()) return fail(optimized);

  db_->sda().ResetStats();
  hana::extended::ExtendedStoreMetrics extended_before = ExtendedNow();
  double virtual_before = VirtualNowMs();
  double cpu_before = ProcessCpuSeconds();
  watch.Reset();
  auto table = hana::exec::ExecutePlan(**logical, db_);
  double exec = watch.ElapsedMillis();
  double cpu = ProcessCpuSeconds() - cpu_before;
  double remote = VirtualNowMs() - virtual_before;
  if (timed) AddExtended(extended_before);
  hana::federation::StatementRemoteStats stats = db_->sda().stats();
  if (!table.ok()) return fail(table.status());
  Outcome out = Describe(*table);
  out.cache_hit = stats.any_cache_hit;
  Check(s, out);

  watch.Reset();
  auto executed = db_->Execute(s.sql);
  double execute = watch.ElapsedMillis();
  if (!executed.ok()) return fail(executed.status());
  if (TableHash(executed->table) != out.hash) {
    Problem(s, "decomposed result differs from the Execute result");
  }
  if (!timed) return;
  verify_seconds += execute / 1000.0;
  double spans = parse + bind + optimize + exec;
  parse_ms.Add(s.kind, parse);
  bind_ms.Add(s.kind, bind);
  optimize_ms.Add(s.kind, optimize);
  exec_ms.Add(s.kind, exec);
  wrapper_ms.Add(s.kind, execute - spans);
  traced_ms.Add(s.kind, spans);
  remote_ms.Add(s.kind, remote);
  exec_cpu_seconds += cpu;
  exec_wall_seconds += exec / 1000.0;
  result_rows += out.rows;
  remote_calls += static_cast<int64_t>(stats.remote_calls);
  rows_fetched += static_cast<int64_t>(stats.rows_fetched);
  mr_jobs += static_cast<int64_t>(stats.mapreduce_jobs);
  if (ctx.options.use_remote_cache) {
    ++cache_requests;
    if (stats.any_cache_hit) ++cache_hits;
  }
}

void Runner::RunTracedDml(const Statement& s, bool timed) {
  hana::Stopwatch watch;
  auto parsed = hana::sql::ParseStatement(s.sql);
  double parse = watch.ElapsedMillis();
  if (!parsed.ok()) {
    ++failed_;
    Problem(s, "failed: " + parsed.status().ToString());
    return;
  }
  // Rows the catalog's UPDATE/DELETE path visits: every live row of the
  // target, hot and cold.
  int64_t held = 0;
  std::string target;
  if ((*parsed)->kind() == hana::sql::StmtKind::kUpdate) {
    target = static_cast<const hana::sql::UpdateStmt&>(**parsed).table;
  } else if ((*parsed)->kind() == hana::sql::StmtKind::kDelete) {
    target = static_cast<const hana::sql::DeleteStmt&>(**parsed).table;
  }
  if (!target.empty()) {
    auto entry = db_->catalog().GetTable(target);
    if (entry.ok()) held = static_cast<int64_t>((*entry)->LiveRows(db_->iq()));
  }
  hana::extended::ExtendedStoreMetrics extended_before = ExtendedNow();
  watch.Reset();
  auto result = db_->Execute(s.sql);
  double execute = watch.ElapsedMillis();
  if (timed) AddExtended(extended_before);
  if (!result.ok()) {
    ++failed_;
    Problem(s, "failed: " + result.status().ToString());
    return;
  }
  Outcome out;
  out.rows = static_cast<int64_t>(result->metrics.rows);
  Check(s, out);
  if (!timed) return;
  parse_ms.Add(s.kind, parse);
  dml_ms.Add(s.kind, execute - parse);
  traced_ms.Add(s.kind, execute);
  if (!target.empty()) {
    dml_rows_examined += held;
    dml_rows_changed += out.rows;
  }
}

}  // namespace perfbench
