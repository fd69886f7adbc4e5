// CH-benCHmark-style HTAP stress (ctest labels: txn, concurrency):
// concurrent transactional writers against analytical snapshot readers
// on one shared order/lineitem pair.
//
// Writers drive multi-participant 2PC insert/update transactions (an
// update is a delete claim plus a re-insert) through a coordinator
// wired to one mvcc::VersionManager; a deterministic subset of
// transactions aborts through the PR-3 fault injector (prepare votes
// abort). Readers concurrently run TPC-H-shaped aggregates — Q1 (group
// by flag), Q6 (filtered revenue) and a Q3-style order/lineitem join —
// each over one MVCC snapshot.
//
// Correctness bar, checked post-run:
//   * every analytical result equals the serial replay of the
//     committed-transaction log up to the reader's snapshot timestamp
//     (no torn transactions, no uncommitted or aborted rows, join
//     atomicity across both tables);
//   * two runs with the same seed produce a byte-identical canonical
//     final state.
//
// A background merge thread folds deltas throughout, so the snapshot
// paths are also exercised against concurrent online merges.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mvcc.h"
#include "common/util.h"
#include "storage/column_table.h"
#include "txn/fault_injection.h"
#include "txn/participants.h"
#include "txn/two_phase.h"

namespace hana::txn {
namespace {

constexpr size_t kWriters = 4;
constexpr size_t kReaders = 2;
constexpr size_t kTxnsPerWriter = 40;
constexpr uint64_t kSeed = 0xc11be4c11ba5e;

// lineitem: l_key, l_orderkey, l_flag, l_qty, l_price, l_disc.
std::shared_ptr<Schema> LineitemSchema() {
  return std::make_shared<Schema>(std::vector<ColumnDef>{
      {"l_key", DataType::kInt64, false},
      {"l_orderkey", DataType::kInt64, false},
      {"l_flag", DataType::kInt64, false},
      {"l_qty", DataType::kInt64, false},
      {"l_price", DataType::kInt64, false},
      {"l_disc", DataType::kInt64, false}});
}

// orders: o_key, o_weight (the join payload Q3 aggregates).
std::shared_ptr<Schema> OrdersSchema() {
  return std::make_shared<Schema>(std::vector<ColumnDef>{
      {"o_key", DataType::kInt64, false},
      {"o_weight", DataType::kInt64, false}});
}

// One unboxed lineitem plus the weight of its order (the writer knows
// it; readers must recover it through the join).
struct LineVals {
  int64_t key = 0, okey = 0, flag = 0, qty = 0, price = 0, disc = 0;
  int64_t weight = 0;
};

// The three analytical answers. All integer arithmetic so replay
// equality is exact; every measure is linear in the row set, which is
// what makes "serial replay of the committed prefix" a sum of per-
// transaction deltas.
struct Aggregates {
  int64_t q1_count[2] = {0, 0};  // Q1: count by l_flag.
  int64_t q1_qty[2] = {0, 0};    // Q1: sum(l_qty) by l_flag.
  int64_t q1_price[2] = {0, 0};  // Q1: sum(l_price) by l_flag.
  int64_t q6_revenue = 0;        // Q6: sum(price*disc) filtered.
  int64_t q3_weighted = 0;       // Q3: sum(price*o_weight) via join.

  void Add(const LineVals& l, int64_t sign) {
    q1_count[l.flag] += sign;
    q1_qty[l.flag] += sign * l.qty;
    q1_price[l.flag] += sign * l.price;
    if (l.qty < 25 && l.disc >= 5) q6_revenue += sign * l.price * l.disc;
    q3_weighted += sign * l.price * l.weight;
  }

  bool operator==(const Aggregates& o) const {
    return q1_count[0] == o.q1_count[0] && q1_count[1] == o.q1_count[1] &&
           q1_qty[0] == o.q1_qty[0] && q1_qty[1] == o.q1_qty[1] &&
           q1_price[0] == o.q1_price[0] && q1_price[1] == o.q1_price[1] &&
           q6_revenue == o.q6_revenue && q3_weighted == o.q3_weighted;
  }

  std::string ToString() const {
    std::string s;
    for (int f = 0; f < 2; ++f) {
      s += "f" + std::to_string(f) + ":" + std::to_string(q1_count[f]) + "," +
           std::to_string(q1_qty[f]) + "," + std::to_string(q1_price[f]) + ";";
    }
    s += "q6:" + std::to_string(q6_revenue) +
         ";q3:" + std::to_string(q3_weighted);
    return s;
  }
};

// One analytical sample: everything the reader computed from one
// snapshot timestamp, plus join misses (lineitems whose order was not
// visible — must never happen).
struct Sample {
  mvcc::Timestamp read_ts = 0;
  Aggregates agg;
  size_t join_misses = 0;
};

// What one writer logs about a successfully committed transaction; the
// commit timestamp is joined in from the coordinator log afterwards.
struct CommittedTxn {
  TxnId txn = 0;
  Aggregates delta;
};

struct RunOutput {
  std::string canonical_state;  // Byte-compared across same-seed runs.
  std::vector<Sample> samples;
  std::vector<CommittedTxn> committed;
  std::map<TxnId, uint64_t> commit_ts;  // From the coordinator log.
  size_t aborted = 0;
};

// Computes the three aggregates from one MVCC snapshot of both tables
// (streamed through the vectorized-visibility Scan path).
Sample ReadSample(const storage::ColumnTable& orders,
                  const storage::ColumnTable& lineitem,
                  mvcc::VersionManager& vm) {
  Sample sample;
  mvcc::SnapshotHandle hold = vm.AcquireSnapshot();
  sample.read_ts = hold.read_ts();
  mvcc::ReadView view{sample.read_ts, 0};

  std::map<int64_t, int64_t> weight_of;
  orders.OpenSnapshot(view)->Scan(256, [&](const storage::Chunk& chunk) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      weight_of[chunk.columns[0]->GetInt(r)] =
          chunk.columns[1]->GetInt(r);
    }
    return true;
  });

  lineitem.OpenSnapshot(view)->Scan(256, [&](const storage::Chunk& chunk) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      LineVals l;
      l.okey = chunk.columns[1]->GetInt(r);
      l.flag = chunk.columns[2]->GetInt(r);
      l.qty = chunk.columns[3]->GetInt(r);
      l.price = chunk.columns[4]->GetInt(r);
      l.disc = chunk.columns[5]->GetInt(r);
      auto it = weight_of.find(l.okey);
      if (it == weight_of.end()) {
        ++sample.join_misses;  // Torn order/lineitem transaction.
        continue;
      }
      l.weight = it->second;
      sample.agg.Add(l, +1);
    }
    return true;
  });
  return sample;
}

// Finds the live row of `key` in the lineitem table (latest view).
// Returns num_rows() when absent.
size_t FindLiveRowByKey(const storage::ColumnTable& table, int64_t key) {
  size_t n = table.num_rows();
  for (size_t r = 0; r < n; ++r) {
    if (!table.IsVisibleLatest(r)) continue;
    if (table.GetCell(r, 0).AsInt() == key) return r;
  }
  return n;
}

// One seeded HTAP run. Fresh tables, version manager, coordinator and
// injector per run so two same-seed runs are fully independent.
RunOutput RunHtap(uint64_t seed) {
  mvcc::VersionManager vm;
  storage::ColumnTable orders(OrdersSchema());
  storage::ColumnTable lineitem(LineitemSchema());
  orders.SetVersionManager(&vm);
  lineitem.SetVersionManager(&vm);

  FaultInjector injector;
  TwoPhaseCoordinator coordinator;
  coordinator.SetVersionManager(&vm);
  coordinator.SetFaultInjector(&injector);

  // Per-writer participants (same tables, distinct names) so an armed
  // prepare failure deterministically hits its writer's transaction.
  std::vector<std::unique_ptr<ColumnTableParticipant>> order_parts;
  std::vector<std::unique_ptr<ColumnTableParticipant>> line_parts;
  std::vector<std::string> line_part_names;
  for (size_t w = 0; w < kWriters; ++w) {
    order_parts.push_back(std::make_unique<ColumnTableParticipant>(
        "orders.w" + std::to_string(w), &orders, &injector));
    line_part_names.push_back("lineitem.w" + std::to_string(w));
    line_parts.push_back(std::make_unique<ColumnTableParticipant>(
        line_part_names.back(), &lineitem, &injector));
  }

  // atomic: readers/merger poll the writers-done flag.
  std::atomic<bool> done{false};
  // atomic: infrastructure failures observed inside worker threads
  // (asserted zero after joining; gtest EXPECTs stay on the main
  // thread).
  std::atomic<size_t> unexpected_statuses{0};

  std::vector<std::vector<CommittedTxn>> committed_per_writer(kWriters);
  std::vector<size_t> aborted_per_writer(kWriters, 0);
  std::vector<std::vector<Sample>> samples_per_reader(kReaders);

  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(seed ^ (0x9e37 + w));
      std::map<int64_t, int64_t> own_order_weight;
      std::deque<LineVals> updatable;  // Own committed, not yet updated.
      for (size_t t = 0; t < kTxnsPerWriter; ++t) {
        const bool abort_txn = (t % 7) == 3;
        const bool update_txn = (t % 5) == 2 && !updatable.empty();

        TxnId txn = coordinator.Begin();
        if (!coordinator.Enlist(txn, order_parts[w].get()).ok() ||
            !coordinator.Enlist(txn, line_parts[w].get()).ok()) {
          ++unexpected_statuses;
          continue;
        }
        Aggregates delta;

        // One new order plus three lineitems per transaction.
        const int64_t okey =
            static_cast<int64_t>(w) * 1000000 + static_cast<int64_t>(t);
        const int64_t weight = rng.Uniform(1, 5);
        Status s = order_parts[w]->StageInsert(
            txn, {Value::Int(okey), Value::Int(weight)});
        std::vector<LineVals> staged_lines;
        for (int j = 0; j < 3 && s.ok(); ++j) {
          LineVals l;
          l.key = okey * 10 + j;
          l.okey = okey;
          l.flag = rng.Uniform(0, 1);
          l.qty = rng.Uniform(1, 50);
          l.price = rng.Uniform(100, 10000);
          l.disc = rng.Uniform(0, 10);
          l.weight = weight;
          s = line_parts[w]->StageInsert(
              txn, {Value::Int(l.key), Value::Int(l.okey), Value::Int(l.flag),
                    Value::Int(l.qty), Value::Int(l.price),
                    Value::Int(l.disc)});
          staged_lines.push_back(l);
          delta.Add(l, +1);
        }

        // Update: delete one of our own committed lineitems and
        // re-insert it with a new quantity (same key and order).
        LineVals updated;
        if (s.ok() && update_txn) {
          updated = updatable.front();
          size_t row = FindLiveRowByKey(lineitem, updated.key);
          if (row == lineitem.num_rows()) {
            ++unexpected_statuses;  // Our own committed row must exist.
          } else {
            s = line_parts[w]->StageDelete(txn, row);
            delta.Add(updated, -1);
            LineVals replacement = updated;
            replacement.qty = rng.Uniform(1, 50);
            if (s.ok()) {
              s = line_parts[w]->StageInsert(
                  txn, {Value::Int(replacement.key),
                        Value::Int(replacement.okey),
                        Value::Int(replacement.flag),
                        Value::Int(replacement.qty),
                        Value::Int(replacement.price),
                        Value::Int(replacement.disc)});
              delta.Add(replacement, +1);
              staged_lines.push_back(replacement);
            }
          }
        }
        if (!s.ok()) {
          ++unexpected_statuses;
          (void)coordinator.Abort(txn);
          continue;
        }

        if (abort_txn) {
          injector.FailNext(line_part_names[w], FaultOp::kPrepare);
        }
        Status commit = coordinator.Commit(txn);
        if (abort_txn) {
          if (commit.code() != StatusCode::kTransactionAborted) {
            ++unexpected_statuses;
          }
          ++aborted_per_writer[w];
          continue;  // Nothing became visible; `updatable` unchanged.
        }
        if (!commit.ok()) {
          ++unexpected_statuses;
          continue;
        }
        own_order_weight[okey] = weight;
        if (update_txn && !updatable.empty()) updatable.pop_front();
        for (const LineVals& l : staged_lines) updatable.push_back(l);
        committed_per_writer[w].push_back({txn, delta});
      }
    });
  }

  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        samples_per_reader[r].push_back(ReadSample(orders, lineitem, vm));
      }
      // One final sample over the fully committed state.
      samples_per_reader[r].push_back(ReadSample(orders, lineitem, vm));
    });
  }

  // Online merges throughout: scans must never block on (or be broken
  // by) a concurrent fold, and folds must honor the reader watermark.
  std::thread merger([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)lineitem.MergeDelta();
      (void)orders.MergeDelta();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  merger.join();

  EXPECT_EQ(unexpected_statuses.load(), 0u);

  RunOutput out;
  for (size_t w = 0; w < kWriters; ++w) {
    out.aborted += aborted_per_writer[w];
    for (const CommittedTxn& c : committed_per_writer[w]) {
      out.committed.push_back(c);
    }
  }
  for (size_t r = 0; r < kReaders; ++r) {
    for (const Sample& s : samples_per_reader[r]) out.samples.push_back(s);
  }
  for (const LogRecord& rec : coordinator.log()) {
    if (rec.kind == LogKind::kCommit) out.commit_ts[rec.txn] = rec.commit_id;
  }

  // Canonical final state: every visible row of both tables, sorted.
  std::vector<std::string> rows;
  auto dump = [&rows](const storage::ColumnTable& table, const char* tag) {
    table.OpenSnapshot()->Scan(256, [&](const storage::Chunk& chunk) {
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        std::string line(tag);
        for (const Value& v : chunk.Row(r)) line += "|" + v.ToString();
        rows.push_back(std::move(line));
      }
      return true;
    });
  };
  dump(orders, "O");
  dump(lineitem, "L");
  std::sort(rows.begin(), rows.end());
  for (const std::string& r : rows) {
    out.canonical_state += r;
    out.canonical_state += "\n";
  }
  return out;
}

// Serial replay: accumulate per-transaction deltas in commit-timestamp
// order, then check each sample against the prefix at its read_ts.
void VerifySamplesAgainstReplay(const RunOutput& out) {
  std::vector<std::pair<uint64_t, const Aggregates*>> by_ts;
  for (const CommittedTxn& c : out.committed) {
    auto it = out.commit_ts.find(c.txn);
    ASSERT_NE(it, out.commit_ts.end())
        << "committed txn " << c.txn << " missing from the coordinator log";
    by_ts.emplace_back(it->second, &c.delta);
  }
  std::sort(by_ts.begin(), by_ts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // prefix[i] = state after the first i committed transactions.
  std::vector<Aggregates> prefix(by_ts.size() + 1);
  for (size_t i = 0; i < by_ts.size(); ++i) {
    prefix[i + 1] = prefix[i];
    const Aggregates& d = *by_ts[i].second;
    for (int f = 0; f < 2; ++f) {
      prefix[i + 1].q1_count[f] += d.q1_count[f];
      prefix[i + 1].q1_qty[f] += d.q1_qty[f];
      prefix[i + 1].q1_price[f] += d.q1_price[f];
    }
    prefix[i + 1].q6_revenue += d.q6_revenue;
    prefix[i + 1].q3_weighted += d.q3_weighted;
  }

  size_t mismatches = 0;
  for (const Sample& s : out.samples) {
    EXPECT_EQ(s.join_misses, 0u)
        << "lineitem visible without its order at ts " << s.read_ts;
    // Committed transactions with ts <= read_ts form the prefix.
    size_t k = 0;
    while (k < by_ts.size() && by_ts[k].first <= s.read_ts) ++k;
    if (!(s.agg == prefix[k])) {
      ++mismatches;
      ADD_FAILURE() << "sample at ts " << s.read_ts
                    << " != committed prefix of " << k
                    << " txns:\n  got      " << s.agg.ToString()
                    << "\n  expected " << prefix[k].ToString();
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(HtapMixedTest, AnalyticsMatchCommittedPrefixesUnderConcurrentWriters) {
  RunOutput out = RunHtap(kSeed);

  // Sanity on the workload shape: every writer committed and aborted.
  EXPECT_EQ(out.aborted, kWriters * (kTxnsPerWriter / 7 + 1));
  EXPECT_EQ(out.committed.size(),
            kWriters * kTxnsPerWriter - out.aborted);
  // Both readers sampled, including their final full-state sample.
  EXPECT_GE(out.samples.size(), kReaders);

  VerifySamplesAgainstReplay(out);
}

TEST(HtapMixedTest, SameSeedRunsAreByteIdentical) {
  RunOutput a = RunHtap(kSeed);
  RunOutput b = RunHtap(kSeed);
  EXPECT_FALSE(a.canonical_state.empty());
  EXPECT_EQ(a.canonical_state, b.canonical_state);
  // The committed transaction sets replay to identical final states.
  EXPECT_EQ(a.committed.size(), b.committed.size());
  EXPECT_EQ(a.aborted, b.aborted);

  VerifySamplesAgainstReplay(a);
  VerifySamplesAgainstReplay(b);
}

}  // namespace
}  // namespace hana::txn
