// The SAP BW cold-data scenario of Section 3.1: a persistent staging
// area (PSA) mirrors extracted source data into the warehouse. It is
// rarely re-read after refinement, so it belongs on cheap disk — the
// extended storage. A hybrid sales DSO keeps recent partitions hot in
// memory and ages older data into cold IQ partitions; queries span both
// transparently (the Union Plan), and writes commit atomically across
// both engines via the distributed two-phase protocol.

#include <cstdio>

#include "common/util.h"
#include "platform/platform.h"
#include "txn/fault_injection.h"
#include "txn/participants.h"

using hana::Status;
using hana::Value;

namespace {

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  hana::platform::Platform db;

  std::printf("== 1. PSA on extended storage (direct load) ==\n\n");
  Check(db.Run(R"(
      CREATE TABLE psa_sales (request_id BIGINT, record BIGINT,
                              payload VARCHAR(40))
        USING EXTENDED STORAGE)"),
        "PSA table");
  std::vector<std::vector<Value>> staged;
  for (int64_t i = 0; i < 100000; ++i) {
    staged.push_back({Value::Int(i / 5000), Value::Int(i),
                      Value::String("src_record_" + std::to_string(i))});
  }
  hana::Stopwatch watch;
  Check(db.catalog().Insert("psa_sales", staged), "direct load");
  auto* store = db.iq()->store();
  auto psa = store->GetTable("PSA_SALES");
  Check(psa.status(), "psa lookup");
  std::printf(
      "loaded %zu PSA records in %.0f ms straight to disk: %zu row groups, "
      "%zu KB on disk (vs %zu KB raw)\n\n",
      staged.size(), watch.ElapsedMillis(), (*psa)->num_groups(),
      (*psa)->disk_bytes() / 1024, staged.size() * 40 / 1024);

  std::printf("== 2. Hybrid sales DSO with range partitions ==\n\n");
  Check(db.Run(R"(
      CREATE TABLE sales_dso (doc_id BIGINT, fiscal_month BIGINT,
                              amount DOUBLE)
        USING HYBRID EXTENDED STORAGE
        PARTITION BY RANGE (fiscal_month)
          (PARTITION VALUES < 24 COLD,
           PARTITION OTHERS HOT))"),
        "hybrid DSO");
  hana::Rng rng(5);
  std::vector<std::vector<Value>> docs;
  for (int64_t i = 0; i < 120000; ++i) {
    int64_t month = rng.Uniform(0, 35);  // 36 fiscal months; 24 are cold.
    docs.push_back({Value::Int(i), Value::Int(month),
                    Value::Double(rng.Uniform(100, 99999) / 100.0)});
  }
  Check(db.catalog().Insert("sales_dso", docs), "hybrid load");
  auto* entry = *db.catalog().GetTable("sales_dso");
  std::printf("partition residence after insert routing:\n");
  for (size_t p = 0; p < entry->partitions.size(); ++p) {
    const auto& partition = entry->partitions[p];
    size_t rows = partition.hot != nullptr
                      ? partition.hot->live_rows()
                      : (*store->GetTable(partition.cold_table))->live_rows();
    std::printf("  partition %zu (%s): %zu rows\n", p,
                partition.hot != nullptr ? "hot, in-memory" : "cold, IQ",
                rows);
  }

  auto all = db.Execute(R"(
      SELECT COUNT(*) AS docs, SUM(amount) AS total FROM sales_dso)");
  Check(all.status(), "span query");
  std::printf("\nquery spanning hot+cold (Union Plan): %s",
              all->table.ToString().c_str());
  auto hot_only = db.Execute(R"(
      SELECT COUNT(*) AS recent_docs FROM sales_dso
      WHERE fiscal_month >= 30)");
  Check(hot_only.status(), "pruned query");
  std::printf("recent-months query: %.1f ms (cold partition pruned)\n",
              hot_only->metrics.total_ms);
  auto plan = db.Explain(
      "SELECT COUNT(*) AS n FROM sales_dso WHERE fiscal_month >= 30");
  Check(plan.status(), "explain");
  std::printf("\npruned plan:\n%s\n", plan->c_str());

  std::printf("== 3. Aging: moving closed months to cold storage ==\n\n");
  // Month 24..29 close: re-partition by moving them under the cold bound
  // is modeled by the built-in aging run after the application updates
  // the partition ranges; here rows whose range now maps cold move out.
  auto moved = db.catalog().RunAging("sales_dso");
  Check(moved.status(), "aging");
  std::printf("aging run moved %zu rows (range re-evaluation)\n", *moved);

  std::printf("\n== 4. Distributed commit across memory and IQ ==\n\n");
  // A BW load request writes the hot DSO partition and the PSA archive
  // atomically: HANA coordinates the two-phase commit (Section 3.1).
  auto& coordinator = db.coordinator();
  auto* hot_partition = entry->partitions.back().hot.get();
  hana::txn::FaultInjector faults;
  hana::txn::ColumnTableParticipant memory("hana-imdb", hot_partition);
  hana::txn::ExtendedTableParticipant archive("hana-iq", *psa, &faults);

  hana::txn::TxnId txn = coordinator.Begin();
  Check(coordinator.Enlist(txn, &memory), "enlist memory");
  Check(coordinator.Enlist(txn, &archive), "enlist extended");
  for (int64_t i = 0; i < 1000; ++i) {
    Check(memory.StageInsert(txn, {Value::Int(900000 + i), Value::Int(30),
                                   Value::Double(42.0)}),
          "stage hot");
    Check(archive.StageInsert(txn, {Value::Int(999), Value::Int(900000 + i),
                                    Value::String("load_request_999")}),
          "stage psa");
  }
  size_t hot_before = hot_partition->live_rows();
  size_t psa_before = (*psa)->live_rows();
  Check(coordinator.Commit(txn), "2PC commit");
  std::printf("2PC commit: hot %zu -> %zu rows, PSA %zu -> %zu rows\n",
              hot_before, hot_partition->live_rows(), psa_before,
              (*psa)->live_rows());

  // Failure: the extended store becomes unreachable mid-transaction; the
  // whole transaction aborts ("the entire transaction will be aborted").
  txn = coordinator.Begin();
  Check(coordinator.Enlist(txn, &memory), "enlist memory");
  Check(coordinator.Enlist(txn, &archive), "enlist extended");
  Check(memory.StageInsert(
            txn, {Value::Int(999999), Value::Int(30), Value::Double(1.0)}),
        "stage");
  Check(archive.StageInsert(txn, {Value::Int(1000), Value::Int(999999),
                                  Value::String("x")}),
        "stage");
  faults.FailNext("hana-iq", hana::txn::FaultOp::kPrepare);
  Status failed = coordinator.Commit(txn);
  std::printf(
      "2PC with failing extended store: %s (rows unchanged: hot=%zu)\n",
      failed.ToString().c_str(), hot_partition->live_rows());

  // Crash after prepare: the transaction is in doubt until joint
  // recovery resolves it (presumed abort).
  txn = coordinator.Begin();
  Check(coordinator.Enlist(txn, &memory), "enlist");
  Check(coordinator.Enlist(txn, &archive), "enlist");
  Check(memory.StageInsert(
            txn, {Value::Int(999998), Value::Int(30), Value::Double(1.0)}),
        "stage");
  Check(archive.StageInsert(txn, {Value::Int(1001), Value::Int(999998),
                                  Value::String("y")}),
        "stage");
  coordinator.SetFailpoint(hana::txn::Failpoint::kAfterPrepare);
  Status crashed = coordinator.Commit(txn);
  std::printf("coordinator crash after prepare: %s\n",
              crashed.ToString().c_str());
  auto in_doubt = coordinator.InDoubt();
  std::printf("in-doubt transactions: %zu\n", in_doubt.size());
  coordinator.RegisterRecoveryParticipant(&memory);
  coordinator.RegisterRecoveryParticipant(&archive);
  Check(coordinator.Recover(), "joint recovery");
  std::printf("after joint recovery: %zu in doubt, hot rows=%zu "
              "(presumed abort)\n",
              coordinator.InDoubt().size(), hot_partition->live_rows());
  std::printf("\nBW cold-data scenario complete.\n");
  return 0;
}
