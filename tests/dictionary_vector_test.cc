// Dictionary-form string vectors: main-store scans hand string columns
// to the executor as codes into the main's sorted dictionary. Checks
//   * the adopt-or-flatten rule and the accessors that resolve codes;
//   * every code-domain predicate (compares, IN, LIKE) on dictionary
//     and flat vectors against per-row EvalExpr, at NULL densities 0,
//     10% and 100%, with constants absent from the dictionary or sorting
//     before its first / after its last entry;
//   * group-key hashes against HashKey of the boxed key;
//   * string GROUP BY, joins and filters through SQL on merged tables
//     and on tables whose scans span main and delta, bit-identical at
//     threads 1/2/4/8 and equal to the all-delta (flat) tables;
//   * scans that hold dictionary chunks while concurrent MERGE DELTAs
//     switch the main (the aliasing pointer pins the old one).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "exec/evaluator.h"
#include "exec/pipeline.h"
#include "exec/radix_join.h"
#include "exec/vector_eval.h"
#include "platform/platform.h"
#include "sql/ast.h"
#include "storage/column_table.h"

namespace hana::exec {
namespace {

using plan::BoundExpr;
using plan::BoundExprPtr;
using plan::BoundKind;
using sql::BinaryOp;
using sql::UnaryOp;
using storage::Chunk;
using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::StringDictionary;
using storage::StringDictionaryPtr;

/// A dictionary the way a merge builds one: sorted, unique strings.
StringDictionaryPtr MakeDict(std::vector<std::string> words) {
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  auto dict = std::make_shared<StringDictionary>();
  for (std::string& w : words) dict->push_back(Value::String(std::move(w)));
  return dict;
}

/// Small: no more entries than most chunks (LIKE runs per entry).
StringDictionaryPtr SmallDict() {
  static const StringDictionaryPtr dict = MakeDict(
      {"AIR", "AIR REG", "MAIL", "SHIP", "a", "ab", "abc", "abd", "b", "b_c",
       "ba", "special packages requests", "special requests", "x%y", "zz"});
  return dict;
}

/// Large: more entries than any chunk (LIKE runs per row).
StringDictionaryPtr LargeDict() {
  static const StringDictionaryPtr dict = [] {
    std::vector<std::string> words = {"AIR", "MAIL", "ab", "abc",
                                      "special requests"};
    for (int i = 0; i < 3000; ++i) {
      words.push_back("w" + std::to_string(i * 7919 % 10007) +
                      (i % 3 == 0 ? " special x requests" : " plain"));
    }
    return MakeDict(std::move(words));
  }();
  return dict;
}

/// Columns of the kernel test chunk: two dictionary columns over one
/// dictionary (s, t) and a flat one (f).
enum Col : size_t { kS, kT, kF, kNumCols };

/// The same rows twice: `dict` holds s and t as codes, `flat` as owned
/// strings. `runs` appends runs of equal codes (null_rate 0 only).
struct ChunkPair {
  Chunk dict;
  Chunk flat;
};

ChunkPair MakeChunks(const StringDictionaryPtr& d, size_t n, double null_rate,
                     bool runs, uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto code = [&] {
    return std::uniform_int_distribution<uint32_t>(
        0, static_cast<uint32_t>(d->size() - 1))(rng);
  };
  ChunkPair out;
  for (size_t c = 0; c < kNumCols; ++c) {
    auto dv = std::make_shared<ColumnVector>(DataType::kString);
    auto fv = std::make_shared<ColumnVector>(DataType::kString);
    std::vector<uint32_t> codes;
    std::vector<uint8_t> nulls;
    while (codes.size() < n) {
      const size_t len =
          runs ? std::min<size_t>(
                     n - codes.size(),
                     std::uniform_int_distribution<size_t>(1, 40)(rng))
               : 1;
      const uint32_t k = code();
      const bool null = std::bernoulli_distribution(null_rate)(rng);
      if (runs) dv->AppendCodeRun(d, k, len);
      for (size_t i = 0; i < len; ++i) {
        codes.push_back(null ? 0 : k);
        nulls.push_back(null ? 1 : 0);
        fv->Append(null ? Value::Null() : (*d)[k]);
      }
    }
    if (!runs) dv->AppendCodes(d, codes.data(), nulls.data(), n);
    if (c == kF) dv = fv;  // The flat column is flat in both chunks.
    if (n > 0 && c != kF && null_rate < 1.0) {
      EXPECT_EQ(dv->dictionary(), d);
    }
    if (runs && n > 0 && c != kF) {
      EXPECT_TRUE(dv->run_indexed());
    }
    out.dict.columns.push_back(std::move(dv));
    out.flat.columns.push_back(std::move(fv));
  }
  return out;
}

BoundExprPtr C(size_t c) {
  return BoundExpr::Column(c, DataType::kString, "c" + std::to_string(c));
}
BoundExprPtr S(const std::string& s) {
  return BoundExpr::Literal(Value::String(s), DataType::kString);
}
BoundExprPtr Bin(BinaryOp op, BoundExprPtr a, BoundExprPtr b) {
  return BoundExpr::Binary(static_cast<int>(op), DataType::kBool,
                           std::move(a), std::move(b));
}
BoundExprPtr Not(BoundExprPtr a) {
  auto e = BoundExpr::Unary(static_cast<int>(UnaryOp::kNot), std::move(a));
  e->type = DataType::kBool;
  return e;
}
BoundExprPtr In(BoundExprPtr a, const std::vector<Value>& items,
                bool negated) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kInList;
  e->type = DataType::kBool;
  e->negated = negated;
  e->child0 = std::move(a);
  for (const Value& v : items) {
    e->in_list.push_back(BoundExpr::Literal(v, v.type()));
  }
  return e;
}

/// Constants: present, absent between entries, before the first entry
/// and after the last one.
const std::vector<std::string>& Constants() {
  static const auto* c = new std::vector<std::string>{
      "ab", "MAIL", "special requests", "zz", "aa", "abcd", "b_", "", "A",
      "~~", "w5 plain"};
  return *c;
}

const std::vector<std::string>& Patterns() {
  static const auto* p = new std::vector<std::string>{
      "a%",  "ab%",       "%",       "abc",       "",   "zz%",  "~%",
      "A%",  "AIR%",      "%req%",   "special%requests",  "b_c",  "_",
      "%a_", "x%y",       "w1%",     "%special%requests%", "ab",  "s%s"};
  return *p;
}

/// Predicates over the test chunk: every comparison with a constant on
/// either side, column against column, IN and LIKE shapes, and AND / OR
/// mixes so the right side runs on a selection.
std::vector<BoundExprPtr> Predicates() {
  std::vector<BoundExprPtr> out;
  const BinaryOp cmps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                           BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  for (BinaryOp op : cmps) {
    for (const std::string& c : Constants()) {
      out.push_back(Bin(op, C(kS), S(c)));
      out.push_back(Bin(op, S(c), C(kS)));
    }
    out.push_back(Bin(op, C(kS), C(kT)));
    out.push_back(Bin(op, C(kF), C(kS)));
  }
  const std::vector<std::vector<Value>> lists = {
      {Value::String("ab"), Value::String("MAIL")},
      {Value::String("ab"), Value::Null()},
      {Value::String("absent"), Value::String("~~")},
      {Value::Null()},
      {Value::String("special requests"), Value::String("abd"),
       Value::String("zz"), Value::String("")}};
  for (const auto& items : lists) {
    out.push_back(In(C(kS), items, false));
    out.push_back(In(C(kS), items, true));
  }
  for (const std::string& p : Patterns()) {
    out.push_back(Bin(BinaryOp::kLike, C(kS), S(p)));
  }
  out.push_back(Bin(BinaryOp::kLike, C(kS), C(kT)));
  out.push_back(Bin(BinaryOp::kAnd, Bin(BinaryOp::kLt, C(kT), S("b")),
                    Bin(BinaryOp::kLike, C(kS), S("%a%"))));
  out.push_back(Bin(BinaryOp::kOr, Bin(BinaryOp::kEq, C(kT), S("ab")),
                    In(C(kS), {Value::String("zz"), Value::String("b")},
                       true)));
  out.push_back(Bin(BinaryOp::kAnd, Bin(BinaryOp::kGe, C(kS), S("b")),
                    Bin(BinaryOp::kLike, C(kT), S("ab%"))));
  return out;
}

/// Per-row verdicts of `e` on `chunk` through the scalar EvalExpr:
/// 2 TRUE, 1 NULL, 0 FALSE.
std::vector<int> Reference(const BoundExpr& e, const Chunk& chunk) {
  std::vector<int> out;
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    Result<Value> v = EvalExpr(e, chunk, r);
    EXPECT_TRUE(v.ok());
    if (!v.ok() || v->is_null()) {
      out.push_back(1);
    } else {
      out.push_back(IsTruthy(*v) ? 2 : 0);
    }
  }
  return out;
}

/// Kleene verdicts through the kernels: TRUE rows of `e`, FALSE rows of
/// NOT `e`, the rest NULL.
std::vector<int> Kernel(const BoundExpr& e, const Chunk& chunk) {
  std::vector<uint8_t> yes, no;
  EXPECT_TRUE(SelectRows(e, chunk, &yes).ok());
  BoundExprPtr negated = Not(e.Clone());
  EXPECT_TRUE(SelectRows(*negated, chunk, &no).ok());
  std::vector<int> out;
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    EXPECT_FALSE(yes[r] && no[r]);
    out.push_back(yes[r] ? 2 : (no[r] ? 0 : 1));
  }
  return out;
}

// ---------------------------------------------------------------------
// Adopt or flatten
// ---------------------------------------------------------------------

TEST(DictionaryVector, EmptyAndNullOnlyVectorsAdopt) {
  StringDictionaryPtr d = SmallDict();
  const uint32_t codes[] = {3, 0, 5};
  const uint8_t nulls[] = {0, 1, 0};
  uint64_t flattened = 0;
  storage::DictFlattenScope scope(&flattened);

  ColumnVector empty(DataType::kString);
  empty.AppendCodes(d, codes, nulls, 3);
  EXPECT_EQ(empty.dictionary(), d);
  EXPECT_EQ(empty.GetString(0), (*d)[3].string_value());
  EXPECT_TRUE(empty.IsNull(1));
  EXPECT_EQ(empty.GetValue(2).string_value(), (*d)[5].string_value());

  ColumnVector nulls_first(DataType::kString);
  nulls_first.AppendNull();
  nulls_first.AppendNull();
  nulls_first.AppendCodes(d, codes, nullptr, 1);
  EXPECT_EQ(nulls_first.dictionary(), d);
  ASSERT_EQ(nulls_first.size(), 3u);
  EXPECT_TRUE(nulls_first.IsNull(0) && nulls_first.IsNull(1));
  EXPECT_EQ(nulls_first.GetString(2), (*d)[3].string_value());

  // NULLs and rows of the same dictionary keep the codes.
  nulls_first.Append(Value::Null());
  nulls_first.AppendFrom(empty, 0);
  nulls_first.AppendGather(empty, std::vector<uint32_t>{2, 1, 0}.data(), 3);
  nulls_first.AppendCodeRun(d, 7, 4);
  EXPECT_EQ(nulls_first.dictionary(), d);
  EXPECT_EQ(nulls_first.size(), 12u);
  EXPECT_TRUE(nulls_first.IsNull(6));
  EXPECT_EQ(nulls_first.GetString(11), (*d)[7].string_value());
  EXPECT_EQ(flattened, 0u);
}

TEST(DictionaryVector, ForeignRowsFlattenAndCount) {
  StringDictionaryPtr d = SmallDict();
  StringDictionaryPtr other = LargeDict();
  const uint32_t codes[] = {1, 2, 3, 4};
  auto fresh = [&] {
    ColumnVector v(DataType::kString);
    v.AppendCodes(d, codes, nullptr, 4);
    return v;
  };
  auto expect_flat = [&](const ColumnVector& v, size_t rows) {
    EXPECT_EQ(v.dictionary(), nullptr);
    ASSERT_EQ(v.size(), rows);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(v.GetString(i), (*d)[codes[i]].string_value());
      EXPECT_EQ(v.strings_data()[i], (*d)[codes[i]].string_value());
    }
  };
  {  // Another dictionary: 4 flattened + 1 appended row.
    uint64_t flattened = 0;
    storage::DictFlattenScope scope(&flattened);
    ColumnVector v = fresh();
    v.AppendCodes(other, codes, nullptr, 1);
    expect_flat(v, 5);
    EXPECT_EQ(v.GetString(4), (*other)[1].string_value());
    EXPECT_EQ(flattened, 5u);
  }
  {  // A flat row.
    uint64_t flattened = 0;
    storage::DictFlattenScope scope(&flattened);
    ColumnVector v = fresh();
    ColumnVector flat(DataType::kString);
    flat.AppendString("delta row");
    v.AppendFrom(flat, 0);
    expect_flat(v, 5);
    EXPECT_EQ(v.GetString(4), "delta row");
    EXPECT_EQ(flattened, 4u);
  }
  {  // A boxed string, then rows of the old dictionary stay flat.
    uint64_t flattened = 0;
    storage::DictFlattenScope scope(&flattened);
    ColumnVector v = fresh();
    v.Append(Value::String("boxed"));
    ColumnVector src = fresh();
    v.AppendGather(src, std::vector<uint32_t>{0, 3}.data(), 2);
    expect_flat(v, 7);
    EXPECT_EQ(v.GetString(6), (*d)[4].string_value());
    EXPECT_EQ(flattened, 6u);
  }
  {  // In-place kernels get the flat form.
    ColumnVector v = fresh();
    v.Resize(6);
    expect_flat(v, 6);
    EXPECT_EQ(v.GetString(5), "");
  }
  {  // TakeValue copies out of the dictionary and leaves it intact.
    ColumnVector v = fresh();
    EXPECT_EQ(v.TakeValue(0).string_value(), (*d)[1].string_value());
    EXPECT_EQ(v.GetString(0), (*d)[1].string_value());
  }
}

TEST(DictionaryVector, CellHashAndEqualityResolveThroughTheDictionary) {
  StringDictionaryPtr d = SmallDict();
  StringDictionaryPtr big = LargeDict();
  ColumnVector a(DataType::kString), b(DataType::kString),
      flat(DataType::kString);
  for (uint32_t k = 0; k < d->size(); ++k) a.AppendCodes(d, &k, nullptr, 1);
  for (uint32_t k = d->size(); k-- > 0;) b.AppendCodes(d, &k, nullptr, 1);
  for (const Value& v : *d) flat.Append(v);
  const uint32_t ab = static_cast<uint32_t>(
      std::find(big->begin(), big->end(), Value::String("ab")) - big->begin());
  ColumnVector foreign(DataType::kString);
  foreign.AppendCodes(big, &ab, nullptr, 1);
  const size_t n = d->size();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(HashCell(a, i), (*d)[i].Hash());
    EXPECT_EQ(HashCell(a, i), HashCell(flat, i));
    for (size_t j = 0; j < n; ++j) {
      const bool equal = (*d)[i] == (*d)[n - 1 - j];
      EXPECT_EQ(CellsEqual(a, i, b, j), equal);
      EXPECT_EQ(CellsEqual(a, i, flat, n - 1 - j), equal);
    }
    EXPECT_EQ(CellsEqual(a, i, foreign, 0),
              (*d)[i].string_value() == "ab");
  }
}

// ---------------------------------------------------------------------
// Predicates on codes
// ---------------------------------------------------------------------

TEST(DictionaryVector, PredicatesMatchPerRowEvalExpr) {
  const std::vector<BoundExprPtr> predicates = Predicates();
  uint64_t seed = 1;
  for (const StringDictionaryPtr& d : {SmallDict(), LargeDict()}) {
    for (size_t n : {size_t{1}, size_t{7}, size_t{700}, size_t{2048}}) {
      for (double null_rate : {0.0, 0.1, 1.0}) {
        for (bool runs : {false, true}) {
          if (runs && null_rate > 0.0) continue;
          ChunkPair chunks = MakeChunks(d, n, null_rate, runs, seed++);
          uint64_t scalar_rows = 0;
          uint64_t flattened = 0;
          ScalarRowScope scope(&scalar_rows);
          storage::DictFlattenScope flatten_scope(&flattened);
          for (const BoundExprPtr& e : predicates) {
            const std::vector<int> want = Reference(*e, chunks.flat);
            const std::string where = e->ToString() + " n=" +
                                      std::to_string(n) + " nulls=" +
                                      std::to_string(null_rate) +
                                      (runs ? " runs" : "") + " dict=" +
                                      std::to_string(d->size());
            EXPECT_EQ(Kernel(*e, chunks.dict), want) << where;
            EXPECT_EQ(Kernel(*e, chunks.flat), want) << where;
            EXPECT_EQ(Reference(*e, chunks.dict), want) << where;
          }
          EXPECT_EQ(flattened, 0u);
        }
      }
    }
  }
}

TEST(DictionaryVector, ValuesMatchPerRowEvalExpr) {
  // Bare columns pass the codes through; a CASE copies dictionary
  // strings into its computed vector (counted as flattened rows).
  ChunkPair chunks = MakeChunks(SmallDict(), 300, 0.1, false, 77);
  auto when = Bin(BinaryOp::kLt, C(kS), S("b"));
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kCase;
  e->type = DataType::kString;
  e->when_clauses.emplace_back(std::move(when), C(kT));
  e->child1 = S("other");
  uint64_t flattened = 0;
  storage::DictFlattenScope scope(&flattened);
  Result<ColumnVectorPtr> bare = EvalExprColumn(*C(kS), chunks.dict);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->get(), chunks.dict.columns[kS].get());
  Result<ColumnVectorPtr> out = EvalExprColumn(*e, chunks.dict);
  ASSERT_TRUE(out.ok());
  size_t taken = 0;
  for (size_t r = 0; r < chunks.dict.num_rows(); ++r) {
    Result<Value> want = EvalExpr(*e, chunks.flat, r);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ((*out)->GetValue(r).Compare(*want), 0) << r;
    Result<Value> cond = EvalExpr(*e->when_clauses[0].first, chunks.flat, r);
    taken += !cond->is_null() && IsTruthy(*cond);
  }
  EXPECT_EQ(flattened, taken);
}

// ---------------------------------------------------------------------
// Group keys
// ---------------------------------------------------------------------

TEST(DictionaryVector, GroupKeyHashesEqualHashKeyOfTheBoxedKey) {
  for (const StringDictionaryPtr& d : {SmallDict(), LargeDict()}) {
    for (double null_rate : {0.0, 0.1, 1.0}) {
      ChunkPair chunks = MakeChunks(d, 1500, null_rate, false, 5);
      std::vector<BoundExprPtr> group_by;
      group_by.push_back(C(kS));
      group_by.push_back(C(kF));
      group_by.push_back(C(kT));
      AggKeyBlock keys;
      // Twice: the second chunk reuses the per-code hash cache.
      for (int pass = 0; pass < 2; ++pass) {
        ASSERT_TRUE(keys.Compute(group_by, chunks.dict).ok());
        for (size_t r = 0; r < chunks.dict.num_rows(); ++r) {
          std::vector<Value> boxed = {chunks.flat.columns[kS]->GetValue(r),
                                      chunks.flat.columns[kF]->GetValue(r),
                                      chunks.flat.columns[kT]->GetValue(r)};
          ASSERT_EQ(keys.hashes()[r], HashKey(boxed))
              << "row " << r << " dict " << d->size();
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// SQL: main-only and main + delta tables, every thread count
// ---------------------------------------------------------------------

std::string Word(std::mt19937_64& rng) {
  static const char* kWords[] = {"AIR",   "AIR REG", "MAIL",  "SHIP",
                                 "TRUCK", "FOB",     "RAIL",  "REG AIR",
                                 "a",     "ab",      "abc",   "b_c"};
  return kWords[std::uniform_int_distribution<int>(0, 11)(rng)];
}

std::string Comment(std::mt19937_64& rng, int i) {
  std::string s = "c" + std::to_string(i * 31 % 997);
  if (i % 5 == 0) s += " special";
  if (i % 3 == 0) s += " requests";
  return s + (Word(rng) == "AIR" ? " air" : "");
}

/// Loads t(k, mode, cmt) and d(mode, label) into `db`. `merged_rows`
/// rows of t go through MERGE DELTA (0: all in the delta), the rest stay
/// in the delta after it.
void Load(platform::Platform* db, size_t rows, size_t merged_rows) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE t (k BIGINT, mode VARCHAR, cmt VARCHAR)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE d (mode VARCHAR, label VARCHAR)").ok());
  std::mt19937_64 rng(11);
  std::vector<std::vector<Value>> t_rows;
  for (size_t i = 0; i < rows; ++i) {
    t_rows.push_back({Value::Int(static_cast<int64_t>(i % 97)),
                      i % 13 == 0 ? Value::Null() : Value::String(Word(rng)),
                      i % 17 == 0 ? Value::Null()
                                  : Value::String(Comment(rng, static_cast<int>(i)))});
  }
  std::vector<std::vector<Value>> d_rows;
  for (const char* m : {"AIR", "MAIL", "SHIP", "FOB", "ab", "zz"}) {
    d_rows.push_back({Value::String(m), Value::String(std::string("L-") + m)});
  }
  d_rows.push_back({Value::Null(), Value::String("null mode")});
  ASSERT_TRUE(db->catalog().Insert("d", d_rows).ok());
  if (merged_rows > 0) {
    std::vector<std::vector<Value>> head(t_rows.begin(),
                                         t_rows.begin() + merged_rows);
    ASSERT_TRUE(db->catalog().Insert("t", head).ok());
    ASSERT_TRUE(db->Execute("MERGE DELTA OF t").ok());
    ASSERT_TRUE(db->Execute("MERGE DELTA OF d").ok());
  }
  std::vector<std::vector<Value>> tail(t_rows.begin() + merged_rows,
                                       t_rows.end());
  if (!tail.empty()) {
    ASSERT_TRUE(db->catalog().Insert("t", tail).ok());
  }
}

const std::vector<std::string>& Queries() {
  static const auto* q = new std::vector<std::string>{
      "SELECT mode, COUNT(*), SUM(k) FROM t GROUP BY mode",
      "SELECT mode, cmt, COUNT(*) FROM t WHERE cmt LIKE 'c1%' GROUP BY mode, "
      "cmt",
      "SELECT COUNT(*) FROM t WHERE cmt NOT LIKE '%special%requests%'",
      "SELECT COUNT(*), MIN(cmt), MAX(mode) FROM t WHERE mode IN ('AIR', "
      "'AIR REG', 'absent')",
      "SELECT k, mode FROM t WHERE mode >= 'R' AND mode < 'TRUCK' AND k < 5",
      "SELECT t.k, d.label, t.cmt FROM t JOIN d ON t.mode = d.mode WHERE "
      "t.cmt LIKE 'c2%'",
      "SELECT d.label, COUNT(*) FROM t JOIN d ON t.mode = d.mode GROUP BY "
      "d.label",
      "SELECT d.mode, d.label FROM d WHERE d.mode IN (SELECT mode FROM t "
      "WHERE cmt LIKE '%special%')",
      "SELECT mode, COUNT(*) FROM t WHERE mode <> 'MAIL' AND cmt LIKE "
      "'c_1%' GROUP BY mode"};
  return *q;
}

/// Every query's rows, rendered exactly (doubles via ToString), run at
/// `threads`.
std::vector<std::string> RunAll(platform::Platform* db, int threads,
                                uint64_t* flattened) {
  EXPECT_TRUE(db->SetParameter("threads", std::to_string(threads)).ok());
  std::vector<std::string> out;
  for (const std::string& sql : Queries()) {
    Result<storage::Table> result = db->Query(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (!result.ok()) {
      out.emplace_back();
      continue;
    }
    for (const exec::PipelineStats& p : db->last_pipeline_stats()) {
      *flattened += p.dict_flattened_rows;
    }
    out.push_back(result->ToString(1u << 20));
  }
  return out;
}

TEST(DictionaryVector, SqlResultsMatchFlatTablesAtEveryThreadCount) {
  constexpr size_t kRows = 6000;
  platform::PlatformOptions options;
  options.attach_extended = false;
  options.start_hadoop = false;
  platform::Platform flat(options);
  Load(&flat, kRows, 0);
  ASSERT_TRUE(flat.SetParameter("morsel_rows", "512").ok());
  uint64_t ignored = 0;
  const std::vector<std::string> want = RunAll(&flat, 1, &ignored);

  platform::Platform merged(options);
  Load(&merged, kRows, kRows);
  ASSERT_TRUE(merged.SetParameter("morsel_rows", "512").ok());
  platform::Platform mixed(options);
  Load(&mixed, kRows, kRows - 700);  // Scans span main and delta.
  ASSERT_TRUE(mixed.SetParameter("morsel_rows", "512").ok());
  for (int threads : {1, 2, 4, 8}) {
    uint64_t merged_flattened = 0;
    EXPECT_EQ(RunAll(&merged, threads, &merged_flattened), want)
        << "merged, threads " << threads;
    // A fully merged table keeps every string in dictionary form.
    EXPECT_EQ(merged_flattened, 0u) << "threads " << threads;
    uint64_t mixed_flattened = 0;
    EXPECT_EQ(RunAll(&mixed, threads, &mixed_flattened), want)
        << "main + delta, threads " << threads;
  }
}

// ---------------------------------------------------------------------
// Lifetime across a concurrent MERGE DELTA
// ---------------------------------------------------------------------

TEST(DictionaryVector, ChunksPinTheirMainAcrossConcurrentMerges) {
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"k", DataType::kInt64, false}, {"s", DataType::kString, true}});
  storage::ColumnTable table(schema);
  std::mt19937_64 rng(3);
  std::vector<std::vector<Value>> rows;
  size_t matching = 0;
  for (int i = 0; i < 5000; ++i) {
    std::string s = Comment(rng, i);
    matching += s.rfind("c1", 0) == 0;
    rows.push_back({Value::Int(i), Value::String(std::move(s))});
  }
  ASSERT_TRUE(table.AppendRows(rows).ok());
  ASSERT_TRUE(table.MergeDelta().ok());

  // Rows the writer appends never match the readers' predicate.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int round = 0; round < 30; ++round) {
      std::vector<std::vector<Value>> batch;
      for (int i = 0; i < 200; ++i) {
        batch.push_back({Value::Int(round),
                         Value::String("z" + std::to_string(round * 1000 + i))});
      }
      EXPECT_TRUE(table.AppendRows(batch).ok());
      EXPECT_TRUE(table.MergeDelta().ok());
    }
    stop.store(true);
  });
  auto like = Bin(BinaryOp::kLike, C(1), S("c1%"));
  auto eq = Bin(BinaryOp::kEq, C(1), S("z5"));
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      do {
        // Hold the chunks (and so the main they decode) past the
        // merges the writer runs meanwhile, then read them.
        std::vector<Chunk> held;
        table.OpenSnapshot()->Scan(256, [&](const Chunk& chunk) {
          held.push_back(chunk);
          return true;
        });
        std::this_thread::yield();
        size_t hits = 0;
        for (const Chunk& chunk : held) {
          std::vector<uint8_t> mask;
          ASSERT_TRUE(SelectRows(*like, chunk, &mask).ok());
          for (size_t r = 0; r < chunk.num_rows(); ++r) {
            const std::string& s = chunk.columns[1]->GetString(r);
            ASSERT_EQ(mask[r] != 0, s.rfind("c1", 0) == 0) << s;
            hits += mask[r];
          }
          ASSERT_TRUE(SelectRows(*eq, chunk, &mask).ok());
        }
        ASSERT_EQ(hits, matching);
      } while (!stop.load());
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();
}

}  // namespace
}  // namespace hana::exec
