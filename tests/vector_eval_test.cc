// Differential test of the vectorized expression evaluator against the
// scalar reference (EvalExpr row by row): every kernel shape, random
// expression trees three levels deep, over int64 / DATE / double /
// string columns at NULL densities 0, 10% and 100%, chunk sizes 0, 1,
// 7 and 2048, plain and run-indexed vectors. Values must match bit for
// bit (doubles by memcmp), predicates row for row, and errors by Status
// and SelectRows mask prefix. Also the integer-overflow semantics both
// evaluators share.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "exec/evaluator.h"
#include "exec/vector_eval.h"
#include "hadoop/hive.h"
#include "platform/platform.h"
#include "sql/ast.h"

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

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

// Columns of the test chunk.
enum Col : size_t { kI, kJ, kD, kE, kT, kS, kU, kK, kNumCols };
constexpr DataType kColTypes[kNumCols] = {
    DataType::kInt64,  DataType::kInt64, DataType::kDouble,
    DataType::kDouble, DataType::kDate,  DataType::kString,
    DataType::kString, DataType::kInt64};

const std::vector<std::string>& Words() {
  static const auto* words = new std::vector<std::string>{
      "", "a", "ab", "abc", "ba", "special requests", "b_c", "12", "x%y",
      "MAIL", "SHIP", "speciXl", "7", "special packages requests"};
  return *words;
}

/// A random cell value of column c.
Value RandomValue(size_t c, std::mt19937_64& rng) {
  auto pick = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  switch (c) {
    case kI:
    case kJ:
      return Value::Int(pick(-20, 20));
    case kD:
    case kE:
      return Value::Double(static_cast<double>(pick(-20, 20)) * 0.25);
    case kT:
      return Value::Date(9000 + pick(0, 100));
    case kS:
    case kU:
      return Value::String(Words()[pick(0, Words().size() - 1)]);
    default: {  // kK: near the int64 edges, to trip overflow checks.
      const int64_t edges[] = {kMax, kMin, kMax - 1, kMin + 1, 1LL << 62,
                               -(1LL << 62), 3, -1, 0};
      return Value::Int(edges[pick(0, 8)]);
    }
  }
}

/// A chunk of n rows; each cell NULL with probability `null_rate`.
/// Run-indexed chunks (null_rate 0 only) append runs of 1..40 equal
/// values, the way the RLE decoder does.
Chunk MakeChunk(size_t n, double null_rate, bool runs, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Chunk chunk;
  for (size_t c = 0; c < kNumCols; ++c) {
    auto col = std::make_shared<ColumnVector>(kColTypes[c]);
    if (runs) {
      while (col->size() < n) {
        size_t len = std::min<size_t>(
            n - col->size(), std::uniform_int_distribution<size_t>(1, 40)(rng));
        Value v = RandomValue(c, rng);
        switch (kColTypes[c]) {
          case DataType::kDouble:
            col->AppendDoubleRun(v.double_value(), len);
            break;
          case DataType::kString:
            col->AppendStringRun(v.string_value(), len);
            break;
          default:
            col->AppendIntRun(v.int_value(), len);
            break;
        }
      }
      EXPECT_TRUE(n == 0 || col->run_indexed());
    } else {
      for (size_t r = 0; r < n; ++r) {
        bool null = std::bernoulli_distribution(null_rate)(rng);
        col->Append(null ? Value::Null() : RandomValue(c, rng));
      }
    }
    chunk.columns.push_back(std::move(col));
  }
  return chunk;
}

// Expression builders mirroring the binder's typing.
BoundExprPtr C(size_t c) {
  return BoundExpr::Column(c, kColTypes[c], "c" + std::to_string(c));
}
BoundExprPtr L(Value v) {
  DataType t = v.type();
  return BoundExpr::Literal(std::move(v), t);
}
DataType Promote(DataType a, DataType b) {
  if (a == DataType::kDouble || b == DataType::kDouble) {
    return DataType::kDouble;
  }
  if (a == DataType::kNull) return b;
  if (b == DataType::kNull) return a;
  return DataType::kInt64;
}
BoundExprPtr B(BinaryOp op, BoundExprPtr a, BoundExprPtr b) {
  DataType type = DataType::kBool;
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
      if (a->type == DataType::kDate || b->type == DataType::kDate) {
        type = a->type == DataType::kDate && b->type == DataType::kDate
                   ? DataType::kInt64
                   : DataType::kDate;
      } else {
        type = Promote(a->type, b->type);
      }
      break;
    case BinaryOp::kMul:
      type = Promote(a->type, b->type);
      break;
    case BinaryOp::kDiv:
      type = DataType::kDouble;
      break;
    case BinaryOp::kMod:
      type = DataType::kInt64;
      break;
    default:
      break;
  }
  return BoundExpr::Binary(static_cast<int>(op), type, std::move(a),
                           std::move(b));
}
BoundExprPtr Not(BoundExprPtr a) {
  auto e = BoundExpr::Unary(static_cast<int>(UnaryOp::kNot), std::move(a));
  e->type = DataType::kBool;
  return e;
}
BoundExprPtr Neg(BoundExprPtr a) {
  DataType t = a->type == DataType::kDouble ? DataType::kDouble
                                             : DataType::kInt64;
  auto e = BoundExpr::Unary(static_cast<int>(UnaryOp::kNeg), std::move(a));
  e->type = t;
  return e;
}
BoundExprPtr Cast(BoundExprPtr a, DataType to) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kCast;
  e->type = to;
  e->child0 = std::move(a);
  return e;
}
BoundExprPtr Case(std::vector<std::pair<BoundExprPtr, BoundExprPtr>> whens,
                  BoundExprPtr otherwise) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kCase;
  DataType type = DataType::kNull;
  for (auto& [when, then] : whens) {
    type = type == DataType::kNull
               ? then->type
               : (then->type == DataType::kString ? DataType::kString
                                                  : Promote(type, then->type));
    e->when_clauses.emplace_back(std::move(when), std::move(then));
  }
  if (otherwise != nullptr) {
    type = otherwise->type == DataType::kString
               ? DataType::kString
               : Promote(type, otherwise->type);
    e->child1 = std::move(otherwise);
  }
  e->type = type;
  return e;
}
BoundExprPtr Fn(const std::string& name, DataType type,
                std::vector<BoundExprPtr> args) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kFunction;
  e->function_name = name;
  e->type = type;
  e->args = std::move(args);
  return e;
}
BoundExprPtr In(BoundExprPtr a, std::vector<Value> items, bool negated) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kInList;
  e->type = DataType::kBool;
  e->negated = negated;
  e->child0 = std::move(a);
  for (Value& v : items) e->in_list.push_back(L(std::move(v)));
  return e;
}
BoundExprPtr IsNull(BoundExprPtr a, bool negated) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kIsNull;
  e->type = DataType::kBool;
  e->negated = negated;
  e->child0 = std::move(a);
  return e;
}

/// Random typed expression trees over the test chunk's columns.
class ExprGen {
 public:
  explicit ExprGen(uint64_t seed) : rng_(seed) {}

  BoundExprPtr Bool(int depth) {
    if (depth > 0 && Coin(0.5)) {
      switch (Pick(0, 2)) {
        case 0:
          return B(BinaryOp::kAnd, Bool(depth - 1), Bool(depth - 1));
        case 1:
          return B(BinaryOp::kOr, Bool(depth - 1), Bool(depth - 1));
        default:
          return Not(Bool(depth - 1));
      }
    }
    const BinaryOp cmps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                             BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
    const int d = depth > 0 ? depth - 1 : 0;
    switch (Pick(0, 9)) {
      case 0:
      case 1: {  // Number against number (int64 / double / mixed).
        DataType a = Coin(0.5) ? DataType::kInt64 : DataType::kDouble;
        DataType b = Coin(0.5) ? DataType::kInt64 : DataType::kDouble;
        return B(cmps[Pick(0, 5)], Val(a, d), Val(b, d));
      }
      case 2:
        return B(cmps[Pick(0, 5)], Val(DataType::kDate, d),
                 Coin(0.8) ? Val(DataType::kDate, d)
                           : Val(DataType::kInt64, d));
      case 3:
        return B(cmps[Pick(0, 5)], Val(DataType::kString, d),
                 Val(DataType::kString, d));
      case 4: {  // IN over literals, sometimes with a NULL item.
        DataType t = Coin(0.5) ? DataType::kString : DataType::kInt64;
        std::vector<Value> items;
        for (int k = Pick(1, 4); k > 0; --k) items.push_back(Lit(t));
        if (Coin(0.3)) items.push_back(Value::Null());
        if (t == DataType::kInt64 && Coin(0.3)) {
          items.push_back(Value::Double(0.5));
        }
        return In(Val(t, d), std::move(items), Coin(0.3));
      }
      case 5: {
        const char* patterns[] = {"a%",  "%b",         "%a%b%", "a_c", "abc",
                                  "%",   "%special%requests%", "",  "%_%",
                                  "b%c", "%%a"};
        auto like = B(BinaryOp::kLike, Val(DataType::kString, d),
                      L(Value::String(patterns[Pick(0, 10)])));
        return Coin(0.3) ? Not(std::move(like)) : std::move(like);
      }
      case 6:
        return IsNull(Val(RandomType(), d), Coin(0.5));
      case 7:  // A value used as a predicate (truthiness).
        return Val(Coin(0.5) ? DataType::kInt64 : DataType::kDouble, d);
      case 8:  // Mixed kinds order by type id (per-row fallback).
        return B(cmps[Pick(0, 5)], Val(DataType::kString, d),
                 Val(DataType::kInt64, d));
      default:
        return B(cmps[Pick(0, 5)], Val(DataType::kInt64, d),
                 Val(DataType::kInt64, d));
    }
  }

  BoundExprPtr Val(DataType t, int depth) {
    if (depth == 0 || Coin(0.35)) return Leaf(t);
    const int d = depth - 1;
    switch (t) {
      case DataType::kInt64:
        switch (Pick(0, 7)) {
          case 0:
            return B(BinaryOp::kAdd, Val(t, d), Val(t, d));
          case 1:
            return B(BinaryOp::kSub, Val(t, d), Val(t, d));
          case 2:
            return B(BinaryOp::kMul, Val(t, d), Val(t, d));
          case 3:
            return B(BinaryOp::kMod, Val(t, d), Val(t, d));
          case 4:
            return Neg(Val(t, d));
          case 5:
            return Case(Whens(t, d), Coin(0.7) ? Val(t, d) : nullptr);
          case 6:
            return Fn("COALESCE", t, Args(t, d));
          default:  // Per-row fallback node with a known type.
            return Fn("LENGTH", t, Single(Val(DataType::kString, d)));
        }
      case DataType::kDouble:
        switch (Pick(0, 7)) {
          case 0:
            return B(BinaryOp::kAdd, Val(t, d), Val(RandomNumber(), d));
          case 1:
            return B(BinaryOp::kSub, Val(RandomNumber(), d), Val(t, d));
          case 2:
            return B(BinaryOp::kMul, Val(t, d), Val(RandomNumber(), d));
          case 3:
            return B(BinaryOp::kDiv, Val(RandomNumber(), d),
                     Val(RandomNumber(), d));
          case 4:
            return Cast(Val(DataType::kInt64, d), DataType::kDouble);
          case 5:  // Branches of mixed numeric types.
            return Case(Whens(RandomNumber(), d), Val(t, d));
          case 6:
            return Fn("COALESCE", t, Args(RandomNumber(), d));
          default:
            return Neg(Val(t, d));
        }
      case DataType::kDate:
        if (Coin(0.5)) {
          return B(Coin(0.5) ? BinaryOp::kAdd : BinaryOp::kSub, Val(t, d),
                   Val(DataType::kInt64, d));
        }
        return Case(Whens(t, d), Val(t, d));
      default:  // kString
        switch (Pick(0, 3)) {
          case 0:
            return Case(Whens(t, d), Coin(0.7) ? Val(t, d) : nullptr);
          case 1:
            return Fn("COALESCE", t, Args(t, d));
          case 2:
            return Fn("UPPER", t, Single(Val(t, d)));
          default:
            return Cast(Val(DataType::kInt64, d), DataType::kString);
        }
    }
  }

 private:
  bool Coin(double p) { return std::bernoulli_distribution(p)(rng_); }
  int Pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  DataType RandomNumber() {
    return Coin(0.5) ? DataType::kInt64 : DataType::kDouble;
  }
  DataType RandomType() {
    const DataType types[] = {DataType::kInt64, DataType::kDouble,
                              DataType::kDate, DataType::kString};
    return types[Pick(0, 3)];
  }
  static std::vector<BoundExprPtr> Single(BoundExprPtr e) {
    std::vector<BoundExprPtr> out;
    out.push_back(std::move(e));
    return out;
  }
  std::vector<BoundExprPtr> Args(DataType t, int d) {
    std::vector<BoundExprPtr> out;
    for (int k = Pick(1, 3); k > 0; --k) out.push_back(Val(t, d));
    return out;
  }
  std::vector<std::pair<BoundExprPtr, BoundExprPtr>> Whens(DataType t, int d) {
    std::vector<std::pair<BoundExprPtr, BoundExprPtr>> out;
    for (int k = Pick(1, 2); k > 0; --k) out.emplace_back(Bool(d), Val(t, d));
    return out;
  }
  Value Lit(DataType t) {
    switch (t) {
      case DataType::kInt64:
        return Value::Int(Coin(0.05) ? kMax : Pick(-5, 5));
      case DataType::kDouble:
        return Value::Double(Pick(-8, 8) * 0.5);
      case DataType::kDate:
        return Value::Date(9000 + Pick(0, 100));
      default:
        return Value::String(Words()[Pick(0, Words().size() - 1)]);
    }
  }
  BoundExprPtr Leaf(DataType t) {
    if (Coin(0.05)) return L(Value::Null());
    if (Coin(0.3)) return L(Lit(t));
    switch (t) {
      case DataType::kInt64:
        return C(Coin(0.1) ? kK : (Coin(0.5) ? kI : kJ));
      case DataType::kDouble:
        return C(Coin(0.5) ? kD : kE);
      case DataType::kDate:
        return C(kT);
      default:
        return C(Coin(0.5) ? kS : kU);
    }
  }

  std::mt19937_64 rng_;
};

// ----- reference evaluation and comparison --------------------------

/// SelectRows' contract, computed row by row with EvalExpr.
Status ReferenceSelect(const BoundExpr& e, const Chunk& in,
                       std::vector<uint8_t>* mask) {
  mask->clear();
  for (size_t r = 0; r < in.num_rows(); ++r) {
    Result<Value> v = EvalExpr(e, in, r);
    if (!v.ok()) return v.status();
    mask->push_back(!v->is_null() && IsTruthy(*v));
  }
  return Status::OK();
}

/// EvalExprColumn's contract, computed row by row with EvalExpr.
Result<ColumnVectorPtr> ReferenceColumn(const BoundExpr& e, const Chunk& in) {
  if (e.kind == BoundKind::kColumn) return in.columns[e.column_index];
  auto out = std::make_shared<ColumnVector>(e.type);
  for (size_t r = 0; r < in.num_rows(); ++r) {
    HANA_ASSIGN_OR_RETURN(Value v, EvalExpr(e, in, r));
    out->Append(v);
  }
  return out;
}

/// Cell-for-cell identity; doubles compare by their bytes.
::testing::AssertionResult SameVector(const ColumnVector& want,
                                      const ColumnVector& got) {
  if (want.type() != got.type() || want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "type/size " << DataTypeName(want.type()) << "/" << want.size()
           << " vs " << DataTypeName(got.type()) << "/" << got.size();
  }
  for (size_t r = 0; r < want.size(); ++r) {
    if (want.IsNull(r) != got.IsNull(r)) {
      return ::testing::AssertionFailure() << "null differs at row " << r;
    }
    if (want.IsNull(r)) continue;
    bool same = true;
    switch (want.type()) {
      case DataType::kDouble: {
        double a = want.GetDouble(r), b = got.GetDouble(r);
        same = std::memcmp(&a, &b, sizeof(double)) == 0;
        break;
      }
      case DataType::kString:
        same = want.GetString(r) == got.GetString(r);
        break;
      default:
        same = want.GetInt(r) == got.GetInt(r);
        break;
    }
    if (!same) {
      return ::testing::AssertionFailure()
             << "row " << r << ": " << want.GetValue(r).ToString() << " vs "
             << got.GetValue(r).ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Checks `e` as a predicate and as a value against the reference.
void ExpectSameAsScalar(const BoundExpr& e, const Chunk& chunk,
                        const std::string& context) {
  SCOPED_TRACE(context + ": " + e.ToString());
  std::vector<uint8_t> want_mask, got_mask;
  Status ws = ReferenceSelect(e, chunk, &want_mask);
  Status gs = SelectRows(e, chunk, &got_mask);
  EXPECT_EQ(ws.ToString(), gs.ToString());
  EXPECT_EQ(want_mask, got_mask);
  Result<ColumnVectorPtr> want = ReferenceColumn(e, chunk);
  Result<ColumnVectorPtr> got = EvalExprColumn(e, chunk);
  ASSERT_EQ(want.status().ToString(), got.status().ToString());
  if (want.ok()) {
    EXPECT_TRUE(SameVector(**want, **got));
  }
}

struct ChunkShape {
  size_t rows;
  double null_rate;
  bool runs;
};

std::vector<ChunkShape> Shapes() {
  std::vector<ChunkShape> shapes;
  for (size_t rows : {size_t{0}, size_t{1}, size_t{7}, size_t{2048}}) {
    for (double rate : {0.0, 0.1, 1.0}) shapes.push_back({rows, rate, false});
    shapes.push_back({rows, 0.0, true});
  }
  return shapes;
}

std::string Describe(const ChunkShape& s) {
  return std::to_string(s.rows) + " rows, nulls " +
         std::to_string(s.null_rate) + (s.runs ? ", run-indexed" : "");
}

/// The hand-written kernel shapes: each compare / IN / LIKE / logic /
/// arithmetic / CASE / COALESCE / CAST form at least once.
std::vector<BoundExprPtr> KernelShapes() {
  std::vector<BoundExprPtr> v;
  const BinaryOp cmps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                           BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  for (BinaryOp op : cmps) {
    v.push_back(B(op, C(kI), L(Value::Int(3))));       // int64 vs literal
    v.push_back(B(op, L(Value::Int(3)), C(kI)));       // mirrored
    v.push_back(B(op, C(kI), C(kJ)));                  // int64 vs int64
    v.push_back(B(op, C(kD), L(Value::Double(0.5))));  // double
    v.push_back(B(op, C(kI), C(kD)));                  // int64 vs double
    v.push_back(B(op, C(kI), L(Value::Double(2.5))));
    v.push_back(B(op, C(kT), L(Value::Date(9050))));   // DATE
    v.push_back(B(op, C(kT), C(kT)));
    v.push_back(B(op, C(kT), L(Value::Int(9050))));    // DATE vs int64
    // Beyond 2^53 a DATE against an int64 rounds through double, as
    // Value::Compare does: kMax and kMax - 1 compare equal.
    v.push_back(B(op, Cast(C(kK), DataType::kDate), L(Value::Int(kMax - 1))));
    v.push_back(B(op, Cast(C(kK), DataType::kDate), C(kK)));
    v.push_back(B(op, C(kS), L(Value::String("ab"))));  // string
    v.push_back(B(op, C(kS), C(kU)));
    v.push_back(B(op, C(kS), C(kI)));  // Kinds differ: per row.
  }
  v.push_back(In(C(kI), {Value::Int(1), Value::Int(2), Value::Int(-3)}, false));
  v.push_back(In(C(kI), {Value::Int(1), Value::Null()}, true));
  v.push_back(In(C(kI), {Value::Int(1), Value::Double(2.0)}, false));
  v.push_back(In(C(kD), {Value::Double(0.5), Value::Int(1)}, false));
  v.push_back(In(C(kT), {Value::Date(9001), Value::Date(9050)}, false));
  v.push_back(In(C(kS), {Value::String("MAIL"), Value::String("SHIP")}, false));
  v.push_back(In(C(kS), {Value::String("a"), Value::Null()}, true));
  v.push_back(In(C(kS), {Value::Int(12)}, false));
  for (const char* p : {"a%", "%b", "%special%requests%", "%a%b%", "abc", "%",
                        "", "b_c", "%\\%%", "x%y", "%_"}) {
    v.push_back(B(BinaryOp::kLike, C(kS), L(Value::String(p))));
    v.push_back(Not(B(BinaryOp::kLike, C(kS), L(Value::String(p)))));
  }
  v.push_back(B(BinaryOp::kLike, C(kS), C(kU)));
  v.push_back(B(BinaryOp::kLike, C(kI), L(Value::String("1%"))));
  for (size_t c = 0; c < kNumCols; ++c) {
    v.push_back(IsNull(C(c), false));
    v.push_back(IsNull(C(c), true));
  }
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                      BinaryOp::kDiv, BinaryOp::kMod}) {
    v.push_back(B(op, C(kI), C(kJ)));
    v.push_back(B(op, C(kI), L(Value::Int(-1))));
    v.push_back(B(op, C(kK), C(kJ)));  // Overflows on the int64 edges.
    v.push_back(B(op, C(kK), L(Value::Int(-1))));
    v.push_back(B(op, C(kD), C(kE)));
    v.push_back(B(op, C(kI), C(kE)));
    v.push_back(B(op, L(Value::Int(1)), C(kD)));
  }
  v.push_back(Neg(C(kI)));
  v.push_back(Neg(C(kK)));
  v.push_back(Neg(C(kD)));
  v.push_back(B(BinaryOp::kAdd, C(kT), C(kI)));
  v.push_back(B(BinaryOp::kSub, C(kT), L(Value::Int(30))));
  v.push_back(B(BinaryOp::kAdd, C(kI), C(kT)));
  v.push_back(B(BinaryOp::kSub, C(kT), C(kT)));
  v.push_back(B(BinaryOp::kAdd, C(kT), C(kK)));  // DATE shift overflow.
  // Q1's shape: one IEEE operation per pass, in order.
  v.push_back(B(BinaryOp::kMul,
                B(BinaryOp::kMul, C(kD),
                  B(BinaryOp::kSub, L(Value::Int(1)), C(kE))),
                B(BinaryOp::kAdd, L(Value::Int(1)), C(kE))));
  v.push_back(Cast(C(kI), DataType::kDouble));
  v.push_back(Cast(C(kD), DataType::kInt64));
  v.push_back(Cast(C(kT), DataType::kInt64));
  v.push_back(Cast(C(kI), DataType::kDate));
  v.push_back(Cast(C(kD), DataType::kBool));
  v.push_back(Cast(C(kI), DataType::kString));
  v.push_back(Cast(C(kS), DataType::kInt64));  // Fails on non-numbers.
  v.push_back(Fn("COALESCE", DataType::kInt64, [] {
    std::vector<BoundExprPtr> a;
    a.push_back(C(kI));
    a.push_back(C(kJ));
    a.push_back(L(Value::Int(0)));
    return a;
  }()));
  v.push_back(Fn("COALESCE", DataType::kDouble, [] {
    std::vector<BoundExprPtr> a;
    a.push_back(C(kD));
    a.push_back(C(kI));
    return a;
  }()));
  v.push_back(Fn("ABS", DataType::kInt64, [] {
    std::vector<BoundExprPtr> a;
    a.push_back(C(kK));
    return a;
  }()));
  {  // Q14's shape: CASE with a double THEN and an int64 ELSE.
    std::vector<std::pair<BoundExprPtr, BoundExprPtr>> w;
    w.emplace_back(B(BinaryOp::kLike, C(kS), L(Value::String("a%"))),
                   B(BinaryOp::kMul, C(kD),
                     B(BinaryOp::kSub, L(Value::Int(1)), C(kE))));
    v.push_back(Case(std::move(w), L(Value::Int(0))));
  }
  {  // Q12's shape: CASE over OR of string compares.
    std::vector<std::pair<BoundExprPtr, BoundExprPtr>> w;
    w.emplace_back(B(BinaryOp::kOr,
                     B(BinaryOp::kEq, C(kS), L(Value::String("MAIL"))),
                     B(BinaryOp::kEq, C(kS), L(Value::String("SHIP")))),
                   L(Value::Int(1)));
    v.push_back(Case(std::move(w), L(Value::Int(0))));
  }
  {  // AND, OR and CASE nested three deep.
    auto inner =
        B(BinaryOp::kOr, B(BinaryOp::kLt, C(kD), L(Value::Double(1.0))),
          B(BinaryOp::kAnd, B(BinaryOp::kEq, C(kS), L(Value::String("a"))),
            B(BinaryOp::kGt, C(kT), L(Value::Date(9040)))));
    auto pred = B(BinaryOp::kAnd, B(BinaryOp::kNe, C(kI), L(Value::Int(0))),
                  std::move(inner));
    std::vector<std::pair<BoundExprPtr, BoundExprPtr>> deepest;
    deepest.emplace_back(B(BinaryOp::kGt, C(kJ), L(Value::Int(0))),
                         B(BinaryOp::kDiv, C(kD), C(kJ)));
    std::vector<std::pair<BoundExprPtr, BoundExprPtr>> middle;
    middle.emplace_back(B(BinaryOp::kOr, IsNull(C(kE), false),
                          B(BinaryOp::kLt, C(kE), L(Value::Int(0)))),
                        Case(std::move(deepest), C(kE)));
    std::vector<std::pair<BoundExprPtr, BoundExprPtr>> outer;
    outer.emplace_back(pred->Clone(),
                       Case(std::move(middle), L(Value::Int(7))));
    v.push_back(std::move(pred));
    v.push_back(Case(std::move(outer), nullptr));
  }
  return v;
}

TEST(VectorEvalTest, KernelShapesMatchScalar) {
  const std::vector<BoundExprPtr> shapes = KernelShapes();
  uint64_t seed = 1;
  for (const ChunkShape& s : Shapes()) {
    Chunk chunk = MakeChunk(s.rows, s.null_rate, s.runs, seed++);
    for (const BoundExprPtr& e : shapes) {
      ExpectSameAsScalar(*e, chunk, Describe(s));
    }
  }
}

TEST(VectorEvalTest, RandomTreesMatchScalar) {
  uint64_t seed = 100;
  for (const ChunkShape& s : Shapes()) {
    Chunk chunk = MakeChunk(s.rows, s.null_rate, s.runs, seed++);
    ExprGen gen(seed * 7919);
    for (int k = 0; k < 120; ++k) {
      BoundExprPtr e = k % 3 == 0 ? gen.Val(DataType::kDouble, 3)
                                  : (k % 3 == 1 ? gen.Bool(3)
                                                : gen.Val(DataType::kInt64, 3));
      ExpectSameAsScalar(*e, chunk, Describe(s) + " tree " + std::to_string(k));
    }
  }
}

TEST(VectorEvalTest, NanAndSignedZeroCompareLikeValueCompare) {
  Chunk chunk;
  auto d = std::make_shared<ColumnVector>(DataType::kDouble);
  auto i = std::make_shared<ColumnVector>(DataType::kInt64);
  const double nan = std::nan("");
  for (double x : {nan, -0.0, 0.0, 1.0, nan}) d->AppendDouble(x);
  for (int64_t x : {0, 0, 1, 1, 2}) i->AppendInt(x);
  chunk.columns = {d, i};
  auto dc = [] { return BoundExpr::Column(0, DataType::kDouble, "d"); };
  auto ic = [] { return BoundExpr::Column(1, DataType::kInt64, "i"); };
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                      BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
    ExpectSameAsScalar(*B(op, dc(), L(Value::Double(0.0))), chunk, "nan");
    ExpectSameAsScalar(*B(op, dc(), ic()), chunk, "nan");
    ExpectSameAsScalar(*B(op, dc(), L(Value::Double(nan))), chunk, "nan");
  }
  ExpectSameAsScalar(*In(dc(), {Value::Double(nan), Value::Int(1)}, false),
                     chunk, "nan");
  ExpectSameAsScalar(*B(BinaryOp::kDiv, ic(), dc()), chunk, "nan");
  ExpectSameAsScalar(*Neg(dc()), chunk, "nan");
  ExpectSameAsScalar(*dc(), chunk, "nan");  // Truthiness of NaN / -0.0.
}

// The first failing row decides the Status, and SelectRows keeps the
// verdicts of the rows before it.
TEST(VectorEvalTest, FirstFailingRowWinsWithScalarMaskPrefix) {
  Chunk chunk;
  auto a = std::make_shared<ColumnVector>(DataType::kInt64);
  auto s = std::make_shared<ColumnVector>(DataType::kString);
  const int64_t as[] = {5, 0, 7, 0, 9};
  const char* ss[] = {"4", "x", "oops", "bad", "3"};
  for (int k = 0; k < 5; ++k) {
    a->AppendInt(as[k]);
    s->AppendString(ss[k]);
  }
  chunk.columns = {a, s};
  auto col_a = [] { return BoundExpr::Column(0, DataType::kInt64, "a"); };
  auto cast_s = [] {
    return Cast(BoundExpr::Column(1, DataType::kString, "s"), DataType::kInt64);
  };
  // Fails at row 1 ('x'): the mask keeps row 0's verdict.
  auto failing = B(BinaryOp::kGt, cast_s(), L(Value::Int(1)));
  std::vector<uint8_t> mask;
  Status st = SelectRows(*failing, chunk, &mask);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "cannot cast 'x' to BIGINT");
  EXPECT_EQ(mask, std::vector<uint8_t>({1}));
  ExpectSameAsScalar(*failing, chunk, "error");

  // `a <> 0 OR CAST(s AS BIGINT) > 1`: the CAST only runs where a = 0
  // — rows 1 and 3 — and fails there.
  auto or_pred = B(BinaryOp::kOr, B(BinaryOp::kNe, col_a(), L(Value::Int(0))),
                   B(BinaryOp::kGt, cast_s(), L(Value::Int(1))));
  st = SelectRows(*or_pred, chunk, &mask);
  EXPECT_EQ(st.message(), "cannot cast 'x' to BIGINT");
  EXPECT_EQ(mask, std::vector<uint8_t>({1}));

  // Short circuit: the CAST fails only on rows with a <> 0, which the
  // OR's left side already decided, so nothing fails.
  Chunk guarded;
  auto a2 = std::make_shared<ColumnVector>(DataType::kInt64);
  auto s2 = std::make_shared<ColumnVector>(DataType::kString);
  const int64_t as2[] = {1, 0, 2, 0, 3};
  const char* ss2[] = {"nope", "5", "bad", "0", "worse"};
  for (int k = 0; k < 5; ++k) {
    a2->AppendInt(as2[k]);
    s2->AppendString(ss2[k]);
  }
  guarded.columns = {a2, s2};
  uint64_t scalar_rows = 0;
  {
    ScalarRowScope scope(&scalar_rows);
    st = SelectRows(*or_pred, guarded, &mask);
  }
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(mask, std::vector<uint8_t>({1, 1, 1, 0, 1}));
  // The string CAST runs per row, on the two rows the OR left open;
  // nothing was replayed.
  EXPECT_EQ(scalar_rows, 2u);
  ExpectSameAsScalar(*or_pred, guarded, "short circuit");

  // The same guard through AND and CASE.
  auto and_pred = B(BinaryOp::kAnd, B(BinaryOp::kEq, col_a(), L(Value::Int(0))),
                    B(BinaryOp::kGt, cast_s(), L(Value::Int(1))));
  ExpectSameAsScalar(*and_pred, guarded, "short circuit");
  std::vector<std::pair<BoundExprPtr, BoundExprPtr>> w;
  w.emplace_back(B(BinaryOp::kEq, col_a(), L(Value::Int(0))), cast_s());
  auto case_expr = Case(std::move(w), L(Value::Int(-1)));
  ExpectSameAsScalar(*case_expr, guarded, "short circuit");
  Result<ColumnVectorPtr> col = EvalExprColumn(*case_expr, guarded);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  EXPECT_EQ((*col)->GetInt(1), 5);
  EXPECT_EQ((*col)->GetInt(4), -1);
}

TEST(VectorEvalTest, ScalarRowsCountFallbacksPerThread) {
  Chunk chunk = MakeChunk(2048, 0.1, false, 42);
  auto kernel = B(BinaryOp::kAnd, B(BinaryOp::kLt, C(kI), L(Value::Int(5))),
                  B(BinaryOp::kLike, C(kS), L(Value::String("%a%"))));
  auto boxed = B(BinaryOp::kEq, Fn("UPPER", DataType::kString, [] {
                   std::vector<BoundExprPtr> a;
                   a.push_back(C(kS));
                   return a;
                 }()),
                 L(Value::String("AB")));
  std::vector<std::thread> threads;
  std::vector<uint64_t> counts(4, 0);
  std::vector<Status> statuses(4);
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ScalarRowScope scope(&counts[t]);
      std::vector<uint8_t> mask;
      for (int k = 0; k < 8; ++k) {
        Status st = SelectRows(t % 2 == 0 ? *kernel : *boxed, chunk, &mask);
        if (!st.ok()) statuses[t] = st;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_TRUE(statuses[t].ok()) << statuses[t].ToString();
    EXPECT_EQ(counts[t], t % 2 == 0 ? 0u : 8u * 2048u) << "thread " << t;
  }
}

TEST(VectorEvalTest, NullTypedExpressionIsAColumnOfNulls) {
  // A NULL-typed expression (a NULL group key or projected NULL)
  // evaluates on the kernels to an all-NULL kNull vector: no row takes
  // the per-row fallback.
  Chunk chunk = MakeChunk(100, 0.1, false, 7);
  auto null_literal = BoundExpr::Literal(Value::Null(), DataType::kNull);
  uint64_t scalar_rows = 0;
  Result<ColumnVectorPtr> col = Status::OK();
  {
    ScalarRowScope scope(&scalar_rows);
    col = EvalExprColumnAs(*null_literal, chunk, DataType::kNull);
  }
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  EXPECT_EQ(scalar_rows, 0u);
  EXPECT_EQ((*col)->type(), DataType::kNull);
  ASSERT_EQ((*col)->size(), 100u);
  for (size_t r = 0; r < 100; ++r) EXPECT_TRUE((*col)->IsNull(r)) << r;
}

// Integer arithmetic is checked in both evaluators: + - *, negation and
// ABS fail with OutOfRange, x % -1 is 0, FLOOR/CEIL outside int64 fail.
class OverflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<platform::Platform>(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    ASSERT_TRUE(db_->Run(R"(
        CREATE COLUMN TABLE t (a BIGINT, b BIGINT);
        INSERT INTO t VALUES (9223372036854775807, -1);
    )").ok());
  }

  Result<Value> One(const std::string& expr) {
    HANA_ASSIGN_OR_RETURN(storage::Table table,
                          db_->Query("SELECT " + expr + " FROM t"));
    if (table.num_rows() != 1) return Status::Internal("expected one row");
    return table.row(0)[0];
  }

  void ExpectOverflow(const std::string& expr) {
    Result<Value> v = One(expr);
    ASSERT_FALSE(v.ok()) << expr << " = " << v->ToString();
    EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange) << expr;
    EXPECT_EQ(v.status().message(), "numeric overflow") << expr;
  }

  std::unique_ptr<platform::Platform> db_;
};

TEST_F(OverflowTest, ModuloByMinusOneIsZero) {
  for (const char* expr : {"(-(a) - 1) % b", "MOD(-(a) - 1, b)", "a % b"}) {
    Result<Value> v = One(expr);
    ASSERT_TRUE(v.ok()) << expr << ": " << v.status().ToString();
    EXPECT_EQ(v->int_value(), 0) << expr;
  }
}

TEST_F(OverflowTest, CheckedArithmeticFails) {
  for (const char* expr : {"a + 1", "a - b", "a * 2", "-(-(a) - 1)",
                           "ABS(-(a) - 1)", "FLOOR(1e300)", "CEIL(1e300)",
                           "FLOOR(a * 1.0 * a)", "-(a) - 2"}) {
    ExpectOverflow(expr);
  }
  // In a filter, through the kernels and their replay.
  Result<storage::Table> r = db_->Query("SELECT a FROM t WHERE a + b * 2 > 0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 1u);
  r = db_->Query("SELECT a FROM t WHERE a - b > 0");
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  // In range, nothing fails.
  Result<Value> v = One("-(a) - 1");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->int_value(), kMin);
}

TEST(OverflowScalarTest, EvalExprRowChecksToo) {
  const std::vector<Value> row = {Value::Int(kMax), Value::Int(-1)};
  auto a = [] { return BoundExpr::Column(0, DataType::kInt64, "a"); };
  auto b = [] { return BoundExpr::Column(1, DataType::kInt64, "b"); };
  Result<Value> v = EvalExprRow(*B(BinaryOp::kAdd, a(), L(Value::Int(1))), row);
  EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
  v = EvalExprRow(
      *B(BinaryOp::kMod, Neg(B(BinaryOp::kAdd, a(), L(Value::Int(1)))), b()),
      row);
  EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);  // a + 1 overflows.
  v = EvalExprRow(
      *B(BinaryOp::kMod, B(BinaryOp::kSub, Neg(a()), L(Value::Int(1))), b()),
      row);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->int_value(), 0);
  v = EvalExprRow(*Fn("FLOOR", DataType::kInt64, [] {
                    std::vector<BoundExprPtr> x;
                    x.push_back(L(Value::Double(std::nan(""))));
                    return x;
                  }()),
                  row);
  EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
}

// Hive evaluates its projections row by row with EvalExprRow: the same
// checks apply there.
TEST(OverflowHiveTest, HiveProjectionOverflows) {
  platform::Platform db;
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"a", DataType::kInt64, false}, {"b", DataType::kInt64, false}});
  ASSERT_TRUE(db.hive()->CreateTable("o", schema).ok());
  ASSERT_TRUE(
      db.hive()->LoadRows("o", {{Value::Int(kMax), Value::Int(-1)}}).ok());
  auto overflow = db.hive()->ExecuteQuery("SELECT a + 1 FROM o");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(overflow.status().message(), "numeric overflow");
  auto mod = db.hive()->ExecuteQuery("SELECT (-(a) - 1) % b AS m FROM o");
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  ASSERT_EQ(mod->table.num_rows(), 1u);
  EXPECT_EQ(mod->table.row(0)[0].int_value(), 0);
}

}  // namespace
}  // namespace hana::exec
