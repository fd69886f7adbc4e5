#include "exec/vector_eval.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/strings.h"
#include "exec/evaluator.h"
#include "sql/ast.h"

namespace hana::exec {

namespace {

using plan::BoundExpr;
using plan::BoundKind;
using sql::BinaryOp;
using sql::UnaryOp;
using storage::Chunk;
using storage::ColumnVector;
using storage::ColumnVectorPtr;

thread_local uint64_t* t_scalar_rows = nullptr;

void CountScalarRows(size_t n) {
  if (t_scalar_rows != nullptr) *t_scalar_rows += n;
}

/// Kleene truth values, ordered so that AND is min, OR is max and NOT
/// is 2 - t.
enum Truth : uint8_t { kFalse = 0, kUnknown = 1, kTrue = 2 };

/// One Truth per chunk row; only the rows of the evaluation's
/// selection are defined.
using Mask = std::vector<uint8_t>;

uint8_t TruthOf(const Value& v) {
  if (v.is_null()) return kUnknown;
  return IsTruthy(v) ? kTrue : kFalse;
}

/// The rows an evaluation covers: ascending row indexes, or every row
/// in [0, count) when `rows` is null.
struct Sel {
  const uint32_t* rows = nullptr;
  size_t count = 0;
  bool dense() const { return rows == nullptr; }
};

template <typename F>
inline void ForEach(const Sel& sel, F&& f) {
  if (sel.rows == nullptr) {
    for (size_t r = 0; r < sel.count; ++r) f(r);
  } else {
    for (size_t k = 0; k < sel.count; ++k) f(size_t{sel.rows[k]});
  }
}

/// The rows of `sel` that satisfy `keep`, stored in `*storage` (or
/// `sel` itself when it keeps every row).
template <typename F>
Sel Where(const Sel& sel, F&& keep, std::vector<uint32_t>* storage) {
  storage->clear();
  storage->reserve(sel.count);
  ForEach(sel, [&](size_t r) {
    if (keep(r)) storage->push_back(static_cast<uint32_t>(r));
  });
  if (storage->size() == sel.count) return sel;
  return Sel{storage->data(), storage->size()};
}

/// An evaluated value node: a vector with one row per chunk row (only
/// the selected rows are defined), or one constant for every row.
struct Vec {
  /// The type of every non-null value (kNull: every value is NULL).
  DataType type = DataType::kNull;
  ColumnVectorPtr col;  // Null: every row holds `constant`.
  Value constant;

  bool IsNull(size_t r) const {
    return col != nullptr ? col->IsNull(r) : constant.is_null();
  }
  bool AllNull() const {
    return type == DataType::kNull || (col == nullptr && constant.is_null());
  }
};

Vec Constant(Value v, DataType type) {
  Vec out;
  out.type = type;
  out.constant = std::move(v);
  return out;
}

Vec Column(ColumnVectorPtr col) {
  Vec out;
  out.type = col->type();
  out.col = std::move(col);
  return out;
}

ColumnVectorPtr NewVector(DataType type, size_t n) {
  auto v = std::make_shared<ColumnVector>(type);
  v->Resize(n);
  return v;
}

/// Types whose Value::AsInt / AsDouble read the int64 lane.
bool IntLane(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDate ||
         t == DataType::kTimestamp || t == DataType::kBool;
}

bool NumberLane(DataType t) { return IntLane(t) || t == DataType::kDouble; }

/// The internal error a per-row node reports when a value's type is not
/// the one the evaluator derived; it only ever triggers the replay.
Status TypeMismatch() {
  return Status::Internal("vector evaluator: unexpected runtime type");
}

// Operand accessors: the kernels are templates over them, so each
// (column | constant) x (int | double | string) combination compiles to
// its own branch-free loop.
template <typename T>
struct ColArg {
  const T* v;
  const uint8_t* n;
  T Get(size_t r) const { return v[r]; }
  bool Null(size_t r) const { return n[r] != 0; }
};

template <typename T>
struct ConstArg {
  T c;
  T Get(size_t) const { return c; }
  bool Null(size_t) const { return false; }
};

struct IntAsDoubleArg {
  const int64_t* v;
  const uint8_t* n;
  double Get(size_t r) const { return static_cast<double>(v[r]); }
  bool Null(size_t r) const { return n[r] != 0; }
};

struct StringArg {
  const std::string* v;
  const uint8_t* n;
  std::string_view Get(size_t r) const { return v[r]; }
  bool Null(size_t r) const { return n[r] != 0; }
};

/// A dictionary-form string column: a view of the row's entry, no copy.
struct DictStringArg {
  const uint32_t* c;
  const Value* d;
  const uint8_t* n;
  std::string_view Get(size_t r) const { return d[c[r]].string_value(); }
  bool Null(size_t r) const { return n[r] != 0; }
};

// Each calls f with an accessor of v's Value::AsInt / AsDouble / string
// image. A constant operand must not be NULL (callers check first).
template <typename F>
void WithInt(const Vec& v, F&& f) {
  if (v.col == nullptr) {
    f(ConstArg<int64_t>{v.constant.AsInt()});
  } else {
    f(ColArg<int64_t>{v.col->ints_data(), v.col->nulls_data()});
  }
}

template <typename F>
void WithDouble(const Vec& v, F&& f) {
  if (v.col == nullptr) {
    f(ConstArg<double>{v.constant.AsDouble()});
  } else if (v.type == DataType::kDouble) {
    f(ColArg<double>{v.col->doubles_data(), v.col->nulls_data()});
  } else {
    f(IntAsDoubleArg{v.col->ints_data(), v.col->nulls_data()});
  }
}

template <typename F>
void WithString(const Vec& v, F&& f) {
  if (v.col == nullptr) {
    f(ConstArg<std::string_view>{v.constant.string_value()});
  } else if (v.col->dictionary() != nullptr) {
    f(DictStringArg{v.col->codes_data(), v.col->dictionary()->data(),
                    v.col->nulls_data()});
  } else {
    f(StringArg{v.col->strings_data(), v.col->nulls_data()});
  }
}

/// The dictionary a string Vec's codes index, or null (a constant or a
/// flat column).
const storage::StringDictionary* DictOf(const Vec& v) {
  return v.col != nullptr ? v.col->dictionary().get() : nullptr;
}

/// First dictionary entry not ordered before `c` (the dictionary is
/// sorted by Value::Compare, which orders strings by bytes, as
/// string_view does).
uint32_t LowerCode(const storage::StringDictionary& dict, std::string_view c) {
  return static_cast<uint32_t>(
      std::lower_bound(dict.begin(), dict.end(), c,
                       [](const Value& e, std::string_view k) {
                         return std::string_view(e.string_value()) < k;
                       }) -
      dict.begin());
}

/// Codes [lo, hi) of the entries equal to `c` (empty when c is absent).
std::pair<uint32_t, uint32_t> EqualCodes(const storage::StringDictionary& dict,
                                         std::string_view c) {
  const uint32_t lo = LowerCode(dict, c);
  const bool found = lo < dict.size() && dict[lo].string_value() == c;
  return {lo, lo + (found ? 1u : 0u)};
}

/// Codes [lo, hi) of the entries that start with `prefix` (one range:
/// the dictionary is sorted).
std::pair<uint32_t, uint32_t> PrefixCodes(const storage::StringDictionary& dict,
                                          std::string_view prefix) {
  const uint32_t lo = LowerCode(dict, prefix);
  const auto end = std::partition_point(
      dict.begin() + lo, dict.end(), [&](const Value& e) {
        return std::string_view(e.string_value()).substr(0, prefix.size()) ==
               prefix;
      });
  return {lo, static_cast<uint32_t>(end - dict.begin())};
}

/// A predicate on dictionary codes: TRUE for codes in [lo, hi), or for
/// codes outside it when `negated`.
struct CodeRange {
  uint32_t lo = 0;
  uint32_t hi = 0;
  bool negated = false;
};

/// `entry op c` as a code range: the comparison against a constant
/// becomes a binary search plus a code compare.
CodeRange CompareCodes(const storage::StringDictionary& dict, BinaryOp op,
                       std::string_view c) {
  const auto [lo, hi] = EqualCodes(dict, c);
  const uint32_t end = static_cast<uint32_t>(dict.size());
  switch (op) {
    case BinaryOp::kEq:
      return {lo, hi, false};
    case BinaryOp::kNe:
      return {lo, hi, true};
    case BinaryOp::kLt:
      return {0, lo, false};
    case BinaryOp::kLe:
      return {0, hi, false};
    case BinaryOp::kGt:
      return {hi, end, false};
    default:  // kGe
      return {lo, end, false};
  }
}

/// `c op x` rewritten as `x op' c`.
BinaryOp MirrorComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

bool IsComparison(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

/// Calls f with a comparator for the comparison `op` under
/// Value::Compare's three-way order, in which incomparable doubles (NaN)
/// compare equal.
template <typename F>
void WithCmp(BinaryOp op, F&& f) {
  auto eq = [](auto x, auto y) {
    if constexpr (std::is_floating_point_v<decltype(x)>) {
      return !(x < y) && !(y < x);
    } else {
      return x == y;
    }
  };
  switch (op) {
    case BinaryOp::kEq:
      f(eq);
      break;
    case BinaryOp::kNe:
      f([eq](auto x, auto y) { return !eq(x, y); });
      break;
    case BinaryOp::kLt:
      f([](auto x, auto y) { return x < y; });
      break;
    case BinaryOp::kLe:
      f([](auto x, auto y) { return !(y < x); });
      break;
    case BinaryOp::kGt:
      f([](auto x, auto y) { return y < x; });
      break;
    default:  // kGe
      f([](auto x, auto y) { return !(x < y); });
      break;
  }
}

/// How Value::Compare orders two runtime types.
enum class CmpLane { kNone, kInt, kDouble, kString };

CmpLane CompareLane(DataType a, DataType b) {
  if (a == DataType::kString && b == DataType::kString) return CmpLane::kString;
  if ((a == DataType::kInt64 && b == DataType::kInt64) ||
      (a == DataType::kBool && b == DataType::kBool)) {
    return CmpLane::kInt;
  }
  if (IsNumericType(a) && IsNumericType(b)) return CmpLane::kDouble;
  return CmpLane::kNone;  // Mixed kinds order by type id: per row.
}

bool IsCoalesce(const BoundExpr& e) {
  return e.kind == BoundKind::kFunction &&
         (e.function_name == "COALESCE" || e.function_name == "IFNULL");
}

bool ProducesTruth(const BoundExpr& e) {
  switch (e.kind) {
    case BoundKind::kUnary:
      return e.unary_op == static_cast<int>(UnaryOp::kNot);
    case BoundKind::kBinary: {
      BinaryOp op = static_cast<BinaryOp>(e.binary_op);
      return op == BinaryOp::kAnd || op == BinaryOp::kOr ||
             op == BinaryOp::kLike || IsComparison(op);
    }
    case BoundKind::kInList:
    case BoundKind::kIsNull:
      return true;
    default:
      return false;
  }
}

/// The value ColumnVector::Append stores for `v` in a vector of `to`.
Value CoerceValue(const Value& v, DataType to) {
  if (v.is_null()) return Value::Null();
  switch (to) {
    case DataType::kBool:
      return Value::Bool(v.type() == DataType::kBool ? v.bool_value()
                                                     : v.AsDouble() != 0.0);
    case DataType::kInt64:
      return Value::Int(v.AsInt());
    case DataType::kDate:
      return Value::Date(v.AsInt());
    case DataType::kTimestamp:
      return Value::Timestamp(v.AsInt());
    case DataType::kDouble:
      return Value::Double(v.AsDouble());
    case DataType::kString:
      return Value::String(v.type() == DataType::kString ? v.string_value()
                                                         : v.ToString());
    default:
      return Value::Null();
  }
}

/// Writes `v` (NULL, or a value of out's physical type) into row r.
void Store(ColumnVector* out, size_t r, Value v) {
  if (v.is_null()) {
    out->mutable_nulls()[r] = 1;
    return;
  }
  out->mutable_nulls()[r] = 0;
  switch (out->type()) {
    case DataType::kDouble:
      out->mutable_doubles()[r] = v.double_value();
      break;
    case DataType::kString:
      out->mutable_strings()[r] = v.string_value();
      break;
    case DataType::kBool:
      out->mutable_ints()[r] = v.bool_value() ? 1 : 0;
      break;
    default:
      out->mutable_ints()[r] = v.int_value();
      break;
  }
}

/// Copies the selected rows of `v` (of out's type, or all-NULL) into
/// `out`.
Status Scatter(const Vec& v, const Sel& sel, ColumnVector* out) {
  if (v.type != out->type() && v.type != DataType::kNull) return TypeMismatch();
  uint8_t* on = out->mutable_nulls();
  if (v.col == nullptr) {
    if (v.AllNull()) {
      ForEach(sel, [&](size_t r) { on[r] = 1; });
      return Status::OK();
    }
    ForEach(sel, [&](size_t r) { Store(out, r, v.constant); });
    return Status::OK();
  }
  const uint8_t* vn = v.col->nulls_data();
  ForEach(sel, [&](size_t r) { on[r] = vn[r]; });
  switch (out->type()) {
    case DataType::kDouble: {
      const double* src = v.col->doubles_data();
      double* dst = out->mutable_doubles();
      ForEach(sel, [&](size_t r) { dst[r] = src[r]; });
      break;
    }
    case DataType::kString: {
      std::string* dst = out->mutable_strings();
      if (v.col->dictionary() != nullptr) {
        // Dictionary strings copied into a computed vector.
        ForEach(sel, [&](size_t r) { dst[r] = v.col->GetString(r); });
        storage::CountDictFlattenedRows(sel.count);
        break;
      }
      const std::string* src = v.col->strings_data();
      ForEach(sel, [&](size_t r) { dst[r] = src[r]; });
      break;
    }
    default: {
      const int64_t* src = v.col->ints_data();
      int64_t* dst = out->mutable_ints();
      ForEach(sel, [&](size_t r) { dst[r] = src[r]; });
      break;
    }
  }
  return Status::OK();
}

/// The boxed fallback, the one per-row loop: evaluates `e` through
/// EvalExpr on each row of `sel` in row order (counting each in
/// scalar_rows) and hands the value to `store(r, value)`; stops at the
/// first failing row or the first error `store` returns.
template <typename F>
Status EvalRows(const BoundExpr& e, const Chunk& chunk, const Sel& sel,
                F&& store) {
  for (size_t k = 0; k < sel.count; ++k) {
    const size_t r = sel.dense() ? k : sel.rows[k];
    CountScalarRows(1);
    HANA_ASSIGN_OR_RETURN(Value v, EvalExpr(e, chunk, r));
    HANA_RETURN_IF_ERROR(store(r, std::move(v)));
  }
  return Status::OK();
}

/// LIKE pattern made only of '%' and literal segments: matched by
/// ordered substring search (anchored first and last segments). Other
/// patterns go through LikeMatch.
class LikePattern {
 public:
  explicit LikePattern(std::string_view pattern) : pattern_(pattern) {
    simple_ = pattern.find('_') == std::string_view::npos;
    if (!simple_) return;
    size_t start = 0;
    std::vector<std::string_view> parts;
    while (true) {
      size_t pct = pattern.find('%', start);
      parts.push_back(pattern.substr(start, pct - start));
      if (pct == std::string_view::npos) break;
      start = pct + 1;
    }
    exact_ = parts.size() == 1;
    prefix_ = parts.front();
    suffix_ = parts.back();
    for (size_t i = 1; i + 1 < parts.size(); ++i) {
      if (!parts[i].empty()) middle_.push_back(parts[i]);
    }
  }

  /// True for 'text' (exact) and 'prefix%' patterns, whose matches are
  /// the strings of one byte-order range: `*prefix` receives the text.
  bool Prefix(std::string_view* prefix, bool* exact) const {
    if (!simple_ || !middle_.empty() || (!exact_ && !suffix_.empty())) {
      return false;
    }
    *prefix = prefix_;
    *exact = exact_;
    return true;
  }

  bool Match(std::string_view text) const {
    if (!simple_) return LikeMatch(text, pattern_);
    if (exact_) return text == prefix_;
    if (text.size() < prefix_.size() + suffix_.size() ||
        text.substr(0, prefix_.size()) != prefix_) {
      return false;
    }
    size_t pos = prefix_.size();
    for (std::string_view segment : middle_) {
      pos = text.find(segment, pos);
      if (pos == std::string_view::npos) return false;
      pos += segment.size();
    }
    return pos + suffix_.size() <= text.size() &&
           text.substr(text.size() - suffix_.size()) == suffix_;
  }

 private:
  std::string_view pattern_;
  bool simple_ = false;
  bool exact_ = false;
  std::string_view prefix_;
  std::string_view suffix_;
  std::vector<std::string_view> middle_;
};

/// Kleene verdict of a code range on the rows of `sel` of the
/// dictionary-form column `col`.
void CodeRangeTruth(const ColumnVector& col, const CodeRange& range,
                    const Sel& sel, Mask* out) {
  const uint32_t* codes = col.codes_data();
  const uint8_t* nulls = col.nulls_data();
  const uint32_t lo = range.lo;
  const uint32_t span = range.hi - range.lo;
  const uint8_t inside = range.negated ? kFalse : kTrue;
  const uint8_t outside = range.negated ? kTrue : kFalse;
  uint8_t* o = out->data();
  ForEach(sel, [&](size_t r) {
    o[r] = nulls[r] ? uint8_t{kUnknown}
                    : (codes[r] - lo < span ? inside : outside);
  });
}

/// Evaluates bound expressions over one chunk. Value nodes yield Vecs,
/// predicates Kleene masks; children see only the rows their parent
/// still needs.
class VectorEvaluator {
 public:
  explicit VectorEvaluator(const Chunk& chunk)
      : chunk_(chunk), n_(chunk.num_rows()) {}

  Sel All() const { return Sel{nullptr, n_}; }

  /// The type of every non-null value EvalExpr returns for `e` on this
  /// chunk, or nullopt when it can differ between rows. Operator nodes
  /// follow the scalar evaluator's ResultType; CASE and COALESCE have a
  /// type when all their branches agree.
  std::optional<DataType> TypeOf(const BoundExpr& e) const {
    switch (e.kind) {
      case BoundKind::kLiteral:
        return e.literal.type();
      case BoundKind::kColumn:
        if (e.column_index >= chunk_.columns.size()) return std::nullopt;
        return chunk_.columns[e.column_index]->type();
      case BoundKind::kCase: {
        std::vector<const BoundExpr*> branches;
        for (const auto& [when, then] : e.when_clauses) {
          branches.push_back(then.get());
        }
        if (e.child1 != nullptr) branches.push_back(e.child1.get());
        return CommonType(branches);
      }
      case BoundKind::kAggregate:
        return std::nullopt;
      case BoundKind::kFunction: {
        if (IsCoalesce(e)) {
          std::vector<const BoundExpr*> args;
          for (const auto& a : e.args) args.push_back(a.get());
          return CommonType(args);
        }
        auto arg = [&](size_t i) {
          return i < e.args.size() ? TypeOf(*e.args[i]) : std::nullopt;
        };
        return ResultType(e, arg(0), arg(1));
      }
      default: {
        auto child = [&](const plan::BoundExprPtr& c) {
          return c != nullptr ? TypeOf(*c) : std::nullopt;
        };
        return ResultType(e, child(e.child0), child(e.child1));
      }
    }
  }

  /// Kleene verdict of `e` on the rows of `sel`.
  Result<Mask> Truth(const BoundExpr& e, const Sel& sel) {
    if (sel.count == 0) return Mask(n_);
    if (e.IsConstant()) {
      HANA_ASSIGN_OR_RETURN(Value v, EvalExprRow(e, {}));
      Mask out(n_);
      const uint8_t t = TruthOf(v);
      ForEach(sel, [&](size_t r) { out[r] = t; });
      return out;
    }
    if (sel.dense() && ProducesTruth(e)) {
      if (const ColumnVector* runs = RunColumn(e)) return TruthPerRun(e, *runs);
    }
    if (e.kind == BoundKind::kUnary &&
        e.unary_op == static_cast<int>(UnaryOp::kNot)) {
      HANA_ASSIGN_OR_RETURN(Mask t, Truth(*e.child0, sel));
      ForEach(sel, [&](size_t r) {
        t[r] = static_cast<uint8_t>(kTrue - t[r]);
      });
      return t;
    }
    if (e.kind == BoundKind::kBinary) {
      BinaryOp op = static_cast<BinaryOp>(e.binary_op);
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) return Logic(e, op, sel);
      if (IsComparison(op)) return Compare(e, op, sel);
      if (op == BinaryOp::kLike) return Like(e, sel);
    }
    if (e.kind == BoundKind::kInList) return InList(e, sel);
    if (e.kind == BoundKind::kIsNull) {
      if (!TypeOf(*e.child0)) return ScalarTruth(e, sel);
      HANA_ASSIGN_OR_RETURN(Vec v, Eval(*e.child0, sel));
      Mask out(n_);
      const bool negated = e.negated;
      ForEach(sel, [&](size_t r) {
        out[r] = v.IsNull(r) != negated ? kTrue : kFalse;
      });
      return out;
    }
    if (!TypeOf(e)) return ScalarTruth(e, sel);
    HANA_ASSIGN_OR_RETURN(Vec v, Eval(e, sel));
    return TruthOfVec(v, sel);
  }

  /// Values of `e` on the rows of `sel`; TypeOf(e) must be known.
  Result<Vec> Eval(const BoundExpr& e, const Sel& sel) {
    const DataType type = *TypeOf(e);
    if (e.kind == BoundKind::kLiteral) return Constant(e.literal, type);
    if (e.kind == BoundKind::kColumn) {
      if (type == DataType::kNull) return Constant(Value::Null(), type);
      return Column(chunk_.columns[e.column_index]);
    }
    if (sel.count == 0) return Constant(Value::Null(), type);
    if (e.IsConstant()) {
      HANA_ASSIGN_OR_RETURN(Value v, EvalExprRow(e, {}));
      if (!v.is_null() && v.type() != type) return TypeMismatch();
      return Constant(std::move(v), type);
    }
    if (ProducesTruth(e)) {
      HANA_ASSIGN_OR_RETURN(Mask t, Truth(e, sel));
      ColumnVectorPtr out = NewVector(DataType::kBool, n_);
      uint8_t* on = out->mutable_nulls();
      int64_t* ov = out->mutable_ints();
      ForEach(sel, [&](size_t r) {
        on[r] = t[r] == kUnknown;
        ov[r] = t[r] == kTrue;
      });
      return Column(std::move(out));
    }
    switch (e.kind) {
      case BoundKind::kUnary:
        return Negate(e, sel, type);
      case BoundKind::kBinary:
        return Arithmetic(e, sel, type);
      case BoundKind::kFunction:
        if (IsCoalesce(e)) return Coalesce(e, sel, type, false);
        break;
      case BoundKind::kCase:
        return Case(e, sel, type, false);
      case BoundKind::kCast:
        return Cast(e, sel);
      default:
        break;
    }
    return ScalarValues(e, sel, type);
  }

  /// Values of `e` on the rows of `sel` coerced into `to` the way
  /// ColumnVector::Append coerces (CASE and COALESCE push the coercion
  /// into their branches, so branches of mixed numeric types stay on
  /// the kernels). A NULL-typed `e` (a NULL group key) evaluates on the
  /// kernels to all NULLs.
  Result<Vec> EvalAs(const BoundExpr& e, const Sel& sel, DataType to) {
    const bool concrete = to != DataType::kNull;
    if (concrete && e.kind == BoundKind::kCase) return Case(e, sel, to, true);
    if (concrete && IsCoalesce(e)) return Coalesce(e, sel, to, true);
    if (TypeOf(e)) {
      HANA_ASSIGN_OR_RETURN(Vec v, Eval(e, sel));
      return Coerce(v, sel, to);
    }
    ColumnVectorPtr out = NewVector(to, n_);
    HANA_RETURN_IF_ERROR(EvalRows(e, chunk_, sel, [&](size_t r, Value v) {
      Store(out.get(), r, CoerceValue(v, to));
      return Status::OK();
    }));
    return Column(std::move(out));
  }

 private:
  std::optional<DataType> CommonType(
      const std::vector<const BoundExpr*>& branches) const {
    DataType type = DataType::kNull;
    for (const BoundExpr* b : branches) {
      std::optional<DataType> t = TypeOf(*b);
      if (!t) return std::nullopt;
      if (*t == DataType::kNull) continue;
      if (type != DataType::kNull && type != *t) return std::nullopt;
      type = *t;
    }
    return type;
  }

  /// The one column `e` reads when it is run-indexed with few enough
  /// runs to pay off evaluating `e` once per run.
  const ColumnVector* RunColumn(const BoundExpr& e) const {
    std::vector<size_t> cols;
    e.CollectColumns(&cols);
    if (cols.empty() || cols[0] >= chunk_.columns.size()) return nullptr;
    for (size_t c : cols) {
      if (c != cols[0]) return nullptr;
    }
    const ColumnVector& col = *chunk_.columns[cols[0]];
    if (!col.run_indexed() || col.runs().size() * 4 > n_) return nullptr;
    return &col;
  }

  /// Evaluates `e` on each run's first row and spreads the verdict over
  /// the run: every row of a run holds the same non-null value.
  Result<Mask> TruthPerRun(const BoundExpr& e, const ColumnVector& col) {
    std::vector<uint32_t> firsts;
    firsts.reserve(col.runs().size());
    for (const ColumnVector::ValueRun& run : col.runs()) {
      firsts.push_back(run.begin);
    }
    HANA_ASSIGN_OR_RETURN(Mask t, Truth(e, Sel{firsts.data(), firsts.size()}));
    for (const ColumnVector::ValueRun& run : col.runs()) {
      std::fill(t.begin() + run.begin, t.begin() + run.end, t[run.begin]);
    }
    return t;
  }

  Result<Mask> ScalarTruth(const BoundExpr& e, const Sel& sel) {
    Mask out(n_);
    HANA_RETURN_IF_ERROR(EvalRows(e, chunk_, sel, [&](size_t r, Value v) {
      out[r] = TruthOf(v);
      return Status::OK();
    }));
    return out;
  }

  Result<Vec> ScalarValues(const BoundExpr& e, const Sel& sel, DataType type) {
    ColumnVectorPtr out = NewVector(type, n_);
    HANA_RETURN_IF_ERROR(EvalRows(e, chunk_, sel, [&](size_t r, Value v) {
      if (!v.is_null() && v.type() != type) return TypeMismatch();
      Store(out.get(), r, std::move(v));
      return Status::OK();
    }));
    return Column(std::move(out));
  }

  Mask TruthOfVec(const Vec& v, const Sel& sel) const {
    Mask out(n_);
    if (v.col == nullptr) {
      const uint8_t t = TruthOf(v.constant);
      ForEach(sel, [&](size_t r) { out[r] = t; });
      return out;
    }
    const uint8_t* nulls = v.col->nulls_data();
    switch (v.type) {
      case DataType::kDouble: {
        const double* d = v.col->doubles_data();
        ForEach(sel, [&](size_t r) {
          out[r] = nulls[r] ? kUnknown : (d[r] != 0.0 ? kTrue : kFalse);
        });
        break;
      }
      case DataType::kString:  // AsDouble of a string is 0: falsy.
        ForEach(sel, [&](size_t r) { out[r] = nulls[r] ? kUnknown : kFalse; });
        break;
      case DataType::kNull:
        ForEach(sel, [&](size_t r) { out[r] = kUnknown; });
        break;
      default: {
        const int64_t* i = v.col->ints_data();
        ForEach(sel, [&](size_t r) {
          out[r] = nulls[r] ? kUnknown : (i[r] != 0 ? kTrue : kFalse);
        });
        break;
      }
    }
    return out;
  }

  /// Kleene AND / OR: the right side runs only where the left one has
  /// not decided the row (TRUE or NULL for AND, FALSE or NULL for OR).
  Result<Mask> Logic(const BoundExpr& e, BinaryOp op, const Sel& sel) {
    HANA_ASSIGN_OR_RETURN(Mask t, Truth(*e.child0, sel));
    const uint8_t decided = op == BinaryOp::kAnd ? kFalse : kTrue;
    std::vector<uint32_t> rows;
    Sel rest = Where(sel, [&](size_t r) { return t[r] != decided; }, &rows);
    if (rest.count == 0) return t;
    HANA_ASSIGN_OR_RETURN(Mask rhs, Truth(*e.child1, rest));
    if (op == BinaryOp::kAnd) {
      ForEach(rest, [&](size_t r) { t[r] = std::min(t[r], rhs[r]); });
    } else {
      ForEach(rest, [&](size_t r) { t[r] = std::max(t[r], rhs[r]); });
    }
    return t;
  }

  Result<Mask> Compare(const BoundExpr& e, BinaryOp op, const Sel& sel) {
    std::optional<DataType> ta = TypeOf(*e.child0), tb = TypeOf(*e.child1);
    if (!ta || !tb) return ScalarTruth(e, sel);
    const bool null_side = *ta == DataType::kNull || *tb == DataType::kNull;
    const CmpLane lane = CompareLane(*ta, *tb);
    HANA_ASSIGN_OR_RETURN(Vec a, Eval(*e.child0, sel));
    HANA_ASSIGN_OR_RETURN(Vec b, Eval(*e.child1, sel));
    Mask out(n_);
    if (a.AllNull() || b.AllNull()) {
      ForEach(sel, [&](size_t r) { out[r] = kUnknown; });
      return out;
    }
    if (!null_side && lane == CmpLane::kNone) {
      // Mixed kinds (VARCHAR or BOOL against another type) order by type
      // id: one verdict for every pair without a NULL.
      bool verdict = false;
      WithCmp(op, [&](auto cmp) {
        verdict = cmp(static_cast<int>(*ta), static_cast<int>(*tb));
      });
      const uint8_t t = verdict ? kTrue : kFalse;
      ForEach(sel, [&](size_t r) {
        out[r] = (a.IsNull(r) || b.IsNull(r)) ? kUnknown : t;
      });
      return out;
    }
    auto loop = [&](auto x, auto y) {
      WithCmp(op, [&](auto cmp) {
        ForEach(sel, [&](size_t r) {
          out[r] = (x.Null(r) | y.Null(r))
                       ? kUnknown
                       : (cmp(x.Get(r), y.Get(r)) ? kTrue : kFalse);
        });
      });
    };
    if (lane == CmpLane::kString) {
      // Dictionary codes: against a constant, a binary search turns the
      // comparison into a code range; two columns of one dictionary
      // compare codes, whose order is the strings' order.
      if (DictOf(a) != nullptr && b.col == nullptr) {
        CodeRangeTruth(*a.col,
                       CompareCodes(*DictOf(a), op, b.constant.string_value()),
                       sel, &out);
        return out;
      }
      if (a.col == nullptr && DictOf(b) != nullptr) {
        CodeRangeTruth(*b.col,
                       CompareCodes(*DictOf(b), MirrorComparison(op),
                                    a.constant.string_value()),
                       sel, &out);
        return out;
      }
      if (a.col != nullptr && b.col != nullptr &&
          a.col->SharesDictionary(*b.col)) {
        loop(ColArg<uint32_t>{a.col->codes_data(), a.col->nulls_data()},
             ColArg<uint32_t>{b.col->codes_data(), b.col->nulls_data()});
        return out;
      }
    }
    switch (lane) {
      case CmpLane::kString:
        WithString(a, [&](auto x) {
          WithString(b, [&](auto y) { loop(x, y); });
        });
        break;
      case CmpLane::kInt:
        WithInt(a, [&](auto x) { WithInt(b, [&](auto y) { loop(x, y); }); });
        break;
      default:
        WithDouble(a, [&](auto x) {
          WithDouble(b, [&](auto y) { loop(x, y); });
        });
        break;
    }
    return out;
  }

  Result<Mask> Like(const BoundExpr& e, const Sel& sel) {
    std::optional<DataType> ta = TypeOf(*e.child0), tb = TypeOf(*e.child1);
    auto stringish = [](std::optional<DataType> t) {
      return t && (*t == DataType::kString || *t == DataType::kNull);
    };
    // Non-string operands match on their ToString() text: per row.
    if (!stringish(ta) || !stringish(tb)) return ScalarTruth(e, sel);
    HANA_ASSIGN_OR_RETURN(Vec a, Eval(*e.child0, sel));
    HANA_ASSIGN_OR_RETURN(Vec b, Eval(*e.child1, sel));
    Mask out(n_);
    if (a.AllNull() || b.AllNull()) {
      ForEach(sel, [&](size_t r) { out[r] = kUnknown; });
      return out;
    }
    if (b.col == nullptr) {
      const LikePattern pattern(b.constant.string_value());
      if (const storage::StringDictionary* dict = DictOf(a)) {
        std::string_view prefix;
        bool exact = false;
        if (pattern.Prefix(&prefix, &exact)) {
          // The matches of 'text' and 'prefix%' are one code range.
          const auto [lo, hi] = exact ? EqualCodes(*dict, prefix)
                                      : PrefixCodes(*dict, prefix);
          CodeRangeTruth(*a.col, CodeRange{lo, hi, false}, sel, &out);
          return out;
        }
        if (dict->size() <= sel.count) {
          // No more entries than rows: match each entry once.
          std::vector<uint8_t> verdict(dict->size());
          for (size_t i = 0; i < dict->size(); ++i) {
            verdict[i] = pattern.Match((*dict)[i].string_value()) ? kTrue
                                                                   : kFalse;
          }
          const uint32_t* codes = a.col->codes_data();
          const uint8_t* nulls = a.col->nulls_data();
          ForEach(sel, [&](size_t r) {
            out[r] = nulls[r] ? uint8_t{kUnknown} : verdict[codes[r]];
          });
          return out;
        }
      }
      WithString(a, [&](auto x) {
        ForEach(sel, [&](size_t r) {
          out[r] = x.Null(r) ? kUnknown
                             : (pattern.Match(x.Get(r)) ? kTrue : kFalse);
        });
      });
      return out;
    }
    WithString(a, [&](auto x) {
      WithString(b, [&](auto y) {
        ForEach(sel, [&](size_t r) {
          out[r] = (x.Null(r) | y.Null(r))
                       ? kUnknown
                       : (LikeMatch(x.Get(r), y.Get(r)) ? kTrue : kFalse);
        });
      });
    });
    return out;
  }

  /// IN over constant items: each item is evaluated once; NULL items
  /// make a miss NULL, items of another kind never match.
  Result<Mask> InList(const BoundExpr& e, const Sel& sel) {
    std::optional<DataType> t = TypeOf(*e.child0);
    bool items_constant = true;
    for (const auto& item : e.in_list) items_constant &= item->IsConstant();
    const bool kernel =
        t && items_constant &&
        (NumberLane(*t) || *t == DataType::kString || *t == DataType::kNull);
    if (!kernel) return ScalarTruth(e, sel);
    HANA_ASSIGN_OR_RETURN(Vec v, Eval(*e.child0, sel));
    std::vector<Value> items;
    for (const auto& item : e.in_list) {
      HANA_ASSIGN_OR_RETURN(Value c, EvalExprRow(*item, {}));
      items.push_back(std::move(c));
    }
    Mask out(n_);
    if (v.AllNull()) {
      ForEach(sel, [&](size_t r) { out[r] = kUnknown; });
      return out;
    }
    bool has_null = false;
    for (const Value& c : items) has_null |= c.is_null();
    const uint8_t hit = e.negated ? kFalse : kTrue;
    const uint8_t miss = has_null ? kUnknown : (e.negated ? kTrue : kFalse);
    auto loop = [&](auto x, const auto& keys, auto eq) {
      ForEach(sel, [&](size_t r) {
        if (x.Null(r)) {
          out[r] = kUnknown;
          return;
        }
        const auto value = x.Get(r);
        bool found = false;
        for (const auto& k : keys) found |= eq(value, k);
        out[r] = found ? hit : miss;
      });
    };
    if (*t == DataType::kString && DictOf(v) != nullptr) {
      // Dictionary codes: the items present in the dictionary as codes.
      std::vector<uint32_t> keys;
      for (const Value& c : items) {
        if (c.type() != DataType::kString) continue;
        const auto [lo, hi] = EqualCodes(*DictOf(v), c.string_value());
        if (lo < hi) keys.push_back(lo);
      }
      loop(ColArg<uint32_t>{v.col->codes_data(), v.col->nulls_data()}, keys,
           [](uint32_t a, uint32_t b) { return a == b; });
    } else if (*t == DataType::kString) {
      std::vector<std::string_view> keys;
      for (const Value& c : items) {
        if (c.type() == DataType::kString) keys.push_back(c.string_value());
      }
      WithString(v, [&](auto x) {
        loop(x, keys,
             [](std::string_view a, std::string_view b) { return a == b; });
      });
    } else if (*t == DataType::kInt64 || *t == DataType::kBool) {
      // Exact integer equality against items of the same kind; an int64
      // against other numbers compares through double.
      std::vector<int64_t> exact;
      std::vector<double> widened;
      for (const Value& c : items) {
        if (c.is_null()) continue;
        if (c.type() == *t) {
          exact.push_back(c.AsInt());
        } else if (*t == DataType::kInt64 && IsNumericType(c.type())) {
          widened.push_back(c.AsDouble());
        }
      }
      WithInt(v, [&](auto x) {
        ForEach(sel, [&](size_t r) {
          if (x.Null(r)) {
            out[r] = kUnknown;
            return;
          }
          const int64_t value = x.Get(r);
          bool found = false;
          for (int64_t k : exact) found |= value == k;
          const double d = static_cast<double>(value);
          for (double k : widened) found |= !(d < k) && !(k < d);
          out[r] = found ? hit : miss;
        });
      });
    } else {
      // Every other number compares with numeric items through double.
      std::vector<double> keys;
      for (const Value& c : items) {
        if (!c.is_null() && IsNumericType(c.type())) {
          keys.push_back(c.AsDouble());
        }
      }
      if (!IsNumericType(*t)) keys.clear();
      WithDouble(v, [&](auto x) {
        loop(x, keys, [](double a, double b) { return !(a < b) && !(b < a); });
      });
    }
    return out;
  }

  Result<Vec> Negate(const BoundExpr& e, const Sel& sel, DataType type) {
    std::optional<DataType> t = TypeOf(*e.child0);
    if (!NumberLane(*t) && *t != DataType::kNull) {
      return ScalarValues(e, sel, type);
    }
    HANA_ASSIGN_OR_RETURN(Vec v, Eval(*e.child0, sel));
    if (v.AllNull()) {
      return Constant(Value::Null(), type);
    }
    ColumnVectorPtr out = NewVector(type, n_);
    uint8_t* on = out->mutable_nulls();
    bool overflow = false;
    if (type == DataType::kDouble) {
      double* od = out->mutable_doubles();
      WithDouble(v, [&](auto x) {
        ForEach(sel, [&](size_t r) {
          on[r] = x.Null(r);
          od[r] = -x.Get(r);
        });
      });
    } else {
      int64_t* oi = out->mutable_ints();
      WithInt(v, [&](auto x) {
        ForEach(sel, [&](size_t r) {
          on[r] = x.Null(r);
          if (on[r] == 0) {
            overflow |= __builtin_sub_overflow(int64_t{0}, x.Get(r), &oi[r]);
          }
        });
      });
    }
    if (overflow) return NumericOverflow();
    return Column(std::move(out));
  }

  /// + - * / % with the scalar evaluator's typing: DATE +/- int, checked
  /// int64, or one IEEE double operation per row (no reassociation, no
  /// fused multiply-add: each pass stores its result).
  Result<Vec> Arithmetic(const BoundExpr& e, const Sel& sel, DataType type) {
    const BinaryOp op = static_cast<BinaryOp>(e.binary_op);
    const std::optional<DataType> a_type = TypeOf(*e.child0);
    const std::optional<DataType> b_type = TypeOf(*e.child1);
    if (!a_type || !b_type) return ScalarValues(e, sel, type);
    const DataType ta = *a_type, tb = *b_type;
    bool kernel = false;
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
        if (type == DataType::kDate) {
          kernel = op != BinaryOp::kMul &&
                   ((ta == DataType::kDate && IntLane(tb)) ||
                    (IntLane(ta) && tb == DataType::kDate));
        } else {
          kernel = (NumberLane(ta) || ta == DataType::kNull) &&
                   (NumberLane(tb) || tb == DataType::kNull);
        }
        break;
      case BinaryOp::kDiv:
        kernel = (NumberLane(ta) || ta == DataType::kNull) &&
                 (NumberLane(tb) || tb == DataType::kNull);
        break;
      case BinaryOp::kMod:
        kernel = (IntLane(ta) || ta == DataType::kNull) &&
                 (IntLane(tb) || tb == DataType::kNull);
        break;
      default:
        break;
    }
    if (!kernel) return ScalarValues(e, sel, type);
    HANA_ASSIGN_OR_RETURN(Vec a, Eval(*e.child0, sel));
    HANA_ASSIGN_OR_RETURN(Vec b, Eval(*e.child1, sel));
    if (a.AllNull() || b.AllNull()) {
      return Constant(Value::Null(), type);
    }
    ColumnVectorPtr out = NewVector(type, n_);
    uint8_t* on = out->mutable_nulls();
    bool overflow = false;
    if (type == DataType::kDouble) {
      double* od = out->mutable_doubles();
      auto run = [&](auto f) {
        WithDouble(a, [&](auto x) {
          WithDouble(b, [&](auto y) {
            ForEach(sel, [&](size_t r) {
              on[r] = x.Null(r) | y.Null(r);
              od[r] = f(x.Get(r), y.Get(r), &on[r]);
            });
          });
        });
      };
      switch (op) {
        case BinaryOp::kAdd:
          run([](double p, double q, uint8_t*) { return p + q; });
          break;
        case BinaryOp::kSub:
          run([](double p, double q, uint8_t*) { return p - q; });
          break;
        case BinaryOp::kMul:
          run([](double p, double q, uint8_t*) { return p * q; });
          break;
        default:  // kDiv: a zero divisor yields NULL.
          run([](double p, double q, uint8_t* null) {
            if (q == 0.0) {
              *null = 1;
              return 0.0;
            }
            return p / q;
          });
          break;
      }
      return Column(std::move(out));
    }
    int64_t* oi = out->mutable_ints();
    auto run = [&](const Vec& l, const Vec& rhs, auto f) {
      WithInt(l, [&](auto x) {
        WithInt(rhs, [&](auto y) {
          ForEach(sel, [&](size_t r) {
            on[r] = x.Null(r) | y.Null(r);
            if (!on[r]) overflow |= f(x.Get(r), y.Get(r), &oi[r], &on[r]);
          });
        });
      });
    };
    if (type == DataType::kDate) {
      // Days from the DATE side, the shift from the other (mirrored:
      // `int - date` shifts the date back, as the scalar evaluator does).
      const bool date_left = ta == DataType::kDate;
      const Vec& days = date_left ? a : b;
      const Vec& delta = date_left ? b : a;
      if (op == BinaryOp::kSub) {
        run(days, delta, [](int64_t p, int64_t q, int64_t* o, uint8_t*) {
          return __builtin_sub_overflow(p, q, o);
        });
      } else {
        run(days, delta, [](int64_t p, int64_t q, int64_t* o, uint8_t*) {
          return __builtin_add_overflow(p, q, o);
        });
      }
    } else {
      switch (op) {
        case BinaryOp::kAdd:
          run(a, b, [](int64_t p, int64_t q, int64_t* o, uint8_t*) {
            return __builtin_add_overflow(p, q, o);
          });
          break;
        case BinaryOp::kSub:
          run(a, b, [](int64_t p, int64_t q, int64_t* o, uint8_t*) {
            return __builtin_sub_overflow(p, q, o);
          });
          break;
        case BinaryOp::kMul:
          run(a, b, [](int64_t p, int64_t q, int64_t* o, uint8_t*) {
            return __builtin_mul_overflow(p, q, o);
          });
          break;
        default:  // kMod: a zero divisor yields NULL.
          run(a, b, [](int64_t p, int64_t q, int64_t* o, uint8_t* null) {
            if (q == 0) {
              *null = 1;
            } else {
              *o = CheckedMod(p, q);
            }
            return false;
          });
          break;
      }
    }
    if (overflow) return NumericOverflow();
    return Column(std::move(out));
  }

  /// Converts a number column to another number type with Value::AsInt
  /// / AsDouble (and AsDouble != 0 into BOOLEAN).
  Vec ConvertNumber(const Vec& v, const Sel& sel, DataType to) const {
    ColumnVectorPtr out = NewVector(to, n_);
    uint8_t* on = out->mutable_nulls();
    const uint8_t* vn = v.col->nulls_data();
    ForEach(sel, [&](size_t r) { on[r] = vn[r]; });
    if (to == DataType::kDouble) {
      double* od = out->mutable_doubles();
      WithDouble(v, [&](auto x) {
        ForEach(sel, [&](size_t r) { od[r] = x.Get(r); });
      });
    } else if (to == DataType::kBool) {
      int64_t* oi = out->mutable_ints();
      WithDouble(v, [&](auto x) {
        ForEach(sel, [&](size_t r) { oi[r] = x.Get(r) != 0.0; });
      });
    } else if (v.type == DataType::kDouble) {
      int64_t* oi = out->mutable_ints();
      const double* d = v.col->doubles_data();
      ForEach(sel, [&](size_t r) {
        oi[r] = vn[r] ? 0 : static_cast<int64_t>(d[r]);
      });
    } else {
      int64_t* oi = out->mutable_ints();
      const int64_t* i = v.col->ints_data();
      ForEach(sel, [&](size_t r) { oi[r] = i[r]; });
    }
    return Column(std::move(out));
  }

  Result<Vec> Cast(const BoundExpr& e, const Sel& sel) {
    const DataType to = e.type;
    const std::optional<DataType> from_type = TypeOf(*e.child0);
    if (!from_type) return ScalarValues(e, sel, to);
    const DataType from = *from_type;
    // Value::CastTo agrees with AsInt / AsDouble on these pairs.
    const bool number =
        (NumberLane(from) &&
         (to == DataType::kDouble || to == DataType::kInt64)) ||
        (IsNumericType(from) && to == DataType::kBool) ||
        (from == DataType::kInt64 &&
         (to == DataType::kDate || to == DataType::kTimestamp));
    const bool days = from == DataType::kTimestamp && to == DataType::kDate;
    if (from != to && from != DataType::kNull && !number && !days) {
      return ScalarValues(e, sel, to);
    }
    // The cast is not constant (Eval folds those), so neither is its
    // operand: a vector unless it is all NULL.
    HANA_ASSIGN_OR_RETURN(Vec v, Eval(*e.child0, sel));
    if (v.AllNull()) return Constant(Value::Null(), to);
    if (from == to) return v;
    if (number) return ConvertNumber(v, sel, to);
    // TIMESTAMP -> DATE: whole days.
    ColumnVectorPtr out = NewVector(to, n_);
    uint8_t* on = out->mutable_nulls();
    int64_t* oi = out->mutable_ints();
    const int64_t* i = v.col->ints_data();
    const uint8_t* vn = v.col->nulls_data();
    ForEach(sel, [&](size_t r) {
      on[r] = vn[r];
      oi[r] = i[r] / (86400LL * 1000000LL);
    });
    return Column(std::move(out));
  }

  /// ColumnVector::Append's coercion of `v` into `to`.
  Vec Coerce(const Vec& v, const Sel& sel, DataType to) const {
    if (v.type == to) return v;
    if (v.col == nullptr || v.type == DataType::kNull) {
      return Constant(CoerceValue(v.constant, to), to);
    }
    if (NumberLane(v.type) && NumberLane(to)) return ConvertNumber(v, sel, to);
    ColumnVectorPtr out = NewVector(to, n_);
    ForEach(sel, [&](size_t r) {
      Store(out.get(), r, CoerceValue(v.col->GetValue(r), to));
    });
    return Column(std::move(out));
  }

  /// The branch evaluation of CASE and COALESCE: plain, or coerced into
  /// the output type.
  Result<Vec> Branch(const BoundExpr& e, const Sel& sel, DataType type,
                     bool coerce) {
    return coerce ? EvalAs(e, sel, type) : Eval(e, sel);
  }

  /// CASE: each WHEN runs on the rows no earlier WHEN took, its THEN on
  /// the rows where it is TRUE, ELSE on the rows left over.
  Result<Vec> Case(const BoundExpr& e, const Sel& sel, DataType type,
                   bool coerce) {
    if (sel.count == 0) return Constant(Value::Null(), type);
    ColumnVectorPtr out = NewVector(type, n_);
    uint8_t* on = out->mutable_nulls();
    ForEach(sel, [&](size_t r) { on[r] = 1; });
    std::vector<uint32_t> undecided_rows, next_rows, then_rows;
    Sel undecided = sel;
    for (const auto& [when, then] : e.when_clauses) {
      if (undecided.count == 0) break;
      HANA_ASSIGN_OR_RETURN(Mask t, Truth(*when, undecided));
      Sel taken = Where(undecided, [&](size_t r) { return t[r] == kTrue; },
                        &then_rows);
      if (taken.count > 0) {
        HANA_ASSIGN_OR_RETURN(Vec v, Branch(*then, taken, type, coerce));
        HANA_RETURN_IF_ERROR(Scatter(v, taken, out.get()));
      }
      undecided = Where(undecided, [&](size_t r) { return t[r] != kTrue; },
                        &next_rows);
      if (undecided.rows == next_rows.data()) {
        std::swap(undecided_rows, next_rows);
      }
    }
    if (e.child1 != nullptr && undecided.count > 0) {
      HANA_ASSIGN_OR_RETURN(Vec v, Branch(*e.child1, undecided, type, coerce));
      HANA_RETURN_IF_ERROR(Scatter(v, undecided, out.get()));
    }
    return Column(std::move(out));
  }

  /// COALESCE: each argument runs only on the rows every earlier one
  /// left NULL.
  Result<Vec> Coalesce(const BoundExpr& e, const Sel& sel, DataType type,
                       bool coerce) {
    if (sel.count == 0) return Constant(Value::Null(), type);
    ColumnVectorPtr out = NewVector(type, n_);
    uint8_t* on = out->mutable_nulls();
    ForEach(sel, [&](size_t r) { on[r] = 1; });
    std::vector<uint32_t> pending_rows, next_rows, hit_rows;
    Sel pending = sel;
    for (const auto& arg : e.args) {
      if (pending.count == 0) break;
      HANA_ASSIGN_OR_RETURN(Vec v, Branch(*arg, pending, type, coerce));
      Sel hits =
          Where(pending, [&](size_t r) { return !v.IsNull(r); }, &hit_rows);
      if (hits.count > 0) HANA_RETURN_IF_ERROR(Scatter(v, hits, out.get()));
      pending =
          Where(pending, [&](size_t r) { return v.IsNull(r); }, &next_rows);
      if (pending.rows == next_rows.data()) std::swap(pending_rows, next_rows);
    }
    return Column(std::move(out));
  }

  const Chunk& chunk_;
  const size_t n_;
};

/// A materialized n-row vector of `type` holding `v`.
ColumnVectorPtr Materialize(const Vec& v, DataType type, size_t n) {
  if (v.col != nullptr) return v.col;
  auto out = std::make_shared<ColumnVector>(type);
  out->Reserve(n);
  for (size_t r = 0; r < n; ++r) out->Append(v.constant);
  return out;
}

}  // namespace

ScalarRowScope::ScalarRowScope(uint64_t* sink) : previous_(t_scalar_rows) {
  t_scalar_rows = sink;
}

ScalarRowScope::~ScalarRowScope() { t_scalar_rows = previous_; }

Status KernelSelectRows(const BoundExpr& predicate, const Chunk& in,
                        std::vector<uint8_t>* mask, bool keep_unknown) {
  const size_t n = in.num_rows();
  mask->resize(n);
  VectorEvaluator ev(in);
  HANA_ASSIGN_OR_RETURN(Mask t, ev.Truth(predicate, ev.All()));
  const uint8_t* v = t.data();
  uint8_t* m = mask->data();
  const uint8_t least = keep_unknown ? kUnknown : kTrue;
  for (size_t r = 0; r < n; ++r) m[r] = v[r] >= least;
  return Status::OK();
}

Result<bool> SelectRow(const BoundExpr& predicate, const Chunk& in,
                       size_t row, bool keep_unknown) {
  const uint32_t one = static_cast<uint32_t>(row);
  bool keep = false;
  HANA_RETURN_IF_ERROR(
      EvalRows(predicate, in, Sel{&one, 1}, [&](size_t, Value v) {
        keep = TruthOf(v) >= (keep_unknown ? kUnknown : kTrue);
        return Status::OK();
      }));
  return keep;
}

Status SelectRows(const BoundExpr& predicate, const Chunk& in,
                  std::vector<uint8_t>* mask) {
  if (KernelSelectRows(predicate, in, mask).ok()) return Status::OK();
  // Replay: the scalar evaluator, row by row, names the first failing
  // row's error (a kernel may have failed on a row the scalar evaluator
  // never reaches, in which case the replay succeeds).
  size_t done = 0;
  Status status = EvalRows(predicate, in, Sel{nullptr, in.num_rows()},
                           [&](size_t r, Value v) {
                             (*mask)[r] = TruthOf(v) == kTrue;
                             done = r + 1;
                             return Status::OK();
                           });
  if (!status.ok()) mask->resize(done);
  return status;
}

Result<ColumnVectorPtr> EvalExprColumnAs(const BoundExpr& expr,
                                         const Chunk& chunk, DataType type) {
  const size_t n = chunk.num_rows();
  VectorEvaluator ev(chunk);
  Result<Vec> v = ev.EvalAs(expr, ev.All(), type);
  if (v.ok()) return Materialize(*v, type, n);
  // Replay for the scalar Status (see SelectRows).
  auto out = std::make_shared<ColumnVector>(type);
  out->Reserve(n);
  HANA_RETURN_IF_ERROR(
      EvalRows(expr, chunk, Sel{nullptr, n}, [&](size_t, Value value) {
        out->Append(value);
        return Status::OK();
      }));
  return out;
}

Result<ColumnVectorPtr> EvalExprColumn(const BoundExpr& expr,
                                       const Chunk& chunk) {
  if (expr.kind == BoundKind::kColumn &&
      expr.column_index < chunk.columns.size()) {
    return chunk.columns[expr.column_index];  // Zero-copy.
  }
  return EvalExprColumnAs(expr, chunk, expr.type);
}

}  // namespace hana::exec
