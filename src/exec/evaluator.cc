#include "exec/evaluator.h"

#include <cmath>
#include <limits>

#include "common/strings.h"
#include "sql/ast.h"

namespace hana::exec {

namespace {

using plan::BoundExpr;
using plan::BoundKind;
using sql::BinaryOp;
using sql::UnaryOp;

/// Column accessor abstraction so chunk-based and row-based evaluation
/// share one implementation.
struct RowView {
  const storage::Chunk* chunk = nullptr;
  size_t row = 0;
  const std::vector<Value>* boxed = nullptr;

  Value Get(size_t index) const {
    if (boxed != nullptr) return (*boxed)[index];
    return chunk->columns[index]->GetValue(row);
  }
};

Result<Value> Eval(const BoundExpr& expr, const RowView& view);

Result<Value> EvalBinary(const BoundExpr& expr, const RowView& view) {
  BinaryOp op = static_cast<BinaryOp>(expr.binary_op);

  // AND/OR need Kleene short-circuit semantics.
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    HANA_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.child0, view));
    if (op == BinaryOp::kAnd && !lhs.is_null() && !IsTruthy(lhs)) {
      return Value::Bool(false);
    }
    if (op == BinaryOp::kOr && !lhs.is_null() && IsTruthy(lhs)) {
      return Value::Bool(true);
    }
    HANA_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.child1, view));
    if (op == BinaryOp::kAnd) {
      if (!rhs.is_null() && !IsTruthy(rhs)) return Value::Bool(false);
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return Value::Bool(true);
    }
    if (!rhs.is_null() && IsTruthy(rhs)) return Value::Bool(true);
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value::Bool(false);
  }

  HANA_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.child0, view));
  HANA_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.child1, view));
  if (lhs.is_null() || rhs.is_null()) return Value::Null();

  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      const DataType lane = *ResultType(expr, lhs.type(), rhs.type());
      if (lane == DataType::kDate) {
        int64_t days = lhs.type() == DataType::kDate ? lhs.int_value()
                                                     : rhs.int_value();
        int64_t delta = lhs.type() == DataType::kDate ? rhs.AsInt()
                                                      : lhs.AsInt();
        int64_t out = 0;
        if (op == BinaryOp::kSub ? __builtin_sub_overflow(days, delta, &out)
                                 : __builtin_add_overflow(days, delta, &out)) {
          return NumericOverflow();
        }
        return Value::Date(out);
      }
      if (lane == DataType::kInt64) {
        int64_t a = lhs.AsInt(), b = rhs.AsInt(), out = 0;
        bool overflow = op == BinaryOp::kAdd
                            ? __builtin_add_overflow(a, b, &out)
                            : (op == BinaryOp::kSub
                                   ? __builtin_sub_overflow(a, b, &out)
                                   : __builtin_mul_overflow(a, b, &out));
        if (overflow) return NumericOverflow();
        return Value::Int(out);
      }
      double a = lhs.AsDouble(), b = rhs.AsDouble();
      switch (op) {
        case BinaryOp::kAdd:
          return Value::Double(a + b);
        case BinaryOp::kSub:
          return Value::Double(a - b);
        default:
          return Value::Double(a * b);
      }
    }
    case BinaryOp::kDiv: {
      double b = rhs.AsDouble();
      if (b == 0.0) return Value::Null();
      return Value::Double(lhs.AsDouble() / b);
    }
    case BinaryOp::kMod: {
      int64_t b = rhs.AsInt();
      if (b == 0) return Value::Null();
      return Value::Int(CheckedMod(lhs.AsInt(), b));
    }
    case BinaryOp::kEq:
      return Value::Bool(lhs.Compare(rhs) == 0);
    case BinaryOp::kNe:
      return Value::Bool(lhs.Compare(rhs) != 0);
    case BinaryOp::kLt:
      return Value::Bool(lhs.Compare(rhs) < 0);
    case BinaryOp::kLe:
      return Value::Bool(lhs.Compare(rhs) <= 0);
    case BinaryOp::kGt:
      return Value::Bool(lhs.Compare(rhs) > 0);
    case BinaryOp::kGe:
      return Value::Bool(lhs.Compare(rhs) >= 0);
    case BinaryOp::kLike:
      return Value::Bool(LikeMatch(lhs.ToString(), rhs.ToString()));
    case BinaryOp::kConcat:
      return Value::String(lhs.ToString() + rhs.ToString());
    default:
      return Status::Internal("unexpected binary op");
  }
}

Result<Value> EvalFunction(const BoundExpr& expr, const RowView& view) {
  std::vector<Value> args;
  args.reserve(expr.args.size());
  const std::string& name = expr.function_name;
  // COALESCE evaluates lazily.
  if (name == "COALESCE" || name == "IFNULL") {
    for (const auto& a : expr.args) {
      HANA_ASSIGN_OR_RETURN(Value v, Eval(*a, view));
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  for (const auto& a : expr.args) {
    HANA_ASSIGN_OR_RETURN(Value v, Eval(*a, view));
    args.push_back(std::move(v));
  }
  for (const Value& v : args) {
    if (v.is_null()) return Value::Null();
  }
  if (name == "UPPER") return Value::String(ToUpper(args[0].ToString()));
  if (name == "LOWER") return Value::String(ToLower(args[0].ToString()));
  if (name == "TRIM") return Value::String(Trim(args[0].ToString()));
  if (name == "LENGTH") {
    return Value::Int(static_cast<int64_t>(args[0].ToString().size()));
  }
  if (name == "SUBSTR" || name == "SUBSTRING") {
    std::string s = args[0].ToString();
    int64_t start = args[1].AsInt();
    if (start < 1) start = 1;
    size_t begin = static_cast<size_t>(start - 1);
    if (begin >= s.size()) return Value::String("");
    size_t len = args.size() > 2
                     ? static_cast<size_t>(std::max<int64_t>(0, args[2].AsInt()))
                     : std::string::npos;
    return Value::String(s.substr(begin, len));
  }
  if (name == "CONCAT") {
    return Value::String(args[0].ToString() + args[1].ToString());
  }
  if (name == "ABS") {
    if (ResultType(expr, args[0].type(), std::nullopt) == DataType::kDouble) {
      return Value::Double(std::fabs(args[0].double_value()));
    }
    int64_t v = args[0].AsInt();
    if (v == std::numeric_limits<int64_t>::min()) return NumericOverflow();
    return Value::Int(v < 0 ? -v : v);
  }
  if (name == "ROUND") {
    double scale = args.size() > 1 ? std::pow(10.0, args[1].AsDouble()) : 1.0;
    return Value::Double(std::round(args[0].AsDouble() * scale) / scale);
  }
  if (name == "FLOOR" || name == "CEIL" || name == "CEILING") {
    double v = name == "FLOOR" ? std::floor(args[0].AsDouble())
                               : std::ceil(args[0].AsDouble());
    // 2^63 bounds the int64 range; NaN fails both comparisons.
    if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0)) {
      return NumericOverflow();
    }
    return Value::Int(static_cast<int64_t>(v));
  }
  if (name == "MOD") {
    int64_t b = args[1].AsInt();
    if (b == 0) return Value::Null();
    return Value::Int(CheckedMod(args[0].AsInt(), b));
  }
  if (name == "YEAR" || name == "MONTH" || name == "DAYOFMONTH") {
    int64_t days = args[0].type() == DataType::kDate
                       ? args[0].int_value()
                       : args[0].AsInt();
    std::string iso = FormatDate(days);
    int y = 0, m = 0, d = 0;
    std::sscanf(iso.c_str(), "%d-%d-%d", &y, &m, &d);
    if (name == "YEAR") return Value::Int(y);
    if (name == "MONTH") return Value::Int(m);
    return Value::Int(d);
  }
  return Status::Internal("unknown scalar function at runtime: " + name);
}

Result<Value> Eval(const BoundExpr& expr, const RowView& view) {
  switch (expr.kind) {
    case BoundKind::kLiteral:
      return expr.literal;
    case BoundKind::kColumn:
      return view.Get(expr.column_index);
    case BoundKind::kUnary: {
      HANA_ASSIGN_OR_RETURN(Value v, Eval(*expr.child0, view));
      if (v.is_null()) return Value::Null();
      if (expr.unary_op == static_cast<int>(UnaryOp::kNot)) {
        return Value::Bool(!IsTruthy(v));
      }
      if (ResultType(expr, v.type(), std::nullopt) == DataType::kDouble) {
        return Value::Double(-v.double_value());
      }
      int64_t out = 0;
      if (__builtin_sub_overflow(int64_t{0}, v.AsInt(), &out)) {
        return NumericOverflow();
      }
      return Value::Int(out);
    }
    case BoundKind::kBinary:
      return EvalBinary(expr, view);
    case BoundKind::kFunction:
      return EvalFunction(expr, view);
    case BoundKind::kAggregate:
      return Status::Internal("aggregate evaluated outside Aggregate op");
    case BoundKind::kCase: {
      for (const auto& [when, then] : expr.when_clauses) {
        HANA_ASSIGN_OR_RETURN(Value cond, Eval(*when, view));
        if (!cond.is_null() && IsTruthy(cond)) return Eval(*then, view);
      }
      if (expr.child1) return Eval(*expr.child1, view);
      return Value::Null();
    }
    case BoundKind::kCast: {
      HANA_ASSIGN_OR_RETURN(Value v, Eval(*expr.child0, view));
      return v.CastTo(expr.type);
    }
    case BoundKind::kInList: {
      HANA_ASSIGN_OR_RETURN(Value v, Eval(*expr.child0, view));
      if (v.is_null()) return Value::Null();
      bool saw_null = false;
      for (const auto& item : expr.in_list) {
        HANA_ASSIGN_OR_RETURN(Value candidate, Eval(*item, view));
        if (candidate.is_null()) {
          saw_null = true;
          continue;
        }
        if (v.Compare(candidate) == 0) return Value::Bool(!expr.negated);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(expr.negated);
    }
    case BoundKind::kIsNull: {
      HANA_ASSIGN_OR_RETURN(Value v, Eval(*expr.child0, view));
      return Value::Bool(expr.negated ? !v.is_null() : v.is_null());
    }
  }
  return Status::Internal("unknown bound expression kind");
}

}  // namespace

std::optional<DataType> ResultType(const BoundExpr& expr,
                                   std::optional<DataType> a,
                                   std::optional<DataType> b) {
  // Unary minus and ABS keep a double operand double; any other operand
  // reads as int64.
  auto signed_type = [&]() -> std::optional<DataType> {
    if (!a) return std::nullopt;
    return *a == DataType::kDouble ? DataType::kDouble : DataType::kInt64;
  };
  switch (expr.kind) {
    case BoundKind::kUnary:
      if (expr.unary_op == static_cast<int>(UnaryOp::kNot)) {
        return DataType::kBool;
      }
      return signed_type();
    case BoundKind::kBinary:
      switch (static_cast<BinaryOp>(expr.binary_op)) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
          // DATE +/- int shifts days; int64 stays exact unless an
          // operand is a double.
          if (expr.type == DataType::kDate) return DataType::kDate;
          if (!a || !b) return std::nullopt;
          return expr.type == DataType::kInt64 && *a != DataType::kDouble &&
                         *b != DataType::kDouble
                     ? DataType::kInt64
                     : DataType::kDouble;
        case BinaryOp::kDiv:
          return DataType::kDouble;
        case BinaryOp::kMod:
          return DataType::kInt64;
        case BinaryOp::kConcat:
          return DataType::kString;
        default:  // AND, OR, LIKE and the comparisons.
          return DataType::kBool;
      }
    case BoundKind::kFunction: {
      const std::string& name = expr.function_name;
      if (name == "UPPER" || name == "LOWER" || name == "TRIM" ||
          name == "SUBSTR" || name == "SUBSTRING" || name == "CONCAT") {
        return DataType::kString;
      }
      if (name == "LENGTH" || name == "FLOOR" || name == "CEIL" ||
          name == "CEILING" || name == "MOD" || name == "YEAR" ||
          name == "MONTH" || name == "DAYOFMONTH") {
        return DataType::kInt64;
      }
      if (name == "ROUND") return DataType::kDouble;
      if (name == "ABS") return signed_type();
      return std::nullopt;
    }
    case BoundKind::kCast:
      return expr.type;
    case BoundKind::kInList:
    case BoundKind::kIsNull:
      return DataType::kBool;
    default:
      return std::nullopt;
  }
}

Status NumericOverflow() { return Status::OutOfRange("numeric overflow"); }

bool IsTruthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.type() == DataType::kBool) return v.bool_value();
  return v.AsDouble() != 0.0;
}

Result<Value> EvalExpr(const plan::BoundExpr& expr,
                       const storage::Chunk& chunk, size_t row) {
  RowView view;
  view.chunk = &chunk;
  view.row = row;
  return Eval(expr, view);
}

Result<Value> EvalExprRow(const plan::BoundExpr& expr,
                          const std::vector<Value>& row) {
  RowView view;
  view.boxed = &row;
  return Eval(expr, view);
}

}  // namespace hana::exec
