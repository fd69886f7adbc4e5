#include "optimizer/plan_to_sql.h"

#include "common/strings.h"
#include "sql/ast.h"

namespace hana::optimizer {

namespace {

using plan::BoundExpr;
using plan::BoundKind;
using plan::JoinKind;
using plan::LogicalKind;
using plan::LogicalOp;

std::string BaseName(const std::string& name) {
  auto pos = name.rfind('.');
  return pos == std::string::npos ? name : name.substr(pos + 1);
}

std::string SqlLiteral(const Value& v) {
  switch (v.type()) {
    case DataType::kString: {
      std::string out = "'";
      for (char c : v.string_value()) {
        if (c == '\'') out += '\'';
        out += c;
      }
      return out + "'";
    }
    case DataType::kDate:
      return "DATE '" + v.ToString() + "'";
    case DataType::kBool:
      return v.bool_value() ? "TRUE" : "FALSE";
    case DataType::kNull:
      return "NULL";
    default:
      return v.ToString();
  }
}

/// Renders a bound expression with input column i referenced as
/// `names[i]`.
Result<std::string> RenderExpr(const BoundExpr& e,
                               const std::vector<std::string>& names) {
  switch (e.kind) {
    case BoundKind::kLiteral:
      return SqlLiteral(e.literal);
    case BoundKind::kColumn:
      if (e.column_index >= names.size()) {
        return Status::Internal("column index out of range in remote SQL");
      }
      return names[e.column_index];
    case BoundKind::kUnary: {
      HANA_ASSIGN_OR_RETURN(std::string operand, RenderExpr(*e.child0, names));
      return e.unary_op == static_cast<int>(sql::UnaryOp::kNot)
                 ? "(NOT " + operand + ")"
                 : "(- " + operand + ")";
    }
    case BoundKind::kBinary: {
      HANA_ASSIGN_OR_RETURN(std::string lhs, RenderExpr(*e.child0, names));
      HANA_ASSIGN_OR_RETURN(std::string rhs, RenderExpr(*e.child1, names));
      return "(" + lhs + " " +
             sql::BinaryOpName(static_cast<sql::BinaryOp>(e.binary_op)) +
             " " + rhs + ")";
    }
    case BoundKind::kFunction: {
      std::vector<std::string> args;
      for (const auto& a : e.args) {
        HANA_ASSIGN_OR_RETURN(std::string arg, RenderExpr(*a, names));
        args.push_back(std::move(arg));
      }
      return e.function_name + "(" + Join(args, ", ") + ")";
    }
    case BoundKind::kAggregate: {
      std::string arg = "*";  // COUNT(*) has no argument.
      if (e.child0 != nullptr) {
        HANA_ASSIGN_OR_RETURN(arg, RenderExpr(*e.child0, names));
        if (e.distinct) arg = "DISTINCT " + arg;
      }
      return std::string(plan::AggName(e.agg_kind)) + "(" + arg + ")";
    }
    case BoundKind::kCase: {
      std::string out = "CASE";
      for (const auto& [when, then] : e.when_clauses) {
        HANA_ASSIGN_OR_RETURN(std::string w, RenderExpr(*when, names));
        HANA_ASSIGN_OR_RETURN(std::string t, RenderExpr(*then, names));
        out += " WHEN " + w + " THEN " + t;
      }
      if (e.child1 != nullptr) {
        HANA_ASSIGN_OR_RETURN(std::string els, RenderExpr(*e.child1, names));
        out += " ELSE " + els;
      }
      return out + " END";
    }
    case BoundKind::kCast: {
      HANA_ASSIGN_OR_RETURN(std::string operand, RenderExpr(*e.child0, names));
      return "CAST(" + operand + " AS " + DataTypeName(e.type) + ")";
    }
    case BoundKind::kInList: {
      HANA_ASSIGN_OR_RETURN(std::string lhs, RenderExpr(*e.child0, names));
      std::vector<std::string> items;
      for (const auto& item : e.in_list) {
        HANA_ASSIGN_OR_RETURN(std::string s, RenderExpr(*item, names));
        items.push_back(std::move(s));
      }
      return lhs + (e.negated ? " NOT IN (" : " IN (") + Join(items, ", ") +
             ")";
    }
    case BoundKind::kIsNull: {
      HANA_ASSIGN_OR_RETURN(std::string operand, RenderExpr(*e.child0, names));
      return operand + (e.negated ? " IS NOT NULL" : " IS NULL");
    }
  }
  return Status::Internal("unknown bound expression in remote SQL");
}

struct Rendered {
  std::string select;  // A complete SELECT statement.
  size_t arity = 0;
};

/// Positional aliases for the columns of a derived table.
std::vector<std::string> DerivedNames(const std::string& alias,
                                      size_t arity) {
  std::vector<std::string> names;
  names.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    names.push_back(alias + ".c" + std::to_string(i));
  }
  return names;
}

Result<Rendered> Render(const LogicalOp& op, int* next_alias) {
  switch (op.kind) {
    case LogicalKind::kScan: {
      std::string alias = "t" + std::to_string((*next_alias)++);
      std::string obj = op.table.remote_object.empty()
                            ? op.table.name
                            : op.table.remote_object;
      std::vector<std::string> items;
      for (size_t i = 0; i < op.schema->num_columns(); ++i) {
        items.push_back(alias + "." + BaseName(op.schema->column(i).name) +
                        " AS c" + std::to_string(i));
      }
      Rendered out;
      out.select =
          "SELECT " + Join(items, ", ") + " FROM " + obj + " " + alias;
      out.arity = op.schema->num_columns();
      return out;
    }
    case LogicalKind::kFilter: {
      HANA_ASSIGN_OR_RETURN(Rendered child, Render(*op.children[0], next_alias));
      std::string alias = "d" + std::to_string((*next_alias)++);
      std::vector<std::string> names = DerivedNames(alias, child.arity);
      HANA_ASSIGN_OR_RETURN(std::string pred,
                            RenderExpr(*op.predicate, names));
      std::vector<std::string> items;
      for (size_t i = 0; i < child.arity; ++i) {
        items.push_back(names[i] + " AS c" + std::to_string(i));
      }
      Rendered out;
      out.select = "SELECT " + Join(items, ", ") + " FROM (" + child.select +
                   ") " + alias + " WHERE " + pred;
      out.arity = child.arity;
      return out;
    }
    case LogicalKind::kProject: {
      if (op.children.empty()) {
        return Status::Unimplemented("cannot ship table-less projection");
      }
      HANA_ASSIGN_OR_RETURN(Rendered child, Render(*op.children[0], next_alias));
      std::string alias = "d" + std::to_string((*next_alias)++);
      std::vector<std::string> names = DerivedNames(alias, child.arity);
      std::vector<std::string> items;
      for (size_t i = 0; i < op.exprs.size(); ++i) {
        HANA_ASSIGN_OR_RETURN(std::string e, RenderExpr(*op.exprs[i], names));
        items.push_back(e + " AS c" + std::to_string(i));
      }
      Rendered out;
      out.select = "SELECT " + Join(items, ", ") + " FROM (" + child.select +
                   ") " + alias;
      out.arity = op.exprs.size();
      return out;
    }
    case LogicalKind::kJoin: {
      HANA_ASSIGN_OR_RETURN(Rendered left, Render(*op.children[0], next_alias));
      HANA_ASSIGN_OR_RETURN(Rendered right, Render(*op.children[1], next_alias));
      std::string lalias = "l" + std::to_string((*next_alias)++);
      std::string ralias = "r" + std::to_string((*next_alias)++);
      std::vector<std::string> names = DerivedNames(lalias, left.arity);
      std::vector<std::string> rnames = DerivedNames(ralias, right.arity);
      names.insert(names.end(), rnames.begin(), rnames.end());

      if (op.join_kind == JoinKind::kSemi || op.join_kind == JoinKind::kAnti) {
        HANA_ASSIGN_OR_RETURN(std::string cond,
                              RenderExpr(*op.condition, names));
        std::vector<std::string> items;
        for (size_t i = 0; i < left.arity; ++i) {
          items.push_back(lalias + ".c" + std::to_string(i) + " AS c" +
                          std::to_string(i));
        }
        Rendered out;
        out.select =
            "SELECT " + Join(items, ", ") + " FROM (" + left.select + ") " +
            lalias + " WHERE " +
            (op.join_kind == JoinKind::kAnti ? "NOT EXISTS (" : "EXISTS (") +
            "SELECT 1 AS one FROM (" + right.select + ") " + ralias +
            " WHERE " + cond + ")";
        out.arity = left.arity;
        return out;
      }

      std::vector<std::string> items;
      for (size_t i = 0; i < left.arity; ++i) {
        items.push_back(lalias + ".c" + std::to_string(i) + " AS c" +
                        std::to_string(i));
      }
      for (size_t i = 0; i < right.arity; ++i) {
        items.push_back(ralias + ".c" + std::to_string(i) + " AS c" +
                        std::to_string(left.arity + i));
      }
      std::string kw;
      switch (op.join_kind) {
        case JoinKind::kInner:
          kw = " JOIN ";
          break;
        case JoinKind::kLeft:
          kw = " LEFT JOIN ";
          break;
        case JoinKind::kCross:
          kw = op.condition != nullptr ? " JOIN " : " CROSS JOIN ";
          break;
        default:
          return Status::Internal("unexpected join kind");
      }
      Rendered out;
      out.select = "SELECT " + Join(items, ", ") + " FROM (" + left.select +
                   ") " + lalias + kw + "(" + right.select + ") " + ralias;
      if (op.condition != nullptr) {
        HANA_ASSIGN_OR_RETURN(std::string cond,
                              RenderExpr(*op.condition, names));
        out.select += " ON " + cond;
      }
      out.arity = left.arity + right.arity;
      return out;
    }
    case LogicalKind::kAggregate: {
      HANA_ASSIGN_OR_RETURN(Rendered child, Render(*op.children[0], next_alias));
      std::string alias = "a" + std::to_string((*next_alias)++);
      std::vector<std::string> names = DerivedNames(alias, child.arity);
      std::vector<std::string> items;
      std::vector<std::string> groups;
      size_t col = 0;
      for (const auto& g : op.group_by) {
        HANA_ASSIGN_OR_RETURN(std::string e, RenderExpr(*g, names));
        items.push_back(e + " AS c" + std::to_string(col++));
        groups.push_back(e);
      }
      for (const auto& a : op.aggregates) {
        HANA_ASSIGN_OR_RETURN(std::string e, RenderExpr(*a, names));
        items.push_back(e + " AS c" + std::to_string(col++));
      }
      Rendered out;
      out.select = "SELECT " + Join(items, ", ") + " FROM (" + child.select +
                   ") " + alias;
      if (!groups.empty()) out.select += " GROUP BY " + Join(groups, ", ");
      out.arity = col;
      return out;
    }
    case LogicalKind::kLimit: {
      HANA_ASSIGN_OR_RETURN(Rendered child, Render(*op.children[0], next_alias));
      std::string alias = "d" + std::to_string((*next_alias)++);
      std::vector<std::string> items;
      for (size_t i = 0; i < child.arity; ++i) {
        items.push_back(alias + ".c" + std::to_string(i) + " AS c" +
                        std::to_string(i));
      }
      Rendered out;
      out.select = "SELECT " + Join(items, ", ") + " FROM (" + child.select +
                   ") " + alias + " LIMIT " + std::to_string(op.limit);
      out.arity = child.arity;
      return out;
    }
    default:
      return Status::Unimplemented("operator cannot be shipped as SQL");
  }
}

}  // namespace

Result<std::string> PlanToSql(const plan::LogicalOp& op,
                              const PlanToSqlOptions& options) {
  int next_alias = 0;
  HANA_ASSIGN_OR_RETURN(Rendered rendered, Render(op, &next_alias));
  if (!options.add_pushdown_marker) return rendered.select;
  std::string alias = "ps";
  std::vector<std::string> items;
  for (size_t i = 0; i < rendered.arity; ++i) {
    items.push_back(alias + ".c" + std::to_string(i) + " AS c" +
                    std::to_string(i));
  }
  return "SELECT " + Join(items, ", ") + " FROM (" + rendered.select + ") " +
         alias + " WHERE /*PUSHDOWN*/";
}

}  // namespace hana::optimizer
