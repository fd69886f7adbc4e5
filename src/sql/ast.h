#ifndef HANA_SQL_AST_H_
#define HANA_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/value.h"

namespace hana::sql {

struct SelectStmt;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kStar,      // `*` or `t.*` in select lists / COUNT(*)
  kUnary,
  kBinary,
  kFunction,  // Scalar or aggregate function call
  kCase,
  kCast,
  kIn,        // expr [NOT] IN (list) | (subquery)
  kExists,    // [NOT] EXISTS (subquery)
  kSubquery,  // Scalar subquery
  kIsNull,    // expr IS [NOT] NULL
};

enum class UnaryOp { kNeg, kNot };

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kLike,
  kConcat,
};

/// SQL token for a binary operator ("=", "<>", "AND", ...).
const char* BinaryOpName(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// A single heterogeneous expression node. A tagged struct (rather than a
/// class hierarchy) keeps deep-copy, printing and folding in one place.
struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;

  // kColumnRef: optional qualifier + column name. kStar: optional qualifier.
  std::string table;
  std::string column;

  // kUnary / kBinary / kCast operands; kIsNull operand in child0.
  UnaryOp unary_op = UnaryOp::kNeg;
  BinaryOp binary_op = BinaryOp::kAdd;
  ExprPtr child0;
  ExprPtr child1;

  // kFunction
  std::string function_name;  // Uppercased.
  std::vector<ExprPtr> args;
  bool distinct = false;  // COUNT(DISTINCT x)

  // kCase: operand (optional child0), WHEN/THEN pairs, ELSE (child1).
  std::vector<std::pair<ExprPtr, ExprPtr>> when_clauses;

  // kCast
  DataType cast_type = DataType::kNull;

  // kIn
  std::vector<ExprPtr> in_list;
  bool negated = false;  // NOT IN / NOT EXISTS / IS NOT NULL

  // kIn (subquery form), kExists, kSubquery
  std::shared_ptr<SelectStmt> subquery;

  static ExprPtr Literal(Value v);
  static ExprPtr Column(std::string table, std::string column);
  static ExprPtr Star(std::string table = "");
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Function(std::string name, std::vector<ExprPtr> args,
                          bool distinct = false);
  static ExprPtr Cast(ExprPtr operand, DataType type);
  static ExprPtr IsNull(ExprPtr operand, bool negated);

  /// Deep copy.
  ExprPtr Clone() const;

  /// Unparses back to SQL text (used for remote query shipping and for
  /// the remote-materialization cache key).
  std::string ToSql() const;
};

// ---------------------------------------------------------------------------
// Table references (FROM clause)
// ---------------------------------------------------------------------------

enum class JoinType { kInner, kLeft, kCross };

enum class TableRefKind { kBaseTable, kSubquery, kJoin, kTableFunction };

struct TableRef;
using TableRefPtr = std::unique_ptr<TableRef>;

struct TableRef {
  TableRefKind kind;

  // kBaseTable
  std::string name;
  std::string alias;

  // kSubquery
  std::shared_ptr<SelectStmt> subquery;

  // kJoin
  JoinType join_type = JoinType::kInner;
  TableRefPtr left;
  TableRefPtr right;
  ExprPtr condition;  // May be null for CROSS.

  // kTableFunction
  std::vector<ExprPtr> args;

  TableRefPtr Clone() const;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  kSelect,
  kInsert,
  kCreateTable,
  kDropTable,
  kCreateRemoteSource,
  kCreateVirtualTable,
  kCreateVirtualFunction,
  kExplain,
  kMergeDelta,
  kDelete,
  kUpdate,
};

struct Stmt {
  virtual ~Stmt() = default;
  virtual StmtKind kind() const = 0;
};
using StmtPtr = std::unique_ptr<Stmt>;

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // Empty if none.
};

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

struct SelectStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kSelect; }

  bool distinct = false;
  std::vector<SelectItem> items;
  TableRefPtr from;  // Null for table-less SELECT (e.g. SELECT 1+1).
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;
  /// Optimizer hints from WITH HINT(...): e.g. USE_REMOTE_CACHE.
  std::vector<std::string> hints;

  std::shared_ptr<SelectStmt> CloneShared() const;
};

struct InsertStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kInsert; }

  std::string table;
  std::vector<std::string> columns;  // Empty = positional.
  std::vector<std::vector<ExprPtr>> values_rows;
  std::shared_ptr<SelectStmt> select;  // INSERT ... SELECT
};

/// Storage option in CREATE TABLE (Section 3.1).
enum class StorageKind {
  kColumn,    // Default: in-memory columnar.
  kRow,       // Accepted for ROW TABLE; stored as a column table.
  kExtended,  // USING EXTENDED STORAGE: entire table on IQ-style disk store.
  kHybrid,    // USING HYBRID EXTENDED STORAGE with hot/cold partitions.
};

struct PartitionDef {
  /// Rows with partition-column value < `upper_bound` (the final
  /// partition has is_others = true and catches the remainder).
  Value upper_bound;
  bool is_others = false;
  bool cold = false;  // Resides in extended storage.
};

struct CreateTableStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kCreateTable; }

  std::string table;
  std::vector<ColumnDef> columns;
  StorageKind storage = StorageKind::kColumn;
  bool flexible = false;  // CREATE FLEXIBLE TABLE: schema grows on insert.

  std::string partition_column;  // Empty when unpartitioned.
  std::vector<PartitionDef> partitions;
  std::string aging_column;  // Aging flag column (hybrid tables).
};

struct DropTableStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kDropTable; }
  std::string table;
  bool if_exists = false;
};

struct CreateRemoteSourceStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kCreateRemoteSource; }
  std::string name;
  std::string adapter;        // e.g. "hiveodbc", "hadoop", "iq".
  std::string configuration;  // e.g. "DSN=hive1" or "webhdfs=...".
  std::string user;
  std::string password;
};

struct CreateVirtualTableStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kCreateVirtualTable; }
  std::string name;
  std::string source;                    // Remote source name.
  std::vector<std::string> remote_path;  // e.g. {"dflo","dflo","product"}.
};

struct CreateVirtualFunctionStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kCreateVirtualFunction; }
  std::string name;
  std::vector<ColumnDef> returns;
  std::string configuration;  // Driver class, job files, reducer count.
  std::string source;         // Remote source name.
};

struct ExplainStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kExplain; }
  std::shared_ptr<SelectStmt> select;
};

struct MergeDeltaStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kMergeDelta; }
  std::string table;
};

struct DeleteStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kDelete; }
  std::string table;
  ExprPtr where;  // Null = all rows.
};

struct UpdateStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kUpdate; }
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
};

/// Unparses a full SELECT back to SQL (canonical form used for remote
/// query shipping and cache keys).
std::string SelectToSql(const SelectStmt& stmt);

}  // namespace hana::sql

#endif  // HANA_SQL_AST_H_
