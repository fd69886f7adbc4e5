// Independent references for column pruning: copies of a table cut down
// to the columns a query names. A pruned plan over the full table must
// return exactly what the unpruned plan over the narrow copy returns.

#ifndef HANA_TESTS_NARROW_COPY_H_
#define HANA_TESTS_NARROW_COPY_H_

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "platform/platform.h"

namespace hana::testutil {

/// True when `sql` mentions `column` as a whole identifier (any case).
inline bool NamesColumn(const std::string& sql, const std::string& column) {
  std::string text = ToLower(sql), name = ToLower(column);
  auto ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  for (size_t pos = text.find(name); pos != std::string::npos;
       pos = text.find(name, pos + 1)) {
    size_t end = pos + name.size();
    if ((pos == 0 || !ident(text[pos - 1])) &&
        (end == text.size() || !ident(text[end]))) {
      return true;
    }
  }
  return false;
}

/// Creates `create.table` in `db` with only the columns `sql` names (a
/// hybrid table also keeps its partition column) and loads the matching
/// slice of `rows`. A table the query names no column of is skipped.
inline Status LoadNarrowCopy(platform::Platform* db,
                             sql::CreateTableStmt create,
                             const std::vector<std::vector<Value>>& rows,
                             const std::string& sql) {
  std::vector<size_t> keep;
  for (size_t c = 0; c < create.columns.size(); ++c) {
    if (NamesColumn(sql, create.columns[c].name) ||
        EqualsIgnoreCase(create.columns[c].name, create.partition_column)) {
      keep.push_back(c);
    }
  }
  if (keep.empty()) return Status::OK();
  std::vector<ColumnDef> columns;
  for (size_t c : keep) columns.push_back(create.columns[c]);
  create.columns = std::move(columns);
  std::vector<std::vector<Value>> narrow;
  narrow.reserve(rows.size());
  for (const std::vector<Value>& row : rows) {
    std::vector<Value> cut;
    for (size_t c : keep) cut.push_back(row[c]);
    narrow.push_back(std::move(cut));
  }
  HANA_RETURN_IF_ERROR(db->catalog().CreateTable(create));
  return db->catalog().Insert(create.table, narrow);
}

/// Every row rendered in result order, doubles to full precision, so
/// two results compare equal only when they are bit-identical.
inline std::vector<std::string> ExactRows(const storage::Table& table) {
  std::vector<std::string> out;
  for (const std::vector<Value>& row : table.rows()) {
    std::string text;
    for (const Value& v : row) {
      if (v.type() == DataType::kDouble) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v.double_value());
        text += buf;
      } else {
        text += v.ToString();
      }
      text += '|';
    }
    out.push_back(std::move(text));
  }
  return out;
}

}  // namespace hana::testutil

#endif  // HANA_TESTS_NARROW_COPY_H_
